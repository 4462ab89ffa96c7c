"""Experiment kinds not exercised by the acceptance module, plus serialization."""

import dataclasses
import hashlib
import importlib
import json
import pkgutil
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import rmtgaps
from rmtgaps import cli, ensemble, experiments, gapstats, reports, verify
from rmtgaps.experiments import DEFAULT_THRESHOLDS, ExperimentConfig, run_experiment


def test_factorial_moments_small_run():
    cfg = ExperimentConfig(
        kind="factorial-moments",
        n=300,
        trials=600,
        base_seed=5,
        interval=(0.0, 2.0),
        k_max=2,
        workers=2,
        reproducible=True,
    )
    report = run_experiment(cfg, write_files=False)
    m1 = report.results["moment_1"]
    assert abs(m1["estimate"] - 0.5) < 6 * max(m1["se"], 1e-9)
    assert report.results["moment_2"]["expected"] == pytest.approx(0.25)


def test_conjecture_mode_recovers_unit_beta_scale():
    # at beta = 1 the conjectured normalization reduces to the proven one,
    # whose scale constant is 2^{-3/2}
    cfg = ExperimentConfig(
        kind="conjecture-beta",
        n=300,
        beta=1.0,
        trials=800,
        base_seed=6,
        k_max=1,
        workers=2,
        reproducible=True,
    )
    report = run_experiment(cfg, write_files=False)
    assert report.passed is True  # exploratory: never fails
    assert report.results["exploratory"] is True
    assert report.results["scale_estimate"] == pytest.approx(2.0**-1.5, rel=0.08)
    assert report.results["shape_ks_1"]["ks_distance"] < 0.08


def test_conjecture_mode_quartic_beta_shape():
    cfg = ExperimentConfig(
        kind="conjecture-beta",
        n=200,
        beta=4.0,
        trials=600,
        base_seed=7,
        k_max=1,
        workers=2,
        reproducible=True,
    )
    report = run_experiment(cfg, write_files=False)
    assert report.passed is True
    assert report.results["exponent"] == pytest.approx(6.0 / 5.0)
    assert report.results["scale_estimate"] > 0
    # shape diagnostic is reported, not asserted against a threshold
    assert "ks_distance" in report.results["shape_ks_1"]


def test_crosscheck_artifacts(tmp_path):
    cfg = ExperimentConfig(
        kind="sampler-crosscheck",
        n=60,
        trials=200,
        gap_law_trials=4000,
        base_seed=8,
        workers=2,
        out_dir=str(tmp_path),
        reproducible=True,
        thresholds={"two_sample_p_min": 1e-6, "gap_law_ks_max": 0.5},
    )
    report = run_experiment(cfg)
    assert (tmp_path / "sampler-crosscheck.csv").exists()
    assert (tmp_path / "sampler-crosscheck.json").exists()
    assert (tmp_path / "sampler-crosscheck_gap_law_n2.svg").exists()
    assert report.results["tau1_trials_each"] == 200


def test_gap_summary_csv_roundtrip(tmp_path):
    """Per-trial rows read back from the CSV equal the observables of the drawn spectra."""
    window = (0.0, 2.0)
    cfg = ExperimentConfig(
        kind="poisson-counts",
        n=50,
        trials=200,
        base_seed=3,
        interval=window,
        j_max=2,
        workers=2,
        out_dir=str(tmp_path),
        reproducible=True,
    )
    run_experiment(cfg)
    text = (tmp_path / "poisson-counts.csv").read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "trial,chi,chi_tilde,lag_1,lag_2"
    assert len(lines) == 1 + cfg.trials
    stream = ensemble.SeedStream(3)
    for t in (0, 117, 199):
        v = ensemble.sample(ensemble.EnsembleSpec(50), stream, t).values
        cells = [t, gapstats.chi_count(v, window), gapstats.chi_tilde_total(v, window)]
        cells += gapstats.chi_tilde_counts(v, window, 2).tolist()
        assert lines[1 + t] == ",".join(str(c) for c in cells)


def test_partial_ks_max_keeps_default_checks():
    cfg = ExperimentConfig(
        kind="smallest-gap-law",
        n=20,
        trials=12,
        k_max=3,
        thresholds={"ks_max": {"1": 0.5}},
    )
    results = run_experiment(cfg, write_files=False).results
    assert results["tau_1"]["ks_max"] == 0.5
    default = DEFAULT_THRESHOLDS["smallest-gap-law"]["ks_max"]
    for k in (2, 3):
        assert results[f"tau_{k}"]["ks_max"] == default[str(k)]
        assert "ks_passed" in results[f"tau_{k}"]


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")


# ---------------------------------------------------------------------------
# the spectra memo: runs on the same (spec, base_seed) share their draws


@pytest.fixture
def memo():
    experiments.spectra_memo.cache_clear()
    yield experiments.spectra_memo
    experiments.spectra_memo.cache_clear()


def _no_draws(*args):
    raise AssertionError("a spectrum was drawn")


def _gap_config(kind="smallest-gap-law", **kw):
    return ExperimentConfig(kind=kind, **{"n": 20, "trials": 12, "base_seed": 1, **kw})


@pytest.mark.parametrize("workers", [1, 2])
def test_gap_law_kinds_draw_their_spectra_once(tmp_path, memo, monkeypatch, workers):
    kinds = {
        "smallest-gap-law": {"k_max": 3},
        "poisson-counts": {"j_max": 2},
        "factorial-moments": {"k_max": 2},
    }

    def run(kind):
        out = tmp_path / kind
        shared = {"n": 40, "trials": 200, "base_seed": 4, "workers": workers, "reproducible": True}
        run_experiment(_gap_config(kind, **shared, **kinds[kind], out_dir=str(out)))
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    cold = {}
    for kind in kinds:
        memo.cache_clear()
        cold[kind] = run(kind)
    memo.cache_clear()
    first, *rest = kinds
    assert run(first) == cold[first]
    monkeypatch.setattr(ensemble, "sample_block", _no_draws)
    for kind in rest:
        assert run(kind) == cold[kind], kind
    assert memo.cache_info()[:3] == (2, 1, 1)


def test_memo_keys_on_the_spec_and_the_seed(memo):
    run_experiment(_gap_config(), write_files=False)
    others = [
        _gap_config(n=21),
        _gap_config(base_seed=2),
        _gap_config(sampler=ensemble.SAMPLER_DENSE),
        # conjecture-beta draws n-scaled spectra: first the scaling differs, then beta too
        _gap_config("conjecture-beta"),
        _gap_config("conjecture-beta", beta=2.0),
    ]
    for i, cfg in enumerate(others, start=2):
        run_experiment(cfg, write_files=False)
        assert memo.cache_info()[:3] == (0, i, i)
    run_experiment(_gap_config(), write_files=False)
    assert memo.cache_info().hits == 1


def test_longer_run_redraws_and_a_shorter_one_reads_its_prefix(memo, monkeypatch):
    cold = run_experiment(_gap_config(), write_files=False).results
    run_experiment(_gap_config(trials=30), write_files=False)
    assert memo.cache_info()[:3] == (0, 2, 1)
    monkeypatch.setattr(ensemble, "sample_block", _no_draws)
    assert run_experiment(_gap_config(), write_files=False).results == cold
    assert memo.cache_info().hits == 1


def _same_columns(a: dict, b: dict) -> bool:
    """The same parts and columns, each of the same dtype and values."""
    return list(a) == list(b) and all(
        list(a[p]) == list(b[p])
        and all(a[p][c].dtype == b[p][c].dtype and np.array_equal(a[p][c], b[p][c]) for c in a[p])
        for p in a
    )


def test_memo_keeps_within_its_byte_bound(memo, monkeypatch):
    over = _gap_config(base_seed=4, trials=30)
    stored = experiments._columns(over)  # gathered in one block
    memo.cache_clear()
    block = 12 * 20 * 8  # bytes of one run's 12 spectra at n = 20
    monkeypatch.setattr(memo, "max_bytes", 2 * block)
    for seed in (1, 2, 3):
        run_experiment(_gap_config(base_seed=seed), write_files=False)
        assert memo.cache_info().nbytes <= 2 * block
    assert memo.cache_info()[2:4] == (2, 2 * block)
    run_experiment(_gap_config(base_seed=1), write_files=False)  # the oldest, evicted
    assert memo.cache_info()[:2] == (0, 4)
    # 30 spectra exceed the bound: observed chunk by chunk, to the same columns, and not stored
    for _ in range(2):
        assert _same_columns(experiments._columns(over), stored)
    assert memo.cache_info()[:4] == (0, 6, 2, 2 * block)


def test_rows_do_not_depend_on_the_chunk_size(memo, monkeypatch):
    cfg = _gap_config(trials=30, workers=2)
    columns = experiments._columns(cfg)
    memo.cache_clear()
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1)  # one spectrum per chunk
    assert _same_columns(experiments._columns(cfg), columns)
    assert memo.cache_info()[:2] == (0, 1)  # drawn again, not read back


def test_stored_spectra_are_read_only(memo):
    run_experiment(_gap_config(), write_files=False)
    block = memo.get((ensemble.EnsembleSpec(20), 1), 12)
    assert block.shape == (12, 20) and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0


def _package_caches() -> dict:
    """id -> object, for every object in an rmtgaps module namespace that has
    cache_clear and cache_info, classes included: what the benchmark clears
    before each iteration."""
    for info in pkgutil.iter_modules(rmtgaps.__path__):
        importlib.import_module(f"rmtgaps.{info.name}")
    found = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rmtgaps."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[id(obj)] = obj
    return found


def test_every_package_cache_clears_with_no_arguments():
    found = _package_caches()
    assert id(experiments.spectra_memo) in found
    for obj in found.values():
        obj.cache_clear()
        obj.cache_info()


# ---------------------------------------------------------------------------
# pinned bytes: sha256 over the names and bytes of every --reproducible artifact
# of one tiny CLI run of each experiment kind and of `sample` on both routes

PINNED_RUNS = {
    "smallest-gap-law": (
        ["experiment", "smallest-gap-law", "--n", "50", "--trials", "30", "--k-max", "2"],
        {"thresholds": {"ks_max": {"1": 0.5, "2": 0.5}, "tau1_mean_tol": 0.5}},
        "70fed643f0f63821ef7115457adb6dc27ee529be3297a9b274d860fd3e7139c4",
    ),
    "poisson-counts": (
        ["experiment", "poisson-counts", "--n", "40", "--trials", "200", "--j-max", "2"],
        None,
        "fef8807930b55e89a2a6a4ffbfe6bb3cc7ca01fea9fc639066889bc116638cf4",
    ),
    "factorial-moments": (
        ["experiment", "factorial-moments", "--n", "40", "--trials", "30", "--k-max", "2"],
        None,
        "2aaab854ee790be7e1a80da355a258a0762104a3e48857fba0bc49f6ba53bfc3",
    ),
    "successive-gaps": (
        ["experiment", "successive-gaps", "--n", "40", "--trials", "30", "--c0", "3"],
        None,
        "2bb13a0aafe5a3f8356d2de273c0b436e06a44023175f92b4bbf49cb25eaf289",
    ),
    "sampler-crosscheck": (
        ["experiment", "sampler-crosscheck", "--n", "20", "--trials", "20"],
        {"gap_law_trials": 200},
        "35596bbd0a902b305df9c8a4b1fcddc3b2f7e25132a1233f609ad8d9466d8bb5",
    ),
    "conjecture-beta": (
        ["experiment", "conjecture-beta", "--n", "40", "--beta", "2", "--trials", "30", "--k-max", "2"],
        None,
        "10a99c7faca32b9383d0f1fef011653b80823b3c21b384adc21fb39d8b4922b8",
    ),
    "sample-tridiagonal": (
        ["sample", "--n", "12", "--trials", "7", "--beta", "2.5", "--scaling", "nscaled"],
        None,
        "93e3bd5a5d5e1183b2bfe8d54906c2d979c1bbfcd880f946f7409bd696ca5662",
    ),
    "sample-dense": (
        ["sample", "--sampler", "dense", "--n", "6", "--trials", "9"],
        None,
        "8383512fd2a7875bb517deb2657abb2b4a1bf743c9c7fee14a7fb0d7eca80594",
    ),
}


def _artifacts_sha256(out) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _pinned_run(name: str, out: Path, workers: int = 1) -> str:
    """Run PINNED_RUNS[name] into ``out``; the sha256 of its artifacts."""
    argv, config, _ = PINNED_RUNS[name]
    argv = [*argv, "--seed", "11", "--workers", str(workers), "--out", str(out), "--reproducible"]
    if config is not None:
        path = out.parent / f"{out.name}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_FAILURE)
    return _artifacts_sha256(out)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_reproducible_artifacts_keep_their_bytes(tmp_path, memo, name, workers):
    assert _pinned_run(name, tmp_path / "out", workers) == PINNED_RUNS[name][2]


@pytest.mark.parametrize("name", ["smallest-gap-law", "sample-tridiagonal"])
def test_scipy_sterf_fallback_keeps_the_bytes(tmp_path, memo, monkeypatch, name):
    # where numpy exports no dsterf, scipy's copy of the routine solves every row
    import scipy.linalg.lapack

    solve, calls = scipy.linalg.lapack.dsterf, []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ensemble, "_dsterf", None)
    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", counting)
    assert _pinned_run(name, tmp_path / "out") == PINNED_RUNS[name][2]
    assert calls


@pytest.mark.parametrize("name", ["sampler-crosscheck", "sample-dense"])
def test_artifacts_do_not_depend_on_the_output_directory(tmp_path, memo, name):
    # the output directory is not echoed: an experiment and the spectra export write the same bytes anywhere
    (tmp_path / "deeper").mkdir()
    assert _pinned_run(name, tmp_path / "out") == _pinned_run(name, tmp_path / "deeper" / "elsewhere")


# one `verify` run per suite at the benchmark's options: --seed 1, lemma9 at --n-max 40;
# recorded when the echo became the suite and the options it reads, with every
# byte outside the `# config=` and `# base_seed=` lines and the JSON config kept
PINNED_SUITES = {
    "pfaffian": ([], "61d380bc2d15cf28333f7becb1bf8698c1b8e7aee2c67668b4f5d28306405720"),
    "hermite": ([], "f6cc69e5cecf78d45d47aaef31255dd7f27ba20a2291ea6ad4a4720488b7e0cf"),
    "lemma9": (["--n-max", "40"], "a55b8177dc191585d7c8433fdf5a61179608ec86eff73b9ce9891c7e234251b1"),
    "lemma10": ([], "2a9bfbaa51207118ba7334a5924384def6d523c47f7a6fa67f854e91cba91ae9"),
    "lemma12": ([], "1b44681a1f43d601d251a7d61d5fc816e8d4716b772cd1f5b74832471c7141ff"),
    "dpoly": ([], "e2552344123da4e70bb43b9d39b04b8285979c86cbb5d63a500ba3324c3b922f"),
    "coefficients": ([], "e71cc76accd59d8c6ff59595285cc1ac99afd97f27944263929da1ff497ddf34"),
}


@pytest.mark.parametrize("suite", sorted(PINNED_SUITES))
def test_verify_artifacts_keep_their_bytes_warm_and_cold(tmp_path, monkeypatch, suite):
    # the benchmark repeats each suite in one process, with every package cache cleared between
    flags, digest = PINNED_SUITES[suite]
    monkeypatch.chdir(tmp_path)
    argv = ["verify", suite, *flags, "--seed", "1", "--out", "out", "--reproducible"]
    for cleared in (False, True):
        if cleared:
            for cache in _package_caches().values():
                cache.cache_clear()
        shutil.rmtree("out", ignore_errors=True)
        assert cli.main(argv) == cli.EXIT_OK, f"caches cleared: {cleared}"
        assert _artifacts_sha256(Path("out")) == digest, f"caches cleared: {cleared}"


def test_every_kind_and_suite_has_pinned_bytes():
    assert set(experiments.KINDS) <= set(PINNED_RUNS)
    assert set(PINNED_SUITES) == set(verify.SUITES)


# ---------------------------------------------------------------------------
# the verdict: a results key ending in "passed" is a gate, and a run passes when all do


@pytest.mark.parametrize(
    "results,passed",
    [
        # factorial-moments: a failing gate nested in a dict
        ({"trials": 30, "moment_1": {"passed": True}, "moment_2": {"passed": False}}, False),
        # verify: a failing gate in a list of check rows
        ({"checks": [{"check": "a", "passed": True}, {"check": "b", "passed": False}]}, False),
        ({"tau_1": {"ks_passed": True, "mean_passed": True}, "gof_passed": True}, True),
        # conjecture-beta: no gate at all
        ({"trials": 30, "exploratory": True, "shape_ks_1": {"ks_distance": 0.2}}, True),
    ],
)
def test_report_verdict_is_the_and_of_its_gates(results, passed):
    report = reports.RunReport("experiment", "k", {}, results, None)
    assert report.passed is passed
    assert dataclasses.asdict(report)["passed"] is passed
    with pytest.raises(TypeError):
        reports.RunReport("experiment", "k", {}, results, None, passed=not passed)
