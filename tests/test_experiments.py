"""Experiment kinds not exercised by the acceptance module, plus serialization."""

import hashlib
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import rmtgaps
from rmtgaps import cli, ensemble, experiments, gapstats
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
        out = tmp_path / kind  # the same for the cold and the warm run: it is echoed
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


def test_every_package_cache_clears_with_no_arguments():
    # the benchmark clears, before each iteration, every object in an rmtgaps
    # module namespace that has cache_clear and cache_info, classes included
    for info in pkgutil.iter_modules(rmtgaps.__path__):
        importlib.import_module(f"rmtgaps.{info.name}")
    found = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rmtgaps."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[id(obj)] = obj
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
        "959fcd32ff99e5ab153b50a6d95d9c6394bee3a9b1a592084ff805ff3d045efc",
    ),
    "poisson-counts": (
        ["experiment", "poisson-counts", "--n", "40", "--trials", "200", "--j-max", "2"],
        None,
        "d18f6f1dc73c004c071d6bb3642949a33492ba4cc28dd95dcaef8192960a1442",
    ),
    "factorial-moments": (
        ["experiment", "factorial-moments", "--n", "40", "--trials", "30", "--k-max", "2"],
        None,
        "0ba81b0e961ce31c728f07da9af9421b4e2e37d53f81e33128f6ab125f735d8d",
    ),
    "successive-gaps": (
        ["experiment", "successive-gaps", "--n", "40", "--trials", "30", "--c0", "3"],
        None,
        "3742005b043a4e312b28fb2c903767fbd47a54c8ad23c9822ea21a212729f65f",
    ),
    "sampler-crosscheck": (
        ["experiment", "sampler-crosscheck", "--n", "20", "--trials", "20"],
        {"gap_law_trials": 200},
        "7666274c9ef9046274567b52e04019f48dc6b4e836bb65e797695759120b953f",
    ),
    "conjecture-beta": (
        ["experiment", "conjecture-beta", "--n", "40", "--beta", "2", "--trials", "30", "--k-max", "2"],
        None,
        "c39b33aa4e531633cef27bc03b1639443a8a21983b781a1c6cce969c57e2786d",
    ),
    "sample-tridiagonal": (
        ["sample", "--n", "12", "--trials", "7", "--beta", "2.5", "--scaling", "nscaled"],
        None,
        "eaba1625ebbcc61000eced0a2776a0badd60311e20d224a4365579ca01b2f86a",
    ),
    "sample-dense": (
        ["sample", "--sampler", "dense", "--n", "6", "--trials", "9"],
        None,
        "a8d0de6330d683435c66b9f49aa7cfc4b1a5bc0111fb80e731e537535af4f9c5",
    ),
}


def _artifacts_sha256(out) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_reproducible_artifacts_keep_their_bytes(tmp_path, monkeypatch, memo, name, workers):
    argv, config, digest = PINNED_RUNS[name]
    monkeypatch.chdir(tmp_path)  # the output directory is echoed, so it is the same relative path
    argv = [*argv, "--seed", "11", "--workers", str(workers), "--out", "out", "--reproducible"]
    if config is not None:
        Path("config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_FAILURE)
    assert _artifacts_sha256(Path("out")) == digest
