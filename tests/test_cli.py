"""CLI contract: exit codes, artifact formats, reproducibility."""

import errno
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import rmtgaps
from rmtgaps import cli, ensemble, experiments, loggas, verify

LOOSE = {
    "ks_max": {"1": 0.5, "2": 0.5, "3": 0.5},
    "tau1_mean_tol": 0.5,
}


def run(args):
    return cli.main(args)


def read_lines(path):
    return Path(path).read_text().splitlines()


def test_verify_dpoly_passes(tmp_path):
    code = run(["verify", "dpoly", "--out", str(tmp_path), "--reproducible"])
    assert code == 0
    assert (tmp_path / "verify_dpoly.csv").exists()
    report = json.loads((tmp_path / "verify_dpoly.json").read_text())
    assert report["passed"] is True
    assert report["schema_version"] == 1
    assert report["wall_clock_seconds"] is None


def test_verify_identity_suite_writes_table(tmp_path):
    code = run(["verify", "lemma9", "--n-max", "6", "--out", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "verify_lemma9.csv")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "n,k,ratio,abs_error"
    data = lines[header_idx + 1 :]
    # all (n, k) cells for 2 <= n <= 6, 1 <= k <= n/2
    assert len(data) == sum(n // 2 for n in range(2, 7))


def test_verify_rejects_bad_n_max():
    assert run(["verify", "lemma9", "--n-max", "0"]) == 2
    assert run(["verify", "lemma9", "--n-max", str(loggas.MAX_PFAFFIAN_N + 1)]) == 2


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--cases", "0"]])
def test_verify_rejects_bad_seed_and_cases(flags):
    assert run(["verify", "pfaffian", *flags]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["dpoly", "--n-max", "5", "--cases", "3"],
        ["dpoly", "--cases", "3"],
        ["lemma12", "--n-max", "5"],
        ["lemma12", "--cases", "3"],
        ["pfaffian", "--n-max", "5"],
        ["lemma9", "--cases", "3"],
    ],
)
def test_verify_rejects_options_the_suite_ignores(tmp_path, args):
    out = tmp_path / "out"
    assert run(["verify", *args, "--out", str(out), "--reproducible"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("suite", verify.SUITES)
@pytest.mark.parametrize("flag,option,value", [("--n-max", "n_max", "4"), ("--cases", "cases", "3")])
def test_verify_flags_follow_suite_declarations(tmp_path, suite, flag, option, value):
    out = tmp_path / "out"
    code = run(["verify", suite, flag, value, "--out", str(out), "--reproducible"])
    if option in verify.SUITES[suite].options:
        assert code == 0
        assert json.loads((out / f"verify_{suite}.json").read_text())["config"][option] == int(value)
    else:
        assert code == 2
        assert not out.exists()
        with pytest.raises(ValueError):
            verify.run_suite(suite, {option: int(value)})


# each suite's help line as `rmtgaps verify --help` has always printed it
SUITE_HELP = {
    "pfaffian": "Pfaffian algebraic identities on random skew matrices",
    "hermite": "wave-function orthonormality, closed forms, Parseval",
    "lemma9": "partition-ratio identity 4^k G_{n-2k,k} / G_n = 1",
    "lemma10": "derivative-energy and pair-integral inequalities",
    "lemma12": "gap-window sandwich bounds by direct quadrature",
    "dpoly": "shifted determinant polynomial identities",
    "coefficients": "pairing coefficient tables against quadrature oracles",
}


def test_verify_help_names_every_suite(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per help entry, no hyphen breaks
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    out = capsys.readouterr().out
    assert list(verify.SUITES) == list(SUITE_HELP)
    assert "; ".join(f"{name}: {text}" for name, text in SUITE_HELP.items()) in out


def test_verify_lemma10_takes_cases(tmp_path):
    assert run(["verify", "lemma10", "--cases", "3", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_lemma10.json").read_text())
    assert report["config"]["cases"] == 3


def test_verify_lemma10_bytes_independent_of_blas_threads(tmp_path):
    # the pair-integral quadrature makes no BLAS call on its grid, so a run whose
    # BLAS is pinned to one thread writes the same bytes as this process
    argv = ["verify", "lemma10", "--cases", "7", "--reproducible"]
    assert run([*argv, "--out", str(tmp_path / "here")]) == 0
    code = f"import sys; from rmtgaps import cli; sys.exit(cli.main({[*argv, '--out', 'pinned']!r}))"
    _fresh_python(code, tmp_path, OPENBLAS_NUM_THREADS="1")
    for name in ("verify_lemma10.csv", "verify_lemma10.json"):
        assert (tmp_path / "pinned" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_verify_lemma9_holds_up_to_the_advertised_limit():
    assert run(["verify", "lemma9", "--n-max", str(loggas.MAX_PFAFFIAN_N)]) == 0


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nonsense"])
    assert exc.value.code == 2


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_experiment_artifacts_and_formats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thresholds": LOOSE}))
    out = tmp_path / "run"
    code = run(
        [
            "experiment",
            "smallest-gap-law",
            "--config",
            str(cfg),
            "--n",
            "60",
            "--trials",
            "50",
            "--seed",
            "11",
            "--k-max",
            "2",
            "--out",
            str(out),
            "--reproducible",
        ]
    )
    assert code == 0
    csv_lines = read_lines(out / "smallest-gap-law.csv")
    assert csv_lines[0].startswith("# rmtgaps=")
    assert csv_lines[1].startswith("# config=")
    assert csv_lines[2].startswith("# base_seed=11")
    header_idx = next(i for i, l in enumerate(csv_lines) if not l.startswith("#"))
    assert csv_lines[header_idx] == "trial,tau_1,tau_2"
    assert len(csv_lines) - header_idx - 1 == 50

    report = json.loads((out / "smallest-gap-law.json").read_text())
    assert report["config"]["n"] == 60
    assert report["config"]["base_seed"] == 11
    assert "workers" not in report["config"]
    assert report["results"]["tau_1"]["ks_distance"] >= 0

    svg = out / "smallest-gap-law_tau_1.svg"
    assert svg.exists()
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    tags = {el.tag.split("}")[-1] for el in root.iter()}
    assert "rect" in tags and "polyline" in tags


def test_experiment_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    # impossible threshold forces a statistical failure
    cfg.write_text(json.dumps({"thresholds": {"ks_max": {"1": 1e-12}, "tau1_mean_tol": 0.5}}))
    code = run(
        [
            "experiment",
            "smallest-gap-law",
            "--config",
            str(cfg),
            "--n",
            "60",
            "--trials",
            "50",
            "--out",
            str(tmp_path / "r"),
            "--reproducible",
        ]
    )
    assert code == 1


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    config = {"n": 200, "trials": 10, "base_seed": 1, "reproducible": True, "thresholds": LOOSE}
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    args = ["experiment", "smallest-gap-law", "--config", str(cfg), "--n", "40", "--seed", "7"]
    code = run(args + ["--out", str(out)])
    assert code == 0
    report = json.loads((out / "smallest-gap-law.json").read_text())
    assert report["config"]["n"] == 40  # flag wins
    assert report["config"]["base_seed"] == 7
    assert report["config"]["out_dir"] == str(out)
    assert report["config"]["trials"] == 10  # config file survives
    # an absent --reproducible leaves the file's true in place
    assert report["config"]["reproducible"] is True
    assert report["wall_clock_seconds"] is None


def test_sample_writes_sorted_spectra(tmp_path):
    out = tmp_path / "s"
    code = run(
        ["sample", "--n", "10", "--trials", "3", "--seed", "5", "--out", str(out), "--reproducible"]
    )
    assert code == 0
    lines = read_lines(out / "spectra.csv")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    rows = [l.split(",") for l in lines[header_idx + 1 :]]
    assert len(rows) == 3
    for row in rows:
        vals = [float(x) for x in row[3:]]
        assert len(vals) == 10
        assert vals == sorted(vals)


def test_sample_reproducible_bytes(tmp_path):
    out = tmp_path / "s"
    args = ["sample", "--n", "8", "--trials", "2", "--seed", "9", "--out", str(out), "--reproducible"]
    assert run(args) == 0
    first = (out / "spectra.csv").read_bytes()
    assert run(args) == 0
    assert (out / "spectra.csv").read_bytes() == first


def test_sample_zero_trials_usage_error(tmp_path):
    assert run(["sample", "--n", "8", "--trials", "0", "--out", str(tmp_path)]) == 2


# one tiny run per experiment kind: flags and --config contents, thresholds loose enough to pass
TINY_RUNS = {
    "smallest-gap-law": (["--n", "50", "--trials", "30", "--k-max", "2"], {"thresholds": LOOSE}),
    "poisson-counts": (
        ["--n", "40", "--trials", "200", "--j-max", "2"],
        {"thresholds": {"mean_sigmas": 100.0, "fm2_sigmas": 100.0, "gof_p_min": 0.0}},
    ),
    "factorial-moments": (
        ["--n", "40", "--trials", "30", "--k-max", "2"],
        {"thresholds": {"sigmas": 100.0}},
    ),
    "successive-gaps": (["--n", "40", "--trials", "30"], {"thresholds": {"sigmas": 100.0}}),
    "sampler-crosscheck": (
        ["--n", "20", "--trials", "20"],
        {"gap_law_trials": 200, "thresholds": {"two_sample_p_min": 0.0, "gap_law_ks_max": 1.0}},
    ),
    "conjecture-beta": (["--n", "40", "--beta", "2", "--trials", "30", "--k-max", "2"], {}),
}


def run_tiny(tmp_path, kind, extra=()):
    flags, config = TINY_RUNS[kind]
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / kind
    args = ["experiment", kind, *flags, *extra, "--config", str(cfg), "--out", str(out)]
    return run(args + ["--reproducible"]), out


def test_experiment_outputs_independent_of_workers(tmp_path):
    for kind in TINY_RUNS:
        blobs = []
        for workers in (1, 2):
            # a memo hit would skip the draws, and the pool, of the second run
            experiments.spectra_memo.cache_clear()
            code, out = run_tiny(tmp_path, kind, ["--workers", str(workers)])
            assert code == 0, kind
            assert experiments.spectra_memo.cache_info().hits == 0, kind
            blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert f"{kind}.csv" in blobs[0] and f"{kind}.json" in blobs[0]
        assert blobs[0] == blobs[1], kind


@pytest.mark.parametrize(
    "args",
    [
        ["experiment", "smallest-gap-law", "--sampler", "dense", "--beta", "2"],
        ["experiment", "smallest-gap-law", "--sampler", "dense", "--scaling", "nscaled"],
        ["sample", "--sampler", "dense", "--beta", "2"],
        ["sample", "--sampler", "dense", "--scaling", "nscaled"],
        # the GOE-law kinds normalize gaps by n, the gap scale of the unit scaling only
        ["experiment", "smallest-gap-law", "--beta", "2", "--scaling", "nscaled"],
        ["experiment", "poisson-counts", "--scaling", "nscaled"],
        ["experiment", "factorial-moments", "--scaling", "nscaled"],
        ["experiment", "successive-gaps", "--scaling", "nscaled"],
    ],
)
def test_dense_route_rejects_other_beta_and_scaling(tmp_path, args):
    out = tmp_path / "o"
    # enough trials for every kind's fit, so only the route or scaling can be refused
    assert run([*args, "--n", "20", "--trials", "200", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["conjecture-beta", "sampler-crosscheck"])
def test_fixed_spec_kinds_ignore_run_route(tmp_path, kind):
    # conjecture-beta always draws n-scaled tridiagonal spectra, the crosscheck its own three specs
    code, _ = run_tiny(tmp_path, kind, ["--sampler", "dense", "--beta", "2"])
    assert code == 0


@pytest.mark.parametrize(
    "config",
    [
        {"bogus": 1},
        {"thresholds": 5},
        [1, 2],
        {"interval": 5},
        {"thresholds": {"ks_max": 5}},
        {"thresholds": {"ks_maxx": {"1": 1e-9}}},  # misspelt; must not fall back to the default
        {"thresholds": {"ks_max": {"01": 0.5}}},  # misspelt k
        {"trials": 4},  # too few for the KS fit
        {"kind": "poisson-counts", "trials": 150},  # too few for the chi-square fit
        {"kind": "sampler-crosscheck", "gap_law_trials": 4},  # too few for the 2x2 KS fit
        {"n": 1},
        {"n": ensemble.MAX_TRIDIAG_N + 1},
        {"kind": "sampler-crosscheck", "n": ensemble.MAX_DENSE_N + 1},  # its dense part
        {"kind": "factorial-moments", "interval": [-1, 2]},  # gaps are positive
        {"kind": "successive-gaps", "c0": -1},
        {"kind": "successive-gaps", "n": 2},  # no lag-2 gaps
        {"k_max": 0},
        {"k_max": 20},  # more than the n - 1 gaps
        {"kind": "conjecture-beta", "k_max": 20},
        {"kind": "factorial-moments", "k_max": 0},
        {"kind": "poisson-counts", "trials": 200, "j_max": 0},
        {"kind": "poisson-counts", "trials": 200, "j_max": 20},
        # NaN fails every comparison, so it would read as a silent FAIL
        {"thresholds": {"tau1_mean_tol": float("nan")}},
        {"thresholds": {"ks_max": {"1": float("nan")}}},
    ],
)
def test_bad_config_is_usage_error(tmp_path, monkeypatch, config):
    def no_trials(*args):
        raise AssertionError("trials ran for a bad config")

    monkeypatch.setattr(experiments, "_columns", no_trials)
    kind = "smallest-gap-law"
    if isinstance(config, dict):
        kind = config.get("kind", kind)
        # enough trials that a config the check lets through would run to a verdict
        config = {"n": 20, "trials": 12, **config}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    args = ["experiment", kind, "--config", str(cfg)]
    assert run(args + ["--out", str(out)]) == 2
    assert not out.exists()


def test_infinite_threshold_is_allowed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thresholds": {**LOOSE, "tau1_mean_tol": float("inf")}}))
    args = ["experiment", "smallest-gap-law", "--n", "50", "--trials", "30", "--config", str(cfg)]
    assert run(args + ["--out", str(tmp_path / "o")]) == 0


def test_infinite_sigmas_passes_when_no_trial_hits(tmp_path):
    # no trial has a lag-2 hit, so se = 0, and inf * se would be NaN
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thresholds": {"sigmas": float("inf")}}))
    args = ["experiment", "successive-gaps", "--n", "40", "--trials", "30", "--config", str(cfg)]
    out = tmp_path / "o"
    assert run(args + ["--out", str(out)]) == 0
    results = json.loads((out / "successive-gaps.json").read_text())["results"]
    assert results["probability_se"] == 0.0


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_beta_is_usage_error(tmp_path, beta):
    out = tmp_path / "o"
    args = ["experiment", "conjecture-beta", "--beta", beta, "--n", "10", "--trials", "20"]
    assert run(args + ["--out", str(out)]) == 2
    assert not out.exists()


def test_huge_beta_runs_to_a_verdict(tmp_path):
    # x^{beta+1} under- and overflows in the law, and all scaled gaps round to one value
    args = ["experiment", "conjecture-beta", "--beta", "1e300", "--n", "10", "--trials", "20"]
    assert run(args + ["--out", str(tmp_path / "o")]) == 0


def test_internal_value_error_is_not_usage_error(tmp_path, monkeypatch):
    def failing_trials(*args):
        raise ValueError("raised inside the numerics")

    monkeypatch.setattr(experiments, "_columns", failing_trials)
    code, _ = run_tiny(tmp_path, "smallest-gap-law")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "smallest-gap-law", "--config", "missing.json", "--out", "o"],
        ["experiment", "smallest-gap-law", "--n", "20", "--trials", "12", "--out", "file/o"],
        ["sample", "--n", "8", "--trials", "2", "--out", "file"],
        ["verify", "dpoly", "--out", "file"],
    ],
)
def test_unreadable_config_or_output_directory_is_usage_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("an output directory cannot be made here")
    assert run(argv) == 2


def _full_disk(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "target,attr,workers",
    [(ensemble, "eigen_tridiagonal", "1"), (experiments, "ProcessPoolExecutor", "2")],
)
def test_os_error_inside_a_run_is_internal(tmp_path, monkeypatch, target, attr, workers):
    # a full disk in the eigensolver, or a fork that fails, is no fault of the input
    monkeypatch.setattr(target, attr, _full_disk)
    experiments.spectra_memo.cache_clear()  # so the run draws, and reaches the patched call
    code, _ = run_tiny(tmp_path, "smallest-gap-law", ["--workers", workers])
    assert code == 3


def test_crosscheck_starts_one_pool(tmp_path, monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    experiments.spectra_memo.cache_clear()  # all three parts are drawn, none read back
    code, _ = run_tiny(tmp_path, "sampler-crosscheck", ["--workers", "2"])
    assert code == 0
    assert experiments.spectra_memo.cache_info()[:2] == (0, 3)
    assert len(pools) == 1


def _fresh_python(code: str, cwd: Path, **env_vars) -> str:
    """Run ``code`` in a fresh interpreter that imports this rmtgaps, with ``env_vars``
    added to its environment; return its stdout.
    The test process itself has long loaded scipy, so an import check needs its own."""
    src = str(Path(rmtgaps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(env_vars)
    cmd = [sys.executable, "-c", code]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scipy_loads_only_on_the_monte_carlo_path(tmp_path):
    # a top-level scipy import anywhere in the package would show after the verify call
    runs = {kind: TINY_RUNS[kind] for kind in ("smallest-gap-law", "poisson-counts")}
    code = f"""
import contextlib, importlib, io, json, pkgutil, sys
import rmtgaps
from rmtgaps import cli
for info in pkgutil.iter_modules(rmtgaps.__path__):
    importlib.import_module("rmtgaps." + info.name)
def loaded():
    return [m for m in ("scipy.linalg", "scipy.special", "scipy.stats") if m in sys.modules]
seen = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    seen["verify"] = (cli.main(["verify", "hermite"]), loaded())
    for kind, (flags, config) in {runs!r}.items():
        with open(kind + ".json", "w") as f:
            json.dump(config, f)
        argv = ["experiment", kind, *flags, "--workers", "2", "--config", kind + ".json", "--out", kind]
        seen[kind] = (cli.main(argv), loaded())
print(json.dumps(seen))
"""
    seen = json.loads(_fresh_python(code, tmp_path).splitlines()[-1])
    assert seen["verify"] == [0, []]
    # the eigensolver's scipy.linalg with the draws, scipy.special with the fits, never scipy.stats
    assert seen["smallest-gap-law"] == [0, ["scipy.linalg", "scipy.special"]]
    assert seen["poisson-counts"] == [0, ["scipy.linalg", "scipy.special"]]


def test_pool_forks_after_scipy_linalg_is_loaded(tmp_path):
    # forked workers inherit the parent's modules; one loaded later is imported per worker
    code = """
import sys
from concurrent.futures import ProcessPoolExecutor
from rmtgaps import experiments
assert "scipy.linalg" not in sys.modules
pools = []
class CheckingPool(ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        assert "scipy.linalg" in sys.modules, "the pool was built before scipy.linalg was loaded"
        pools.append(self)
        super().__init__(*args, **kwargs)
experiments.ProcessPoolExecutor = CheckingPool
cfg = experiments.ExperimentConfig(kind="smallest-gap-law", n=50, trials=30, workers=2)
experiments.run_experiment(cfg, write_files=False)
print(len(pools))
"""
    assert _fresh_python(code, tmp_path).split() == ["1"]
