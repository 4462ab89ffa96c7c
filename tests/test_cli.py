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
    "suite,options",
    [
        ("pfaffian", {"cases": 0}),
        ("pfaffian", {"cases": -3}),
        ("lemma10", {"cases": 0}),
        ("lemma10", {"cases": True}),
        ("lemma10", {"cases": 2.0}),
        ("hermite", {"base_seed": -1}),
        ("hermite", {"base_seed": True}),
        ("dpoly", {"base_seed": -1}),
        ("lemma9", {"n_max": 1}),
        ("lemma9", {"n_max": loggas.MAX_PFAFFIAN_N + 1}),
        ("lemma9", {"n_max": True}),
        ("lemma9", {"n_max": "6"}),
    ],
)
def test_run_suite_rejects_out_of_range_options(suite, options):
    # the same bounds as the CLI's: without them a run with no cases passes every check
    with pytest.raises(ValueError):
        verify.run_suite(suite, options)


def test_every_suite_option_has_a_bound():
    for suite in verify.SUITES.values():
        assert set(suite.options) <= set(verify.OPTION_BOUNDS)


@pytest.mark.parametrize(
    "args,config",
    [
        (["lemma9"], {"suite": "lemma9", "n_max": 14}),
        (["dpoly", "--seed", "3"], {"suite": "dpoly"}),
        (["pfaffian"], {"suite": "pfaffian", "base_seed": 0, "cases": 100}),
        (["lemma10", "--seed", "2", "--cases", "3"], {"suite": "lemma10", "base_seed": 2, "cases": 3}),
    ],
)
def test_verify_echoes_the_options_the_suite_reads(tmp_path, args, config):
    assert run(["verify", *args, "--out", str(tmp_path), "--reproducible"]) == 0
    report = json.loads((tmp_path / f"verify_{args[0]}.json").read_text())
    assert report["config"] == config
    lines = read_lines(tmp_path / f"verify_{args[0]}.csv")
    assert lines[1] == "# config=" + json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert lines[2] == f"# base_seed={config.get('base_seed')}"


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
    # each option flag names the suites that read it
    for option in verify.OPTION_BOUNDS:
        readers = [name for name, suite in verify.SUITES.items() if option in suite.options]
        assert "read by " + ", ".join(readers) in out


def test_verify_lemma10_takes_cases(tmp_path):
    assert run(["verify", "lemma10", "--cases", "3", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_lemma10.json").read_text())
    assert report["config"]["cases"] == 3


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


def _gates(node, path=""):
    """(path, value) of every results key ending in "passed", in nested dicts and lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("passed"):
                yield f"{path}{key}", value
            else:
                yield from _gates(value, f"{path}{key}.")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _gates(item, f"{path}{i}.")


def test_one_failed_gate_fails_the_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    # only tau_2's KS gate is out of reach
    cfg.write_text(json.dumps({"thresholds": {"ks_max": {"1": 0.9, "2": 1e-9}, "tau1_mean_tol": 0.9}}))
    out = tmp_path / "r"
    args = ["experiment", "smallest-gap-law", "--n", "50", "--trials", "30", "--k-max", "2"]
    assert run(args + ["--config", str(cfg), "--out", str(out), "--reproducible"]) == 1
    report = json.loads((out / "smallest-gap-law.json").read_text())
    assert report["passed"] is False
    gates = dict(_gates(report["results"]))
    assert [path for path, ok in gates.items() if not ok] == ["tau_2.ks_passed"]
    assert len(gates) == 3


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
    assert report["config"]["trials"] == 10  # config file survives
    # neither changes a result, so neither is echoed
    assert "out_dir" not in report["config"] and "reproducible" not in report["config"]
    # an absent --reproducible leaves the file's true in place: no wall clock, no timestamp
    assert report["wall_clock_seconds"] is None
    assert not any(line.startswith("# generated=") for line in read_lines(out / "smallest-gap-law.csv"))


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


# per command, one config field it does not read: its flag, and its value as a config key
UNREAD = {
    ("experiment", "smallest-gap-law"): ("--c0", "3", 3.0),
    ("experiment", "poisson-counts"): ("--k-max", "2", 2),
    ("experiment", "factorial-moments"): ("--j-max", "2", 2),
    ("experiment", "successive-gaps"): ("--interval", "0,1", [0, 1]),
    # the crosscheck draws its own three specs, and conjecture-beta n-scaled tridiagonal spectra
    ("experiment", "sampler-crosscheck"): ("--sampler", "dense", "dense"),
    ("experiment", "conjecture-beta"): ("--scaling", "unit", "unit"),
    ("sample",): ("--k-max", "9", 9),
}


def test_unread_cases_cover_every_kind():
    assert {command[-1] for command in UNREAD} == {*experiments.KINDS, "sample"}


@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command", UNREAD, ids=lambda command: command[-1])
def test_unread_field_is_usage_error(tmp_path, monkeypatch, command, as_config):
    monkeypatch.setattr(ensemble, "sample_block", _no_draws)
    flag, text, value = UNREAD[command]
    field = flag.removeprefix("--").replace("-", "_")
    assert field not in experiments.DECLARED[command[-1]].reads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value} if as_config else {}))
    out = tmp_path / "o"
    args = [*command, "--n", "20", "--trials", "200", "--config", str(cfg), "--out", str(out)]
    assert run(args if as_config else [*args, flag, text]) == 2
    assert not out.exists()
    with pytest.raises(ValueError, match=f"does not read {field}"):
        experiments.ExperimentConfig(kind=command[-1], **{field: value})


@pytest.mark.parametrize("command", [["experiment", "smallest-gap-law"], ["sample"]])
def test_config_of_another_kind_is_usage_error(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "poisson-counts"}))
    out = tmp_path / "o"
    assert run([*command, "--n", "20", "--trials", "200", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"bogus": 1},
        {"thresholds": 5},
        [1, 2],
        {"kind": "poisson-counts", "trials": 200, "interval": 5},
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
        # an infinite window, or one whose intensity or bound overflows, has no finite law
        {"kind": "poisson-counts", "trials": 200, "interval": [0, float("inf")]},
        {"kind": "poisson-counts", "trials": 200, "interval": [0, 1e200]},
        {"kind": "poisson-counts", "trials": 200, "interval": [0, 10**400]},  # no float holds it
        # nor any of these, which a run would first read as floats
        {"kind": "conjecture-beta", "n": 10, "trials": 20, "beta": 10**400},
        {"kind": "factorial-moments", "n": 20, "trials": 30, "thresholds": {"sigmas": 10**400}},
        {"thresholds": {"ks_max": {"1": 10**400}}},
        {"kind": "factorial-moments", "interval": [0, float("inf")]},
        {"kind": "successive-gaps", "c0": float("inf")},
        {"kind": "successive-gaps", "c0": 1e300},
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


@pytest.mark.parametrize(
    "args",
    [
        ["poisson-counts", "--trials", "200", "--interval", "0,inf"],
        ["poisson-counts", "--trials", "200", "--interval", "0,1e200"],  # hi*hi overflows
        ["factorial-moments", "--trials", "30", "--interval", "0,inf"],
        ["successive-gaps", "--trials", "30", "--c0", "inf"],
        ["successive-gaps", "--trials", "30", "--c0", "1e300"],  # c0**4 overflows
    ],
)
def test_non_finite_window_is_usage_error(tmp_path, args):
    out = tmp_path / "o"
    assert run(["experiment", *args, "--n", "20", "--out", str(out)]) == 2
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


def test_value_error_inside_a_suite_is_internal(monkeypatch):
    # the option checks give exit 2; a ValueError the suite itself raises is a bug
    def failing_poly(n):
        raise ValueError("raised inside the suite")

    monkeypatch.setattr(loggas, "dn_poly", failing_poly)
    assert run(["verify", "dpoly"]) == 3


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


def _no_draws(*args):
    raise AssertionError("a spectrum was drawn")


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


def test_pool_has_no_more_workers_than_chunks(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records its size and maps in this process, so no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    experiments.spectra_memo.cache_clear()  # so the runs draw
    args = ["experiment", "smallest-gap-law", "--n", "20", "--trials", "20", "--reproducible"]
    top = experiments.MAX_WORKERS
    assert run([*args, "--workers", str(top + 1), "--out", str(tmp_path / "over")]) == 2
    assert not (tmp_path / "over").exists()
    code, _ = run_tiny(tmp_path, "smallest-gap-law", ["--workers", str(top), "--trials", "20"])
    assert code == 0
    # 20 trials over 64 workers: one trial per chunk, so 20 chunks and 20 workers
    assert sizes == [20]


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


# where numpy exports no dsterf, every draw imports scipy.linalg for its copy of the routine
needs_numpy_dsterf = pytest.mark.skipif(ensemble._dsterf is None, reason="numpy exports no dsterf")

# the names of every loaded scipy module, in a fresh interpreter's code
LOADED_SCIPY = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


@needs_numpy_dsterf
def test_no_monte_carlo_run_loads_scipy(tmp_path):
    # the draws solve on numpy's own LAPACK and the fits take gapstats' closed forms;
    # a top-level scipy import anywhere in the package would show after the verify call
    runs = {kind: (["experiment", kind, *flags], config) for kind, (flags, config) in TINY_RUNS.items()}
    for sampler in ("tridiagonal", "dense"):
        runs["sample-" + sampler] = (["sample", "--n", "12", "--trials", "7", "--sampler", sampler], {})
    code = LOADED_SCIPY + f"""
import contextlib, importlib, io, json, pkgutil
import rmtgaps
from rmtgaps import cli
for info in pkgutil.iter_modules(rmtgaps.__path__):
    importlib.import_module("rmtgaps." + info.name)
seen = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    seen["verify"] = (cli.main(["verify", "hermite"]), loaded())
    for name, (argv, config) in {runs!r}.items():
        with open(name + ".json", "w") as f:
            json.dump(config, f)
        argv += ["--workers", "2", "--config", name + ".json", "--out", name]
        seen[name] = (cli.main(argv), loaded())
print(json.dumps(seen))
"""
    seen = json.loads(_fresh_python(code, tmp_path).splitlines()[-1])
    assert seen == {name: [0, []] for name in ["verify", *runs]}


@needs_numpy_dsterf
def test_pool_runs_load_no_scipy(tmp_path):
    # neither the parent nor a forked worker that has drawn loads any scipy module
    code = LOADED_SCIPY + """
from concurrent.futures import ProcessPoolExecutor
from rmtgaps import experiments
seen = []
class CheckingPool(ProcessPoolExecutor):
    def map(self, fn, *iterables):
        blocks = list(super().map(fn, *iterables))
        seen.append(self.submit(loaded).result())  # a worker, after the draws
        return iter(blocks)
experiments.ProcessPoolExecutor = CheckingPool
cfg = experiments.ExperimentConfig(kind="smallest-gap-law", n=50, trials=30, workers=2)
experiments.run_experiment(cfg, write_files=False)
print(seen, loaded())
"""
    assert _fresh_python(code, tmp_path).split() == ["[[]]", "[]"]


# ---------------------------------------------------------------------------
# BLAS threads: the package pins every loaded OpenBLAS to one thread unless the user set a count

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# OpenBLAS caps its threads at the CPU count, so on one CPU every setting reads 1
multi_cpu = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least 2 CPUs")


@pytest.fixture
def no_thread_variables(monkeypatch):
    """Fresh interpreters start with no BLAS thread count set, whatever this process has."""
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)


# defines blas_threads(): each mapped OpenBLAS's thread count, read through its own getter
BLAS_THREADS = """
import ctypes, os
GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")
def blas_threads():
    counts = {}
    for line in open("/proc/self/maps"):
        path = line.split(maxsplit=5)[-1].strip()
        if "openblas" in os.path.basename(path):
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            counts[os.path.basename(path)] = next(getattr(lib, g)() for g in GETTERS if hasattr(lib, g))
    return counts
"""


@multi_cpu
@pytest.mark.parametrize(
    "env,threads",
    [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)],
)
def test_blas_threads_are_pinned_unless_set(tmp_path, no_thread_variables, env, threads):
    # numpy comes first, as under pytest and the benchmark, so its OpenBLAS is already running
    code = BLAS_THREADS + """
import contextlib, io, json, multiprocessing, sys
from concurrent.futures import ProcessPoolExecutor
import numpy
from rmtgaps import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "hermite"])
with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
    worker = pool.submit(blas_threads).result()
import rmtgaps
print(json.dumps([code, blas_threads(), worker, "scipy.linalg" in sys.modules, rmtgaps._dsterf is not None]))
"""
    seen = json.loads(_fresh_python(code, tmp_path, **env).splitlines()[-1])
    code, here, worker, scipy_linalg, dsterf = seen
    # the same scan finds numpy's dsterf, whether or not it pins the threads
    assert dsterf == (ensemble._dsterf is not None)
    if not here:
        pytest.skip("numpy loads no OpenBLAS")
    # one OpenBLAS, numpy's: verify loads no scipy.linalg, so no second copy comes with it
    assert (code, len(here), scipy_linalg) == (0, 1, False)
    assert list(here.values()) == [threads]
    assert worker == here  # a forked pool worker inherits the count


@needs_numpy_dsterf
def test_a_monte_carlo_run_maps_one_openblas_and_starts_no_thread(tmp_path, no_thread_variables):
    # no run loads scipy, so its OpenBLAS, which the package scan would not pin, never starts.
    # One worker draws in-process: a pool's fork makes OpenBLAS stop its idle threads in the
    # parent (its atfork handler), which would hide a thread started by the run.
    flags, config = TINY_RUNS["smallest-gap-law"]
    code = f"""
import contextlib, io, json, os
from rmtgaps import cli
def state():
    with open("/proc/self/maps") as maps:
        paths = {{line.split(maxsplit=5)[-1].strip() for line in maps}}
    blas = sorted(p for p in paths if "openblas" in os.path.basename(p))
    return blas, len(os.listdir("/proc/self/task"))
with open("run.json", "w") as f:
    json.dump({config!r}, f)
before = state()
with contextlib.redirect_stdout(io.StringIO()):
    argv = ["experiment", "smallest-gap-law", *{flags!r}, "--workers", "1", "--config", "run.json", "--out", "out"]
    code = cli.main(argv)
print(json.dumps([code, before, state()]))
"""
    code, before, after = json.loads(_fresh_python(code, tmp_path).splitlines()[-1])
    assert code == 0
    if not before[0]:
        pytest.skip("numpy loads no OpenBLAS")
    assert len(after[0]) == 1
    assert after == before


@multi_cpu
def test_artifacts_independent_of_blas_threads(tmp_path, no_thread_variables):
    # every suite at the benchmark's options, and a dense crosscheck on a pool of two
    runs = [
        ["verify", s, "--seed", "1", "--out", f"out/{s}", *(["--n-max", "40"] if s == "lemma9" else [])]
        for s in verify.SUITES
    ]
    runs.append(
        ["experiment", "sampler-crosscheck", "--n", "200", "--trials", "25", "--seed", "1"]
        + ["--workers", "2", "--config", "crosscheck.json", "--out", "out/crosscheck"]
    )
    code = BLAS_THREADS + f"""
import contextlib, io, json
from rmtgaps import cli
threads = list(blas_threads().values())  # numpy's, the only OpenBLAS a run maps
with open("crosscheck.json", "w") as f:
    json.dump({{"gap_law_trials": 1250}}, f)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([*argv, "--reproducible"]) for argv in {runs!r}]
print(json.dumps([codes, threads]))
"""
    seen = []
    for env, want in (({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)):
        cwd = tmp_path / str(want)
        cwd.mkdir()
        codes, threads = json.loads(_fresh_python(code, cwd, **env).splitlines()[-1])
        assert codes[:-1] == [0] * len(verify.SUITES)
        assert threads in ([want], [])  # [] where numpy loads no OpenBLAS
        out = cwd / "out"
        seen.append((codes, {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}))
    assert seen[0] == seen[1]
