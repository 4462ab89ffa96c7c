"""CLI contract: exit codes, artifact formats, reproducibility."""

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from rmtgaps import cli

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
    cfg.write_text(json.dumps({"n": 200, "trials": 10, "thresholds": LOOSE}))
    out = tmp_path / "o"
    code = run(
        [
            "experiment",
            "smallest-gap-law",
            "--config",
            str(cfg),
            "--n",
            "40",
            "--out",
            str(out),
            "--reproducible",
        ]
    )
    assert code == 0
    report = json.loads((out / "smallest-gap-law.json").read_text())
    assert report["config"]["n"] == 40  # flag wins
    assert report["config"]["trials"] == 10  # config file survives


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
            code, out = run_tiny(tmp_path, kind, ["--workers", str(workers)])
            assert code == 0, kind
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
    ],
)
def test_dense_route_rejects_other_beta_and_scaling(tmp_path, args):
    out = tmp_path / "o"
    assert run([*args, "--n", "20", "--trials", "12", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["conjecture-beta", "sampler-crosscheck"])
def test_fixed_spec_kinds_ignore_run_route(tmp_path, kind):
    # conjecture-beta always draws n-scaled tridiagonal spectra, the crosscheck its own three specs
    code, _ = run_tiny(tmp_path, kind, ["--sampler", "dense", "--beta", "2"])
    assert code == 0


@pytest.mark.parametrize(
    "config",
    [{"bogus": 1}, {"thresholds": 5}, [1, 2], {"interval": 5}, {"thresholds": {"ks_max": 5}}],
)
def test_bad_config_is_usage_error(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    args = ["experiment", "smallest-gap-law", "--config", str(cfg), "--n", "20", "--trials", "4"]
    assert run(args + ["--out", str(out)]) == 2
    assert not out.exists()
