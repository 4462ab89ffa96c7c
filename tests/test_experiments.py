"""Experiment kinds not exercised by the acceptance module, plus serialization."""

import pytest

from rmtgaps import ensemble, gapstats
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
        cells += gapstats.chi_tilde_counts(v, window, 2)
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
