"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (run pytest with -s to
see them live).  The Monte Carlo criteria share module-scoped experiment
runs; everything is seeded, so this module is deterministic end to end.
"""

import json
import math
import time

import pytest

from rmtgaps import cli, experiments, loggas, verify
from rmtgaps.experiments import ExperimentConfig, run_experiment

WORKERS = 2
SEED = 20240801


def criterion(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared Monte Carlo batches


@pytest.fixture(scope="module")
def gap_law_run():
    cfg = ExperimentConfig(
        kind="smallest-gap-law",
        n=1000,
        trials=4000,
        base_seed=SEED,
        k_max=3,
        workers=WORKERS,
        reproducible=True,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg, write_files=False)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def poisson_run():
    cfg = ExperimentConfig(
        kind="poisson-counts",
        n=1000,
        trials=4000,
        base_seed=SEED,
        interval=(0.0, 2.0),
        workers=WORKERS,
        reproducible=True,
    )
    return run_experiment(cfg, write_files=False)


@pytest.fixture(scope="module")
def successive_run():
    cfg = ExperimentConfig(
        kind="successive-gaps",
        n=500,
        trials=20_000,
        base_seed=SEED,
        c0=1.0,
        workers=WORKERS,
        reproducible=True,
    )
    return run_experiment(cfg, write_files=False)


@pytest.fixture(scope="module")
def crosscheck_run():
    cfg = ExperimentConfig(
        kind="sampler-crosscheck",
        n=200,
        trials=2000,
        gap_law_trials=100_000,
        base_seed=SEED,
        workers=WORKERS,
        reproducible=True,
    )
    return run_experiment(cfg, write_files=False)


# ---------------------------------------------------------------------------
# exact machinery


def test_criterion_1_partition_identity():
    t0 = time.perf_counter()
    rows = loggas.partition_identity_report(14)
    elapsed = time.perf_counter() - t0
    worst = max(r[3] for r in rows)
    criterion(
        1,
        worst < 1e-8 and elapsed < 5.0,
        f"max |4^k ratio - 1| = {worst:.3e} over {len(rows)} cells in {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_consistency():
    worst = max(
        abs(loggas.partition_general(n, 0) - loggas.gn_closed(n)) / loggas.gn_closed(n)
        for n in range(1, 15)
    )
    spots = (
        abs(loggas.gn_closed(1) - math.sqrt(2 * math.pi)) < 1e-12
        and abs(loggas.gn_closed(2) - 4 * math.sqrt(math.pi)) < 1e-12
        and abs(loggas.gn_closed(3) - 3 * 2**1.5 * math.pi) < 1e-12
    )
    criterion(2, worst < 1e-8 and spots, f"max relative deviation {worst:.3e} for n <= 14")


def test_criterion_3_quadrature_crosscheck():
    exact = 1.5 * math.sqrt(2.0) * math.pi
    val = loggas.integrate_constrained(3, loggas.GapConstraint(1, 0.1), 1)
    rel1 = abs(val - exact) / exact
    rel2 = abs(val - loggas.gn_closed(3) / 4.0) / (loggas.gn_closed(3) / 4.0)
    criterion(3, rel1 < 1e-3 and rel2 < 1e-3, f"two-charge value off by {rel1:.2e} / {rel2:.2e}")


def _suite_detail(rows) -> str:
    return ", ".join(f"{check} {value:.1e}{'' if ok else ' FAILED'}" for check, value, _, ok in rows)


def test_criterion_4_pfaffian_property_suite():
    t0 = time.perf_counter()
    result = verify.run_suite("pfaffian", {"seed": 1})
    elapsed = time.perf_counter() - t0
    criterion(4, result.passed and elapsed < 10.0, f"{_suite_detail(result.rows)} in {elapsed:.2f}s")


def test_criterion_5_hermite_suite():
    results = [verify.run_suite("hermite"), verify.run_suite("dpoly")]
    criterion(5, all(r.passed for r in results), "; ".join(_suite_detail(r.rows) for r in results))


def test_criterion_6_energy_and_sandwiches():
    lemma10 = verify.run_suite("lemma10", {"seed": 2, "cases": 1000})
    energy = [r for r in lemma10.rows if r[0].startswith("derivative_energy_")]
    lemma12 = verify.run_suite("lemma12")
    sandwiches = [r for r in lemma12.rows if r[0].startswith("gap_sandwich_")]
    sandwich_ok = len(sandwiches) == 4 and all(ok for *_, ok in sandwiches)
    detail = f"{_suite_detail(energy)}; {_suite_detail(sandwiches)}"
    criterion(6, lemma10.passed and sandwich_ok, detail)


# ---------------------------------------------------------------------------
# Monte Carlo criteria


def test_criterion_7_smallest_gap_law(gap_law_run):
    report, elapsed = gap_law_run
    tau1 = report.results["tau_1"]
    ok = (
        tau1["ks_distance"] < 0.05
        and abs(tau1["mean"] - math.sqrt(math.pi) / 2.0) < 0.05
        and elapsed < 600.0
    )
    criterion(
        7,
        ok,
        f"KS={tau1['ks_distance']:.4f} (<0.05), mean={tau1['mean']:.4f} "
        f"(target {math.sqrt(math.pi) / 2:.4f} +- 0.05), wall={elapsed:.0f}s",
    )


def test_criterion_8_poisson_counts(poisson_run):
    r = poisson_run.results
    ok = r["chi_mean_passed"] and r["fm2_passed"] and r["gof_passed"]
    criterion(
        8,
        ok,
        f"mean={r['chi_mean']:.4f}+-{r['chi_mean_se']:.4f} (0.5), "
        f"fm2={r['fm2']:.4f}+-{r['fm2_se']:.4f} (0.25), gof p={r['gof_p']:.3f}",
    )


def test_criterion_9_no_successive_small_gaps(successive_run):
    r = successive_run.results
    criterion(
        9,
        successive_run.passed,
        f"P(lag-2 count > 0)={r['probability']:.2e} vs bound {r['bound']:.2e} + 3se",
    )


def test_criterion_10_sampler_crosscheck(crosscheck_run):
    r = crosscheck_run.results
    ok = r["two_sample_passed"] and r["gap_law_passed"]
    criterion(
        10,
        ok,
        f"two-sample p={r['two_sample_p']:.3f} (>0.01), "
        f"2x2 law KS={r['gap_law_ks']:.4f} (<0.01) on {r['gap_law_trials']} trials",
    )


def test_criterion_11_higher_order_gap_laws(gap_law_run):
    report, _ = gap_law_run
    d2 = report.results["tau_2"]["ks_distance"]
    d3 = report.results["tau_3"]["ks_distance"]
    criterion(11, d2 < 0.07 and d3 < 0.07, f"KS tau_2={d2:.4f}, tau_3={d3:.4f} (<0.07)")


def test_criterion_12_determinism(tmp_path):
    loose = {"ks_max": {"1": 0.9}, "tau1_mean_tol": 0.9}
    out = tmp_path / "det"
    blobs = []
    drew = []
    for workers in (1, 4, 8):
        # each run draws its own spectra, so the pools of 4 and 8 workers run too
        experiments.spectra_memo.cache_clear()
        code = cli.main(
            [
                "experiment",
                "smallest-gap-law",
                "--n",
                "80",
                "--trials",
                "64",
                "--seed",
                "3",
                "--workers",
                str(workers),
                "--out",
                str(out),
                "--reproducible",
                "--config",
                str(_write_cfg(tmp_path, loose)),
            ]
        )
        assert code == 0
        drew.append(experiments.spectra_memo.cache_info().hits == 0)
        blobs.append(
            (
                (out / "smallest-gap-law.csv").read_bytes(),
                (out / "smallest-gap-law.json").read_bytes(),
                (out / "smallest-gap-law_tau_1.svg").read_bytes(),
            )
        )
    ok = all(drew) and blobs[0] == blobs[1] == blobs[2]
    detail = f"byte-identical CSV/JSON/SVG across workers 1, 4, 8 and re-runs, each drawn: {drew}"
    criterion(12, ok, detail)


def _write_cfg(tmp_path, thresholds):
    p = tmp_path / "loose.json"
    p.write_text(json.dumps({"thresholds": thresholds}))
    return p
