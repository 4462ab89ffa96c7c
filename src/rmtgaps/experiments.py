"""Experiment orchestration: configs, parallel trial execution, aggregation.

Trials are embarrassingly parallel: each worker derives its streams from
(base_seed, trial_index) alone, returns plain row dicts, and the reducer
aggregates in trial order.  The aggregate is therefore bit-identical for
any worker count, which the determinism contract of the CLI relies on.

Statistical pass/fail thresholds live in the config (defaults below, taken
from the acceptance targets); the experiment code never hard-codes one.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import __version__, ensemble, gapstats, reports, svgplot

KINDS = (
    "smallest-gap-law",
    "poisson-counts",
    "factorial-moments",
    "successive-gaps",
    "sampler-crosscheck",
    "conjecture-beta",
)

# `sample` is not an experiment (no statistics), but reuses the config shape
ALL_KINDS = KINDS + ("sample",)

DEFAULT_THRESHOLDS = {
    "smallest-gap-law": {"ks_max": {"1": 0.05, "2": 0.07, "3": 0.07}, "tau1_mean_tol": 0.05},
    "poisson-counts": {"mean_sigmas": 3.0, "fm2_sigmas": 3.0, "gof_p_min": 0.01},
    "factorial-moments": {"sigmas": 3.0},
    "successive-gaps": {"sigmas": 3.0},
    "sampler-crosscheck": {"two_sample_p_min": 0.01, "gap_law_ks_max": 0.01},
    "conjecture-beta": {},
}

_HIST_BINS = 40


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


# checks by the annotation of each ExperimentConfig field
_VALUE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, Integral) and not isinstance(v, bool),
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "tuple": lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_number, v)),
    "dict": lambda v: isinstance(v, dict),
}


@dataclass
class ExperimentConfig:
    """Knobs of one experiment run, echoed verbatim into every output."""

    kind: str
    n: int = 1000
    beta: float = 1.0
    trials: int = 4000
    base_seed: int = 20240801
    interval: tuple = (0.0, 2.0)
    k_max: int = 1
    j_max: int = 2
    workers: int = 1
    out_dir: str = "out"
    reproducible: bool = False
    sampler: str = ensemble.SAMPLER_TRIDIAGONAL
    scaling: str = ensemble.SCALING_UNIT
    c0: float = 1.0
    gap_law_trials: int = 100_000
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _VALUE_CHECKS[f.type](value):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("interval must satisfy lo < hi")
        self.interval = (float(lo), float(hi))
        defaults = DEFAULT_THRESHOLDS.get(self.kind, {})
        for key, value in self.thresholds.items():
            if isinstance(defaults.get(key), dict):
                ok = isinstance(value, dict) and all(map(_is_number, value.values()))
            else:
                ok = key not in defaults or _is_number(value)
            if not ok:
                raise ValueError(f"threshold {key!r} has the wrong type: {value!r}")
        merged = dict(defaults)
        merged.update(self.thresholds)
        self.thresholds = merged
        # built here so a spec the ensemble rejects fails before any trial runs
        self.specs = {part: _PARTS[part][0](self) for part in self.parts()}

    def parts(self) -> dict:
        """Row part -> trial count.  Only the crosscheck has several parts."""
        if self.kind == "sampler-crosscheck":
            return {
                "dense_tau1": self.trials,
                "tridiag_tau1": self.trials,
                "gap_law_n2": self.gap_law_trials,
            }
        return {self.kind: self.trials}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["interval"] = list(self.interval)
        return d

    def echo_dict(self) -> dict:
        """Config as echoed into artifacts: everything that determines the
        results.  Worker count only schedules the same deterministic trials,
        so it is excluded to keep outputs byte-identical across pool sizes."""
        d = self.to_dict()
        del d["workers"]
        return d


@dataclass
class RunReport:
    """Aggregated results of one run plus the verbatim config echo."""

    command: str
    kind: str
    config: dict
    results: dict
    passed: bool
    wall_clock_seconds: object
    version: str = __version__
    schema_version: int = reports.SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# per-trial work: each row part draws from one spec and applies one observable


def _run_spec(cfg: ExperimentConfig) -> ensemble.EnsembleSpec:
    return ensemble.EnsembleSpec(cfg.n, cfg.beta, cfg.scaling, cfg.sampler)


def _taus(cfg, v) -> dict:
    tau = gapstats.tau_sequence(v, cfg.k_max)
    return {f"tau_{k + 1}": float(tau[k]) for k in range(cfg.k_max)}


def _window_counts(cfg, v) -> dict:
    lags = gapstats.chi_tilde_counts(v, cfg.interval, cfg.j_max)
    return {
        "chi": gapstats.chi_count(v, cfg.interval),
        "chi_tilde": gapstats.chi_tilde_total(v, cfg.interval),
        **{f"lag_{j + 1}": lags[j] for j in range(cfg.j_max)},
    }


def _raw_gaps(cfg, v) -> dict:
    gaps = np.sort(np.diff(v))
    return {f"t_{k + 1}": float(gaps[k]) for k in range(cfg.k_max)}


def _spectrum(cfg, v) -> dict:
    return {"n": cfg.n, "beta": cfg.beta, **{f"lambda_{i + 1}": float(x) for i, x in enumerate(v)}}


def _tau1(cfg, v) -> dict:
    return {"value": gapstats.kth_gap_tau(v, 1)}


# row part -> (config -> spec of its spectra, (config, sorted eigenvalues) -> row fields)
_PARTS = {
    "smallest-gap-law": (_run_spec, _taus),
    "poisson-counts": (_run_spec, _window_counts),
    "factorial-moments": (
        _run_spec,
        lambda cfg, v: {"chi_tilde": gapstats.chi_tilde_total(v, cfg.interval)},
    ),
    "successive-gaps": (
        _run_spec,
        lambda cfg, v: {"lag2_count": gapstats.chi_tilde_counts(v, (0.0, cfg.c0), 2)[1]},
    ),
    "conjecture-beta": (
        lambda cfg: ensemble.EnsembleSpec(cfg.n, cfg.beta, ensemble.SCALING_NSCALED),
        _raw_gaps,
    ),
    "sample": (_run_spec, _spectrum),
    "dense_tau1": (
        lambda cfg: ensemble.EnsembleSpec(cfg.n, sampler=ensemble.SAMPLER_DENSE),
        _tau1,
    ),
    "tridiag_tau1": (lambda cfg: ensemble.EnsembleSpec(cfg.n), _tau1),
    "gap_law_n2": (
        lambda cfg: ensemble.EnsembleSpec(2, sampler=ensemble.SAMPLER_DENSE),
        lambda cfg, v: {"value": float(v[1] - v[0])},
    ),
}


def _part_rows(cfg: ExperimentConfig, part: str, lo: int, hi: int):
    """Yield the rows of trials lo..hi-1; a part other than the kind itself is named in each row."""
    spec, observe = cfg.specs[part], _PARTS[part][1]
    stream = ensemble.SeedStream(cfg.base_seed)
    label = {} if part == cfg.kind else {"part": part}
    for t in range(lo, hi):
        yield {**label, "trial": t, **observe(cfg, ensemble.sample(spec, stream, t).values)}


def _pool_worker(args):
    # top level, and given a part name rather than a table entry, so pools can pickle it
    cfg_dict, part, lo, hi = args
    return list(_part_rows(ExperimentConfig(**cfg_dict), part, lo, hi))


def _parallel_rows(cfg: ExperimentConfig, part, total: int) -> list:
    """Chunked parallel map over trial indices; order-stable concatenation."""
    if cfg.workers == 1:
        return _pool_worker((cfg.to_dict(), part, 0, total))
    chunk = max(1, math.ceil(total / (cfg.workers * 4)))
    args = [
        (cfg.to_dict(), part, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)
    ]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        parts = list(pool.map(_pool_worker, args))
    return [row for p in parts for row in p]


# ---------------------------------------------------------------------------
# aggregation per experiment kind


def _mean_se(x: np.ndarray) -> tuple:
    se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(np.mean(x)), se


def _fit_gap_law(samples, k: int, beta: float, title: str, xlabel: str) -> tuple:
    """KS distance and p-value of samples against the k-th gap law, and their histogram."""
    d, p = gapstats.ks_test(
        gapstats.EmpiricalDistribution.from_samples(samples),
        lambda x: gapstats.limiting_tau_cdf(k, x, beta),
    )
    svg = svgplot.histogram_svg(
        samples,
        _HIST_BINS,
        title=title,
        xlabel=xlabel,
        density_fn=lambda x: gapstats.limiting_tau_pdf(k, x, beta),
    )
    return d, p, svg


def _agg_smallest_gap_law(cfg, rows):
    thr = cfg.thresholds
    results = {"trials": len(rows)}
    passed = True
    svgs = {}
    for k in range(1, cfg.k_max + 1):
        taus = np.array([r[f"tau_{k}"] for r in rows])
        d, p, svgs[f"tau_{k}.svg"] = _fit_gap_law(
            taus, k, 1.0, f"normalized gap tau_{k}, n={cfg.n}, {len(rows)} trials", f"tau_{k}"
        )
        ks_max = thr["ks_max"].get(str(k))
        entry = {
            "ks_distance": d,
            "ks_p": p,
            "mean": float(np.mean(taus)),
        }
        if ks_max is not None:
            entry["ks_max"] = ks_max
            entry["ks_passed"] = bool(d < ks_max)
            passed &= entry["ks_passed"]
        if k == 1:
            expect = math.sqrt(math.pi) / 2.0
            tol = thr["tau1_mean_tol"]
            entry["mean_expected"] = expect
            entry["mean_tol"] = tol
            entry["mean_passed"] = bool(abs(entry["mean"] - expect) < tol)
            passed &= entry["mean_passed"]
        results[f"tau_{k}"] = entry
    return results, passed, svgs


def _agg_poisson_counts(cfg, rows):
    thr = cfg.thresholds
    chi = np.array([r["chi"] for r in rows], dtype=np.int64)
    chi_tilde = np.array([r["chi_tilde"] for r in rows], dtype=np.int64)
    mu = gapstats.poisson_intensity(cfg.interval)
    mean, se = _mean_se(chi.astype(np.float64))
    fm2, fm2_se = _mean_se(gapstats.falling_factorial(chi_tilde, 2))
    gof_p = gapstats.poisson_gof(chi, mu)
    mean_ok = abs(mean - mu) <= thr["mean_sigmas"] * se
    fm2_ok = abs(fm2 - mu * mu) <= thr["fm2_sigmas"] * fm2_se
    gof_ok = gof_p > thr["gof_p_min"]
    results = {
        "trials": len(rows),
        "intensity": mu,
        "chi_mean": mean,
        "chi_mean_se": se,
        "chi_mean_passed": bool(mean_ok),
        "fm2": fm2,
        "fm2_expected": mu * mu,
        "fm2_se": fm2_se,
        "fm2_passed": bool(fm2_ok),
        "gof_p": gof_p,
        "gof_passed": bool(gof_ok),
    }
    svgs = {
        "counts.svg": svgplot.histogram_svg(
            chi,
            int(np.max(chi)) + 1 if np.max(chi) > 0 else 2,
            title=f"window counts, n={cfg.n}, A={list(cfg.interval)}",
            xlabel="count",
        )
    }
    return results, bool(mean_ok and fm2_ok and gof_ok), svgs


def _agg_factorial_moments(cfg, rows):
    thr = cfg.thresholds
    chi_tilde = np.array([r["chi_tilde"] for r in rows], dtype=np.float64)
    lo, hi = cfg.interval
    base = (hi * hi - lo * lo) / 8.0
    results = {"trials": len(rows)}
    passed = True
    for k in range(1, cfg.k_max + 1):
        est, se = _mean_se(gapstats.falling_factorial(chi_tilde, k))
        expect = base**k
        ok = abs(est - expect) <= thr["sigmas"] * se if se > 0 else est == expect
        results[f"moment_{k}"] = {
            "estimate": est,
            "expected": expect,
            "se": se,
            "passed": bool(ok),
        }
        passed &= ok
    svgs = {
        "chi_tilde.svg": svgplot.histogram_svg(
            chi_tilde,
            int(np.max(chi_tilde)) + 1 if np.max(chi_tilde) > 0 else 2,
            title=f"all-lag window counts, n={cfg.n}",
            xlabel="count",
        )
    }
    return results, bool(passed), svgs


def _agg_successive_gaps(cfg, rows):
    thr = cfg.thresholds
    hits = np.array([1.0 if r["lag2_count"] > 0 else 0.0 for r in rows])
    p_hat = float(np.mean(hits))
    se = math.sqrt(p_hat * (1.0 - p_hat) / hits.size)
    bound = cfg.c0**4 / (8.0 * cfg.n)
    ok = p_hat <= bound + thr["sigmas"] * se
    results = {
        "trials": len(rows),
        "c0": cfg.c0,
        "probability": p_hat,
        "probability_se": se,
        "bound": bound,
        "passed": bool(ok),
    }
    svgs = {
        "lag2_counts.svg": svgplot.histogram_svg(
            np.array([r["lag2_count"] for r in rows]),
            max(int(max(r["lag2_count"] for r in rows)) + 1, 2),
            title=f"lag-2 window counts, n={cfg.n}, c0={cfg.c0}",
            xlabel="count",
        )
    }
    return results, bool(ok), svgs


def _agg_sampler_crosscheck(cfg, rows):
    thr = cfg.thresholds
    dense = np.array([r["value"] for r in rows if r["part"] == "dense_tau1"])
    tridiag = np.array([r["value"] for r in rows if r["part"] == "tridiag_tau1"])
    gaps2 = np.array([r["value"] for r in rows if r["part"] == "gap_law_n2"])
    d2, p2 = gapstats.ks_two_sample(
        gapstats.EmpiricalDistribution.from_samples(dense),
        gapstats.EmpiricalDistribution.from_samples(tridiag),
    )
    dg, pg = gapstats.ks_test(
        gapstats.EmpiricalDistribution.from_samples(gaps2),
        lambda s: 1.0 - math.exp(-s * s / 4.0),
    )
    two_ok = p2 > thr["two_sample_p_min"]
    gap_ok = dg < thr["gap_law_ks_max"]
    results = {
        "tau1_trials_each": int(dense.size),
        "two_sample_ks": d2,
        "two_sample_p": p2,
        "two_sample_passed": bool(two_ok),
        "gap_law_trials": int(gaps2.size),
        "gap_law_ks": dg,
        "gap_law_p": pg,
        "gap_law_passed": bool(gap_ok),
    }
    svgs = {
        "gap_law_n2.svg": svgplot.histogram_svg(
            gaps2,
            _HIST_BINS,
            title=f"2x2 eigenvalue gap, {gaps2.size} trials",
            xlabel="gap",
            density_fn=lambda s: 0.5 * s * math.exp(-s * s / 4.0),
        )
    }
    return results, bool(two_ok and gap_ok), svgs


def _agg_conjecture_beta(cfg, rows):
    """Exploratory: empirical scale by median matching, shape diagnostics only."""
    beta = cfg.beta
    expo = (beta + 2.0) / (beta + 1.0)
    results = {"trials": len(rows), "beta": beta, "exponent": expo, "exploratory": True}
    svgs = {}
    t1 = np.array([r["t_1"] for r in rows]) * cfg.n**expo
    median_target = math.log(2.0) ** (1.0 / (beta + 1.0))
    c_hat = median_target / float(np.median(t1))
    results["scale_estimate"] = c_hat
    for k in range(1, cfg.k_max + 1):
        tk = np.array([r[f"t_{k}"] for r in rows]) * cfg.n**expo * c_hat
        d, p, svgs[f"scaled_gap_{k}.svg"] = _fit_gap_law(
            tk, k, beta, f"scaled gap {k}, beta={beta}, n={cfg.n}", "scaled gap"
        )
        results[f"shape_ks_{k}"] = {"ks_distance": d, "ks_p": p}
    return results, True, svgs


_AGGREGATORS = {
    "smallest-gap-law": _agg_smallest_gap_law,
    "poisson-counts": _agg_poisson_counts,
    "factorial-moments": _agg_factorial_moments,
    "successive-gaps": _agg_successive_gaps,
    "sampler-crosscheck": _agg_sampler_crosscheck,
    "conjecture-beta": _agg_conjecture_beta,
}


def run_experiment(cfg: ExperimentConfig, write_files: bool = True) -> RunReport:
    """Run all trials, aggregate, optionally write CSV/JSON/SVG artifacts."""
    t0 = time.perf_counter()
    rows = [row for part, total in cfg.parts().items() for row in _parallel_rows(cfg, part, total)]

    results, passed, svgs = _AGGREGATORS[cfg.kind](cfg, rows)
    wall = None if cfg.reproducible else time.perf_counter() - t0
    report = RunReport(
        command="experiment",
        kind=cfg.kind,
        config=cfg.echo_dict(),
        results=results,
        passed=bool(passed),
        wall_clock_seconds=wall,
    )
    if write_files:
        out = Path(cfg.out_dir)
        _write_rows(out / f"{cfg.kind}.csv", cfg, rows)
        reports.write_json(out / f"{cfg.kind}.json", report.to_dict())
        for name, svg in svgs.items():
            path = out / f"{cfg.kind}_{name}"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(svg)
    return report


def _write_rows(path: Path, cfg: ExperimentConfig, rows) -> None:
    rows = iter(rows)
    first = next(rows)
    header = list(first.keys())
    rows = ([r[h] for h in header] for r in chain([first], rows))
    reports.write_csv(path, cfg.echo_dict(), __version__, header, rows, cfg.reproducible)


def write_spectra_csv(cfg: ExperimentConfig) -> Path:
    """Raw spectra export: one CSV row per trial with all sorted eigenvalues."""
    out = Path(cfg.out_dir) / "spectra.csv"
    _write_rows(out, cfg, _part_rows(cfg, "sample", 0, cfg.trials))
    return out
