"""Experiment orchestration: configs, chunked parallel draws, aggregation.

Trials are embarrassingly parallel: a trial's spectrum is a function of
(spec, base_seed, trial_index) alone.  A chunk of a row part's trials is one
float64 block from draw to artifact: a worker draws it with
:func:`rmtgaps.ensemble.sample_block`, one sorted spectrum per row, and the
parent maps it through the part's observable to a dict of columns,
concatenated per part in trial order, which the aggregators and the CSV
writer read.  The artifacts are therefore bit-identical for any worker count
and chunk size, which the determinism contract of the CLI relies on.  A chunk
spans at most ``_CHUNK_BYTES`` of draw working set (``EnsembleSpec.draw_bytes``).
``rmtgaps sample`` writes each chunk to its CSV as it arrives instead, so the
export is never held whole.  No run draws or observes a trial alone: the
one-row ``ensemble.sample`` and ``gapstats`` forms serve only the benchmark.

The parent keeps the blocks it has drawn in ``spectra_memo``, keyed by
(spec, base_seed), so a later run on the same spectra draws none of them:
smallest-gap-law, poisson-counts and factorial-moments at one n and seed
share their draws, and a run with fewer trials reads a prefix of a stored
block, observed in the same chunks as a draw.  Stored blocks are read-only
and take at most ``SPECTRA_MAX_BYTES`` (64 MiB), the oldest evicted first; a
block over that bound is drawn and observed but not kept.  Reuse happens only
within one process, such as a benchmark interpreter or a test session; a
single CLI call draws every spectrum it needs.  A stored spectrum is the one
a fresh draw would give, so no artifact depends on what the memo holds.

A run with a pool imports ``scipy.linalg`` (the tridiagonal eigensolver) in
the parent just before the pool forks.  The ensemble module loads it lazily,
so that ``rmtgaps verify`` never pays for it; without the parent-side load
every forked worker of every run would import it anew, about 0.3 s of CPU
each, since each run that draws starts its own pool.

Statistical pass/fail thresholds live in the config (defaults below, taken
from the acceptance targets); the experiment code never hard-codes one.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import count
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

# fewest trials a row part's statistic can be fitted on; any other part needs one
_MIN_TRIALS = {
    "smallest-gap-law": gapstats.KS_MIN_SAMPLES,
    "conjecture-beta": gapstats.KS_MIN_SAMPLES,
    "gap_law_n2": gapstats.KS_MIN_SAMPLES,
    "poisson-counts": gapstats.GOF_MIN_SAMPLES,
}


def _is_number(value) -> bool:
    # NaN (the one value unequal to itself) would make every comparison a silent FAIL
    return isinstance(value, Real) and not isinstance(value, bool) and value == value


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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # built first so a spec the ensemble rejects fails before any trial runs
        self.specs = {part: _PARTS[part][0](self) for part in self.parts()}
        lo, hi = self.interval
        if not 0 <= lo < hi:
            raise ValueError("interval must satisfy 0 <= lo < hi")
        self.interval = (float(lo), float(hi))
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        # the largest order each kind reads and its bound; a gap order indexes the n - 1 gaps
        orders = {
            "smallest-gap-law": ("k_max", self.k_max, self.n - 1),
            "conjecture-beta": ("k_max", self.k_max, self.n - 1),
            "poisson-counts": ("j_max", self.j_max, self.n - 1),
            "successive-gaps": ("its lag", 2, self.n - 1),
            "factorial-moments": ("k_max", self.k_max, math.inf),
        }
        if self.kind in orders:
            name, order, top = orders[self.kind]
            if not 1 <= order <= top:
                raise ValueError(f"{self.kind} needs {name} in 1..{top}, got {order}")
        for part, count in self.parts().items():
            need = _MIN_TRIALS.get(part, 1)
            if count < need:
                raise ValueError(f"{part} needs at least {need} trials, got {count}")
        defaults = DEFAULT_THRESHOLDS.get(self.kind, {})
        merged = dict(defaults)
        for key, value in self.thresholds.items():
            if key not in defaults:
                raise ValueError(f"unknown threshold {key!r} for {self.kind}")
            default = defaults[key]
            if isinstance(default, dict):
                ok = isinstance(value, dict) and all(map(_is_number, value.values()))
            else:
                ok = _is_number(value)
            if not ok:
                raise ValueError(f"threshold {key!r} has the wrong type: {value!r}")
            if isinstance(default, dict):
                # keyed by k: one this run reports, or one the defaults carry
                known = {str(k) for k in range(1, self.k_max + 1)} | set(default)
                if not set(value) <= known:
                    raise ValueError(f"threshold {key!r} keys must be among {sorted(known)}")
                value = {**default, **value}
            merged[key] = value
        self.thresholds = merged

    def parts(self) -> dict:
        """Row part -> trial count.  Only the crosscheck has several parts."""
        if self.kind == "sampler-crosscheck":
            return {
                "dense_tau1": self.trials,
                "tridiag_tau1": self.trials,
                "gap_law_n2": self.gap_law_trials,
            }
        return {self.kind: self.trials}

    def echo_dict(self) -> dict:
        """Config as echoed into artifacts: everything that determines the
        results.  Worker count only schedules the same deterministic trials,
        so it is excluded to keep outputs byte-identical across pool sizes."""
        d = asdict(self)
        d["interval"] = list(self.interval)
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
# per-chunk work: a row part's spectra come from one spec, its columns from one observable


def _run_spec(cfg: ExperimentConfig) -> ensemble.EnsembleSpec:
    return ensemble.EnsembleSpec(cfg.n, cfg.beta, cfg.scaling, cfg.sampler)


def _goe_spec(cfg: ExperimentConfig) -> ensemble.EnsembleSpec:
    # the GOE laws hold for gaps normalized by n, which is the unit scaling's gap scale
    if cfg.scaling != ensemble.SCALING_UNIT:
        raise ValueError(f"{cfg.kind} checks a GOE law, drawn in the unit scaling only")
    return _run_spec(cfg)


def _taus(cfg, block) -> dict:
    tau = gapstats.tau_sequence(block, cfg.k_max)
    return {f"tau_{k + 1}": tau[:, k] for k in range(cfg.k_max)}


def _all_lags(cfg, block) -> np.ndarray:
    # one pass over every lag: lag 1 is chi, the sum is chi_tilde
    return gapstats.chi_tilde_counts(block, cfg.interval, block.shape[1] - 1)


def _window_counts(cfg, block) -> dict:
    lags = _all_lags(cfg, block)
    lag_j = {f"lag_{j + 1}": lags[:, j] for j in range(cfg.j_max)}
    return {"chi": lags[:, 0], "chi_tilde": lags.sum(axis=1), **lag_j}


def _raw_gaps(cfg, block) -> dict:
    gaps = np.sort(np.diff(block, axis=1), axis=1)
    return {f"t_{k + 1}": gaps[:, k] for k in range(cfg.k_max)}


def _tau1(cfg, block) -> dict:
    return {"value": gapstats.tau_sequence(block, 1)[:, 0]}


# row part -> (config -> spec of its spectra, (config, block of sorted spectra) -> columns)
_PARTS = {
    "smallest-gap-law": (_goe_spec, _taus),
    "poisson-counts": (_goe_spec, _window_counts),
    "factorial-moments": (_goe_spec, lambda cfg, b: {"chi_tilde": _all_lags(cfg, b).sum(axis=1)}),
    "successive-gaps": (
        _goe_spec,
        lambda cfg, b: {"lag2_count": gapstats.chi_tilde_counts(b, (0.0, cfg.c0), 2)[:, 1]},
    ),
    "conjecture-beta": (
        lambda cfg: ensemble.EnsembleSpec(cfg.n, cfg.beta, ensemble.SCALING_NSCALED),
        _raw_gaps,
    ),
    "sample": (_run_spec, None),  # written as drawn, see write_spectra_csv
    "dense_tau1": (lambda cfg: ensemble.EnsembleSpec(cfg.n, sampler=ensemble.SAMPLER_DENSE), _tau1),
    "tridiag_tau1": (lambda cfg: ensemble.EnsembleSpec(cfg.n), _tau1),
    "gap_law_n2": (
        lambda cfg: ensemble.EnsembleSpec(2, sampler=ensemble.SAMPLER_DENSE),
        lambda cfg, b: {"value": b[:, 1] - b[:, 0]},
    ),
}


CacheInfo = namedtuple("CacheInfo", "hits misses blocks nbytes max_bytes")

# the bytes of spectra a process keeps; the acceptance fixtures' 4000 x 1000 block is 32 MB
SPECTRA_MAX_BYTES = 64 << 20

# the most bytes of draw working set one chunk spans, so chunks in flight stay small at any n
_CHUNK_BYTES = 64 << 10


class _SpectraMemo:
    """Sorted spectra by (spec, base_seed): read-only float64 blocks whose row t is trial t.

    Stored bytes stay within ``max_bytes``: the oldest blocks are evicted first,
    and a block larger than the bound is not stored."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.cache_clear()

    def get(self, key, trials: int):
        """The first ``trials`` spectra stored under ``key``, or None if fewer are stored."""
        block = self._blocks.get(key)
        if block is None or len(block) < trials:
            self._misses += 1
            return None
        self._hits += 1
        return block[:trials]

    def put(self, key, block: np.ndarray) -> None:
        """Store ``block`` read-only under ``key`` unless over the bound; evict the oldest."""
        if block.nbytes > self.max_bytes:
            return
        block.flags.writeable = False
        self._blocks.pop(key, None)
        self._blocks[key] = block
        while self._nbytes() > self.max_bytes:
            self._blocks.popitem(last=False)

    def _nbytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())

    def cache_clear(self) -> None:
        self._blocks = OrderedDict()
        self._hits = self._misses = 0

    def cache_info(self) -> CacheInfo:
        blocks, nbytes = len(self._blocks), self._nbytes()
        return CacheInfo(self._hits, self._misses, blocks, nbytes, self.max_bytes)


spectra_memo = _SpectraMemo(SPECTRA_MAX_BYTES)
# only the instance stays in the namespace: code that calls cache_clear() on every
# object here with cache_clear and cache_info (as functools caches have) would
# otherwise also call the class's unbound method
del _SpectraMemo


def _chunks(cfg: ExperimentConfig, keep: bool = True):
    """Yield (part, first trial, block of sorted spectra) for every chunk, in
    cfg.parts() and trial order.

    A part's chunks are sliced from the memo when it holds enough of its
    spectra.  The chunks of all other parts are drawn in one pool; with
    ``keep``, a part within the memo's bound is also gathered into one block
    and stored, and no other part is ever held whole."""
    keys, plan, blocks = {}, [], {}
    for part, total in cfg.parts().items():
        spec = cfg.specs[part]
        keys[part] = (spec, cfg.base_seed)
        stored = spectra_memo.get(keys[part], total)
        if stored is None and keep and total * spec.n * 8 <= spectra_memo.max_bytes:  # float64
            blocks[part] = np.empty((total, spec.n))
        size = max(1, min(math.ceil(total / (cfg.workers * 4)), _CHUNK_BYTES // spec.draw_bytes))
        plan += [(part, lo, min(lo + size, total), stored) for lo in range(0, total, size)]

    def gather(drawn):
        for part, lo, hi, stored in plan:
            block = next(drawn) if stored is None else stored[lo:hi]
            block.flags.writeable = False  # as a stored block is, so every path observes alike
            if part in blocks:
                blocks[part][lo:hi] = block
            yield part, lo, block
        for part, block in blocks.items():
            spectra_memo.put(keys[part], block)

    draws = [(*keys[part], lo, hi) for part, lo, hi, stored in plan if stored is None]
    if cfg.workers == 1 or not draws:
        yield from gather(ensemble.sample_block(*args) for args in draws)
    else:
        import scipy.linalg  # noqa: F401 - once here, so the forked workers inherit it

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            yield from gather(pool.map(ensemble.sample_block, *zip(*draws)))


def _columns(cfg: ExperimentConfig) -> dict:
    """part -> {column: array over the part's trials in trial order}, in cfg.parts() order."""
    observed = {part: [] for part in cfg.parts()}
    for part, _, block in _chunks(cfg):
        observed[part].append(_PARTS[part][1](cfg, block))
    return {
        part: {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
        for part, chunks in observed.items()
    }


# ---------------------------------------------------------------------------
# aggregation per experiment kind


def _mean_se(x: np.ndarray) -> tuple:
    se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return float(np.mean(x)), se


def _count_histogram(counts, title: str) -> str:
    """Histogram of window counts: one bin per count value, and at least two."""
    bins = max(int(np.max(counts)) + 1, 2)
    return svgplot.histogram_svg(counts, bins, title=title, xlabel="count")


def _fit_gap_law(samples, k: int, beta: float, title: str, xlabel: str) -> tuple:
    """KS distance and p-value of samples against the k-th gap law, and their histogram."""
    d, p = gapstats.ks_test(samples, lambda x: gapstats.limiting_tau_cdf(k, x, beta))
    svg = svgplot.histogram_svg(
        samples,
        _HIST_BINS,
        title=title,
        xlabel=xlabel,
        density_fn=lambda x: gapstats.limiting_tau_pdf(k, x, beta),
    )
    return d, p, svg


def _agg_smallest_gap_law(cfg, columns):
    thr = cfg.thresholds
    results = {"trials": cfg.trials}
    passed = True
    svgs = {}
    for k in range(1, cfg.k_max + 1):
        taus = columns[cfg.kind][f"tau_{k}"]
        d, p, svgs[f"tau_{k}.svg"] = _fit_gap_law(
            taus, k, 1.0, f"normalized gap tau_{k}, n={cfg.n}, {cfg.trials} trials", f"tau_{k}"
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


def _agg_poisson_counts(cfg, columns):
    thr = cfg.thresholds
    chi, chi_tilde = columns[cfg.kind]["chi"], columns[cfg.kind]["chi_tilde"]
    mu = gapstats.poisson_intensity(cfg.interval)
    mean, se = _mean_se(chi.astype(np.float64))
    fm2, fm2_se = _mean_se(gapstats.falling_factorial(chi_tilde, 2))
    gof_p = gapstats.poisson_gof(chi, mu)
    mean_ok = abs(mean - mu) <= thr["mean_sigmas"] * se
    fm2_ok = abs(fm2 - mu * mu) <= thr["fm2_sigmas"] * fm2_se
    gof_ok = gof_p > thr["gof_p_min"]
    results = {
        "trials": cfg.trials,
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
    svgs = {"counts.svg": _count_histogram(chi, f"window counts, n={cfg.n}, A={list(cfg.interval)}")}
    return results, bool(mean_ok and fm2_ok and gof_ok), svgs


def _agg_factorial_moments(cfg, columns):
    thr = cfg.thresholds
    chi_tilde = columns[cfg.kind]["chi_tilde"].astype(np.float64)
    base = gapstats.poisson_intensity(cfg.interval)
    results = {"trials": cfg.trials}
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
    svgs = {"chi_tilde.svg": _count_histogram(chi_tilde, f"all-lag window counts, n={cfg.n}")}
    return results, bool(passed), svgs


def _agg_successive_gaps(cfg, columns):
    thr = cfg.thresholds
    counts = columns[cfg.kind]["lag2_count"]
    hits = (counts > 0).astype(np.float64)
    p_hat = float(np.mean(hits))
    se = math.sqrt(p_hat * (1.0 - p_hat) / hits.size)
    bound = cfg.c0**4 / (8.0 * cfg.n)
    ok = p_hat <= bound + thr["sigmas"] * se if se > 0 else p_hat <= bound
    results = {
        "trials": cfg.trials,
        "c0": cfg.c0,
        "probability": p_hat,
        "probability_se": se,
        "bound": bound,
        "passed": bool(ok),
    }
    svgs = {"lag2_counts.svg": _count_histogram(counts, f"lag-2 window counts, n={cfg.n}, c0={cfg.c0}")}
    return results, bool(ok), svgs


def _agg_sampler_crosscheck(cfg, columns):
    thr = cfg.thresholds
    dense, tridiag, gaps2 = (columns[part]["value"] for part in cfg.parts())
    d2, p2 = gapstats.ks_two_sample(dense, tridiag)
    dg, pg = gapstats.ks_test(gaps2, gapstats.two_by_two_gap_cdf)
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
            density_fn=gapstats.two_by_two_gap_pdf,
        )
    }
    return results, bool(two_ok and gap_ok), svgs


def _agg_conjecture_beta(cfg, columns):
    """Exploratory: empirical scale by median matching, shape diagnostics only."""
    beta = cfg.beta
    expo = (beta + 2.0) / (beta + 1.0)
    results = {"trials": cfg.trials, "beta": beta, "exponent": expo, "exploratory": True}
    svgs = {}
    gaps = columns[cfg.kind]
    t1 = gaps["t_1"] * cfg.n**expo
    median_target = math.log(2.0) ** (1.0 / (beta + 1.0))
    c_hat = median_target / float(np.median(t1))
    results["scale_estimate"] = c_hat
    for k in range(1, cfg.k_max + 1):
        tk = gaps[f"t_{k}"] * cfg.n**expo * c_hat
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
    columns = _columns(cfg)

    results, passed, svgs = _AGGREGATORS[cfg.kind](cfg, columns)
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
        _write_rows(out / f"{cfg.kind}.csv", cfg, columns)
        reports.write_json(out / f"{cfg.kind}.json", report.to_dict())
        for name, svg in svgs.items():
            path = out / f"{cfg.kind}_{name}"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(svg)
    return report


def _write_rows(path: Path, cfg: ExperimentConfig, columns: dict) -> None:
    """Write every part's columns as CSV rows; a part other than the kind is named."""
    first = next(iter(columns))
    header = ["part"] * (first != cfg.kind) + ["trial", *columns[first]]
    rows = (
        [*[part] * (part != cfg.kind), *cells]
        for part, c in columns.items()
        for cells in zip(count(), *c.values())
    )
    reports.write_csv(path, cfg.echo_dict(), __version__, header, rows, cfg.reproducible)


def write_spectra_csv(cfg: ExperimentConfig) -> Path:
    """Raw spectra export: one CSV row per trial with all sorted eigenvalues,
    written chunk by chunk as the chunks are drawn."""
    out = Path(cfg.out_dir) / "spectra.csv"
    header = ["trial", "n", "beta", *(f"lambda_{i + 1}" for i in range(cfg.n))]
    chunks = _chunks(cfg, keep=False)
    rows = ([t, cfg.n, cfg.beta, *v] for _, lo, block in chunks for t, v in enumerate(block, lo))
    reports.write_csv(out, cfg.echo_dict(), __version__, header, rows, cfg.reproducible)
    return out
