"""Workloads of the rmtgaps benchmark and the interpreter that runs one.

Run as a script, this module is the fresh interpreter of one benchmark run.
It imports the CLI, prints ``ready`` (``run.py`` times set-up up to that
line), then calls ``rmtgaps.cli.main`` in this process once per operation,
with stdout captured, checks every operation's outputs and prints one JSON
line with the results.  ``--probe`` stops after ``ready``.

Every operation writes ``--reproducible`` artifacts into its own directory
under ``.bench_work/out``; their sha256 must be the same in every iteration
and in every run of the same code and seed, whatever the worker count.
Reference digests are kept in ``.bench_work/digests-<code sha256>.json``,
inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import rmtgaps
import layertrace
from rmtgaps import cli, ensemble, experiments, gapstats, loggas, verify  # noqa: F401 (verify: set-up)

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")

# Pool size of the Monte Carlo operations: the machine's two cores, and the
# WORKERS = 2 of the acceptance fixtures.  Traced runs use one worker, so
# every call happens in the traced interpreter.
WORKERS = 2

# Trial counts.  poisson-counts needs at least 200 samples for its
# goodness-of-fit test; all three gap-law configs share one count (and seed)
# so they draw the same spectra.  The crosscheck keeps the 1:50 ratio of
# trials to 2x2 trials of a 1000 / 50 000 run, small enough that a run
# repeats it dozens of times: at two workers its wall time varies by a third
# from call to call, because the OpenBLAS threads of both workers contend
# for two cores.  Even the median of a run then moves by 12-17 % from run to
# run, so BENCHMARK.json does not gate this workload; run it by name.
GAP_LAW_TRIALS = 200
CROSSCHECK_TRIALS = 25
CROSSCHECK_GAP_LAW_TRIALS = 1250

# The acceptance fixtures set the absolute tolerances (KS distances, mean
# tolerance) for these trial counts.  Scaling a tolerance by
# sqrt(fixture trials / trials) keeps the fixture's rejection level, so a
# verdict here fails for the same reasons it would fail there.
FIXTURE_TRIALS = 4000
FIXTURE_GAP_LAW_TRIALS = 100_000

INTERVAL = (0.0, 2.0)
ROW_CHECKS = 3  # trial indices recomputed serially per Monte Carlo part


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call; ``label`` names its output directory."""

    label: str
    argv: tuple
    config: dict | None = None  # written to a file passed as --config


@dataclass(frozen=True)
class Workload:
    ops: object  # (seed, workers, work) -> list of Op
    rows: object  # seed -> {label: [(csv row index, expected cells)]}


def _experiment(kind, seed, workers, work, flags=(), config=None) -> Op:
    argv = ("experiment", kind, *flags, "--seed", str(seed), "--workers", str(workers))
    argv += ("--reproducible", "--out", str(work / "out" / kind))
    return Op(kind, argv, config)


def _gap_law_ops(seed, workers, work) -> list:
    shared = ("--n", "1000", "--trials", str(GAP_LAW_TRIALS), "--sampler", "tridiagonal")
    shared += ("--scaling", "unit")
    scale = math.sqrt(FIXTURE_TRIALS / GAP_LAW_TRIALS)
    fixture = experiments.DEFAULT_THRESHOLDS["smallest-gap-law"]
    thresholds = {
        "ks_max": {k: v * scale for k, v in fixture["ks_max"].items()},
        "tau1_mean_tol": fixture["tau1_mean_tol"] * scale,
    }
    lo, hi = INTERVAL
    return [
        _experiment(
            "smallest-gap-law",
            seed,
            workers,
            work,
            shared + ("--k-max", "3"),
            {"thresholds": thresholds},
        ),
        _experiment(
            "poisson-counts",
            seed,
            workers,
            work,
            shared + ("--interval", f"{lo},{hi}", "--j-max", "2"),
        ),
        _experiment(
            "factorial-moments",
            seed,
            workers,
            work,
            shared + ("--interval", f"{lo},{hi}", "--k-max", "2"),
        ),
    ]


def _gap_law_rows(seed) -> dict:
    spec = ensemble.EnsembleSpec(n=1000)
    stream = ensemble.SeedStream(seed)
    rows = {"smallest-gap-law": [], "poisson-counts": [], "factorial-moments": []}
    for t in _picks(seed, GAP_LAW_TRIALS):
        v = ensemble.sample(spec, stream, t).values
        rows["smallest-gap-law"].append((t, [t, *gapstats.tau_sequence(v, 3)]))
        rows["poisson-counts"].append(
            (
                t,
                [
                    t,
                    gapstats.chi_count(v, INTERVAL),
                    gapstats.chi_tilde_total(v, INTERVAL),
                    *gapstats.chi_tilde_counts(v, INTERVAL, 2),
                ],
            )
        )
        rows["factorial-moments"].append((t, [t, gapstats.chi_tilde_total(v, INTERVAL)]))
    return rows


def _crosscheck_ops(seed, workers, work) -> list:
    scale = math.sqrt(FIXTURE_GAP_LAW_TRIALS / CROSSCHECK_GAP_LAW_TRIALS)
    fixture = experiments.DEFAULT_THRESHOLDS["sampler-crosscheck"]
    config = {
        "trials": CROSSCHECK_TRIALS,
        "gap_law_trials": CROSSCHECK_GAP_LAW_TRIALS,
        "thresholds": {"gap_law_ks_max": fixture["gap_law_ks_max"] * scale},
    }
    return [_experiment("sampler-crosscheck", seed, workers, work, ("--n", "200"), config)]


def _crosscheck_rows(seed) -> dict:
    stream = ensemble.SeedStream(seed)
    dense = ensemble.EnsembleSpec(n=200, sampler=ensemble.SAMPLER_DENSE)
    tridiag = ensemble.EnsembleSpec(n=200)
    pair = ensemble.EnsembleSpec(n=2, sampler=ensemble.SAMPLER_DENSE)
    rows = []
    for t in _picks(seed, CROSSCHECK_TRIALS):
        tau = gapstats.kth_gap_tau(ensemble.sample(dense, stream, t).values, 1)
        rows.append((t, ["dense_tau1", t, tau]))
        tau = gapstats.kth_gap_tau(ensemble.sample(tridiag, stream, t).values, 1)
        rows.append((CROSSCHECK_TRIALS + t, ["tridiag_tau1", t, tau]))
    for t in _picks(seed, CROSSCHECK_GAP_LAW_TRIALS):
        v = ensemble.sample(pair, stream, t).values
        rows.append((2 * CROSSCHECK_TRIALS + t, ["gap_law_n2", t, float(v[1] - v[0])]))
    return {"sampler-crosscheck": rows}


def _exact_ops(seed, workers, work) -> list:
    ops = []
    for suite in layertrace.SUITES:
        # lemma9 runs at the advertised MAX_PFAFFIAN_N = 40
        extra = ("--n-max", "40") if suite == "lemma9" else ()
        label = f"verify-{suite}"
        argv = ("verify", suite, *extra, "--seed", str(seed), "--reproducible")
        ops.append(Op(label, argv + ("--out", str(work / "out" / label))))
    return ops


WORKLOADS = {
    "gap-laws-n1000": Workload(_gap_law_ops, _gap_law_rows),
    "crosscheck-n200": Workload(_crosscheck_ops, _crosscheck_rows),
    "exact-suites": Workload(_exact_ops, lambda seed: {}),
}


def _picks(seed: int, population: int) -> list:
    return sorted(random.Random(seed).sample(range(population), ROW_CHECKS))


# ---------------------------------------------------------------------------
# running and checking operations


@dataclass
class OpResult:
    label: str
    code: int
    wall_s: float
    cpu_s: float
    digest: str
    problems: list  # failed output checks
    stderr: str

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + pool.ru_utime + pool.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0


def digest_dir(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def _verdict_problems(out: Path, code: int) -> list:
    """An exit code must be a verdict that the JSON report agrees with."""
    if code not in (cli.EXIT_OK, cli.EXIT_FAILURE):
        return [f"exit code {code}"]
    found = sorted(out.glob("*.json"))
    if len(found) != 1:
        return [f"expected one JSON report, found {len(found)}"]
    if json.loads(found[0].read_text())["passed"] != (code == cli.EXIT_OK):
        return [f"report verdict disagrees with exit code {code}"]
    return []


def run_op(op: Op, work: Path) -> OpResult:
    out = work / "out" / op.label
    shutil.rmtree(out, ignore_errors=True)
    argv = list(op.argv)
    if op.config is not None:
        path = work / "config" / f"{op.label}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(op.config, sort_keys=True))
        argv += ["--config", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu0, t0 = _cpu_s(), perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else cli.EXIT_USAGE
    wall, cpu = perf_counter() - t0, _cpu_s() - cpu0
    digest = digest_dir(out) if out.exists() else ""
    return OpResult(op.label, code, wall, cpu, digest, _verdict_problems(out, code), stderr.getvalue())


def _cell(value) -> str:
    if hasattr(value, "item"):
        value = value.item()
    return repr(value) if isinstance(value, float) else str(value)


def row_problems(csv_path: Path, expected: list) -> list:
    """Compare CSV data rows with rows recomputed serially, byte for byte."""
    if not csv_path.is_file():
        return [f"{csv_path.name} missing"]
    lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
    data = lines[1:]
    problems = []
    for index, cells in expected:
        want = ",".join(_cell(c) for c in cells)
        got = data[index] if index < len(data) else None
        if got != want:
            problems.append(f"row {index} of {csv_path.name} is {got!r}, recomputed {want!r}")
    return problems


def code_fingerprint() -> str:
    """sha256 of the program and benchmark sources: artifacts must repeat
    only between runs of the same code."""
    h = hashlib.sha256()
    files = [*(ROOT / "src" / "rmtgaps").rglob("*.py"), *(ROOT / "bench").glob("*.py")]
    for f in sorted(files):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


class DigestBook:
    """Reference digest per (workload, operation, seed), kept across runs."""

    def __init__(self, path: Path):
        self.path = path
        self.refs = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, digest: str) -> list:
        ref = self.refs.setdefault(key, digest)
        return [] if ref == digest else [f"artifact sha256 {digest} differs from reference {ref}"]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.refs, sort_keys=True, indent=1))
        os.replace(tmp, self.path)


def lru_caches() -> list:
    """The program's lru caches; cleared before each iteration, because a
    CLI call starts from a fresh process with empty caches."""
    found = {}
    for module in sys.modules.values():
        if getattr(module, "__name__", "").startswith("rmtgaps."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[id(obj)] = obj
    return list(found.values())


def run_iteration(ops: list, work: Path, book: DigestBook, prefix: str, caches=()) -> list:
    for cache in caches:
        cache.cache_clear()
    results = [run_op(op, work) for op in ops]
    for r in results:
        if r.code in (cli.EXIT_OK, cli.EXIT_FAILURE):
            r.problems += book.check(f"{prefix}/{r.label}", r.digest)
    return results


def check_rows(workload: Workload, seed: int, results: list, work: Path) -> None:
    """Recompute a few trials serially and compare their CSV rows."""
    expected = workload.rows(seed)
    for r in results:
        if r.label in expected:
            csv = work / "out" / r.label / f"{r.label}.csv"
            r.problems += row_problems(csv, expected[r.label])


def workload_digest(results: list) -> str:
    return hashlib.sha256("".join(f"{r.label}:{r.digest}\n" for r in results).encode()).hexdigest()


def environment() -> dict:
    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_openblas": blas(scipy),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# one run


def _measure(workload, name, seed, seconds, work, book) -> dict:
    """Repeat the workload's operations at WORKERS workers for ``seconds``."""
    ops = workload.ops(seed, WORKERS, work)
    caches = lru_caches()
    iterations, took = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        iterations.append(_iteration(run_iteration(ops, work, book, f"{name}/seed{seed}", caches)))
        took.append(perf_counter() - t0)
        # start another iteration only if it should end within the budget
        if perf_counter() - start + statistics.median(took) > seconds:
            break
    check_rows(workload, seed, iterations[-1]["ops"], work)
    return {"iterations": iterations}


def _iteration(results: list) -> dict:
    return {
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "ops": results,
    }


def _trace(workload, name, seed, work, book) -> dict:
    """A warm-up and a traced iteration, both at one worker.

    The warm-up takes the one-off costs of a fresh process (the first
    OpenBLAS call alone can take a second) out of the traced iteration."""
    ops = workload.ops(seed, 1, work)
    caches = lru_caches()
    prefix = f"{name}/seed{seed}"
    warm_up = run_iteration(ops, work, book, prefix, caches)
    tracer = layertrace.Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
    tracer.install()
    try:
        traced = run_iteration(ops, work, book, prefix, caches)
    finally:
        tracer.uninstall()
    cache_info = loggas.coefficient_tables.cache_info()
    check_rows(workload, seed, traced, work)
    failed = sum(r.failed for r in traced)
    layers = tracer.metrics(cache_info, failed, layertrace.span_cost_s())
    tracer.write_spans(work / "trace" / f"{name}-seed{seed}.csv.gz")
    return {"iterations": [_iteration(warm_up), _iteration(traced)], "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("ready", flush=True)
    if args.probe:
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not Path(rmtgaps.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rmtgaps imported from {rmtgaps.__file__}, not this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    book = DigestBook(WORK / f"digests-{code_fingerprint()[:16]}.json")
    if args.trace:
        run = _trace(workload, args.workload, args.seed, WORK, book)
    else:
        run = _measure(workload, args.workload, args.seed, args.seconds, WORK, book)
    book.save()

    result = summarize(run["iterations"])
    result["workers"] = 1 if args.trace else WORKERS
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment()
    if "layers" in run:
        result["layers"] = {k: list(v) for k, v in run["layers"].items()}
    print(json.dumps(result))
    return 0


def summarize(iterations: list) -> dict:
    """Timings, failure counts and digest of a run's iterations.

    An operation fails on a non-zero exit or a failed output check; the run
    is correct when no output check failed."""
    last = iterations[-1]["ops"]
    ops = [r for it in iterations for r in it["ops"]]
    for r in ops:
        if r.problems:
            print(f"{r.label}: exit {r.code}; {'; '.join(r.problems)}\n{r.stderr}", file=sys.stderr)
    return {
        "iterations": [{"wall_s": i["wall_s"], "cpu_s": i["cpu_s"]} for i in iterations],
        "ops_per_iteration": len(last),
        "attempted": len(ops),
        "failed": sum(r.failed for r in ops),
        "failed_labels": sorted({r.label for r in ops if r.failed}),
        "correct": not any(r.problems for r in ops),
        "digest": workload_digest(last),
    }


if __name__ == "__main__":
    sys.exit(main())
