"""Outside-in layer tracing for the benchmark.

The tracer replaces the public functions of each ``rmtgaps`` layer module by
wrappers that record one span per call: name, start, end and parent span.
Callers reach these functions through module attributes (``prng.normals``,
``ensemble.eigen_tridiagonal``, ...), including calls from inside the same
module and names bound by ``from .x import f``, so patching every module's
namespace catches every call.  Nothing in the program changes; the wrappers
are removed again by :meth:`Tracer.uninstall`.

Spans stay in memory and are written once, when the traced run ends.  A
span's self time is its duration minus the time covered by its child spans.

``trace.overhead_s`` is the number of spans times the cost of one span,
measured on a wrapped no-op (:func:`span_cost_s`).  The difference between
one traced and one untraced run of a workload cannot resolve it: run-to-run
noise is larger than the whole tracing cost.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "prng",
    "ensemble",
    "gapstats",
    "experiments",
    "reports",
    "svgplot",
    "skewlin",
    "loggas",
    "hermite",
    "verify",
    "cli",
)

# Batches and calls per batch of the span-cost measurement.
COST_BATCHES = 9
COST_CALLS = 20_000

SUITES = ("pfaffian", "hermite", "lemma9", "lemma10", "lemma12", "dpoly", "coefficients")

SAMPLERS = ("ensemble.sample", "ensemble.sample_goe_dense", "ensemble.sample_gbeta_tridiag")
VARIATES = ("prng.uniforms", "prng.normals", "prng.gammas")

# Functions whose calls and self time are reported one by one.
FUNCTIONS = (
    "prng.stream_key",
    "prng.mix64",
    "prng.uniforms",
    "prng.normals",
    "prng.gammas",
    "ensemble.eigen_tridiagonal",
    "ensemble.sample_goe_dense",
    "ensemble.sample_gbeta_tridiag",
    "experiments.run_experiment",
    "reports.write_csv",
    "reports.write_json",
    "reports.format_cell",
    "svgplot.histogram_svg",
    "skewlin.pfaffian_poly",
    "skewlin.pfaffian_bordered",
    "skewlin.pfaffian_numeric",
    "skewlin.pfaffian_exact",
    "loggas.integrate_constrained",
    "loggas.partition_identity_report",
    "loggas.coefficient_tables",
    "hermite.gauss_hermite",
    "verify.run_suite",
    "cli.main",
)

# Functions reported as one group: name -> member functions.
GROUPS = {
    "gapstats.observables": (
        "chi_count",
        "chi_tilde_counts",
        "chi_tilde_total",
        "rho_count",
        "cluster_span",
        "tau_sequence",
        "kth_gap_tau",
        "summarize",
    ),
    "gapstats.fit": (
        "limiting_tau_cdf",
        "limiting_tau_pdf",
        "poisson_intensity",
        "kolmogorov_sf",
        "ks_test",
        "ks_two_sample",
        "factorial_moment",
        "poisson_gof",
    ),
    "hermite.pair_integrals": (
        "pair_integral_band",
        "pair_integral_offsets",
        "pair_integral_root_boxes",
    ),
}


def _per_layer_metrics() -> tuple:
    metrics = []
    for name in FUNCTIONS + tuple(GROUPS):
        metrics.append((f"{name}.calls", "count"))
        metrics.append((f"{name}.self_s", "s"))
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s"))
    metrics += [
        ("ensemble.unique_draw_ratio", "1"),
        ("ensemble.sample.draws", "count"),
        ("ensemble.sample.p50_ms", "ms"),
        ("ensemble.sample.p99_ms", "ms"),
        ("ensemble.resamples", "count"),
        ("prng.variates", "count"),
        ("reports.bytes_written", "B"),
        ("loggas.coefficient_tables.hit_ratio", "1"),
    ]
    metrics += [(f"verify.{suite}.wall_s", "s") for suite in SUITES]
    metrics += [
        ("verify.checks_failed", "count"),
        ("cli.main.failed", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return tuple(metrics)


# (name, unit) of every metric a traced run reports, in report order.
PER_LAYER_METRICS = _per_layer_metrics()


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type) or not callable(obj):
            continue
        yield name, obj


class Tracer:
    """Span recorder wrapping the public functions of the layer modules."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []  # span name by id
        self._name_ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict = {}  # name -> call count
        self.self_s: dict = {}  # name -> accumulated self time
        self._stack: list = []  # open span indices
        self._child: list = []  # child time covered, per open span
        self._patched: list = []  # (module, attribute, original)
        self.draws: list = []  # (spec, base_seed, trial_index) of outermost draws
        self.draw_ms: list = []
        self.resamples = 0
        self.variates = 0
        self.bytes_written = 0
        self.suite_wall: dict = {}
        self.checks_failed = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"rmtgaps.{layer}") for layer in LAYERS]
        wrappers = {}  # id(original) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, func in _public_functions(module):
                wrappers[id(func)] = self._wrap(f"{layer}.{attr}", func)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._name_ids[name]

    def _wrap(self, name: str, func):
        name_id = self._intern(name)
        observe = self._observers().get(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            span = enter(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                duration, parent = leave(span)
            if observe is not None:
                observe(args, result, duration, parent)
            return result

        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = func.__doc__
        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id: int) -> int:
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(span)
        self._child.append(0.0)
        self.span_start.append(perf_counter())
        return span

    def _exit(self, span: int) -> tuple:
        end = perf_counter()
        self.span_end[span] = end
        self._stack.pop()
        covered = self._child.pop()
        duration = end - self.span_start[span]
        name = self.names[self.span_name[span]]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._child:
            self._child[-1] += duration
        parent = self.span_parent[span]
        return duration, (self.names[self.span_name[parent]] if parent >= 0 else None)

    # -- counters observed at layer boundaries -----------------------------

    def _observers(self) -> dict:
        observers = {name: self._on_draw for name in SAMPLERS}
        observers.update({name: self._on_variates for name in VARIATES})
        observers["reports.write_csv"] = self._on_write
        observers["reports.write_json"] = self._on_write
        observers["verify.run_suite"] = self._on_suite
        return observers

    def _on_draw(self, args, spectrum, duration, parent) -> None:
        if parent in SAMPLERS:
            return
        self.draws.append((spectrum.spec, spectrum.base_seed, spectrum.trial_index))
        self.draw_ms.append(duration * 1e3)
        self.resamples += spectrum.resamples

    def _on_variates(self, args, values, duration, parent) -> None:
        if parent is None or not parent.startswith("prng."):
            self.variates += int(values.size)

    def _on_write(self, args, result, duration, parent) -> None:
        self.bytes_written += Path(args[0]).stat().st_size

    def _on_suite(self, args, result, duration, parent) -> None:
        self.suite_wall[args[0]] = self.suite_wall.get(args[0], 0.0) + duration
        self.checks_failed += sum(1 for row in result.rows if not row[3])

    # -- results -----------------------------------------------------------

    def metrics(self, coefficient_cache_info, ops_failed: int, span_cost: float) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``.

        ``coefficient_cache_info`` is ``loggas.coefficient_tables.cache_info()``
        after the traced run, ``ops_failed`` the number of failed ``cli.main``
        calls in it and ``span_cost`` the seconds one span adds to a call
        (:func:`span_cost_s`).
        """
        calls, self_s = self.calls, self.self_s
        values = {}
        for name in FUNCTIONS:
            values[f"{name}.calls"] = calls.get(name, 0)
            values[f"{name}.self_s"] = self_s.get(name, 0.0)
        for group, members in GROUPS.items():
            layer = group.split(".")[0]
            names = [f"{layer}.{m}" for m in members]
            values[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
            values[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                t for n, t in self_s.items() if n.split(".")[0] == layer
            )
        draws = len(self.draws)
        values["ensemble.unique_draw_ratio"] = len(set(self.draws)) / draws if draws else 0.0
        values["ensemble.sample.draws"] = draws
        values["ensemble.sample.p50_ms"] = statistics.median(self.draw_ms) if draws else 0.0
        values["ensemble.sample.p99_ms"] = _percentile(self.draw_ms, 0.99) if draws else 0.0
        values["ensemble.resamples"] = self.resamples
        values["prng.variates"] = self.variates
        values["reports.bytes_written"] = self.bytes_written
        hits, misses = coefficient_cache_info[:2]
        values["loggas.coefficient_tables.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for suite in SUITES:
            values[f"verify.{suite}.wall_s"] = self.suite_wall.get(suite, 0.0)
        values["verify.checks_failed"] = self.checks_failed
        values["cli.main.failed"] = ops_failed
        values["trace.spans"] = len(self.span_name)
        values["trace.overhead_s"] = span_cost * len(self.span_name)
        return {name: (values[name], unit) for name, unit in PER_LAYER_METRICS}

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: op (root span), span, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        root = [0] * len(self.span_name)
        with gzip.open(path, "wt") as fh:
            fh.write(f"# run_id={self.run_id}\n")
            fh.write("op,span,name,start_s,end_s,parent\n")
            for span, parent in enumerate(self.span_parent):
                root[span] = span if parent < 0 else root[parent]
                fh.write(
                    f"{root[span]},{span},{self.names[self.span_name[span]]},"
                    f"{self.span_start[span]!r},{self.span_end[span]!r},{parent}\n"
                )


def span_cost_s() -> float:
    """Seconds one span adds to the call it wraps: the median over batches
    of a wrapped no-op's time per call minus the bare no-op's.  Spans of
    functions with an observer cost a little more."""

    def noop():
        return None

    wrapped = Tracer("span-cost")._wrap("span_cost.noop", noop)
    costs = []
    for _ in range(COST_BATCHES):
        t0 = perf_counter()
        for _ in range(COST_CALLS):
            wrapped()
        t1 = perf_counter()
        for _ in range(COST_CALLS):
            noop()
        t2 = perf_counter()
        costs.append((2 * t1 - t0 - t2) / COST_CALLS)
    return statistics.median(costs)


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
