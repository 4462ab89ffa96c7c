"""rmtgaps benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is used from ``src/`` as it
stands; nothing is built.  Each run starts a fresh interpreter
(``bench/workload.py``) that calls ``rmtgaps.cli.main`` in-process for each
operation of the workload.

With ``--trace 0`` the operations repeat at two pool workers for about
``--seconds`` seconds and the run reports the end-to-end metrics: median
wall and CPU time per iteration of the workload's operations, set-up time
(median over fresh interpreters importing the CLI), peak RSS, and the failed
share of the operations.  With ``--trace 1`` the operations run twice at
one worker (warm-up, traced), and the run reports per-layer calls and self
times (see ``bench/layertrace.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The benchmark sets no BLAS or
OpenMP thread variables: the program runs as a user would run it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "workload.py"

# BENCHMARK.json gates all but crosscheck-n200 (see bench/workload.py)
WORKLOADS = ("gap-laws-n1000", "crosscheck-n200", "exact-suites")
# fresh interpreters that only import, besides the one that runs the workload
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


class RunError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _start(args: list, deadline: float) -> tuple:
    """Start a fresh interpreter; return it and the seconds until it is set up."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group with its pool workers
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RunError(f"interpreter failed during set-up (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    """Wait for the interpreter and its workers; kill them past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("time limit exceeded") from None
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = monotonic() + TIME_LIMIT_S
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        proc, setup = _start(["--probe"], deadline)
        _finish(proc, deadline)
        setups.append(setup)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc, setup = _start(argv + ["--trace", str(int(trace))], deadline)
    setups.append(setup)
    out = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"workload interpreter exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setups"] = setups
    return result


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(workload: str, seed: int, trace: bool, r: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    iters = r["iterations"]
    attempted, failed = r["attempted"], r["failed"]
    print(
        f"workload {workload} seed {seed}: {len(iters)} iterations of "
        f"{r['ops_per_iteration']} operations at {r['workers']} worker(s)"
    )
    if trace:
        layers = r["layers"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        total = sum(v for name, (v, u) in layers.items() if _is_layer_self(name))
        print(f"warm-up {iters[0]['wall_s']:.4f} s, traced {iters[1]['wall_s']:.4f} s")
        for name, (value, unit) in layers.items():
            share = f"  {100 * value / total:5.1f} %" if _is_layer_self(name) and total else ""
            print(f"  {name:44s} {value:>14.6g} {unit}{share}")
    else:
        walls = [i["wall_s"] for i in iters]
        cpus = [i["cpu_s"] for i in iters]
        values = {
            "wall_s": (statistics.median(walls), walls),
            "setup_s": (statistics.median(r["setups"]), r["setups"]),
            "cpu_s": (statistics.median(cpus), cpus),
            "peak_rss_mb": (r["peak_rss_mb"], [r["peak_rss_mb"]]),
        }
        metrics = {}
        for name, unit in END_TO_END:
            value, samples = values[name]
            q1, q3 = _quartiles(samples)
            print(
                f"  {name:12s} {value:12.6f} {unit:4s} median of {len(samples)} "
                f"(quartiles {q1:.6f} .. {q3:.6f})"
            )
            metrics[name] = {"value": value, "unit": unit}
    print(f"  {'fail_ratio':12s} {failed / attempted:12.6f} 1    {failed} of {attempted} operations")
    if r["failed_labels"]:
        print(f"  failed operations: {', '.join(r['failed_labels'])}")
    print(f"digest {workload} seed {seed} sha256 {r['digest']}")
    print(f"env {json.dumps(r['env'], sort_keys=True)}")
    return {"correct": r["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}


def _is_layer_self(name: str) -> bool:
    return name.count(".") == 1 and name.endswith(".self_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rmtgaps" / "cli.py").is_file():
        print(f"error: no rmtgaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
