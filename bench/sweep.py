"""Measure the benchmark baseline over seeds 1-10 and write bench/baseline.json.

    python3 bench/sweep.py

Runs every workload of ``bench/run.py`` (also the ones ``BENCHMARK.json``
does not gate) once per seed with the ``run_seconds`` of ``BENCHMARK.json``,
then once traced at seed 1.  Prints, per workload, every end-to-end metric's
median, quartiles and spread (quartile distance over median) across the
seeds, with the sample count, and writes all of it, with the artifact
digests, the failed operations, the traced per-layer table and the
environment, to ``bench/baseline.json``, labelled with the current commit.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
BASELINE = Path(__file__).resolve().parent / "baseline.json"
SEEDS = range(1, 11)
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """One benchmark run: its result object and the run's full record."""
    try:
        record = run.run(workload, seed, seconds, trace)
    except run.RunError as exc:
        raise SystemExit(f"{workload} seed {seed}: {exc}") from None
    return run.report(workload, seed, trace, record), record


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "samples": len(values),
    }


def _commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    gated = {w["name"]: w["why"] for w in bench["workloads"]}
    summary = {"label": f"commit {_commit()}", "run_seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        results, records = {}, {}
        for seed in SEEDS:
            results[seed], records[seed] = _run(workload, seed, seconds, False)
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        entry = {
            "why": gated.get(workload, "not gated by BENCHMARK.json"),
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in results.values()),
            "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
            "end_to_end": {},
            "digests": {str(seed): r["digest"] for seed, r in records.items()},
            "failures": {
                str(seed): {
                    "failed": results[seed]["failed"],
                    "attempted": results[seed]["attempted"],
                    "operations": r["failed_labels"],
                }
                for seed, r in records.items()
                if r["failed_labels"]
            },
        }
        print(f"== {workload}: fail_ratio {failed}/{attempted}, correct {entry['correct']}")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results.values()])
            stats["unit"] = results[SEEDS[0]]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(
                f"   {name:12s} median {stats['median']:.4f} {stats['unit']}  "
                f"quartiles {stats['q1']:.4f} .. {stats['q3']:.4f}  "
                f"spread {stats['spread']:.3f} (bound {bound})  n={stats['samples']}",
                flush=True,
            )
        traced, record = _run(workload, TRACE_SEED, seconds, True)
        entry["per_layer"] = {
            "seed": TRACE_SEED,
            "correct": traced["correct"],
            "digest": record["digest"],
            "metrics": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        summary["env"] = records[SEEDS[0]]["env"]
        summary["workloads"][workload] = entry
    BASELINE.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
