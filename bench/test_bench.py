"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from rmtgaps import cli, ensemble, gapstats, prng, reports  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def _verify_op(work: Path, suite: str, *extra: str, label: str | None = None) -> workload.Op:
    label = label or f"verify-{suite}"
    argv = ("verify", suite, *extra, "--seed", "3", "--reproducible", "--out", str(work / "out" / label))
    return workload.Op(label, argv)


def _gap_law_ops(work: Path) -> list:
    """The gap-laws operations at n=20 (poisson-counts needs 200 trials)."""
    ops = workload._gap_law_ops(5, 1, work)
    small = []
    for op in ops:
        argv = list(op.argv)
        argv[argv.index("--n") + 1] = "20"
        small.append(workload.Op(op.label, tuple(argv), op.config))
    return small


def test_metric_names_are_plain_and_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(layertrace.PER_LAYER_METRICS)
    assert list(run.WORKLOADS) == list(workload.WORKLOADS)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    names = [name for name, _ in end_to_end + per_layer] + ["fail_ratio"]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_changed_artifact_byte_fails_digest_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    work = Path("work")
    op = _verify_op(work, "dpoly")
    book = workload.DigestBook(work / "digests.json")
    (first,) = workload.run_iteration([op], work, book, "t")
    (again,) = workload.run_iteration([op], work, book, "t")
    assert not first.failed and not again.failed
    assert first.digest == again.digest
    book.save()

    csv = work / "out" / op.label / "verify_dpoly.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1
    csv.write_bytes(bytes(data))
    assert workload.DigestBook(work / "digests.json").check("t/verify-dpoly", workload.digest_dir(csv.parent))

    format_cell = reports.format_cell
    monkeypatch.setattr(reports, "format_cell", lambda v: format_cell(v).replace("0", "1"))
    (changed,) = workload.run_iteration([op], work, book, "t")
    assert changed.code == cli.EXIT_OK
    assert changed.failed and "differs from reference" in changed.problems[0]


def test_forced_nonzero_exit_counts_in_fail_ratio(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    work = Path("work")
    ops = [_verify_op(work, "dpoly"), _verify_op(work, "lemma9", "--n-max", "1", label="bad")]
    book = workload.DigestBook(work / "digests.json")
    results = workload.run_iteration(ops, work, book, "t")
    assert [r.code for r in results] == [cli.EXIT_OK, cli.EXIT_USAGE]
    assert [r.failed for r in results] == [False, True]

    summary = workload.summarize([{"wall_s": 1.0, "cpu_s": 1.0, "ops": results}])
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["failed_labels"] == ["bad"]
    summary.update(workers=1, peak_rss_mb=1.0, env={}, setups=[1.0])
    out = run.report("exact-suites", 3, False, summary)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert "fail_ratio" in capsys.readouterr().out


def test_csv_rows_match_serial_recompute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    work = Path("work")
    op = workload._experiment("smallest-gap-law", 9, 2, work, ("--n", "20", "--trials", "12"))
    workload.run_op(op, work)
    csv = work / "out" / op.label / "smallest-gap-law.csv"
    v = ensemble.sample(ensemble.EnsembleSpec(n=20), ensemble.SeedStream(9), 7).values
    expected = [(7, [7, *gapstats.tau_sequence(v, 1)])]
    assert workload.row_problems(csv, expected) == []
    assert workload.row_problems(csv, [(7, [7, 0.5])])


def test_traced_gap_laws_draw_each_spectrum_three_times(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    work = Path("work")
    ops = _gap_law_ops(work)
    book = workload.DigestBook(work / "digests.json")
    plain = workload.run_iteration(ops, work, book, "t")
    normals = prng.normals
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        traced = workload.run_iteration(ops, work, book, "t")
    finally:
        tracer.uninstall()
    assert prng.normals is normals
    assert [r.digest for r in traced] == [r.digest for r in plain]
    assert not any(r.problems for r in traced)

    span_cost = layertrace.span_cost_s()
    assert 0 < span_cost < 1e-4
    metrics = tracer.metrics((0, 0), 0, span_cost)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == list(layertrace.PER_LAYER_METRICS)
    value = {name: v for name, (v, _) in metrics.items()}
    trials = workload.GAP_LAW_TRIALS
    assert value["ensemble.unique_draw_ratio"] == 1 / 3
    assert value["ensemble.eigen_tridiagonal.calls"] == 3 * trials
    assert value["prng.stream_key.calls"] == 3 * trials
    assert value["cli.main.calls"] == 3
    assert value["loggas.self_s"] == 0.0
    assert tracer.calls["cli.main"] == 3 and value["trace.spans"] == len(tracer.span_name)
    assert value["trace.overhead_s"] == span_cost * value["trace.spans"]
    tracer.write_spans(work / "spans.csv.gz")


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "exact-suites", "--seed", "1"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
