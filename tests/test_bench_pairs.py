"""The summary of tools/bench_pairs.py on fixed result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"throughput_ops_s": "higher", "latency_p50_ms": "lower"}


def result_line(ops: float, p50: float, failed: int = 0) -> str:
    """A last stdout line of bench/run.py --trace 0, as it prints one."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput_ops_s": {"value": ops, "unit": "ops/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    })


def test_quartiles_interpolate_between_ranks():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_reports_quartiles_median_change_and_wins():
    before = [result_line(800, 1.2), result_line(810, 1.1), result_line(790, 1.0)]
    after = [result_line(900, 1.0), result_line(800, 1.2), result_line(910, 0.9)]
    header, ops, p50 = bench_pairs.summarize(before, after, BETTER)
    assert header.split()[:2] == ["metric", "better"]
    assert ops.split() == [
        "throughput_ops_s", "higher", "795", "/", "800", "/", "805",
        "850", "/", "900", "/", "905", "+12.5%", "2/3",
    ]
    # Lower is better: pairs 1 and 3 are won, pair 2 (1.1 -> 1.2) is lost.
    assert p50.split() == [
        "latency_p50_ms", "lower", "1.05", "/", "1.1", "/", "1.15",
        "0.95", "/", "1", "/", "1.1", "-9.1%", "2/3",
    ]


def test_summary_counts_failed_ops_and_ties_as_no_win():
    before = [result_line(800, 1.0), result_line(800, 1.0)]
    after = [result_line(800, 1.0, failed=3), result_line(800, 1.0)]
    lines = bench_pairs.summarize(before, after, BETTER)
    assert lines[1].split()[-1] == "0/2" and lines[2].split()[-1] == "0/2"
    assert lines[-1] == "after: 3 failed ops over 2 runs"


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([result_line(1, 1)], [], BETTER)


def test_without_workload_every_workload_runs_in_each_pair(monkeypatch, capsys):
    spec = json.loads(bench_pairs.BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    line = json.dumps({
        "failed": 0,
        "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
    })
    calls = []

    def fake_run(checkout, workload, seconds, seed):
        calls.append((checkout.name, workload))
        return line

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["before", "after", "--pairs", "3"]) == 0
    forward = [(side, w) for w in names for side in ("before", "after")]
    backward = [(side, w) for w in names for side in ("after", "before")]
    assert len(names) == 2 and calls == forward + backward + forward
    out = capsys.readouterr().out
    for name in names:
        assert f"{name}: 3 pairs of 20 s runs" in out
