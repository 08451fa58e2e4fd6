"""The summary of tools/bench_pairs.py on fixed result lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


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
    header, ops, p50 = bench_pairs.summarize(before, after, METRICS)
    assert header.split()[:2] == ["metric", "better"]
    assert header.split()[-1] == "verdict"
    # 2/3 pairs won is short of 9/10, so no gain; neither median is worse.
    assert ops.split() == [
        "throughput_ops_s", "higher", "795", "/", "800", "/", "805",
        "850", "/", "900", "/", "905", "+12.5%", "2/3", "—",
    ]
    # Lower is better: pairs 1 and 3 are won, pair 2 (1.1 -> 1.2) is lost.
    assert p50.split() == [
        "latency_p50_ms", "lower", "1.05", "/", "1.1", "/", "1.15",
        "0.95", "/", "1", "/", "1.1", "-9.1%", "2/3", "—",
    ]


def test_summary_counts_failed_ops_and_ties_as_no_win():
    before = [result_line(800, 1.0), result_line(800, 1.0)]
    after = [result_line(800, 1.0, failed=3), result_line(800, 1.0)]
    lines = bench_pairs.summarize(before, after, METRICS)
    assert lines[1].split()[-2] == "0/2" and lines[2].split()[-2] == "0/2"
    assert lines[-1] == "after: 3 failed ops over 2 runs"


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([result_line(1, 1)], [], METRICS)


def ten_pairs(before_ops, after_ops, bound=0.25):
    """The verdict column of the throughput line for ten pairs."""
    metrics = [{"name": "throughput_ops_s", "better": "higher", "bound": bound}]
    lines = bench_pairs.summarize(
        [result_line(x, 1.0) for x in before_ops],
        [result_line(y, 1.0) for y in after_ops],
        metrics,
    )
    return lines[1].split()[-1]


# Ten parent runs with q1 = 99.25 and q3 = 100.75: a spread of 1.5.
PARENT = [98, 99, 99, 100, 100, 100, 100, 101, 101, 102]


def test_verdict_gain_needs_nine_wins_and_a_move_beyond_the_spread():
    assert ten_pairs(PARENT, [x + 3 for x in PARENT]) == "gain"
    # Nine of ten pairs won is enough.
    assert ten_pairs(PARENT, [x + 3 for x in PARENT[:9]] + [90]) == "gain"
    # Eight of ten is not, however far the median moves.
    assert ten_pairs(PARENT, [x + 9 for x in PARENT[:8]] + [90, 90]) == "—"
    # Every pair won, but the median moved by 1, inside the spread of 1.5.
    assert ten_pairs(PARENT, [x + 1 for x in PARENT]) == "—"


def test_verdict_gain_reads_the_better_direction():
    metrics = [{"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]
    before = [result_line(100, x) for x in PARENT]
    faster = [result_line(100, x - 3) for x in PARENT]
    slower = [result_line(100, x + 3) for x in PARENT]
    assert bench_pairs.summarize(before, faster, metrics)[1].split()[-1] == "gain"
    assert bench_pairs.summarize(before, slower, metrics)[1].split()[-1] == "—"


def test_verdict_regressed_is_a_median_worse_by_more_than_the_bound():
    # The median falls from 100 to 74, by 26% against a bound of 25%.
    assert ten_pairs(PARENT, [x - 26 for x in PARENT]) == "regressed"
    assert ten_pairs(PARENT, [x - 24 for x in PARENT]) == "—"
    # The bound comes from the metric, not from the script.
    assert ten_pairs(PARENT, [x - 24 for x in PARENT], bound=0.2) == "regressed"


def test_verdict_unresolved_is_a_parent_spread_wider_than_the_bound():
    wide = [60, 70, 80, 90, 100, 100, 110, 120, 130, 140]
    # q3 - q1 = 117.5 - 82.5 = 35, over 25% of the median 100.
    assert ten_pairs(wide, wide) == "unresolved"
    assert ten_pairs(wide, wide, bound=0.5) == "—"
    # A clear gain outranks the spread, and a regression past the bound
    # is reported as one.
    assert ten_pairs(wide, [x + 40 for x in wide]) == "gain"
    assert ten_pairs(wide, [x - 30 for x in wide]) == "regressed"


def test_bounds_are_read_from_the_benchmark_file(monkeypatch, capsys):
    spec = json.loads(bench_pairs.BENCHMARK.read_text(encoding="utf-8"))
    seen = []

    def fake_summarize(before, after, metrics):
        seen.append(metrics)
        return []

    monkeypatch.setattr(bench_pairs, "summarize", fake_summarize)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: "{}")
    assert bench_pairs.main(["before", "after", "--pairs", "1"]) == 0
    assert seen and all(metrics == spec["end_to_end"] for metrics in seen)


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


def test_a_relative_checkout_runs_its_own_bench(monkeypatch, tmp_path):
    # bench/run.py runs with the checkout as its working directory, so a
    # relative checkout must not be read relative to itself a second time.
    seen = []

    def fake_run(cmd, cwd, **kwargs):
        seen.append(Path(cwd) / cmd[1])
        return subprocess.CompletedProcess(cmd, 0, stdout="{}\n", stderr="")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(Path("parent"), "w", 1.0, None) == "{}"
    assert seen == [tmp_path / "parent" / "bench" / "run.py"]


def spec_line(**values) -> str:
    """A result line carrying every end-to-end metric of BENCHMARK.json, at
    1.0 unless values names it."""
    spec = json.loads(bench_pairs.BENCHMARK.read_text(encoding="utf-8"))
    return json.dumps({
        "failed": 0,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 1.0)} for m in spec["end_to_end"]
        },
    })


@pytest.mark.parametrize("after_ops,status", [(0.5, 1), (1.0, 0), (2.0, 0)])
def test_exit_status_is_one_exactly_when_a_verdict_regressed(
    monkeypatch, capsys, after_ops, status
):
    def fake_run(checkout, workload, seconds, seed):
        if checkout.name == "after" and workload == "rational_certify":
            return spec_line(throughput_ops_s=after_ops)
        return spec_line()

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["before", "after", "--pairs", "2"]) == status
    verdicts = [
        line.split()[-1] for line in capsys.readouterr().out.splitlines()
        if line.startswith("throughput_ops_s")
    ]
    assert ("regressed" in verdicts) == (status == 1)


def test_a_failed_run_exits_two_not_one(monkeypatch, capsys):
    # A broken checkout is told apart from a slower one: status 2, with
    # the child's command, status and stderr on stderr.
    def fake_run(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback: boom\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["before", "after", "--pairs", "1", "--workload", "residue_sampling"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bench/run.py --workload residue_sampling" in err
    assert "exited 1:" in err and "Traceback: boom" in err


def test_an_unknown_workload_is_refused_before_any_run(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["before", "after", "--workload", "cli_oneshot"])
    assert exc.value.code == 2 and runs == []
    err = capsys.readouterr().err
    assert "invalid choice: 'cli_oneshot'" in err
    assert "rational_certify" in err and "residue_sampling" in err
