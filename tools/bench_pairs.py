"""Compare two checkouts on the benchmark workloads, in alternating pairs.

    python3 tools/bench_pairs.py BEFORE_DIR AFTER_DIR --workload residue_sampling \\
        --pairs 5 --seconds 20 --seed 555

Each pair runs ``bench/run.py --trace 0`` once in each checkout on each
workload, before first in even pairs and after first in odd ones, so that
a drift in the machine's load falls on both sides alike. Without
--workload every workload of BENCHMARK.json runs in each pair. For every
workload and end-to-end metric it prints each side's quartiles and median,
the change of the median, in how many pairs the after side did better, and
a verdict; which direction is better, and each metric's bound, come from
BENCHMARK.json next to this script. The verdict, first match wins:

- gain: the after side won at least 9 of every 10 pairs, and its median
  moved the better way by more than the before side's q3 - q1;
- regressed: the after median is worse than the before median by more
  than the bound, a fraction of the before median;
- unresolved: the before side's q3 - q1 is wider than the bound, so a
  regression within that spread could not be told apart from noise;
- an em dash otherwise.

The exit status is 1 when any verdict is regressed, so that a local run or
a CI step can gate on it, and 0 otherwise. It is 2 when a child
``bench/run.py`` fails, its command, status and stderr then on stderr, so
that a broken checkout is told apart from a slower one. A run that exits 0
but reports ``"correct": false`` or failed ops is a failed run too: it ends
the comparison with status 2, naming its pair, workload and side, before
any verdict, since the speed of wrong answers is no measurement. A
--workload that is not in BENCHMARK.json is refused with status 2 too,
before any run. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by linear interpolation between closest ranks."""
    ordered = sorted(values)

    def at(pct: float) -> float:
        pos = (len(ordered) - 1) * pct
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def verdict(
    before: list[float], after: list[float], better: str, bound: float, won: int
) -> str:
    """gain, regressed, unresolved or an em dash, as the module docstring
    defines them; won is the number of pairs the after side won."""
    q1, base, q3 = quartiles(before)
    sign = 1 if better == "higher" else -1
    moved = sign * (quartiles(after)[1] - base)
    if 10 * won >= 9 * len(before) and moved > q3 - q1:
        return "gain"
    if -moved > bound * abs(base):
        return "regressed"
    if q3 - q1 > bound * abs(base):
        return "unresolved"
    return "—"


def summarize(
    before: list[str], after: list[str], metrics: list[dict]
) -> tuple[list[str], list[str]]:
    """The report lines for paired result lines of bench/run.py, and the
    verdict of each metric, in the order of metrics.

    before[i] and after[i] are the last stdout lines (JSON objects) of pair
    i's two runs; metrics are the end-to-end entries of BENCHMARK.json,
    each with its name, "better" ("higher" or "lower") and bound. A pair is
    won when the after run is strictly better.
    """
    if len(before) != len(after) or not before:
        raise ValueError("need the same positive number of runs on each side")
    runs = {"before": [json.loads(line) for line in before],
            "after": [json.loads(line) for line in after]}
    pairs = len(before)
    verdicts: list[str] = []
    lines = [
        f"{'metric':18s} {'better':6s} {'before q1 / median / q3':>32s} "
        f"{'after q1 / median / q3':>32s} {'median':>8s} {'won':>7s} {'verdict':>10s}"
    ]
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        side = {
            key: [run["metrics"][name]["value"] for run in results]
            for key, results in runs.items()
        }
        q_before, q_after = quartiles(side["before"]), quartiles(side["after"])
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (y - x) > 0 for x, y in zip(side["before"], side["after"]))
        outcome = verdict(side["before"], side["after"], direction, metric["bound"], won)
        verdicts.append(outcome)
        base = q_before[1]
        change = f"{(q_after[1] - base) / base:+.1%}" if base else "n/a"
        lines.append(
            f"{name:18s} {direction:6s} {' / '.join(f'{v:.4g}' for v in q_before):>32s} "
            f"{' / '.join(f'{v:.4g}' for v in q_after):>32s} {change:>8s} "
            f"{f'{won}/{pairs}':>7s} {outcome:>10s}"
        )
    return lines, verdicts


def run_once(checkout: Path, workload: str, seconds: float, seed: int | None) -> str:
    """The last stdout line of one untraced bench/run.py in checkout; a
    failed run ends the comparison with exit status 2."""
    # Absolute, because the run's working directory is the checkout itself.
    checkout = checkout.resolve()
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        raise SystemExit(2)
    return proc.stdout.strip().splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="checkout of the parent commit")
    parser.add_argument("after", type=Path, help="checkout of the change")
    parser.add_argument(
        "--workload", choices=known, help="one workload of BENCHMARK.json (default: every one)"
    )
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [args.workload] if args.workload else known
    sides = {w: {"before": [], "after": []} for w in workloads}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for workload in workloads:
            for key in order:
                line = run_once(getattr(args, key), workload, args.seconds, args.seed)
                print(f"pair {i + 1} {workload} {key}: {line}", file=sys.stderr)
                run = json.loads(line)
                if run.get("correct") is False or run.get("failed", 0) > 0:
                    print(f"pair {i + 1} {workload} {key}: the run was not correct, "
                          f"{run.get('failed', 0)} failed ops", file=sys.stderr)
                    return 2
                sides[workload][key].append(line)
    regressed = False
    for workload, runs in sides.items():
        print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s runs")
        lines, verdicts = summarize(runs["before"], runs["after"], spec["end_to_end"])
        print("\n".join(lines))
        regressed |= "regressed" in verdicts
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
