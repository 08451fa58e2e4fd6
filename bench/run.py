"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload rational_certify --seed 24301 --seconds 60 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of an untraced run;
with ``--trace 1`` it makes an untraced pass and a traced pass over the
same ops and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A
results file with the run's metadata and every metric goes to
``bench/results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from hostspeed import NOMINAL_S, reference_s, scale, timed
from tracer import Tracer, merge_summaries
from workloads import (
    HERE,
    SRC,
    WORKLOADS,
    CliOneshot,
    check_invocation,
    load_corpus,
    run_child,
    spawn_import_s,
)

RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 0x5EED
CLI_SUBCOMMANDS = ("demo", "verify", "drazin", "cline", "jacobson", "spectrum", "search", "oracle")

UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def quantile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def block_rates(latencies: list[float], good: list[bool], size: int) -> list[float]:
    """Passed ops per second of each whole block of ``size`` consecutive ops
    (all ops as one block when there is no whole block)."""
    blocks = [(k, k + size) for k in range(0, len(latencies) - size + 1, size)] or [(0, len(latencies))]
    return [sum(good[i:j]) / sum(latencies[i:j]) for i, j in blocks]


def time_metrics(setup_times, latencies, good, block, tail_pct) -> dict:
    lat = sorted(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": statistics.median(block_rates(latencies, good, block)),
        "latency_p50_ms": quantile(lat, 50.0) * 1e3,
        "latency_tail_ms": quantile(lat, tail_pct) * 1e3,
    }


def end_to_end(wl, setup, latencies, good, block, loop_wall, rss_mb) -> tuple[dict, dict]:
    """``setup`` and ``latencies`` map "nominal" and "wall" to the seconds of
    each set-up and op; the metrics use nominal seconds (see hostspeed.py)."""
    attempted = len(good)
    ok = sum(good)
    beyond = attempted - 1 - (attempted - 1) * wl.tail_pct / 100.0
    metrics = time_metrics(setup["nominal"], latencies["nominal"], good, block, wl.tail_pct)
    metrics["ok_ratio"] = ok / attempted
    metrics["peak_rss_mb"] = rss_mb
    detail = {
        "failed_ratio": (attempted - ok) / attempted,
        "latency_samples": attempted,
        "latency_tail_percentile": wl.tail_pct,
        "latency_tail_samples_beyond": beyond,
        "setup_samples": len(setup["nominal"]),
        "setup_times_s": setup["nominal"],
        "setup_wall_s": setup["wall"],
        "throughput_block_ops": block,
        "wall_clock": time_metrics(setup["wall"], latencies["wall"], good, block, wl.tail_pct),
        "nominal_reference_s": NOMINAL_S,
        "loop_wall_s": loop_wall,
    }
    return metrics, detail


def timed_setups(wl, seed: int) -> tuple[object, dict]:
    """Set up ``wl.setups`` times, each between two reference units; the
    last state and the wall and nominal seconds of each set-up."""
    setup = {"wall": [], "nominal": []}
    state = None
    for _ in range(wl.setups):
        state = None
        gc.collect()
        state, wall, nominal = timed(lambda: wl.setup(seed))
        setup["wall"].append(wall)
        setup["nominal"].append(nominal)
    return state, setup


# -- in-process workloads ------------------------------------------------------------


class OpLoop:
    """Times ops one at a time; an exception is a failed op.

    With ``ref_every`` set, a reference unit runs before every
    ``ref_every``-th op and once after the last, outside the op's time.
    """

    def __init__(self, op, tracer=None, ref_every: int | None = None):
        self.op = op
        self.tracer = tracer
        self.ref_every = ref_every
        self.refs: list[float] = []
        self.latencies: list[float] = []
        self.good: list[bool] = []
        self.ok = 0
        self.first_error: str | None = None

    def run(self, seconds: float | None = None, count: int | None = None) -> float:
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds if seconds is not None else None
        i = 0
        while True:
            if count is not None and i >= count:
                break
            if self.ref_every and i % self.ref_every == 0:
                self.refs.append(reference_s())
            if self.tracer is not None:
                self.tracer.op_id = i
            t0 = clock()
            try:
                good = self.op(i)
            except Exception:
                good = False
                if self.first_error is None:
                    self.first_error = traceback.format_exc()
            t1 = clock()
            self.latencies.append(t1 - t0)
            self.good.append(bool(good))
            if good:
                self.ok += 1
            elif self.first_error is None:
                self.first_error = f"op {i}: check failed"
            i += 1
            if deadline is not None and t1 >= deadline:
                break
        if self.ref_every:
            self.refs.append(reference_s())
        if self.tracer is not None:
            self.tracer.op_id = -1
        return clock() - start

    def nominal_latencies(self, half: int) -> list[float]:
        return [
            lat * scale(self.refs, i // self.ref_every, half) for i, lat in enumerate(self.latencies)
        ]


def run_inprocess(wl, seed: int, seconds: float) -> dict:
    state, setup = timed_setups(wl, seed)
    loop = OpLoop(wl.make_ops(state, seed), ref_every=wl.ref_every)
    wall = loop.run(seconds=seconds)
    attempted = len(loop.latencies)
    latencies = {"wall": loop.latencies, "nominal": loop.nominal_latencies(wl.ref_half)}
    metrics, detail = end_to_end(wl, setup, latencies, loop.good, wl.block, wall, peak_rss_mb())
    return {
        "attempted": attempted,
        "failed": attempted - loop.ok,
        "metrics": metrics,
        "detail": detail,
        "first_error": loop.first_error,
    }


def trace_inprocess(wl, seed: int, seconds: float) -> dict:
    # Untraced pass first, then the same ops again with spans on; the ratio
    # of the two walls is the tracing overhead.
    state = wl.setup(seed)
    plain = OpLoop(wl.make_ops(state, seed))
    wall_plain = plain.run(seconds=seconds / 4)
    state = None
    gc.collect()
    tracer = Tracer()
    state = wl.setup(seed, tracer)
    traced = OpLoop(wl.make_ops(state, seed), tracer)
    wall_traced = traced.run(count=len(plain.latencies))
    os.makedirs(RESULTS, exist_ok=True)
    tracer.dump(os.path.join(RESULTS, f"{wl.name}.spans.tsv.gz"))
    attempted = len(traced.latencies)
    return {
        "attempted": attempted,
        "failed": attempted - traced.ok,
        "summary": tracer.summary(),
        "overhead_ratio": wall_traced / wall_plain,
        "spawn_import_s": statistics.median(spawn_import_s() for _ in range(3)),
        "known_faults": run_faults(load_corpus()[1]),
        "first_error": traced.first_error,
    }


# -- cli_oneshot -------------------------------------------------------------------------


def run_faults(faults: list[dict]) -> dict:
    """Run each known-fault probe once; they are reported apart from the ops."""
    failed = []
    for entry in faults:
        code, out, _ = run_child(CliOneshot.argv(entry))
        if not check_invocation(entry, code, out):
            failed.append({"name": entry["name"], "exit": code, "known_fault": entry["known_fault"]})
    return {"probes": len(faults), "failed": len(failed), "failures": failed}


def run_cli(wl: CliOneshot, seed: int, seconds: float) -> dict:
    state, setup = timed_setups(wl, seed)
    walls, good, failures = [], [], []
    # A reference unit before each invocation and after the last.
    refs = [reference_s()]
    start = time.perf_counter()
    round_no, last_round = 0, 0.0
    while round_no < wl.min_rounds or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        for entry in wl.round_order(state["timed"], seed, round_no):
            code, out, wall = run_child(wl.argv(entry))
            refs.append(reference_s())
            walls.append(wall)
            good.append(check_invocation(entry, code, out))
            if not good[-1]:
                failures.append(entry["name"])
        last_round = time.perf_counter() - round_start
        round_no += 1
    loop_wall = time.perf_counter() - start
    rss = wl.largest_child_rss_mb()
    attempted, ok = len(walls), sum(good)
    latencies = {"wall": walls, "nominal": [w * scale(refs, j, wl.ref_half) for j, w in enumerate(walls)]}
    # A block is one round, so every block holds the same invocations.
    metrics, detail = end_to_end(wl, setup, latencies, good, len(state["timed"]), loop_wall, rss)
    detail["rounds"] = round_no
    faults = run_faults(state["faults"])
    detail["failed_ratio_with_known_faults"] = (attempted - ok + faults["failed"] * round_no) / (
        attempted + faults["probes"] * round_no
    )
    return {
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
        "detail": detail,
        "known_faults": faults,
        "first_error": f"failed invocations: {failures}" if failures else None,
    }


def trace_cli(wl: CliOneshot, seed: int, seconds: float) -> dict:
    state = wl.setup(seed)
    spawn = statistics.median(spawn_import_s() for _ in range(3))
    order = wl.round_order(state["timed"], seed, 0)
    walls: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
    failures, wall_plain = [], 0.0
    for entry in order:
        code, out, wall = run_child(wl.argv(entry))
        walls[entry["args"][0]].append(wall)
        wall_plain += wall
        if not check_invocation(entry, code, out):
            failures.append(entry["name"])
    span_dir = os.path.join(RESULTS, f"{wl.name}.spans")
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    parts, wall_traced = [], 0.0
    for op_id, entry in enumerate(order):
        prefix = os.path.join(span_dir, f"op{op_id}")
        code, out, wall = run_child(wl.argv(entry, traced_to=prefix, op_id=op_id))
        wall_traced += wall
        # The traced child must print the very bytes the plain CLI prints.
        if not check_invocation(entry, code, out):
            failures.append(entry["name"])
        with open(prefix + ".json", encoding="utf-8") as fh:
            parts.append(json.load(fh))
    return {
        "attempted": 2 * len(order),
        "failed": len(failures),
        "summary": merge_summaries(parts),
        "overhead_ratio": wall_traced / wall_plain,
        "spawn_import_s": spawn,
        "cli_wall_ms": {sub: statistics.mean(w) * 1e3 if w else 0.0 for sub, w in walls.items()},
        "known_faults": run_faults(state["faults"]),
        "first_error": f"failed invocations: {failures}" if failures else None,
    }


# -- per-layer metrics ---------------------------------------------------------------------

# (metric name, unit) of every per-layer metric, in report order.
LAYER_METRICS: list[tuple[str, str]] = (
    [(f"matrix_rings.matmul.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))]
    + [
        (f"matrix_rings.{g}.{k}", u)
        for g in ("construct", "elim", "det", "nilpotent")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"drazin_core.{f}.{k}", u)
        for f in ("quadruple", "index_of", "drazin_inverse", "verify_axioms", "cline_generalized", "jacobson_inverse")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("quadruple_lab.space_build.calls", "count"),
        ("quadruple_lab.space_build.self_s", "s"),
        ("quadruple_lab.space_build.elements", "count"),
        ("quadruple_lab.brute.calls", "count"),
        ("quadruple_lab.brute.self_s", "s"),
        ("quadruple_lab.brute.hit_ratio", "ratio"),
        ("quadruple_lab.solve_for_d.calls", "count"),
        ("quadruple_lab.solve_for_d.self_s", "s"),
        ("quadruple_lab.solve_for_d.useful_ratio", "ratio"),
        ("quadruple_lab.enumerate.candidates", "count"),
        ("quadruple_lab.enumerate.yielded", "count"),
    ]
    + [
        (f"spectral.{f}.{k}", u)
        for f in ("char_poly", "invertibility_transfer", "nonzero_spectrum_equal")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("exact_arith.poly.calls", "count"), ("exact_arith.poly.self_s", "s")]
    + [("cli.spawn_import_s", "s")]
    + [(f"cli.{sub}.wall_ms", "ms") for sub in CLI_SUBCOMMANDS]
    + [("cli.fault_probes_failed", "count"), ("trace.overhead_ratio", "ratio")]
)


def layer_values(traced: dict) -> tuple[dict, dict]:
    """Per-layer metric values, and the base of each ratio."""
    summary = traced["summary"]
    spans, counters = summary["spans"], summary["counters"]
    values: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        group, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and not name.startswith("cli."):
            values[name] = spans.get(group, {}).get(key, 0)
    matmul = spans.get("matrix_rings.matmul", {"calls": 0, "total_s": 0.0})
    values["matrix_rings.matmul.us_per_call"] = (
        matmul["total_s"] / matmul["calls"] * 1e6 if matmul["calls"] else 0.0
    )
    values["quadruple_lab.space_build.elements"] = counters.get("quadruple_lab.space_build.elements", 0)
    brute_calls = values["quadruple_lab.brute.calls"]
    values["quadruple_lab.brute.hit_ratio"] = (
        1 - summary["brute_distinct_keys"] / brute_calls if brute_calls else 0.0
    )
    solve_calls = values["quadruple_lab.solve_for_d.calls"]
    useful = counters.get("quadruple_lab.solve_for_d.useful", 0)
    values["quadruple_lab.solve_for_d.useful_ratio"] = useful / solve_calls if solve_calls else 0.0
    for key in ("candidates", "yielded"):
        values[f"quadruple_lab.enumerate.{key}"] = counters.get(f"quadruple_lab.enumerate.{key}", 0)
    values["cli.spawn_import_s"] = traced["spawn_import_s"]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.wall_ms"] = traced.get("cli_wall_ms", {}).get(sub, 0.0)
    values["cli.fault_probes_failed"] = traced.get("known_faults", {}).get("failed", 0)
    values["trace.overhead_ratio"] = traced["overhead_ratio"]
    bases = {
        "quadruple_lab.brute.hit_ratio": {
            "calls": brute_calls,
            "distinct_keys": summary["brute_distinct_keys"],
        },
        "quadruple_lab.solve_for_d.useful_ratio": {"calls": solve_calls, "useful": useful},
        "quadruple_lab.enumerate": {
            "candidates": values["quadruple_lab.enumerate.candidates"],
            "yielded": values["quadruple_lab.enumerate.yielded"],
        },
        "trace.overhead_ratio": {"ops": traced["attempted"]},
    }
    return values, bases


# -- reporting ---------------------------------------------------------------------------


def metadata(load_start: tuple, seed: int, seconds: float, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def published_layer_metrics() -> list[str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drazinkit", "__init__.py")):
        print(f"drazinkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    is_cli = isinstance(wl, CliOneshot)
    if args.trace:
        result = (trace_cli if is_cli else trace_inprocess)(wl, args.seed, args.seconds)
        values, bases = layer_values(result)
        units = dict(LAYER_METRICS)
        shown = {k: {"value": values[k], "unit": units[k]} for k in published_layer_metrics()}
        record = {"per_layer": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
        record["ratio_bases"] = bases
        record["spans"] = result["summary"]
    else:
        result = (run_cli if is_cli else run_inprocess)(wl, args.seed, args.seconds)
        shown = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
        record = {"end_to_end": shown, "detail": result["detail"]}
    record["workload"] = wl.name
    record["attempted"] = result["attempted"]
    record["failed"] = result["failed"]
    record["known_faults"] = result.get("known_faults")
    record["first_error"] = result["first_error"]
    record["metadata"] = metadata(load_start, args.seed, args.seconds, args.trace)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, m in (record.get("end_to_end") or record["per_layer"]).items():
        print(f"{wl.name:18s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{wl.name:18s} {'failed_ratio':44s} {record['detail']['failed_ratio']:>16.6g} ratio")
    if record["known_faults"]:
        kf = record["known_faults"]
        print(f"{wl.name:18s} known-fault probes failing: {kf['failed']} of {kf['probes']}")
    if result["first_error"]:
        print(result["first_error"], file=sys.stderr)
    print(f"results: {os.path.relpath(path)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": shown,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
