"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Each workload, the two in BENCHMARK.json and cli_oneshot, runs
untraced on the default seed and on a held-out seed, and traced on the
default seed. The test checks that every metric in BENCHMARK.json and in
the per-layer table is emitted with its unit, that no op fails, that no
published time of a gated workload reads 0, and that the only failing
known-fault probes are the two named CLI defects. The CLI workload always
makes two full rounds, so this takes a few minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, LAYER_METRICS, RESULTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 7
KNOWN_FAULTS = {"drazin-gf5-gdrazin", "cline-gf5-gdrazin"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return line, record


def check_known_faults(record: dict, probed: bool) -> None:
    faults = record["known_faults"]
    if not probed:
        assert faults is None
        return
    # Both ROADMAP item-4 defects still fail at the commit that defined the
    # benchmark; when one is fixed, its probe passes and this shrinks.
    assert faults["probes"] == len(KNOWN_FAULTS)
    assert {f["name"] for f in faults["failures"]} <= KNOWN_FAULTS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_untraced_run_emits_every_end_to_end_metric(workload, seed):
    line, record = run_bench(workload, seed, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    detail = record["detail"]
    assert detail["failed_ratio"] == 0
    assert detail["latency_samples"] == line["attempted"]
    assert detail["latency_tail_percentile"] > 50
    meta = record["metadata"]
    for key in ("nproc", "python", "cpu_model", "loadavg_start", "loadavg_end"):
        assert meta[key]
    check_known_faults(record, probed=workload == "cli_oneshot")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    line, record = run_bench(workload, DEFAULT_SEED, 1)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    gated = workload in {w["name"] for w in SPEC["workloads"]}
    for m in SPEC["per_layer"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if gated and m["unit"] in ("s", "ms", "us"):
            assert got["value"] > 0, m["name"]
    layers = record["per_layer"]
    assert set(layers) == {name for name, _ in LAYER_METRICS}
    assert layers["trace.overhead_ratio"]["value"] > 0
    assert layers["matrix_rings.matmul.calls"]["value"] > 0
    assert layers["cli.spawn_import_s"]["value"] > 0
    used = {
        "rational_certify": ("spectral.char_poly", "matrix_rings.elim", "exact_arith.poly"),
        "residue_sampling": ("quadruple_lab.space_build", "quadruple_lab.brute"),
        "cli_oneshot": ("quadruple_lab.space_build", "spectral.char_poly", "drazin_core.drazin_inverse"),
    }[workload]
    for group in used:
        assert layers[f"{group}.calls"]["value"] > 0
        assert layers[f"{group}.self_s"]["value"] > 0
    if workload == "cli_oneshot":
        for name, _ in LAYER_METRICS:
            if name.startswith("cli.") and name.endswith(".wall_ms"):
                assert layers[name]["value"] > 0
    # Every traced run probes the known faults, so the count is real on
    # every workload.
    check_known_faults(record, probed=True)
    assert layers["cli.fault_probes_failed"]["value"] == len(record["known_faults"]["failures"])
