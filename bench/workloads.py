"""The three benchmark workloads.

All are closed loops: one client, one op at a time, in one process (the
CLI workload starts one child per op and waits for it). Each op checks its
own output; an op fails on an exception, a wrong exit code or a failed
check. Inputs come only from the seed.

- rational_certify: the Fraction-bound path over Q (matmul, elimination,
  det, char_poly), none of the finite tables.
- residue_sampling: table lookups in quadruple_lab plus small-integer
  matmul over M2(Z/4); the table build is set-up, not op time.
- cli_oneshot: what a user of the one-shot CLI pays, including a cold
  PackedSpace build in every invocation that needs one.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(HERE, "corpus", "corpus.json")

MODULES = ("matrix_rings", "drazin_core", "quadruple_lab", "spectral", "exact_arith", "cli")


def fresh_import() -> dict:
    """Import drazinkit from scratch, dropping any earlier import.

    Each set-up starts from empty module state, so a table cached by an
    earlier set-up cannot make a later one look cheap.
    """
    for name in [m for m in sys.modules if m == "drazinkit" or m.startswith("drazinkit.")]:
        del sys.modules[name]
    mods = {"drazinkit": importlib.import_module("drazinkit")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"drazinkit.{name}")
    return mods


def is_drazin_inverse(a, x, k: int) -> bool:
    """Re-check the Drazin axioms by direct multiplication."""
    ax = a * x
    return ax == x * a and x * a * x == x and a.power(k + 1) * x == a.power(k)


# -- rational_certify ------------------------------------------------------------


class RationalCertify:
    """Q, n = 1..4, 40% classical (a, b, b, a) and 60% linear-solve.

    One op certifies four quadruples, one of each dimension. Cost grows
    steeply with n, so the latency of a single quadruple is four separate
    humps and its median would sit in the gap between two of them, moving
    with the seed; the sum over n = 1..4 has one hump. The kind follows the
    mix of seeded_rational_suite exactly: over any five consecutive ops,
    each dimension is classical twice and linear-solve three times.
    """

    name = "rational_certify"
    tail_pct = 90.0
    setups = 9
    # More inputs than a 45 s run reaches (230 to 440 ops on the 2-vCPU VM
    # of bench/README.md), so no input repeats within a run.
    pool = 480
    block = 40
    # A reference unit before every op; each op's time is scaled by the
    # median of the six units around it (see hostspeed.py).
    ref_every = 1
    ref_half = 3

    def setup(self, seed: int, tracer=None) -> dict:
        mods = fresh_import()
        if tracer is not None:
            tracer.install(mods)
        lab = mods["quadruple_lab"]
        ring = mods["matrix_rings"].RING_Q
        rng = random.Random(seed)
        inputs = []
        for j in range(self.pool):
            quads = []
            for n in range(1, 5):
                classical = (j + n) % 5 < 2
                a = lab.random_matrix(ring, n, rng)
                if classical:
                    b = c = lab.random_matrix(ring, n, rng)
                else:
                    b = lab.random_invertible_matrix(ring, n, rng)
                    c = lab.random_matrix(ring, n, rng)
                quads.append((classical, a, b, c))
            inputs.append(quads)
        return {"mods": mods, "inputs": inputs}

    def make_ops(self, state: dict, seed: int):
        mods = state["mods"]
        core, lab, spectral = mods["drazin_core"], mods["quadruple_lab"], mods["spectral"]
        drazin = core.Flavor.DRAZIN
        lambdas = spectral.DEFAULT_LAMBDAS
        inputs = state["inputs"]

        def certify(classical, a, b, c) -> bool:
            if classical:
                d = a
            else:
                ds = lab.solve_for_d(a, b, c, budget=1)
                if len(ds) != 1:
                    return False
                d = ds[0]
            q = core.Quadruple(a, b, c, d)
            res = core.cline_generalized(q, drazin)
            transfer = spectral.invertibility_transfer(q, lambdas)
            spectra = spectral.nonzero_spectrum_equal(q.ac, q.bd)
            e = res.e_cert
            return (
                e.valid
                and is_drazin_inverse(q.bd, e.inverse, e.index)
                and res.index_bound_holds is True
                and transfer.all_hold
                and all(r.bd_side_invertible for r in transfer.rows if r.ac_side_invertible)
                and spectra.equal
            )

        def op(i: int) -> bool:
            return all([certify(*quad) for quad in inputs[i % len(inputs)]])

        return op


# -- residue_sampling --------------------------------------------------------------


class ResidueSampling:
    """M2(Z/4) samples through the solver, as in the 100k p-Drazin test.

    One op is 16 consecutive draws. A single draw either ends at once in
    NoSolution or goes on to the brute-force checks, so its latency has two
    humps and its median sits on the edge between them; the sum of 16 draws
    has one hump.
    """

    name = "residue_sampling"
    tail_pct = 99.0
    setups = 5
    draws = 16
    block = 500
    ref_every = 4
    ref_half = 3

    def setup(self, seed: int, tracer=None) -> dict:
        mods = fresh_import()
        if tracer is not None:
            tracer.install(mods)
        lab = mods["quadruple_lab"]
        pdrazin = mods["drazin_core"].Flavor.PDRAZIN
        space = lab.get_space(mods["matrix_rings"].zmod(4), 2)
        for m in space.elements:
            lab.brute_force_inverse(m, pdrazin)
        return {"mods": mods}

    def make_ops(self, state: dict, seed: int):
        mods = state["mods"]
        core, lab = mods["drazin_core"], mods["quadruple_lab"]
        no_solution = mods["drazinkit"].NoSolution
        pdrazin = core.Flavor.PDRAZIN
        z4 = mods["matrix_rings"].zmod(4)
        rng = random.Random(seed)

        def unique_pd(m):
            certs = lab.brute_force_inverse(m, pdrazin)
            return certs[0] if len(certs) == 1 else None

        def draw() -> bool:
            a = lab.random_matrix(z4, 2, rng)
            b = lab.random_matrix(z4, 2, rng)
            c = lab.random_matrix(z4, 2, rng)
            try:
                ds = lab.solve_for_d(a, b, c, budget=4)
            except no_solution:
                return True
            h_cert = unique_pd(a * c)
            if h_cert is None:
                return False
            h = h_cert.inverse
            for d in ds:
                q = core.Quadruple(a, b, c, d)
                bd_cert = unique_pd(q.bd)
                if bd_cert is None:
                    return False
                if b * h * h * d != bd_cert.inverse or bd_cert.index > h_cert.index + 1:
                    return False
            return True

        def op(i: int) -> bool:
            return all([draw() for _ in range(self.draws)])

        return op


# -- cli_oneshot ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("DRAZINKIT_SEED", None)
    return env


def run_child(argv: list[str], timeout: float = 150.0) -> tuple[int, bytes, float]:
    """Run one child to completion; (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, time.perf_counter() - start


def spawn_import_s() -> float:
    """Wall time of a fresh interpreter that only imports the CLI."""
    code, _, wall = run_child([sys.executable, "-c", "import drazinkit.cli"])
    if code != 0:
        raise RuntimeError("drazinkit.cli does not import")
    return wall


def load_corpus() -> tuple[list[dict], list[dict]]:
    """(timed invocations, known-fault probes) from the committed corpus."""
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)["invocations"]
    timed = [e for e in entries if not e.get("known_fault")]
    faults = [e for e in entries if e.get("known_fault")]
    return timed, faults


def check_invocation(entry: dict, code: int, out: bytes) -> bool:
    """Exit code and exact stdout bytes; for a known-fault probe, exit code
    and a JSON report with true at each of its key paths."""
    if code != entry["exit"]:
        return False
    if "stdout_sha256" in entry:
        return hashlib.sha256(out).hexdigest() == entry["stdout_sha256"]
    try:
        report = json.loads(out)
        for path in entry["stdout_true"]:
            value = report
            for key in path:
                value = value[key]
            if value is not True:
                return False
    except (ValueError, KeyError, TypeError):
        return False
    return True


class CliOneshot:
    """A fixed corpus of CLI invocations, each in a fresh child process.

    The seed fixes the order of the invocations within each round. The
    corpus repeats for whole rounds, so every run samples each invocation
    equally often: at least two, and another only while it is expected to
    end within the run time. A round has 12 invocations, so the tail is
    p75, which leaves about 9 of the 36 samples of a three-round run beyond
    it; a higher percentile would rest on two or three samples.
    """

    name = "cli_oneshot"
    tail_pct = 75.0
    setups = 9
    min_rounds = 2
    ref_half = 3

    def setup(self, seed: int) -> dict:
        spawn_import_s()
        timed, faults = load_corpus()
        return {"timed": timed, "faults": faults}

    @staticmethod
    def round_order(timed: list[dict], seed: int, round_no: int) -> list[dict]:
        order = list(timed)
        random.Random(seed * 1000 + round_no).shuffle(order)
        return order

    @staticmethod
    def argv(entry: dict, traced_to: str | None = None, op_id: int = 0) -> list[str]:
        if traced_to is None:
            return [sys.executable, "-m", "drazinkit.cli", *entry["args"]]
        wrapper = os.path.join(HERE, "cli_traced.py")
        return [sys.executable, wrapper, traced_to, str(op_id), *entry["args"]]

    @staticmethod
    def largest_child_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (RationalCertify(), ResidueSampling(), CliOneshot())}
