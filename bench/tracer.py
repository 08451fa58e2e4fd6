"""Spans around the calls into drazinkit, installed from outside the package.

The traced run rebinds each public function of the layer modules (and
four hot methods) to a timing wrapper. A span records its name, start,
end, parent span and op id; spans stay in memory in flat arrays and are
written once, when the run ends. Self time (span time minus the time of
its child spans) and call counts are accumulated as spans close, so the
per-layer numbers need no second pass over the spans.

Nothing under ``src/`` changes: the wrappers replace module attributes at
run time, in every drazinkit module that imported the function by name.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array

LAYERS = ("matrix_rings", "drazin_core", "quadruple_lab", "spectral", "exact_arith", "cli")

# Functions and methods reported together under one layer metric name; any
# other public function is reported as "<layer>.<function>".
GROUPS = {
    ("matrix_rings", "SquareMatrix.__mul__"): "matrix_rings.matmul",
    ("matrix_rings", "SquareMatrix.__init__"): "matrix_rings.construct",
    ("matrix_rings", "rank"): "matrix_rings.elim",
    ("matrix_rings", "inverse"): "matrix_rings.elim",
    ("matrix_rings", "inner_inverse"): "matrix_rings.elim",
    ("matrix_rings", "det"): "matrix_rings.det",
    ("matrix_rings", "is_invertible"): "matrix_rings.det",
    ("matrix_rings", "is_nilpotent"): "matrix_rings.nilpotent",
    ("matrix_rings", "in_radical"): "matrix_rings.nilpotent",
    ("drazin_core", "Quadruple.__init__"): "drazin_core.quadruple",
    ("quadruple_lab", "PackedSpace.__init__"): "quadruple_lab.space_build",
    ("quadruple_lab", "brute_force_inverse"): "quadruple_lab.brute",
    ("exact_arith", "squarefree_part"): "exact_arith.poly",
    ("exact_arith", "rational_roots"): "exact_arith.poly",
}

METHODS = (
    ("matrix_rings", "SquareMatrix", "__mul__"),
    ("matrix_rings", "SquareMatrix", "__init__"),
    ("drazin_core", "Quadruple", "__init__"),
    ("quadruple_lab", "PackedSpace", "__init__"),
)


class Tracer:
    """In-memory span recorder with per-name call, total and self time."""

    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, name id, child time]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.brute_keys: set = set()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            parent = stack[-1] if stack else None
            span_name.append(nid)
            span_parent.append(parent[0] if parent else -1)
            span_op.append(self.op_id)
            span_end.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
                dur = end - start
                total_s[name] += dur
                self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                # A call nested directly in a call of the same group (say
                # det inside is_invertible) is one unit of that layer's work.
                if parent is None or parent[1] != nid:
                    calls[name] += 1

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the layer modules' public functions and the hot methods.

        ``modules`` maps a layer name to its freshly imported module; the
        package module itself is under the key "drazinkit".
        """
        everywhere = list(modules.values())
        for layer in LAYERS:
            mod = modules[layer]
            for fname, fn in list(vars(mod).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                if fname == "enumerate_quadruples":
                    wrapped = self._wrap_enumerate(fn, modules["quadruple_lab"])
                elif inspect.isgeneratorfunction(fn):
                    continue
                else:
                    wrapped = self.wrap(GROUPS.get((layer, fname), f"{layer}.{fname}"), fn)
                    if fname == "brute_force_inverse":
                        wrapped = self._keyed_brute(wrapped, modules["drazin_core"])
                    elif fname == "solve_for_d":
                        wrapped = self._useful_solve(wrapped)
                for other in everywhere:
                    if getattr(other, fname, None) is fn:
                        setattr(other, fname, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = getattr(cls, meth)
            name = GROUPS[(layer, f"{cls_name}.{meth}")]
            wrapped = self.wrap(name, fn)
            if cls_name == "PackedSpace":
                wrapped = self._counted_space(wrapped)
            setattr(cls, meth, wrapped)

    def _keyed_brute(self, wrapped, drazin_core):
        default = drazin_core.Flavor.DRAZIN
        keys = self.brute_keys

        @functools.wraps(wrapped)
        def brute(a, flavor=default):
            keys.add((a, flavor))
            return wrapped(a, flavor)

        return brute

    def _useful_solve(self, wrapped):
        @functools.wraps(wrapped)
        def solve(*args, **kwargs):
            useful = False
            try:
                out = wrapped(*args, **kwargs)
                useful = len(out) > 0
                return out
            finally:
                self.count("quadruple_lab.solve_for_d.useful", useful)

        return solve

    def _counted_space(self, wrapped):
        @functools.wraps(wrapped)
        def build(space, ring, n):
            wrapped(space, ring, n)
            self.count("quadruple_lab.space_build.elements", len(space.elements))

        return build

    def _wrap_enumerate(self, fn, quadruple_lab):
        exhaustive = quadruple_lab.Strategy.EXHAUSTIVE

        @functools.wraps(fn)
        def enumerate_quadruples(space, *args, **kwargs):
            for quad in fn(space, *args, **kwargs):
                self.count("quadruple_lab.enumerate.yielded")
                yield quad
            # Counted only for a stream that ran to its end: m^4 tuples for
            # an exhaustive sweep, else one candidate per sample drawn.
            if space.strategy is exhaustive:
                m = space.ring.modulus ** (space.n * space.n)
                self.count("quadruple_lab.enumerate.candidates", m**4)
            else:
                self.count("quadruple_lab.enumerate.candidates", space.budget)

        return enumerate_quadruples

    # -- output -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the raw counters."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in self.names
            },
            "counters": dict(self.counters),
            "brute_distinct_keys": len(self.brute_keys),
            "span_count": len(self.span_name),
        }

    def dump(self, path: str) -> None:
        """Write every span as a gzipped TSV: name, start, end, parent, op."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for i, (nid, s, e, p, o) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
            ):
                out.write(f"{i}\t{names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n")


def merge_summaries(parts: list[dict]) -> dict:
    """Sum the summaries of several traced processes (the CLI children)."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for part in parts:
        for name, s in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for key, v in part["counters"].items():
            counters[key] = counters.get(key, 0) + v
    return {
        "spans": spans,
        "counters": counters,
        # Distinct brute-force keys are per process: each CLI child starts
        # with empty tables, so summing them is the right base.
        "brute_distinct_keys": sum(p["brute_distinct_keys"] for p in parts),
        "span_count": sum(p["span_count"] for p in parts),
    }
