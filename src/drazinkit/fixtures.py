"""Bundled demonstration instances, addressable by the demo subcommand ids.

Instance 2.4 deliberately violates the first intertwining relation and is
kept as the canonical rejection case; 2.5 is a valid quadruple over the
rationals whose product bd is nilpotent while ac is idempotent; 3.6 is a
valid quadruple over the integers with ac = 0 and bd a nonzero nilpotent,
the stock example of a Drazin-invertible element with no group inverse.
"""

from __future__ import annotations

from .drazin_core import Quadruple
from .errors import DrazinkitError
from .matrix_rings import RING_Q, RING_Z, RingSpec, SquareMatrix

EXAMPLE_IDS = ("2.4", "2.5", "3.6")

_RAW: dict[str, tuple[RingSpec, dict[str, list[list[int]]]]] = {
    "2.4": (
        RING_Q,
        {
            "a": [[0, 1], [0, 0]],
            "b": [[1, 0], [0, 0]],
            "c": [[1, 0], [1, 1]],
            "d": [[1, 1], [0, 0]],
        },
    ),
    "2.5": (
        RING_Q,
        {
            "a": [[0, 1], [0, 0]],
            "b": [[0, 0], [0, 1]],
            "c": [[1, 0], [1, 1]],
            "d": [[1, 0], [-1, 0]],
        },
    ),
    "3.6": (
        RING_Z,
        {
            "a": [[0, 1], [0, 1]],
            "b": [[1, 1], [0, 0]],
            "c": [[1, -1], [0, 0]],
            "d": [[0, 1], [0, 1]],
        },
    ),
}


def example_matrices(example_id: str) -> dict[str, SquareMatrix]:
    """The four raw matrices of a bundled instance, over its natural ring."""
    if example_id not in _RAW:
        raise DrazinkitError(f"unknown example {example_id!r}; choose from {EXAMPLE_IDS}")
    ring, raw = _RAW[example_id]
    return {k: SquareMatrix(ring, rows) for k, rows in raw.items()}


def example_quadruple(example_id: str) -> Quadruple:
    """The validated quadruple of a bundled instance.

    Raises RelationViolation for 2.4, which exists to be rejected.
    """
    mats = example_matrices(example_id)
    return Quadruple(mats["a"], mats["b"], mats["c"], mats["d"])

