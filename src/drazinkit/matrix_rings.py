"""Square matrices over a configurable coefficient ring.

The four coefficient rings are the rationals, the integers, prime fields
GF(p), and residue rings Z/n. Everything is exact: a Q matrix is stored as
integer numerators over one denominator, so products, sums and elimination
read integers. det and inverse share one kernel, Bareiss's fraction-free
elimination on integer rows (residue lifts over GF(p) and Z/n), except that
inverse eliminates mod p over GF(p), as rank and the solvers do. The
characteristic polynomial has one kernel too, Berkowitz's division-free
recurrence on the same integer rows, behind spectral.char_poly and the
unit-transfer resolvent of drazin_core. Nothing ever leaves the ring.

The stored form (lowest terms over Q, exact integers over Z, residues over
GF(p) and Z/n) is coded twice: SquareMatrix(...) validates outside input
into it, and _from_rows puts every derived matrix into it from integer
rows over a denominator. Sums, negations, scalar multiples, inverses and
the resolvent's combinations all go through _from_rows. Only the product
reduces inline, mod m and on its den = 1 path, since it is the hot path.

Matrices are immutable and hashable, so they can serve as cache keys for
the brute-force layers built on top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    DrazinkitError,
    FormulaViolation,
    NotAField,
    NotInvertible,
    RingMismatch,
    UnsupportedRing,
)
from .exact_arith import format_rational, int_literal, parse_rational

Scalar = Fraction | int

_INT_RE = re.compile(r"^[+-]?\d+$")
_NONNEG_RE = re.compile(r"^\d+$")

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers far beyond 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of a coefficient ring.

    kind is one of "Q" (rationals), "Z" (integers), "GF" (prime field),
    "Zmod" (residue ring Z/n); modulus applies to the last two only.
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind in ("Q", "Z"):
            if self.modulus is not None:
                raise DrazinkitError(f"{self.kind} takes no modulus")
        elif self.kind == "GF":
            if self.modulus is None or not _is_prime(self.modulus):
                raise NotAField(f"GF modulus must be prime, got {self.modulus}")
        elif self.kind == "Zmod":
            if self.modulus is None or self.modulus < 2:
                raise DrazinkitError(f"Zmod modulus must be >= 2, got {self.modulus}")
        else:
            raise UnsupportedRing(f"unknown ring kind {self.kind!r}")

    @property
    def is_field(self) -> bool:
        return self.kind in ("Q", "GF")

    @property
    def is_finite(self) -> bool:
        return self.kind in ("GF", "Zmod")

    # -- scalar arithmetic ----------------------------------------------------

    def canon(self, x: Scalar) -> Scalar:
        """Reduce a raw scalar to the ring's canonical form."""
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise DrazinkitError(f"{x} is not an element of {self}")
            x = x.numerator
        if self.kind == "Z":
            return int(x)
        assert self.modulus is not None
        return int(x) % self.modulus

    def is_unit_scalar(self, x: Scalar) -> bool:
        if self.kind == "Q":
            return x != 0
        if self.kind == "Z":
            return x in (1, -1)
        if self.kind == "GF":
            return x % self.modulus != 0  # type: ignore[operator]
        return gcd(int(x), self.modulus) == 1  # type: ignore[arg-type]

    # -- text and JSON forms --------------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        if self.kind == "Q":
            return parse_rational(text)
        if self.kind == "Z":
            if not _INT_RE.match(text.strip()):
                raise DrazinkitError(f"not an integer literal: {text!r}")
            return int_literal(text)
        if not _NONNEG_RE.match(text.strip()):
            raise DrazinkitError(f"not a residue literal: {text!r}")
        v = int_literal(text)
        if v >= self.modulus:  # type: ignore[operator]
            raise DrazinkitError(f"residue {v} out of range for {self}")
        return v

    def format_scalar(self, x: Scalar) -> str:
        if self.kind in ("Q", "Z"):
            return format_rational(x)  # type: ignore[arg-type]
        return str(x)

    def to_json(self) -> str | dict[str, int]:
        if self.kind in ("Q", "Z"):
            return self.kind
        assert self.modulus is not None
        return {self.kind: self.modulus}

    @staticmethod
    def from_json(obj: object) -> "RingSpec":
        if obj == "Q":
            return RING_Q
        if obj == "Z":
            return RING_Z
        if isinstance(obj, dict) and len(obj) == 1:
            (kind, modulus), = obj.items()
            if kind in ("GF", "Zmod") and isinstance(modulus, int):
                return _interned(kind, modulus)
        raise DrazinkitError(f"not a ring descriptor: {obj!r}")

    def __str__(self) -> str:
        if self.kind in ("Q", "Z"):
            return self.kind
        return f"{self.kind}({self.modulus})"


RING_Q = RingSpec("Q")
RING_Z = RingSpec("Z")

# One RingSpec per (kind, modulus) from gf, zmod and from_json, so that
# `ring is other.ring` decides ring equality without a dataclass __eq__.
# A RingSpec built directly still compares equal to the interned one.
_INTERNED: dict[tuple[str, int], RingSpec] = {}


def _interned(kind: str, modulus: int) -> RingSpec:
    ring = _INTERNED.get((kind, modulus))
    if ring is None:
        # An invalid modulus raises here, before anything is cached.
        ring = _INTERNED[kind, modulus] = RingSpec(kind, modulus)
    return ring


def gf(p: int) -> RingSpec:
    return _interned("GF", p)


def zmod(n: int) -> RingSpec:
    return _interned("Zmod", n)


def over_q(a: SquareMatrix) -> SquareMatrix:
    """a as a matrix over Q, where index, inverses and spectra are built.

    Q matrices come back unchanged and integer matrices embed with their
    integer rows over the denominator 1; any other ring raises
    UnsupportedRing.
    """
    if a.ring.kind == "Q":
        return a
    if a.ring.kind == "Z":
        return SquareMatrix._trusted(RING_Q, a.num)
    raise UnsupportedRing(f"operation needs Q or Z entries, got {a.ring}")


class SquareMatrix:
    """Immutable n-by-n matrix over a RingSpec, stored in canonical form.

    The value is the integer rows num over the positive denominator den.
    Over Q, gcd(den, every numerator) = 1, so the zero matrix has den = 1
    and equal matrices have equal (num, den). Over Z, GF(m) and Z/m, num
    holds the entries themselves (residues in [0, m) for the last two) and
    den = 1. Arithmetic reads num and den; entries, with Fractions over Q,
    is built on demand for JSON, reports and the Fraction cross-checks.
    """

    __slots__ = ("ring", "n", "num", "den")

    def __init__(self, ring: RingSpec, rows: Sequence[Sequence[Scalar]]):
        n = len(rows)
        if n < 1:
            raise DimensionMismatch("matrices must have dimension >= 1")
        is_q = ring.kind == "Q"
        m = ring.modulus
        # An int is its own canonical form over Q and Z, and x % m over GF(m)
        # and Z/m; anything else goes through ring.canon (Fraction over Q).
        canon = Fraction if is_q else ring.canon
        ents = []
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch(f"expected {n} columns, got {len(row)}")
            if m is None:
                ents.append(tuple([x if type(x) is int else canon(x) for x in row]))
            else:
                ents.append(tuple([x % m if type(x) is int else canon(x) for x in row]))
        den = 1
        if is_q:
            # Over the lcm of the reduced denominators the numerators share
            # no factor with it, so this is already the lowest-terms form.
            den = lcm(*(x.denominator for row in ents for x in row))
            ents = [
                tuple(x.numerator * (den // x.denominator) for x in row) for row in ents
            ]
        _set_ring(self, ring)
        _set_n(self, n)
        _set_num(self, tuple(ents))
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SquareMatrix is immutable")

    @classmethod
    def _trusted(
        cls, ring: RingSpec, num: tuple[tuple[int, ...], ...], den: int = 1
    ) -> "SquareMatrix":
        """A matrix from integer rows that are canonical by construction.

        num must be a square tuple of tuples of ints and (num, den) already
        the stored form: lowest terms with den > 0 over Q, residues in
        [0, m) and den = 1 over GF(m) and Z/m; nothing is checked. Outside
        data goes through SquareMatrix(...).
        """
        self = object.__new__(cls)
        _set_ring(self, ring)
        _set_n(self, len(num))
        _set_num(self, num)
        _set_den(self, den)
        return self

    @classmethod
    def identity(cls, ring: RingSpec, n: int) -> "SquareMatrix":
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls._trusted(ring, rows)

    @classmethod
    def zeros(cls, ring: RingSpec, n: int) -> "SquareMatrix":
        return cls._trusted(ring, ((0,) * n,) * n)

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries in the ring's scalar form: Fractions over Q."""
        if self.ring.kind != "Q":
            return self.num
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SquareMatrix)
            and self.num == other.num
            and self.den == other.den
            and (self.ring is other.ring or self.ring == other.ring)
        )

    def __hash__(self) -> int:
        # The ring is left out: equal matrices still hash equal, and the
        # dataclass hash of RingSpec would cost a Python call per lookup.
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"SquareMatrix({self.ring}, {[list(r) for r in self.entries]})"

    def _require_compatible(self, other: "SquareMatrix") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def _combine(self, other: "SquareMatrix", sign: int) -> "SquareMatrix":
        """self + sign * other, sign = 1 or -1, on the lcm of the two
        denominators."""
        self._require_compatible(other)
        da, db = self.den, other.den
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        rows = [
            [fa * x + fb * y for x, y in zip(r1, r2)]
            for r1, r2 in zip(self.num, other.num)
        ]
        return _from_rows(self.ring, rows, den)

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "SquareMatrix":
        return _from_rows(self.ring, [[-x for x in row] for row in self.num], self.den)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        """Row-by-column integer dot products, one per output entry.

        Over GF(m) and Z/m the dot product is reduced mod m. Over Q the
        numerator rows multiply as integers over the product of the two
        denominators, and one gcd over the result puts it in lowest terms.
        """
        ring = self.ring
        if (ring is not other.ring and ring != other.ring) or self.n != other.n:
            self._require_compatible(other)
        cols = tuple(zip(*other.num))
        # List comprehensions, which run faster than generator expressions
        # on every Python this package supports.
        m = ring.modulus
        if m is not None:
            rows = tuple(
                [tuple([sum(map(mul, row, col)) % m for col in cols]) for row in self.num]
            )
            return SquareMatrix._trusted(ring, rows)
        rows = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.num])
        den = self.den * other.den
        if den == 1:
            return SquareMatrix._trusted(ring, rows)
        return _from_rows(ring, rows, den)

    def scalar_mul(self, c: Scalar) -> "SquareMatrix":
        c = self.ring.canon(c)
        rows = [[c.numerator * x for x in row] for row in self.num]
        return _from_rows(self.ring, rows, self.den * c.denominator)

    def power(self, k: int) -> "SquareMatrix":
        """self^k by binary powering; the product starts from the first
        factor, so self^1 is self and costs no product."""
        if k < 0:
            raise DrazinkitError("power exponent must be >= 0")
        if k == 0:
            return SquareMatrix.identity(self.ring, self.n)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result


# The slot setters, which get past the raising __setattr__ at half the cost
# of object.__setattr__; every matrix is built through them.
_set_ring, _set_n, _set_num, _set_den = (
    SquareMatrix.__dict__[slot].__set__ for slot in SquareMatrix.__slots__
)


# -- elimination ---------------------------------------------------------------


def _require_field(a: SquareMatrix) -> None:
    if not a.ring.is_field:
        raise NotAField(f"operation requires a field, got {a.ring}")


def _echelon(
    rows: list[list[int]], ncols: int, m: int | None
) -> tuple[list[list[int]], list[int], int]:
    """Forward elimination, in place on integer rows.

    Pivots are sought in the first ncols columns only, each column taking
    the first nonzero entry at or below the current row. Returns the rows,
    the pivot columns and the sign of the row swaps.

    Over GF(m) the rows are residues and come back as the echelon form
    itself. With m None they are integer rows U (the numerators of a Q
    system over a common denominator, integers, or residue lifts), run
    through Bareiss's fraction-free recurrence: a row below pivot p becomes
    (p x - f y) // prev, prev the pivot before p, and every division is
    exact (Bareiss 1968). Each row stays prev times the row that
    elimination with division would leave in U, so the pivot columns are
    the same; a square U of full rank has determinant sign * D, where D is
    the last pivot.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        # Rows r and below are zero left of column c, so only columns c
        # onwards change.
        top = rows[r][c:]
        p = top[0]
        if m is None:
            for row in rows[r + 1:]:
                f = row[c]
                row[c:] = [(p * x - f * y) // prev for x, y in zip(row[c:], top)]
            prev = p
        else:
            inv = pow(p, -1, m)
            for row in rows[r + 1:]:
                if row[c] != 0:
                    f = row[c] * inv
                    row[c:] = [(x - f * y) % m for x, y in zip(row[c:], top)]
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def _reduce(
    rows: list[list[int]], ncols: int, m: int | None
) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of integer rows, in place; returns (rows,
    pivot columns, D), the reduced form being rows / D.

    The forward pass is _echelon, the backward pass _back_substitute.
    """
    rows, pivots, _ = _echelon(rows, ncols, m)
    return rows, pivots, _back_substitute(rows, pivots, m)


def _back_substitute(rows: list[list[int]], pivots: list[int], m: int | None) -> int:
    """Backward pass on rows that _echelon left, in place; returns D, the
    reduced form being rows / D.

    Normalises each pivot row and clears the entries above its pivot.
    Over GF(m), D = 1. With m None the pass stays in integers: with D the
    last Bareiss pivot, D times the reduced form is integral (Cramer's
    rule), and the pivot row r of it is (D u_r - sum of u_r[c_s] x_s over
    the later pivot rows x_s) // p_r, with u_r the echelon row and p_r its
    pivot. The rows below the pivot rows are left as the forward pass made
    them, D times what elimination with division leaves there. D may be
    negative.
    """
    rk = len(pivots)
    if m is not None:
        for r in range(rk - 1, -1, -1):
            c = pivots[r]
            inv = pow(rows[r][c], -1, m)
            top = rows[r] = [inv * x % m for x in rows[r]]
            for i in range(r):
                f = rows[i][c]
                if f != 0:
                    rows[i] = [(x - f * y) % m for x, y in zip(rows[i], top)]
        return 1
    big_d = rows[rk - 1][pivots[-1]] if rk else 1
    for r in range(rk - 1, -1, -1):
        row = rows[r]
        acc = [big_d * x for x in row]
        for s in range(r + 1, rk):
            f = row[pivots[s]]
            if f != 0:
                acc = [a - f * x for a, x in zip(acc, rows[s])]
        p = row[pivots[r]]
        rows[r] = [a // p for a in acc]
    return big_d


def reduced_echelon(
    ring: RingSpec, rows: Sequence[Sequence[Scalar]], ncols: int
) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form over a field, pivoting in the first ncols
    columns only; returns (rows, pivot columns).

    For an augmented system [M | v] with ncols the width of M, a nonzero
    entry of a row below the pivot rows marks the system inconsistent.
    This is the scalar-level entry to the kernel _reduce: over Q the rows
    are put over the lcm d of their denominators, and each output entry is
    one Fraction, x / D on the pivot rows and x / (d D) on the rows below.
    """
    m = ring.modulus
    if m is not None:
        return _reduce([list(r) for r in rows], ncols, m)[:2]
    d = lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
    ints, pivots, big_d = _reduce(ints, ncols, None)
    below = d * big_d
    return [
        [Fraction(x, big_d if i < len(pivots) else below) for x in row]
        for i, row in enumerate(ints)
    ], pivots


def _with_identity(a: SquareMatrix) -> list[list[int]]:
    """The integer rows [num | den I], which are den [A | I]. Reduced with
    pivots in A's columns only they give [R | P] with P invertible and
    P A = R; the pivot count is the rank of A."""
    den = a.den
    return [
        list(row) + [den if i == j else 0 for j in range(a.n)]
        for i, row in enumerate(a.num)
    ]


def _from_rows(
    ring: RingSpec, rows: Iterable[Iterable[int]], den: int
) -> SquareMatrix:
    """The matrix rows / den in stored form, the one normaliser of derived
    integer rows: in lowest terms over Q, exact division over Z, times the
    inverse of den modulo m over GF(m) and Z/m. den must divide every entry
    over Z and be a unit modulo m. Over Q it may be negative or share a
    factor with every entry; one gcd over the whole matrix brings it to the
    stored form.
    """
    m = ring.modulus
    if m is not None:
        inv = pow(den, -1, m)
        return SquareMatrix._trusted(
            ring, tuple([tuple([x * inv % m for x in row]) for row in rows])
        )
    if den == 1:
        return SquareMatrix._trusted(ring, tuple(map(tuple, rows)))
    if ring.kind == "Z":
        rows = tuple(tuple(x // den for x in row) for row in rows)
        return SquareMatrix._trusted(ring, rows)
    rows = tuple(map(tuple, rows))
    if den < 0:
        den = -den
        rows = tuple(tuple(-x for x in row) for row in rows)
    g = gcd(den, *chain.from_iterable(rows))
    if g != 1:
        rows = tuple(tuple(x // g for x in row) for row in rows)
        den //= g
    return SquareMatrix._trusted(ring, rows, den)


def _det_in_ring(ring: RingSpec, det_num: int, den: int, n: int) -> Scalar:
    """det(A) from det_num, the determinant of the n x n integer rows
    num = den A: divided by den**n over Q, as is over Z, and reduced mod m
    over GF(m) and Z/m, which is exact because reduction mod m is a ring
    homomorphism."""
    if ring.kind == "Q":
        return Fraction(det_num, den**n)
    m = ring.modulus
    return det_num if m is None else det_num % m


def rank(a: SquareMatrix) -> int:
    """Row rank by exact elimination; fields only."""
    _require_field(a)
    return len(_echelon([list(r) for r in a.num], a.n, a.ring.modulus)[1])


def inverse(a: SquareMatrix) -> SquareMatrix:
    """Two-sided inverse, or NotInvertible explaining why none exists.

    One elimination of [num | den I]: modulo p over GF(p), in integers over
    Q, Z and Z/m (on the residues' integer lifts). At full rank the forward
    pass's last pivot D is sign * det(num), and the right half of the
    reduced rows is D A^-1, which is +-adj(A) over Z and Z/m. So A^-1 is
    that half over D whenever D is a unit of the ring: +-1 over Z, prime to
    m over Z/m, and always over a field. Over Z and Z/m the result is
    checked against A X = I.
    """
    ring = a.ring
    n = a.n
    m = ring.modulus if ring.kind == "GF" else None
    rows, pivots, sign = _echelon(_with_identity(a), n, m)
    full = len(pivots) == n
    if ring.is_field:
        if not full:
            raise NotInvertible(f"rank {len(pivots)} < {n}", reason="rank deficiency")
    else:
        d = _det_in_ring(ring, sign * rows[-1][n - 1] if full else 0, 1, n)
        if not ring.is_unit_scalar(d):
            raise NotInvertible(
                f"det {d} is not a unit of {ring}", reason="det not a unit"
            )
    big_d = _back_substitute(rows, pivots, m)
    result = _from_rows(ring, [row[n:] for row in rows], big_d)
    if not ring.is_field and a * result != SquareMatrix.identity(ring, n):
        raise FormulaViolation("elimination inverse failed verification")
    return result


def is_invertible(a: SquareMatrix) -> bool:
    return a.ring.is_unit_scalar(det(a))


def _bareiss(rows: list[list[Scalar]], div: Callable[[Scalar, Scalar], Scalar]) -> Scalar:
    """Fraction-free determinant; div must be exact division in the domain."""
    n = len(rows)
    sign = 1
    prev: Scalar = 1
    m = [list(r) for r in rows]
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0 * prev
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def det(a: SquareMatrix) -> Scalar:
    """Exact determinant for every supported ring: one Bareiss forward pass
    on the integer rows num (residue lifts over GF(p) and Z/n) gives
    det(num), the signed last pivot or 0 below full rank."""
    n = a.n
    rows, pivots, sign = _echelon([list(r) for r in a.num], n, None)
    det_num = sign * rows[-1][-1] if len(pivots) == n else 0
    return _det_in_ring(a.ring, det_num, a.den, n)


def _berkowitz(rows: Sequence[Sequence[int]], m: int | None = None) -> list[int]:
    """[c_0, ..., c_n] with det(t I - A) = sum c_k t^(n-k), A the integer
    rows, by Berkowitz's recurrence: the characteristic polynomial of a
    trailing block [[h, r], [v, S]] is the lower-triangular Toeplitz matrix
    with first column (1, -h, -r v, -r S v, ...) times that of S. It needs
    no division, so every value is an integer. With m set the rows are
    residue lifts and every value is reduced mod m, which is exact because
    reduction mod m is a ring homomorphism."""
    p = [1]
    for k in range(len(rows) - 1, -1, -1):
        r, sub = rows[k][k + 1:], [row[k + 1:] for row in rows[k + 1:]]
        v, t = [row[k] for row in rows[k + 1:]], [1, -rows[k][k]]
        for _ in sub:
            t.append(-sum(map(mul, r, v)))
            v = [sum(map(mul, row, v)) for row in sub]
            if m is not None:
                v = [x % m for x in v]
        p = [sum(map(mul, t[i::-1], p)) for i in range(len(t))]
        if m is not None:
            p = [x % m for x in p]
    return p


def det_bareiss(a: SquareMatrix) -> Scalar:
    """Fraction-free determinant, independent of the elimination in det().

    Runs the Bareiss recurrence in the fraction field for Q, on the
    Fraction entries rather than the stored numerators, directly over Z,
    and on integer lifts for the modular rings. It shares no code with
    det() and cross-checks it in all four rings.
    """
    ring = a.ring
    if ring.kind == "Q":
        rows = [[Fraction(x) for x in row] for row in a.entries]
        return _bareiss(rows, lambda x, y: x / y)
    lifted = [[int(x) for x in row] for row in a.entries]
    d = _bareiss(lifted, lambda x, y: x // y)
    return d if ring.kind == "Z" else d % ring.modulus  # type: ignore[operator]


def inner_inverse(a: SquareMatrix) -> SquareMatrix:
    """Some X with A X A = A, via the rank normal form.

    Elimination of [A | I] gives invertible P with P A = R in reduced
    echelon form, pivots in columns c_1..c_r. Clearing R's other columns by
    column operations and moving the pivots to the front gives invertible Q
    with P A Q = [[I_r, 0], [0, 0]], and X = Q [[I_r, 0], [0, 0]] P
    satisfies the identity over any field. Column k <= r of Q is the unit
    vector e_(c_k), so X is P's row k placed in row c_k, and zero elsewhere.
    """
    _require_field(a)
    n = a.n
    rows, pivots, den = _reduce(_with_identity(a), n, a.ring.modulus)
    x_rows = [[0] * n] * n
    for k, c in enumerate(pivots):
        x_rows[c] = rows[k][n:]
    x = _from_rows(a.ring, x_rows, den)
    if a * x * a != a:
        raise FormulaViolation("rank-normal-form inner inverse failed A X A = A")
    return x


def _nilpotency_bound(a: SquareMatrix) -> int:
    # Over a field or Z the degree of a nilpotent n x n matrix is at most n.
    # Over Z/m reduce mod each prime power p^e: the matrix is nilpotent mod p,
    # so its n-th power is divisible by p, and the (n*e)-th by p^e. Every
    # exponent e of m is at most floor(log2 m), so no factorization is needed.
    if a.ring.kind == "Zmod":
        return a.n * (a.ring.modulus.bit_length() - 1)
    return a.n


def _first_power(
    a: SquareMatrix, reached: Callable[[SquareMatrix], bool]
) -> int | None:
    """Smallest k in [1, _nilpotency_bound(a)] with reached(a^k), else None:
    the one walk over powers, to zero for is_nilpotent and into the radical
    for the p-Drazin core. One product a step, none after the last check."""
    bound = _nilpotency_bound(a)
    b = a
    for k in range(1, bound + 1):
        if reached(b):
            return k
        if k < bound:
            b = b * a
    return None


def is_nilpotent(a: SquareMatrix) -> tuple[bool, int | None]:
    """(True, degree) when some power vanishes, else (False, None)."""
    degree = _first_power(a, lambda b: b.is_zero)
    return degree is not None, degree


def in_radical(a: SquareMatrix) -> bool:
    """Membership in the Jacobson radical of the matrix ring.

    For Z/m that radical is the matrices whose entries are nilpotent, that
    is, divisible by every prime dividing m. Every prime exponent of m is at
    most k = floor(log2 m), so an entry x is nilpotent iff x^k = 0 mod m,
    which needs no factorization of m. Over Q, GF(p), and Z it is zero.
    """
    if a.ring.kind == "Zmod":
        m = a.ring.modulus
        k = m.bit_length() - 1
        return all(pow(x, k, m) == 0 for row in a.num for x in row)
    return a.is_zero


def all_matrices(ring: RingSpec, n: int) -> Iterator[SquareMatrix]:
    """Every n x n matrix over a finite ring, row-major lexicographic."""
    if not ring.is_finite:
        raise DrazinkitError(f"cannot enumerate matrices over {ring}")
    total = n * n
    # Residues in [0, m) are canonical by construction.
    trusted = SquareMatrix._trusted
    for flat in product(range(ring.modulus), repeat=total):  # type: ignore[arg-type]
        yield trusted(ring, tuple(flat[i:i + n] for i in range(0, total, n)))


# -- JSON ----------------------------------------------------------------------


def matrix_to_json(a: SquareMatrix) -> dict[str, object]:
    fmt = a.ring.format_scalar
    return {
        "ring": a.ring.to_json(),
        "rows": [[fmt(x) for x in row] for row in a.entries],
    }


def matrix_from_json(obj: object) -> SquareMatrix:
    if not isinstance(obj, dict):
        raise DrazinkitError(f"matrix JSON must be an object, got {type(obj).__name__}")
    extra = set(obj) - {"ring", "rows"}
    if extra:
        raise DrazinkitError(f"unknown matrix fields: {sorted(extra)}")
    if "ring" not in obj or "rows" not in obj:
        raise DrazinkitError("matrix JSON requires 'ring' and 'rows'")
    ring = RingSpec.from_json(obj["ring"])
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise DrazinkitError("'rows' must be a non-empty list")
    n = len(rows)
    parsed: list[list[Scalar]] = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise DrazinkitError(f"rows must all have length {n}")
        out_row = []
        for cell in row:
            if not isinstance(cell, str):
                raise DrazinkitError(f"matrix entries must be strings, got {cell!r}")
            out_row.append(ring.parse_scalar(cell))
        parsed.append(out_row)
    return SquareMatrix(ring, parsed)
