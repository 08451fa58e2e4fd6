"""Square matrices over a configurable coefficient ring.

The four coefficient rings are the rationals, the integers, prime fields
GF(p), and residue rings Z/n. Everything is exact: a Q matrix is stored as
integer numerators over one denominator, so products, sums and elimination
read integers. det and inverse share one kernel, Bareiss's fraction-free
elimination on integer rows (residue lifts over GF(p) and Z/n), except that
inverse eliminates mod p over GF(p), as the solvers do. The
characteristic polynomial has one kernel too, _berkowitz: Berkowitz's
division-free recurrence on the same integer rows. It has one caller,
_chi(a), which runs it at most once per matrix object and keeps the
coefficients on the matrix, so spectral.char_poly, the spectral bd verdict
and, in drazin_core, the unit-transfer resolvent and the construction of
every flavor-inverse all share one run per matrix. Nothing ever leaves the
ring.

The stored form (lowest terms over Q, exact integers over Z, residues over
GF(p) and Z/n) is coded twice: SquareMatrix(...) validates outside input
into it, and _from_rows puts every derived matrix into it from integer
rows over a denominator. Sums, negations, scalar multiples, inverses,
constructed flavor-inverses and the result of _poly_at all go through
_from_rows. Only the product reduces inline, mod m and on its den = 1
path, since it is the hot path.

Every product in the package is one function on raw integer rows,
_rows_mul(x, y, m, c=0), which gives x y + c I. SquareMatrix.__mul__ is
_rows_mul plus the stored form. The checks that only compare products take
the raw rows and build no matrix for them: _products_equal decides
x1 y1 = x2 y2, cross-multiplying the denominators over Q,
drazin_core.verify_axioms decides the commuting and absorbing axioms and
a x = 1, and each Horner step of _poly_at is one _rows_mul with its
coefficient as c, rows until the one _from_rows at its end.

Three operations run through a kernel table, a _Table keyed by the
dimension n, so that each dispatch is one subscript: the product
(_PRODUCT, behind _rows_mul), the characteristic polynomial (_CHI, behind
_berkowitz) and the lowest terms of Q rows (_NORMALISER, behind the Q path
of _from_rows). On the first lookup of an n a table compiles the
straight-line kernel that its source function generates for n when
n <= _UNROLL_MAX_N = 4, and otherwise takes the loop that the kernel
unrolls: _rows_mul_loop, _berkowitz_loop or _normalise_loop. Either way it
keeps the result under n. The characteristic polynomial's kernel, traced
from _berkowitz_loop, reduces mod m once at the end where the loop
reduces at every step; both give the same residues, since reduction mod m
is a ring homomorphism.

Every polynomial evaluated at a matrix is evaluated by one function,
_poly_at(cs, x), by Horner's rule on an integer matrix (over Z or a
residue ring) in max(len(cs) - 2, 0) products: h(N) in the construction
of every flavor-inverse, which takes max(n - k - 2, 0) of them when 0 has
algebraic multiplicity k, and in the unit transfer the two identities that
prove it (2n - 1 products per quadruple) and the inverse itself.

Every matrix not built by SquareMatrix(...) is built by one function,
_trusted(ring, num, den), which checks nothing and costs about what a
plain object with four slots costs: products, _from_rows, identity,
zeros, over_q and all_matrices all end in it. A fifth slot, for the
characteristic polynomial, stays unset until _chi fills it.

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

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The smallest strong pseudoprime to every prime base up to 41 (Sorenson and
# Webster, Math. Comp. 86, 2017): Miller-Rabin on _MR_WITNESSES decides
# primality exactly below it, and proves nothing at or above it.
_MR_PROVEN_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _MR_PROVEN_BELOW."""
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
            if self.modulus is not None and self.modulus >= _MR_PROVEN_BELOW:
                # A composite this large can pass every base: primality is
                # unproven, not disproven.
                raise NotAField(
                    f"GF modulus has unproven primality: Miller-Rabin on the prime "
                    f"bases up to 41 is exact only below {_MR_PROVEN_BELOW}"
                )
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
                raise DrazinkitError(f"{format_rational(x)} is not an element of {self}")
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
        return format_rational(x)

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
        return f"{self.kind}({format_rational(self.modulus)})"  # type: ignore[arg-type]


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
        return _trusted(RING_Q, a.num)
    raise UnsupportedRing(f"operation needs Q or Z entries, got {a.ring}")


class SquareMatrix:
    """Immutable n-by-n matrix over a RingSpec, stored in canonical form.

    The value is the integer rows num over the positive denominator den.
    Over Q, gcd(den, every numerator) = 1, so the zero matrix has den = 1
    and equal matrices have equal (num, den). Over Z, GF(m) and Z/m, num
    holds the entries themselves (residues in [0, m) for the last two) and
    den = 1. Arithmetic reads num and den; entries, with Fractions over Q,
    is built on demand for JSON, reports and the Fraction cross-checks.
    The slot _chi holds the characteristic polynomial once _chi(self) has
    computed it, and is unset until then; ==, hash and repr never read it.
    """

    __slots__ = ("ring", "n", "num", "den", "_chi")

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
    def identity(cls, ring: RingSpec, n: int) -> "SquareMatrix":
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return _trusted(ring, rows)

    @classmethod
    def zeros(cls, ring: RingSpec, n: int) -> "SquareMatrix":
        return _trusted(ring, ((0,) * n,) * n)

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
        """The product as a matrix: _rows_mul on the two num tuples, then
        the stored form. Over GF(m) and Z/m the rows come back reduced mod
        m, and so does a den = 1 product over Q and Z; otherwise the integer
        rows lie over the product of the two denominators, and _from_rows
        puts them in lowest terms.
        """
        ring = self.ring
        if (ring is not other.ring and ring != other.ring) or self.n != other.n:
            self._require_compatible(other)
        m = ring.modulus
        rows = _rows_mul(self.num, other.num, m)
        if m is not None:
            return _trusted(ring, rows)
        den = self.den * other.den
        if den == 1:
            return _trusted(ring, rows)
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


# The slot setters of the validating constructor and of _chi, which get past
# the raising __setattr__ at half the cost of object.__setattr__.
_set_ring, _set_n, _set_num, _set_den, _set_chi = (
    SquareMatrix.__dict__[slot].__set__ for slot in SquareMatrix.__slots__
)


class _Building(SquareMatrix):
    """A SquareMatrix while _trusted fills its slots: the same layout, with
    plain attribute stores in place of the raising __setattr__."""

    __slots__ = ()
    __setattr__ = object.__setattr__


_new = object.__new__


def _trusted(
    ring: RingSpec, num: tuple[tuple[int, ...], ...], den: int = 1
) -> SquareMatrix:
    """A matrix from integer rows that are canonical by construction; the
    one builder of every derived matrix.

    num must be a square tuple of tuples of ints and (num, den) already
    the stored form: lowest terms with den > 0 over Q, residues in [0, m)
    and den = 1 over GF(m) and Z/m; nothing is checked. Outside data goes
    through SquareMatrix(...). The slots are filled as those of a
    _Building, four plain stores, and the object then becomes the
    immutable SquareMatrix it is from there on.
    """
    self = _new(_Building)
    self.ring = ring
    self.n = len(num)
    self.num = num
    self.den = den
    self.__class__ = SquareMatrix
    return self


# -- the generated kernels -----------------------------------------------------

# Products, characteristic polynomials and the lowest terms of Q rows up to
# this dimension run as straight-line kernels generated once per n: every
# product and every characteristic polynomial of both benchmark workloads
# (n <= 4), every product of a PackedSpace (n <= 3) and every derived Q
# matrix of rational_certify. Each process pays each kernel's build again,
# and it grows with n: the product kernel's source has 4 n^3 terms (with
# and without the diagonal addend, reduced and not) and takes about 1.0 ms
# at n = 4, 6.8 ms at n = 8 and 58 ms at n = 16; the characteristic
# polynomial's, traced from Berkowitz's loop, has O(n^4) lines (99 at
# n = 4) and takes about 0.06 ms at n = 1, 0.7 ms at n = 4 and 12 ms at
# n = 8; the normaliser's has 2 n^2 divisions and takes about 0.08, 0.12,
# 0.18 and 0.27 ms at n = 1..4 and 0.8 ms at n = 8 (Python 3.11 on a
# shared 2-vCPU Xeon VM). No workload measures a gain above 4, so larger
# n keep the loops. _Table.__missing__ is the one reader of this bound.
_UNROLL_MAX_N = 4


def _grid(n: int, cell: Callable[[int, int], str]) -> str:
    """An n x n nested tuple display of cell(i, j), with a comma after every
    item, so that n = 1 reads ((x, ), ): the left side that unpacks rows
    into locals, or the rows a kernel returns."""

    def tup(items: Iterable[str]) -> str:
        return "(" + "".join(f"{x}, " for x in items) + ")"

    return tup(tup(cell(i, j) for j in range(n)) for i in range(n))


def _compiled(source: str, label: str) -> Callable:
    """The function named kernel that source defines."""
    namespace: dict[str, Callable] = {}
    exec(compile(source, label, "exec"), namespace)
    return namespace["kernel"]


class _Table(dict):
    """n -> the function that runs one operation at dimension n: the kernel
    compiled from source(n) for n <= _UNROLL_MAX_N, loop above the bound.
    Each n is filled on its first lookup and kept, so a dispatch is one
    subscript."""

    __slots__ = ("source", "loop")

    def __init__(self, source: Callable[[int], str], loop: Callable):
        super().__init__()
        self.source = source
        self.loop = loop

    def __missing__(self, n: int) -> Callable:
        if n <= _UNROLL_MAX_N:
            kernel = _compiled(self.source(n), f"<{self.source.__name__} n={n}>")
        else:
            kernel = self.loop
        self[n] = kernel
        return kernel


def _product_source(n: int) -> str:
    """The source of kernel(a, b, m, c=0) for n x n integer rows: the rows
    of a b + c I, each entry reduced mod m, after c is added, unless m is
    None.

    The body unpacks both into locals and writes each of the n^2 entries
    out as an explicit sum of n products, four times over: for m None and
    m set, each with and without + c on the diagonal. A plain product
    (c = 0) thus runs the same code as a kernel without the addend, and
    with m set each entry is reduced after c is added. There is no loop and
    no transpose, and one kernel serves all four rings.
    """

    def cell(plus_c: bool, mod_m: bool) -> Callable[[int, int], str]:
        def entry(i: int, j: int) -> str:
            terms = [f"a{i * n + k} * b{k * n + j}" for k in range(n)]
            if plus_c and i == j:
                terms.append("c")
            return "(" + " + ".join(terms) + ")" + (" % m" if mod_m else "")

        return entry

    return (
        f"def kernel(a, b, m, c=0):\n"
        f"    {_grid(n, lambda i, j: f'a{i * n + j}')} = a\n"
        f"    {_grid(n, lambda i, j: f'b{i * n + j}')} = b\n"
        f"    if m is None:\n"
        f"        if c:\n            return {_grid(n, cell(True, False))}\n"
        f"        return {_grid(n, cell(False, False))}\n"
        f"    if c:\n        return {_grid(n, cell(True, True))}\n"
        f"    return {_grid(n, cell(False, True))}\n"
    )


# Integer rows as _rows_mul takes them (tuples or lists) and as it returns them.
IntRows = Sequence[Sequence[int]]
Rows = tuple[tuple[int, ...], ...]


def _rows_mul_loop(x: IntRows, y: IntRows, m: int | None, c: int = 0) -> Rows:
    """_rows_mul(x, y, m, c) as a loop: one listcomp of integer dot
    products computes the rows, and c goes on its diagonal."""
    n = len(x)
    cols = tuple(zip(*y))
    # List comprehensions, which run faster than generator expressions on
    # every Python this package supports.
    rows = [[sum(map(mul, row, col)) for col in cols] for row in x]
    if c:
        for i in range(n):
            rows[i][i] += c
    if m is None:
        return tuple(map(tuple, rows))
    return tuple([tuple([v % m for v in row]) for row in rows])


_PRODUCT = _Table(_product_source, _rows_mul_loop)


def _rows_mul(x: IntRows, y: IntRows, m: int | None, c: int = 0) -> Rows:
    """The integer rows of x y + c I for n x n integer rows x and y, each
    entry reduced mod m, after c is added, unless m is None: the one
    product in the package, which SquareMatrix.__mul__, every check on raw
    rows and each Horner step of _poly_at call. x and y may be tuples or
    lists; the result is a tuple of tuples.
    """
    return _PRODUCT[len(x)](x, y, m, c)


def _normaliser_source(n: int) -> str:
    """The source of kernel(rows, den) for n x n integer rows over a
    nonzero den: the pair (num, den) of rows / den in lowest terms with
    den > 0, num a tuple of tuples.

    The body unpacks the rows into locals, takes the gcd of den and the n^2
    entries in one call, signs it as den is, and returns the locals as they
    are when it is 1 and each divided by it otherwise.
    """
    entries = ", ".join(f"a{k}" for k in range(n * n))
    return (
        f"from math import gcd\n"
        f"def kernel(rows, den):\n"
        f"    {_grid(n, lambda i, j: f'a{i * n + j}')} = rows\n"
        f"    g = gcd(den, {entries})\n"
        f"    if den < 0:\n        g = -g\n"
        f"    if g == 1:\n        return {_grid(n, lambda i, j: f'a{i * n + j}')}, den\n"
        f"    return {_grid(n, lambda i, j: f'a{i * n + j} // g')}, den // g\n"
    )


def _normalise_loop(rows: IntRows, den: int) -> tuple[Rows, int]:
    """The normaliser kernel as a loop: one gcd over the chained entries,
    signed as den is, and a nested comprehension for the divisions."""
    g = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


_NORMALISER = _Table(_normaliser_source, _normalise_loop)


def _equal_over(left: IntRows, lam: int, right: IntRows, rho: int) -> bool:
    """Whether left / lam = right / rho for integer rows over positive
    denominators, neither side in lowest terms: the rows compare as they
    are where lam = rho, so both must then be tuples of tuples, as num and
    _rows_mul give them, and entrywise as left rho = right lam otherwise."""
    if lam == rho:
        return left == right
    return all([
        x * rho == y * lam
        for row_l, row_r in zip(left, right)
        for x, y in zip(row_l, row_r)
    ])


def _products_equal(
    x1: SquareMatrix, y1: SquareMatrix, x2: SquareMatrix, y2: SquareMatrix
) -> bool:
    """Whether x1 y1 = x2 y2, decided on the raw rows of _rows_mul without
    building either product; all four share one ring and n.

    Over GF(m) and Z/m the rows are the reduced products, compared as
    tuples. Over Q and Z they are integer rows L over the denominator
    product lam = den(x1) den(y1), and R over rho likewise, which
    _equal_over compares.
    """
    m = x1.ring.modulus
    left = _rows_mul(x1.num, y1.num, m)
    right = _rows_mul(x2.num, y2.num, m)
    if m is not None:
        return left == right
    return _equal_over(left, x1.den * y1.den, right, x2.den * y2.den)


# -- elimination ---------------------------------------------------------------


def _not_a_unit(x: int, m: int) -> NotInvertible:
    """The refusal for an x with no inverse mod m, naming gcd(x, m)."""
    xs, ms, gs = map(format_rational, (x, m, gcd(x, m)))
    return NotInvertible(
        f"{xs} is not a unit mod {ms}: gcd({xs}, {ms}) = {gs}", reason="not a unit mod m"
    )


def _echelon(
    rows: list[list[int]], ncols: int, m: int | None
) -> tuple[list[list[int]], list[int], int]:
    """Forward elimination, in place on integer rows.

    Pivots are sought in the first ncols columns only, each column taking
    the first nonzero entry at or below the current row. Returns the rows,
    the pivot columns and the sign of the row swaps.

    Over GF(m) the rows are residues and come back as the echelon form
    itself; a pivot with no inverse mod m, which no prime m gives, raises
    NotInvertible naming gcd(pivot, m). With m None they are integer rows
    U (the numerators of a Q system over a common denominator, integers, or
    residue lifts), run through Bareiss's fraction-free recurrence: a row below pivot p becomes
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
            try:
                inv = pow(p, -1, m)
            except ValueError:
                raise _not_a_unit(p, m) from None
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
    ring: RingSpec, rows: Sequence[Sequence[int]], den: int
) -> SquareMatrix:
    """The matrix rows / den in stored form, the one normaliser of derived
    integer rows: in lowest terms over Q, exact division over Z, times the
    inverse of den modulo m over GF(m) and Z/m. den must divide every entry
    over Z and be a unit modulo m; a den that is not raises NotInvertible
    naming gcd(den, m). Over Q it may be negative or share a factor with
    every entry; one division by their gcd, signed as den is, brings it to
    the stored form. The Z, GF(m), Z/m and den = 1 paths need no gcd.
    """
    m = ring.modulus
    if m is not None:
        try:
            inv = pow(den, -1, m)
        except ValueError:
            raise _not_a_unit(den, m) from None
        return _trusted(ring, tuple([tuple([x * inv % m for x in row]) for row in rows]))
    if den == 1:
        return _trusted(ring, tuple(map(tuple, rows)))
    if ring.kind == "Z":
        return _trusted(ring, tuple([tuple([x // den for x in row]) for row in rows]))
    num, den = _NORMALISER[len(rows)](rows, den)
    return _trusted(ring, num, den)


def _poly_at(cs: Sequence[int], x: SquareMatrix) -> SquareMatrix:
    """sum cs[i] x^(len(cs) - 1 - i), highest degree first, the one
    evaluation of a polynomial at a matrix; the zero matrix for no cs.

    x holds integers (den = 1): over Z, or residues over GF(m) and Z/m,
    where the coefficients are reduced mod m. Horner's rule, started at
    cs[0] x + cs[1] I, takes max(len(cs) - 2, 0) products. It runs on
    integer rows: each step is one _rows_mul(acc, x.num, m, c), acc x + c I
    reduced mod m over GF(m) and Z/m, whose tuple rows feed the next step
    as they are, and one _from_rows at the end brings the result to stored
    form.
    """
    n, m, xs = x.n, x.ring.modulus, x.num
    if len(cs) < 2:
        c = cs[0] if cs else 0
        return _from_rows(x.ring, [[c if i == j else 0 for j in range(n)] for i in range(n)], 1)
    c0, c1 = cs[0], cs[1]
    acc = [
        [c0 * v + (c1 if i == j else 0) for j, v in enumerate(row)]
        for i, row in enumerate(xs)
    ]
    for c in cs[2:]:
        acc = _rows_mul(acc, xs, m, c)
    return _from_rows(x.ring, acc, 1)


def _det_in_ring(ring: RingSpec, det_num: int, den: int, n: int) -> Scalar:
    """det(A) from det_num, the determinant of the n x n integer rows
    num = den A: divided by den**n over Q, as is over Z, and reduced mod m
    over GF(m) and Z/m, which is exact because reduction mod m is a ring
    homomorphism."""
    if ring.kind == "Q":
        return Fraction(det_num, den**n)
    m = ring.modulus
    return det_num if m is None else det_num % m


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


def _berkowitz(rows: IntRows, m: int | None = None) -> list[int]:
    """[c_0, ..., c_n] with det(t I - A) = sum c_k t^(n-k), A the n x n
    integer rows, each reduced mod m unless m is None: the one
    characteristic polynomial kernel, Berkowitz's recurrence, written once
    in _berkowitz_loop.
    """
    return _CHI[len(rows)](rows, m)


def _berkowitz_loop(rows: IntRows, m: int | None = None) -> list[int]:
    """_berkowitz(rows, m) as a loop: the characteristic polynomial of a
    trailing block [[h, r], [v, S]] is the lower-triangular Toeplitz matrix
    with first column (1, -h, -r v, -r S v, ...) times that of S. It needs
    no division, so every value is an integer. With m set the rows are
    residue lifts and every value is reduced mod m, which is exact because
    reduction mod m is a ring homomorphism. It reads its entries only
    through +, * and unary -, so that _chi_source can trace it."""
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


class _Traced:
    """A value of _berkowitz_loop run on symbolic entries: one local of the
    kernel being generated. Each +, * and unary - appends one assignment,
    (the local it binds, its expression, the locals it reads), to the
    shared lines and returns the new local. The loop's only constants are
    the 0 that sum starts from and the 1s that start t and p, so adding 0
    and multiplying by 1 return the other operand and bind nothing."""

    __slots__ = ("name", "lines")

    def __init__(self, name: str, lines: list[tuple[str, str, tuple[str, ...]]]):
        self.name = name
        self.lines = lines

    def _bind(self, expr: str, *reads: str) -> "_Traced":
        name = f"v{len(self.lines)}"
        self.lines.append((name, expr, reads))
        return _Traced(name, self.lines)

    def __add__(self, other: "_Traced | int") -> "_Traced":
        if other == 0:
            return self
        return self._bind(f"{self.name} + {other.name}", self.name, other.name)

    def __mul__(self, other: "_Traced | int") -> "_Traced":
        if other == 1:
            return self
        return self._bind(f"{self.name} * {other.name}", self.name, other.name)

    def __neg__(self) -> "_Traced":
        return self._bind(f"-{self.name}", self.name)

    __radd__ = __add__
    __rmul__ = __mul__


def _chi_source(n: int) -> str:
    """The source of kernel(rows, m) for n x n integer rows:
    _berkowitz_loop(rows, m) as straight-line code, each coefficient
    reduced mod m once at the end unless m is None.

    _berkowitz_loop runs once on the symbols a0 .. a(n^2 - 1), and the
    lines it binds become the kernel's body, less those no coefficient
    reads (the loop's last v of each block). The loop itself is traced,
    never _berkowitz, so the kernel does not depend on what that name is
    bound to.
    """
    lines: list[tuple[str, str, tuple[str, ...]]] = []
    symbols = [[_Traced(f"a{i * n + j}", lines) for j in range(n)] for i in range(n)]
    cs = [c.name if isinstance(c, _Traced) else str(c) for c in _berkowitz_loop(symbols)]
    live, body = set(cs), []
    for name, expr, reads in reversed(lines):
        if name in live:
            live.update(reads)
            body.append(f"    {name} = {expr}\n")
    return (
        f"def kernel(rows, m):\n"
        f"    {_grid(n, lambda i, j: f'a{i * n + j}')} = rows\n"
        + "".join(reversed(body))
        + f"    if m is None:\n        return [{', '.join(cs)}]\n"
        f"    return [{', '.join(f'{c} % m' for c in cs)}]\n"
    )


_CHI = _Table(_chi_source, _berkowitz_loop)


def _chi(a: SquareMatrix) -> tuple[int, ...]:
    """The coefficients _berkowitz(a.num, a.ring.modulus) of
    det(t I - a.num), as a tuple, run once per matrix object.

    The first call stores them in a's _chi slot and every later call reads
    them there. They depend only on num and the modulus, which never change
    on an immutable matrix, so the stored value cannot go stale; nothing is
    kept anywhere but on the matrix itself. Every characteristic polynomial
    in the package comes from here: this is _berkowitz's only caller.
    """
    try:
        return a._chi
    except AttributeError:
        cs = tuple(_berkowitz(a.num, a.ring.modulus))
        _set_chi(a, cs)
        return cs


def _numerators(a: SquareMatrix) -> SquareMatrix:
    """The integer numerators N of a = N / den as a matrix: over Z for Q,
    and a itself over Z, GF(m) and Z/m, where den = 1."""
    return _trusted(RING_Z, a.num) if a.ring.kind == "Q" else a


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
    for flat in product(range(ring.modulus), repeat=total):  # type: ignore[arg-type]
        yield _trusted(ring, tuple([flat[i:i + n] for i in range(0, total, n)]))


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
