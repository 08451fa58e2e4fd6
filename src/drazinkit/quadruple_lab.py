"""Quadruple generation and finite-ring brute-force oracles.

Tiny matrix spaces (at most 512 elements) are packed into index tables: a
multiplication table over element indices plus per-element caches for
commutants, unit flags, quasinilpotence, brute-forced inverses, and the
solutions of b x b = t grouped by t for each b. The multiplication table
is computed from the base-m digits of the element indices, with no
SquareMatrix per product, and a test holds it against SquareMatrix
products. The exhaustive sweeps and the 10^5-sample residue-ring runs all
reduce to table lookups, while every quadruple that leaves this module is
re-validated by the Quadruple constructor with direct matrix arithmetic,
so the tables never become a single point of trust. The quasinilpotence
sweep and brute force are oracles only: qnil_transfer_check decides by
nilpotency.
"""

from __future__ import annotations

import itertools
import operator
import random
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

from .drazin_core import (
    AxiomCheck,
    DrazinCertificate,
    Flavor,
    Quadruple,
    verify_axioms,
)
from .errors import (
    BudgetExceeded,
    DrazinkitError,
    FormulaViolation,
    NoSolution,
    RelationViolation,
    UnsupportedRing,
)
from .matrix_rings import (
    RING_Q,
    RingSpec,
    SquareMatrix,
    _from_rows,
    _products_equal,
    _reduce,
    _rows_mul,
    _trusted,
    _with_identity,
    all_matrices,
    is_invertible,
    is_nilpotent,
)

DEFAULT_SEED = 0x5EED

MAX_SPACE_ELEMENTS = 512  # element indices must fit array("H") in PackedSpace

# The check brute force adds to every certificate it returns: only a
# candidate x that passes it reaches verify_axioms.
_DOUBLE_COMMUTANT = AxiomCheck(
    "double-commutant", True, "x commutes with every element of comm(a)"
)

# Cap on coefficient tuples examined when enumerating an infinite solution
# coset over Q; keeps solve_for_d total even when the nullspace is large.
_CANDIDATE_CAP = 4096

# n * n, the unknown entries of d in b d b = b a c; solve_for_d and the
# linear-solve search refuse larger dimensions up front.
MAX_SOLVE_UNKNOWNS = 64


# Element encoding: over Z/m at dimension n, the matrix with row-major
# entries e_0 ... e_(n*n-1) in [0, m) has index sum e_k m^(n*n-1-k), the
# order in which all_matrices yields it. A column vector v_0 ... v_(n-1) is
# coded the same way, as sum v_i m^(n-1-i).


def _product_table(m: int, n: int) -> list[list[int]]:
    """mul[a][b] = index of a b, from base-m digits alone.

    Column j of a b is a times column j of b. For each a, the m^n products
    a v (mod m) are coded once, already at the entry positions of column j,
    so each product costs n lookups and no matrix is built.
    """
    elements = list(itertools.product(range(m), repeat=n * n))
    vectors = list(itertools.product(range(m), repeat=n))
    weights = [m ** (n - 1 - i) for i in range(n)]
    # cols[j][b]: the code of column j of element b.
    cols = [
        [sum(map(operator.mul, e[j::n], weights)) for e in elements]
        for j in range(n)
    ]
    # Place of entry (i, 0) in an element code; entry (i, j) sits m^j lower.
    place = [m ** (n * n - 1 - i * n) for i in range(n)]
    table: list[list[int]] = []
    for a in elements:
        rows_a = [a[i * n:(i + 1) * n] for i in range(n)]
        # col0[v]: the element code of a v placed in column 0.
        col0 = [
            sum(
                p * (sum(map(operator.mul, row, v)) % m)
                for p, row in zip(place, rows_a)
            )
            for v in vectors
        ]
        row = [col0[c] for c in cols[0]]
        for j in range(1, n):
            placed = [code // m**j for code in col0]
            row = [acc + placed[c] for acc, c in zip(row, cols[j])]
        table.append(row)
    return table


def _space_refusal(ring: RingSpec, n: int) -> str | None:
    """Why M_n over a finite ring is over MAX_SPACE_ELEMENTS, or None when it
    fits. Past n * n = 9, where every m >= 2 is over, or past m = 512, the
    count is written m^(n^2), never computed: str() may not print it."""
    m, cells = ring.modulus, n * n
    if cells <= 9 and m <= MAX_SPACE_ELEMENTS:
        count = m**cells
        if count <= MAX_SPACE_ELEMENTS:
            return None
    else:
        count = m if cells == 1 else f"{m}^{cells}"
    return (
        f"{ring} dimension {n} has {count} matrices, over the "
        f"{MAX_SPACE_ELEMENTS}-element enumeration budget"
    )


class PackedSpace:
    """Index tables for one finite matrix space, built once and cached.

    Elements are coded as above; mul is built by _product_table, and a test
    holds it against SquareMatrix products.
    """

    def __init__(self, ring: RingSpec, n: int):
        assert ring.is_finite and ring.modulus is not None
        refusal = _space_refusal(ring, n)
        if refusal is not None:
            raise BudgetExceeded(refusal)
        self.ring = ring
        self.n = n
        self.elements: list[SquareMatrix] = list(all_matrices(ring, n))
        self.index: dict[SquareMatrix, int] = {
            m: i for i, m in enumerate(self.elements)
        }
        ident = SquareMatrix.identity(ring, n)
        self.identity_idx = self.index[ident]
        self.mul: list[list[int]] = _product_table(ring.modulus, n)
        self.one_plus: list[int] = [self.index[ident + e] for e in self.elements]
        self.unit: list[bool] = [is_invertible(e) for e in self.elements]
        self._comm: dict[int, tuple[int, ...]] = {}
        self._qnil: dict[int, bool] = {}
        self._brute: dict[tuple[int, Flavor], tuple[DrazinCertificate, ...]] = {}
        self._sandwich: dict[int, tuple[array, array]] = {}

    def sandwich(self, b: int) -> tuple[array, array]:
        """(order, start): the x with b x b = t are order[start[t]:start[t + 1]].

        A counting-sort layout of x -> b x b, built on b's first use: order
        holds every element index grouped by target t, in increasing x within
        a group (the sort is stable), and start the offset of each group.
        """
        cached = self._sandwich.get(b)
        if cached is None:
            mul = self.mul
            targets = [mul[bx][b] for bx in mul[b]]
            counts = [0] * len(targets)
            for t in targets:
                counts[t] += 1
            order = array("H", sorted(range(len(targets)), key=targets.__getitem__))
            start = array("H", itertools.accumulate(counts, initial=0))
            cached = self._sandwich[b] = (order, start)
        return cached

    def comm_indices(self, i: int) -> tuple[int, ...]:
        cached = self._comm.get(i)
        if cached is None:
            row = self.mul[i]
            cached = tuple(
                x for x in range(len(self.elements)) if row[x] == self.mul[x][i]
            )
            self._comm[i] = cached
        return cached

    def double_comm(self, i: int, x: int) -> bool:
        mul = self.mul
        row_x = mul[x]
        return all(row_x[y] == mul[y][x] for y in self.comm_indices(i))

    def is_qnil(self, i: int) -> bool:
        cached = self._qnil.get(i)
        if cached is None:
            row = self.mul[i]
            unit = self.unit
            one_plus = self.one_plus
            cached = all(unit[one_plus[row[x]]] for x in self.comm_indices(i))
            self._qnil[i] = cached
        return cached

    def brute(self, i: int, flavor: Flavor) -> tuple[DrazinCertificate, ...]:
        cached = self._brute.get((i, flavor))
        if cached is not None:
            return cached
        mul = self.mul
        a = self.elements[i]
        found: list[DrazinCertificate] = []
        for x in range(len(self.elements)):
            if mul[i][x] != mul[x][i]:
                continue
            if mul[mul[x][i]][x] != x:
                continue
            if not self.double_comm(i, x):
                continue
            cert = verify_axioms(a, self.elements[x], flavor)
            cert = replace(cert, checks=cert.checks + (_DOUBLE_COMMUTANT,))
            if cert.valid:
                found.append(cert)
        result = tuple(found)
        self._brute[(i, flavor)] = result
        return result


_SPACES: dict[tuple[RingSpec, int], PackedSpace] = {}


def get_space(ring: RingSpec, n: int) -> PackedSpace:
    if not ring.is_finite:
        raise DrazinkitError(f"enumeration requires a finite ring, got {ring}")
    key = (ring, n)
    space = _SPACES.get(key)
    if space is None:
        space = PackedSpace(ring, n)
        _SPACES[key] = space
    return space


# -- definitional oracles -------------------------------------------------------


def commutant(a: SquareMatrix) -> list[SquareMatrix]:
    """All x with x a = a x, in enumeration order; finite rings only."""
    space = get_space(a.ring, a.n)
    return [space.elements[x] for x in space.comm_indices(space.index[a])]


def double_commutant_check(a: SquareMatrix, x: SquareMatrix) -> bool:
    """True iff x commutes with every element of comm(a)."""
    a._require_compatible(x)
    space = get_space(a.ring, a.n)
    return space.double_comm(space.index[a], space.index[x])


def is_qnil_by_definition(a: SquareMatrix) -> bool:
    """True iff 1 + a x is a unit for every x in comm(a)."""
    space = get_space(a.ring, a.n)
    return space.is_qnil(space.index[a])


def qnil_transfer_check(q: Quadruple) -> dict[str, object]:
    """If ac is quasinilpotent then bd is; the report carries both verdicts.

    Nilpotency decides both verdicts, as in verify_axioms (Koliha 1996);
    is_qnil_by_definition is the oracle for that. For a validated quadruple
    (bd)^(k+1) = b (ac)^k d, so a nilpotent ac with bd not nilpotent raises
    FormulaViolation (a bug). The "holds" and "witness" keys stay in the
    report for its readers, always true and null.
    """
    ac_qnil = is_nilpotent(q.ac)[0]
    bd_qnil = is_nilpotent(q.bd)[0]
    if ac_qnil and not bd_qnil:
        raise FormulaViolation("ac is nilpotent but bd is not")
    return {"ac_qnil": ac_qnil, "bd_qnil": bd_qnil, "holds": True, "witness": None}


def brute_force_inverse(
    a: SquareMatrix, flavor: Flavor = Flavor.DRAZIN
) -> list[DrazinCertificate]:
    """Every x in the matrix space passing all axioms for the flavor.

    The double-commutant condition is checked literally here, element by
    element, unlike the constructive path which relies on uniqueness. For
    the drazin and gdrazin flavors the returned list has length at most one.
    """
    space = get_space(a.ring, a.n)
    return list(space.brute(space.index[a], flavor))


# -- quadruple construction -------------------------------------------------------


def solve_for_d(
    a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, budget: int = 16
) -> list[SquareMatrix]:
    """Solutions d of b d b = b a c and d b d = a c d, given a, b, c.

    The first relation is linear in d and is solved exactly: over small
    finite spaces the whole solution set is read from PackedSpace.sandwich;
    over other fields the n x 2n rows [b | I] are reduced first. A unit b
    stops there: the right half is b^(-1), and the one solution is
    d = a c b^(-1), one product. Otherwise a particular solution plus a
    nullspace basis come from a second reduction, of [b^T | I], since the
    n^2 x n^2 system matrix is the Kronecker product of b and b^T. The second
    relation is quadratic and applied as a filter. Up to budget solutions
    are returned in a deterministic order. Raises NoSolution when the
    linear relation is inconsistent, and BudgetExceeded up front when n * n
    exceeds MAX_SOLVE_UNKNOWNS.
    """
    a._require_compatible(b)
    a._require_compatible(c)
    if budget < 1:
        raise DrazinkitError("budget must be >= 1")
    _check_solve_budget(a.n)
    ring = a.ring
    if ring.is_finite and _space_refusal(ring, a.n) is None:
        return _solve_by_enumeration(a, b, c, budget)
    if ring.is_field:
        return _solve_by_elimination(a, b, c, budget)
    raise BudgetExceeded(f"no solve route for {ring} at dimension {a.n}")


def _check_solve_budget(n: int) -> None:
    if n * n > MAX_SOLVE_UNKNOWNS:
        raise BudgetExceeded(
            f"linear solve needs {n * n} unknowns, budget is {MAX_SOLVE_UNKNOWNS}"
        )


def _solve_by_enumeration(
    a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, budget: int
) -> list[SquareMatrix]:
    space = get_space(a.ring, a.n)
    mul = space.mul
    ai, bi, ci = space.index[a], space.index[b], space.index[c]
    target = mul[mul[bi][ai]][ci]
    ac = mul[ai][ci]
    order, start = space.sandwich(bi)
    linear = order[start[target]:start[target + 1]]
    if not linear:
        raise NoSolution("b X b = b a c has no solution")
    out = []
    for x in linear:
        if mul[mul[x][bi]][x] == mul[ac][x]:
            out.append(space.elements[x])
            if len(out) == budget:
                break
    return out


def _solve_by_elimination(
    a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, budget: int
) -> list[SquareMatrix]:
    ring = a.ring
    m = ring.modulus
    n = a.n
    ac = a * c
    # Entry (i, j) of b X b = b a c has the coefficient b[i][k] * b[l][j] at
    # X[k][l], so the system matrix on row-major X is the Kronecker product
    # of b and b^T. Its reduced echelon form is the Kronecker product of
    # theirs: with P1 b = R1 and P2 b^T = R2 reduced, pivots p_i and q_j and
    # r = rank b, the system reads R1 X R2^T = T for T = P1 (b a c) P2^T.
    # It is consistent iff T is zero outside its leading r x r block; the
    # pivot unknowns are X[p_i][q_j], and the solutions are T[i][j] there,
    # plus for each free (k, l) any multiple of
    # e_(k,l) - sum R1[i][k] R2[j][l] e_(p_i,q_j).
    # At r = n, R1 = I and P1 = b^(-1), and the system is X b = a c: its one
    # solution a c b^(-1) is read off the first reduction, and b^T is not
    # reduced. That d still passes the d b d = a c d filter below.
    rows1, piv1, d1 = _reduce(_with_identity(b), n, m)
    if len(piv1) == n:
        binv = [row[n:] for row in rows1]
        x = _from_rows(ring, _rows_mul(ac.num, binv, m), ac.den * d1)
        return [x] if _products_equal(x, b * x, ac, x) else []
    bt = _trusted(ring, tuple(zip(*b.num)), b.den)
    rows2, piv2, d2 = _reduce(_with_identity(bt), n, m)
    p1 = _from_rows(ring, [row[n:] for row in rows1], d1)
    p2t = _from_rows(ring, list(zip(*(row[n:] for row in rows2))), d2)
    rhs = p1 * (b * ac) * p2t
    r = len(piv1)
    if any(map(any, rhs.num[r:])) or any(any(row[r:]) for row in rhs.num[:r]):
        raise NoSolution("b X b = b a c is inconsistent")
    # The solutions are particular + span(basis), numerators over den, in
    # the order of the free unknowns in row-major X.
    den = rhs.den * d1 * d2
    particular = [0] * (n * n)
    for i, pi in enumerate(piv1):
        for j, qj in enumerate(piv2):
            particular[pi * n + qj] = d1 * d2 * rhs.num[i][j]
    basis = []
    for k, l in itertools.product(range(n), repeat=2):
        if k in piv1 and l in piv2:
            continue
        vec = [0] * (n * n)
        vec[k * n + l] = den
        for i, pi in enumerate(piv1):
            for j, qj in enumerate(piv2):
                vec[pi * n + qj] = -rhs.den * rows1[i][k] * rows2[j][l]
        basis.append(vec)

    # A candidate's entry at free column f is its coefficient there, so
    # distinct coefficient tuples give distinct candidates.
    alphabet = (0, 1, -1, 2, -2) if m is None else range(m)
    out: list[SquareMatrix] = []
    examined = 0
    for coeffs in itertools.product(alphabet, repeat=len(basis)):
        examined += 1
        if examined > _CANDIDATE_CAP:
            break
        vec = particular
        for coef, bvec in zip(coeffs, basis):
            if coef:
                vec = [v + coef * t for v, t in zip(vec, bvec)]
        x = _from_rows(ring, [vec[i * n:(i + 1) * n] for i in range(n)], den)
        if _products_equal(x, b * x, ac, x):
            out.append(x)
            if len(out) == budget:
                break
    return out


class Strategy(Enum):
    EXHAUSTIVE = "exhaustive"
    LINEAR_SOLVE = "linear-solve"


@dataclass(frozen=True)
class SearchSpace:
    """What to enumerate: ring, dimension, strategy, and candidate budget."""

    ring: RingSpec
    n: int
    strategy: Strategy
    budget: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DrazinkitError("dimension must be >= 1")
        if self.budget < 1:
            raise DrazinkitError("budget must be >= 1")
        if self.strategy is Strategy.EXHAUSTIVE and not self.ring.is_finite:
            raise DrazinkitError("exhaustive enumeration requires a finite ring")
        if self.strategy is Strategy.LINEAR_SOLVE and not (
            self.ring.is_field or self.ring.kind == "Zmod"
        ):
            raise DrazinkitError("linear-solve requires a field or a residue ring")


def random_matrix(ring: RingSpec, n: int, rng: random.Random) -> SquareMatrix:
    """Uniform small random matrix: residues in [0, m) over GF(m) and Z/m,
    entries in [-3, 3] over Q and Z.

    The n^2 entries are drawn row by row in one loop, each as
    r = rng.getrandbits(m.bit_length()), drawn again while r >= m; over Q
    and Z, m = 7 and the entry is r - 3. That is the stream that
    rng.randrange(m) and rng.randint(-3, 3) consume from a random.Random on
    every supported Python, so a seed gives the matrices those calls gave,
    without their per-call argument handling; tests pin the two streams
    together. The matrix is built by the validating SquareMatrix(...).
    """
    m = ring.modulus
    shift = 0
    if m is None:
        m, shift = 7, 3
    k = m.bit_length()
    bits = rng.getrandbits
    flat = []
    for _ in range(n * n):
        r = bits(k)
        while r >= m:
            r = bits(k)
        flat.append(r - shift)
    return SquareMatrix(ring, [flat[i:i + n] for i in range(0, n * n, n)])


def random_invertible_matrix(
    ring: RingSpec, n: int, rng: random.Random
) -> SquareMatrix:
    """random_matrix drawn again until invertible, up to 1000 tries, over
    Q, GF(p) and Z/m. Over Z, where det = +-1 is rare among small entries,
    it raises UnsupportedRing before drawing, rng untouched."""
    if ring.kind == "Z":
        raise UnsupportedRing("no invertible draw over Z: det = +-1 is rare")
    for _ in range(1000):
        m = random_matrix(ring, n, rng)
        if is_invertible(m):
            return m
    raise DrazinkitError("failed to draw an invertible matrix in 1000 tries")


def enumerate_quadruples(
    space: SearchSpace, seed: int = DEFAULT_SEED
) -> Iterator[Quadruple]:
    """Stream of validated quadruples per the space's strategy.

    Exhaustive: every (a, b, c) over the finite ring in lexicographic order,
    with every d. Linear-solve: seeded random (a, b, c), with up to 4 d each;
    budget counts the triples drawn. Either way solve_for_d finds each d and
    the Quadruple constructor re-validates it; a d it refuses raises
    FormulaViolation (a bug).
    """
    if space.strategy is Strategy.EXHAUSTIVE:
        # Count before building the tables; a space over the element budget
        # is still reported first, by get_space.
        if _space_refusal(space.ring, space.n) is None:
            total = space.ring.modulus ** (space.n * space.n * 4)
            if total > space.budget:
                raise BudgetExceeded(
                    f"exhaustive sweep needs {total} candidates, budget is {space.budget}"
                )
        elements = get_space(space.ring, space.n).elements
        triples = itertools.product(elements, repeat=3)
        per_triple = len(elements)
    else:
        _check_solve_budget(space.n)
        rng = random.Random(seed)
        triples = (
            tuple(random_matrix(space.ring, space.n, rng) for _ in range(3))
            for _ in range(space.budget)
        )
        per_triple = 4
    for a, b, c in triples:
        try:
            ds = solve_for_d(a, b, c, budget=per_triple)
        except NoSolution:
            continue
        for d in ds:
            try:
                q = Quadruple(a, b, c, d)
            except RelationViolation as exc:
                raise FormulaViolation(
                    f"solve_for_d returned an invalid d: {exc}"
                ) from exc
            yield q


def seeded_rational_suite(
    count: int, seed: int = DEFAULT_SEED, max_dim: int = 4
) -> list[Quadruple]:
    """Deterministic reference suite of quadruples over Q.

    Two families: classical pairs (a, b, b, a), where the products ab and ba
    are the classical intertwined pair, and linear-solve samples with b kept
    invertible, which forces the unique d = a c b^(-1) and makes bd similar
    to ac. Both families therefore have ac and bd with identical nonzero
    eigenvalue sets, so one suite serves the index-bound, unit-transfer, and
    spectrum-comparison properties at once.
    """
    rng = random.Random(seed)
    out: list[Quadruple] = []
    while len(out) < count:
        n = rng.randint(1, max_dim)
        if rng.random() < 0.4:
            a = random_matrix(RING_Q, n, rng)
            b = random_matrix(RING_Q, n, rng)
            out.append(Quadruple(a, b, b, a))
        else:
            a = random_matrix(RING_Q, n, rng)
            c = random_matrix(RING_Q, n, rng)
            b = random_invertible_matrix(RING_Q, n, rng)
            ds = solve_for_d(a, b, c, budget=1)
            out.append(Quadruple(a, b, c, ds[0]))
    return out
