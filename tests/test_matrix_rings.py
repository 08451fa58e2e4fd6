"""Coefficient rings, exact matrices, elimination, and radical tests."""

import itertools
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drazinkit import matrix_rings
from drazinkit.drazin_core import Flavor, flavor_inverse, verify_axioms
from drazinkit.errors import (
    DimensionMismatch,
    DrazinkitError,
    FormulaViolation,
    NotAField,
    NotInvertible,
    RingMismatch,
    UnsupportedRing,
)
from drazinkit.matrix_rings import (
    RING_Q,
    RING_Z,
    RingSpec,
    SquareMatrix,
    _CHI,
    _MR_PROVEN_BELOW,
    _NORMALISER,
    _PRODUCT,
    _UNROLL_MAX_N,
    _Building,
    _Table,
    _berkowitz,
    _berkowitz_loop,
    _chi,
    _chi_source,
    _from_rows,
    _is_prime,
    _normalise_loop,
    _normaliser_source,
    _poly_at,
    _product_source,
    _products_equal,
    _rows_mul,
    _rows_mul_loop,
    _trusted,
    all_matrices,
    det,
    det_bareiss,
    gf,
    inverse,
    is_invertible,
    is_nilpotent,
    in_radical,
    matrix_from_json,
    matrix_to_json,
    over_q,
    reduced_echelon,
    zmod,
)


def m(ring: RingSpec, rows: list) -> SquareMatrix:
    return SquareMatrix(ring, rows)


def count_products(mp: pytest.MonkeyPatch) -> list[int]:
    """Count every product from here on at matrix_rings._rows_mul, the one
    product function, in each drazinkit module that imported it; the list
    returned gets the dimension of each product as it is made. The addend
    c of a Horner step passes through, and the step counts as a product."""
    calls: list[int] = []
    rows_mul = matrix_rings._rows_mul

    def counted(x, y, m, c=0):
        calls.append(len(x))
        return rows_mul(x, y, m, c)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "drazinkit":
            continue
        if getattr(module, "_rows_mul", None) is rows_mul:
            mp.setattr(module, "_rows_mul", counted)
    return calls


def leibniz_det(a: SquareMatrix) -> int | Fraction:
    """Signed sum over permutations, reduced mod m over GF(m) and Z/m.

    Shares no code with det or det_bareiss, which both run the Bareiss
    recurrence: det as the forward pass of the elimination kernel on the
    integer rows num (Q numerators, integers, residue lifts) in every ring,
    det_bareiss as its own loop on the entries (Fractions over Q).
    """
    total = 0
    for perm in itertools.permutations(range(a.n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(a.n) for j in range(i + 1, a.n)
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a.entries[i][j]
        total += term
    return total % a.ring.modulus if a.ring.is_finite else total


def leibniz_adjugate(a: SquareMatrix) -> SquareMatrix:
    """adj(A), entry (i, j) the signed Leibniz determinant of A without row
    j and column i; shares no code with det, det_bareiss or inverse."""
    ring, n = a.ring, a.n
    if n == 1:
        return SquareMatrix(ring, [[1]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [a.entries[r][c] for c in range(n) if c != i]
                for r in range(n) if r != j
            ]
            row.append((-1) ** (i + j) * leibniz_det(SquareMatrix(ring, minor)))
        rows.append(row)
    return SquareMatrix(ring, rows)


def entries_strategy(ring: RingSpec, n: int, max_denominator: int = 4):
    if ring.kind == "Q":
        cell = st.fractions(min_value=-5, max_value=5, max_denominator=max_denominator)
    elif ring.kind == "Z":
        cell = st.integers(min_value=-5, max_value=5)
    else:
        cell = st.integers(min_value=0, max_value=ring.modulus - 1)
    return st.lists(
        st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: SquareMatrix(ring, rows))


def gauss_jordan(rows: list, ncols: int) -> tuple[list, list]:
    """Textbook Gauss-Jordan over Fractions, the reference for
    reduced_echelon over Q.

    Each pivot is the first nonzero entry at or below the current row, in
    the first ncols columns; its row is divided by it, then its column is
    cleared in every other row. The rows below the rank come out as plain
    forward elimination leaves them.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def gauss_jordan_mod(rows: list, ncols: int, p: int) -> tuple[list, list]:
    """Textbook Gauss-Jordan modulo a prime p, the reference for
    reduced_echelon over GF(p): the steps of gauss_jordan, dividing by a
    pivot as multiplying by its inverse mod p."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def q_matrices(n: int, max_denominator: int = 12):
    """Q matrices of every rank up to n: a product of an n x k and a k x n
    matrix for a drawn k, so about half of them are singular."""
    cell = st.fractions(min_value=-5, max_value=5, max_denominator=max_denominator)

    def block(h: int, w: int):
        return st.lists(st.lists(cell, min_size=w, max_size=w), min_size=h, max_size=h)

    def product(uv) -> SquareMatrix:
        u, v = uv
        return SquareMatrix(RING_Q, [
            [sum((u[i][t] * v[t][j] for t in range(len(v))), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ])

    low_rank = st.integers(0, n).flatmap(lambda k: st.tuples(block(n, k), block(k, n)))
    return st.one_of(entries_strategy(RING_Q, n, max_denominator), low_rank.map(product))


def reference_product(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Triple loop on the scalars, one entry at a time, reduced mod m after
    every step on the finite rings."""
    ring, m = a.ring, a.ring.modulus
    ea, eb = a.entries, b.entries
    rows = []
    for i in range(a.n):
        row = []
        for j in range(a.n):
            acc = 0
            for k in range(a.n):
                acc += ea[i][k] * eb[k][j]
                if m is not None:
                    acc %= m
            row.append(acc)
        rows.append(row)
    return SquareMatrix(ring, rows)


def assert_canonical(r: SquareMatrix) -> None:
    """The stored form, and entries as SquareMatrix(...) would give them.

    num is a square tuple of tuples of ints over the int den > 0, in lowest
    terms; den = 1 for the zero matrix and off Q, and residues lie in
    [0, m) over GF(m) and Z/m. entries is Fraction(x, den) over Q and the
    numerators themselves elsewhere.
    """
    assert type(r.num) is tuple and len(r.num) == r.n
    flat = []
    for row in r.num:
        assert type(row) is tuple and len(row) == r.n
        for x in row:
            assert type(x) is int
            if r.ring.is_finite:
                assert 0 <= x < r.ring.modulus
            flat.append(x)
    assert type(r.den) is int and r.den > 0
    assert gcd(r.den, *flat) == 1
    if r.ring.kind != "Q" or all(x == 0 for x in flat):
        assert r.den == 1
    assert type(r.entries) is tuple and len(r.entries) == r.n
    for row, nums in zip(r.entries, r.num):
        assert type(row) is tuple and len(row) == r.n
        for x, k in zip(row, nums):
            if r.ring.kind == "Q":
                assert type(x) is Fraction and x == Fraction(k, r.den)
            else:
                assert type(x) is int and x == k
    again = SquareMatrix(r.ring, r.entries)
    assert r == again and hash(r) == hash(again)
    assert (again.num, again.den) == (r.num, r.den)


# Every ring kind the product kernel branches on; Q with denominators up to
# 12 so that the two common denominators differ and the result needs reducing.
KERNEL_RINGS = [RING_Q, RING_Z, gf(5), gf(7), zmod(4), zmod(12)]


def kernel_operands(data, ring: RingSpec, count: int, max_n: int = 4) -> list[SquareMatrix]:
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    return [data.draw(entries_strategy(ring, n, max_denominator=12)) for _ in range(count)]


class TestRingSpec:
    def test_gf_requires_prime(self):
        with pytest.raises(NotAField):
            gf(4)
        with pytest.raises(NotAField):
            gf(1)
        assert gf(2).is_field and gf(97).is_field

    def test_is_prime_matches_a_sieve(self):
        limit = 10**5
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
        assert [n for n in range(limit + 1) if _is_prime(n)] == [
            n for n in range(limit + 1) if sieve[n]
        ]

    def test_strong_pseudoprimes_are_refused(self):
        # Strong pseudoprime to every prime base up to 37: base 41 exposes it.
        assert 399165290221 * 798330580441 == 318665857834031151167461
        assert not _is_prime(318665857834031151167461)
        with pytest.raises(NotAField, match="must be prime"):
            gf(318665857834031151167461)
        # Strong pseudoprime to every prime base up to 41, the first modulus
        # the test cannot decide: refused as unproven, not as composite.
        assert _MR_PROVEN_BELOW == 3317044064679887385961981
        for modulus in (_MR_PROVEN_BELOW, 2**89 - 1, 2**127 - 1):
            with pytest.raises(NotAField, match="unproven") as err:
                gf(modulus)
            assert "must be prime" not in str(err.value)
        assert gf(2**61 - 1).is_field

    def test_zmod_requires_n_at_least_2(self):
        with pytest.raises(DrazinkitError):
            zmod(1)
        assert not zmod(4).is_field

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedRing):
            RingSpec("R", None)

    def test_parse_scalar_strict(self):
        assert RING_Q.parse_scalar("3/6") == Fraction(1, 2)
        with pytest.raises(DrazinkitError):
            RING_Z.parse_scalar("1/2")
        with pytest.raises(DrazinkitError):
            zmod(4).parse_scalar("4")
        with pytest.raises(DrazinkitError):
            zmod(4).parse_scalar("-1")
        assert zmod(4).parse_scalar("3") == 3

    def test_ring_json_round_trip(self):
        for ring in (RING_Q, RING_Z, gf(5), zmod(12)):
            assert RingSpec.from_json(ring.to_json()) == ring

    def test_rings_are_interned(self):
        assert zmod(4) is zmod(4) and gf(5) is gf(5)
        assert RingSpec.from_json({"GF": 5}) is gf(5)
        assert RingSpec.from_json({"Zmod": 4}) is zmod(4)
        assert RingSpec.from_json("Q") is RING_Q and RingSpec.from_json("Z") is RING_Z

    def test_invalid_moduli_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(NotAField):
                gf(4)
            with pytest.raises(NotAField):
                RingSpec.from_json({"GF": 4})
            with pytest.raises(DrazinkitError):
                zmod(1)
            with pytest.raises(DrazinkitError):
                RingSpec.from_json({"Zmod": 0})


class TestMatrixBasics:
    def test_product_from_first_demo_instance(self):
        a = m(RING_Q, [[0, 1], [0, 0]])
        c = m(RING_Q, [[1, 0], [1, 1]])
        assert a * c == m(RING_Q, [[1, 1], [0, 0]])

    def test_product_from_integer_demo_instance(self):
        b = m(RING_Z, [[1, 1], [0, 0]])
        d = m(RING_Z, [[0, 1], [0, 1]])
        assert b * d == m(RING_Z, [[0, 2], [0, 0]])

    @given(entries_strategy(zmod(6), 2))
    def test_identity_is_neutral(self, a):
        eye = SquareMatrix.identity(a.ring, a.n)
        assert a * eye == a and eye * a == a

    @given(entries_strategy(gf(3), 2), entries_strategy(gf(3), 2),
           entries_strategy(gf(3), 2))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_ring_mismatch_raises(self):
        with pytest.raises(RingMismatch):
            m(RING_Q, [[1]]) * m(RING_Z, [[1]])

    def test_mismatches_raise_from_mul(self):
        with pytest.raises(RingMismatch):
            m(zmod(4), [[1]]) * m(zmod(6), [[1]])
        with pytest.raises(RingMismatch):
            m(zmod(4), [[1]]) * SquareMatrix.identity(gf(2), 2)
        with pytest.raises(DimensionMismatch):
            m(zmod(4), [[1]]) * SquareMatrix.identity(zmod(4), 2)
        with pytest.raises(DimensionMismatch):
            m(RingSpec("Zmod", 4), [[1]]) * SquareMatrix.identity(zmod(4), 2)

    def test_directly_built_ring_meets_the_interned_one(self):
        direct = RingSpec("Zmod", 4)
        assert direct is not zmod(4) and direct == zmod(4)
        x = m(direct, [[1, 2], [3, 0]])
        y = m(zmod(4), [[1, 2], [3, 0]])
        assert x == y and hash(x) == hash(y)
        assert x * y == y * x == y * y == m(zmod(4), [[3, 2], [3, 2]])
        assert x + y == y + y and x - y == SquareMatrix.zeros(zmod(4), 2)

    @pytest.mark.parametrize(
        "ring, num",
        [
            (RING_Q, ((-1, 1), (2, -9))),
            (RING_Z, ((-1, 1), (2, -9))),
            (zmod(4), ((3, 1), (2, 3))),
            (gf(5), ((4, 1), (2, 1))),
        ],
        ids=str,
    )
    def test_constructor_canonicalizes_scalars(self, ring, num):
        x = SquareMatrix(ring, [[-1, True], [Fraction(6, 3), -9]])
        assert (x.num, x.den) == (num, 1)
        assert all(type(v) is int for row in x.num for v in row)
        if ring.kind == "Q":
            half = SquareMatrix(ring, [[Fraction(1, 2)]])
            assert (half.num, half.den) == (((1,),), 2)
        else:
            with pytest.raises(DrazinkitError):
                SquareMatrix(ring, [[Fraction(1, 2)]])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            m(RING_Q, [[1]]) + SquareMatrix.identity(RING_Q, 2)

    def test_power(self):
        n = m(RING_Q, [[0, 1], [0, 0]])
        assert n.power(0) == SquareMatrix.identity(RING_Q, 2)
        assert n.power(2).is_zero

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    def test_power_starts_from_the_first_factor(self, ring, monkeypatch):
        # a^k by squaring costs bit_length(k) - 1 squarings and
        # popcount(k) - 1 further products, none of them by the identity.
        a = m(ring, [[1, 2], [3, 1]])
        expected = [SquareMatrix.identity(ring, 2)]
        for _ in range(9):
            expected.append(expected[-1] * a)
        calls = count_products(monkeypatch)
        for k, want in enumerate(expected):
            calls.clear()
            assert a.power(k) == want
            cost = k.bit_length() + bin(k).count("1") - 2 if k else 0
            assert len(calls) == cost

    @pytest.mark.parametrize("ring", [RING_Z, gf(5), zmod(12)], ids=str)
    @given(data=st.data())
    def test_poly_at_matches_sum_of_powers(self, ring, data):
        # Horner's rule against sum cs[i] x^(d - i) from reference_product
        # powers; coefficients beyond the modulus and zeros, leading ones
        # too, included. It starts at cs[0] x + cs[1] I, so the products
        # number max(len - 2, 0).
        n = data.draw(st.integers(min_value=1, max_value=4))
        x = data.draw(entries_strategy(ring, n))
        coefficient = st.just(0) | st.integers(min_value=-30, max_value=30)
        cs = data.draw(st.lists(coefficient, min_size=1, max_size=n + 2))
        d = len(cs) - 1
        powers = [SquareMatrix.identity(ring, n)]
        for _ in range(d):
            powers.append(reference_product(powers[-1], x))
        want = SquareMatrix.zeros(ring, n)
        for i, c in enumerate(cs):
            want = want + powers[d - i].scalar_mul(c)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_products(mp)
            got = _poly_at(cs, x)
        assert got == want and len(calls) == max(len(cs) - 2, 0)
        assert_canonical(got)
        assert _poly_at([], x) == SquareMatrix.zeros(ring, n)

    @pytest.mark.parametrize("ring", [RING_Z, gf(5), zmod(12)], ids=str)
    @pytest.mark.parametrize("n", [_UNROLL_MAX_N, _UNROLL_MAX_N + 1])
    def test_poly_at_products_on_both_sides_of_the_bound(self, ring, n, monkeypatch):
        # Each Horner step passes its coefficient to _rows_mul as the
        # addend and still counts as one product, in the kernel and in the
        # listcomp alike.
        x = _square(ring, n, seed=40 + n)
        calls = count_products(monkeypatch)
        rng = random.Random(n)
        for size in range(8):
            cs = [rng.randint(-30, 30) for _ in range(size)]
            want = SquareMatrix.zeros(ring, n)
            for c in cs:
                want = reference_product(want, x) + SquareMatrix.identity(ring, n).scalar_mul(c)
            calls.clear()
            got = _poly_at(cs, x)
            assert got == want and calls == [n] * max(size - 2, 0)
            assert_canonical(got)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @given(data=st.data())
    def test_product_matches_reference(self, ring, data):
        # Dimensions 1.._UNROLL_MAX_N + 1 span both sides of the unroll bound:
        # the generated kernels up to the bound and the listcomp above it.
        a, b = kernel_operands(data, ring, 2, max_n=_UNROLL_MAX_N + 1)
        assert a * b == reference_product(a, b)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", [_UNROLL_MAX_N, _UNROLL_MAX_N + 1])
    @settings(max_examples=5)
    @given(data=st.data())
    def test_product_matches_reference_at_the_unroll_bound(self, ring, n, data):
        # The draw above need not reach both sides for every ring; this does.
        a, b = (data.draw(entries_strategy(ring, n, max_denominator=12)) for _ in range(2))
        assert a * b == reference_product(a, b)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", [_UNROLL_MAX_N + 1, _UNROLL_MAX_N + 2])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_rows_mul_above_the_unroll_bound(self, ring, n, data):
        # The listcomp side of _rows_mul on raw rows, against the scalar
        # triple loop: reduced rows mod m, and integer rows over the product
        # of the denominators over Q and Z.
        a, b = (data.draw(entries_strategy(ring, n, max_denominator=12)) for _ in range(2))
        rows = _rows_mul(a.num, b.num, ring.modulus)
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        want = reference_product(a, b)
        if ring.modulus is not None:
            assert rows == want.num
        assert _from_rows(ring, rows, a.den * b.den) == want

    def test_products_above_the_unroll_bound_compile_no_kernel(self):
        n = _UNROLL_MAX_N + 1
        a = SquareMatrix(RING_Q, [[Fraction(i - j, 1 + i) for j in range(n)] for i in range(n)])
        cached = dict(_PRODUCT)
        assert a * a == reference_product(a, a)
        half = a.scalar_mul(Fraction(1, 2))
        assert _products_equal(a, a, half, a.scalar_mul(2))
        assert not _products_equal(a, a, half, a)
        assert _PRODUCT == {**cached, n: _rows_mul_loop}

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @given(data=st.data())
    def test_products_equal_decides_product_equality(self, ring, data):
        # Drawn products almost never agree, so most draws rebuild the right
        # side from the left: x1 u times u^-1 y1 (over Q through different
        # denominators), the same factors, or the same with one entry moved.
        x1, y1, x2, y2, u = kernel_operands(data, ring, 5, max_n=_UNROLL_MAX_N + 1)
        how = data.draw(st.sampled_from(["drawn", "unit", "same", "moved"]))
        if how == "unit" and is_invertible(u):
            x2, y2 = x1 * u, inverse(u) * y1
        elif how in ("same", "moved"):
            x2, y2 = x1, y1
            if how == "moved":
                i, j = data.draw(st.tuples(*[st.integers(0, x1.n - 1)] * 2))
                rows = [list(r) for r in y1.entries]
                rows[i][j] += 1
                y2 = SquareMatrix(ring, rows)
        assert _products_equal(x1, y1, x2, y2) == (x1 * y1 == x2 * y2)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @given(data=st.data())
    def test_arithmetic_results_are_canonical(self, ring, data):
        a, b = kernel_operands(data, ring, 2)
        c = data.draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=12)
            if ring.kind == "Q" else st.integers(min_value=-20, max_value=20)
        )
        results = [a * b, a + b, a - b, a - a, -a, a.scalar_mul(c), a.scalar_mul(0),
                   a.power(3), SquareMatrix.identity(ring, a.n),
                   SquareMatrix.zeros(ring, a.n)]
        if is_invertible(a):
            results.append(inverse(a))
        if ring.is_field:
            results.append(flavor_inverse(a, Flavor.DRAZIN).inverse)
        if ring.kind in ("Q", "Z"):
            results.append(over_q(a))
        for r in results:
            assert_canonical(r)

    # (den, f): the rows are f times seeded integers. A negative den, a den
    # sharing the factor f with every entry, den = 1, and units mod m.
    @pytest.mark.parametrize("ring,den,f", [
        (RING_Q, 1, 1), (RING_Q, -6, 1), (RING_Q, 6, 3), (RING_Q, -10, 10),
        (RING_Z, 1, 1), (RING_Z, -4, 4), (RING_Z, 3, 3),
        (gf(5), 1, 1), (gf(5), -2, 1), (gf(5), 6, 3),
        (zmod(12), 1, 1), (zmod(12), -1, 1), (zmod(12), 7, 1), (zmod(12), 5, 5),
    ], ids=str)
    def test_normaliser_matches_validated_constructor(self, ring, den, f):
        rng = random.Random(den * 100 + f)
        for n in (1, 2, 3):
            for _ in range(20):
                rows = [[f * rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
                if ring.is_finite:
                    # The residue y with den y = x mod m, found by search.
                    m = ring.modulus
                    want = [
                        [next(y for y in range(m) if (den * y - x) % m == 0)
                         for x in row]
                        for row in rows
                    ]
                else:
                    want = [[Fraction(x, den) for x in row] for row in rows]
                got = _from_rows(ring, rows, den)
                assert got == SquareMatrix(ring, want)
                assert_canonical(got)

    @given(data=st.data())
    def test_q_products_associate_with_equal_hashes(self, data):
        # Denominators up to 12, so the three factors rarely share one and
        # the two bracketings reach the same value through different gcds.
        a, b, c = kernel_operands(data, RING_Q, 3)
        left, right = (a * b) * c, a * (b * c)
        assert left == right and hash(left) == hash(right)

    def test_hashable_value_semantics(self):
        x = m(gf(2), [[1, 0], [0, 1]])
        y = SquareMatrix.identity(gf(2), 2)
        assert x == y and hash(x) == hash(y)


def _square(ring: RingSpec, n: int, seed: int) -> SquareMatrix:
    """A fixed n x n matrix with entries in [-3, 3] (over Q with
    denominators up to 4), reduced into the ring."""
    rng = random.Random(seed)
    if ring.kind == "Q":
        return m(ring, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                         for _ in range(n)] for _ in range(n)])
    return m(ring, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def _seeded_rows(n: int, seed: int, f: int) -> list[list[int]]:
    """Fixed n x n integer rows, f times entries in [-3, 3]."""
    rng = random.Random(seed)
    return [[f * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


# Every route that builds a matrix: the validating constructor, products
# on both kernels and the listcomp, the normaliser in all four ring kinds,
# and the public results built from derived rows.
CONSTRUCTION_ROUTES = {
    "constructor": lambda: m(RING_Q, [[Fraction(1, 2), 3], [0, -1]]),
    "product-n2-zmod4": lambda: _square(zmod(4), 2, 1) * _square(zmod(4), 2, 2),
    "product-n2-q": lambda: _square(RING_Q, 2, 3) * _square(RING_Q, 2, 4),
    "product-n4-z": lambda: _square(RING_Z, 4, 5) * _square(RING_Z, 4, 6),
    "product-n4-q": lambda: _square(RING_Q, 4, 7) * _square(RING_Q, 4, 8),
    "product-n5-gf5": lambda: _square(gf(5), 5, 9) * _square(gf(5), 5, 10),
    "product-n5-q": lambda: _square(RING_Q, 5, 11) * _square(RING_Q, 5, 12),
    "from-rows-q": lambda: _from_rows(RING_Q, [[4, -6], [2, 0]], -6),
    "from-rows-q-n4": lambda: _from_rows(RING_Q, _seeded_rows(4, 15, 6), -4),
    "from-rows-q-n5": lambda: _from_rows(RING_Q, _seeded_rows(5, 16, 6), -4),
    "from-rows-z": lambda: _from_rows(RING_Z, [[4, -6], [2, 0]], 2),
    "from-rows-gf5": lambda: _from_rows(gf(5), [[4, -6], [2, 0]], 3),
    "from-rows-zmod6": lambda: _from_rows(zmod(6), [[4, -6], [2, 0]], 5),
    "identity": lambda: SquareMatrix.identity(RING_Q, 3),
    "zeros": lambda: SquareMatrix.zeros(zmod(6), 2),
    "poly-at": lambda: _poly_at([2, 0, -3, 5], _square(zmod(12), 3, 14)),
    "over-q": lambda: over_q(_square(RING_Z, 3, 13)),
    "all-matrices": lambda: list(all_matrices(zmod(4), 2))[-1],
    "inverse-q": lambda: inverse(m(RING_Q, [[2, 1], [Fraction(1, 3), 1]])),
    "inverse-zmod6": lambda: inverse(m(zmod(6), [[1, 2], [0, 5]])),
    "flavor-inverse": lambda: flavor_inverse(
        m(RING_Q, [[1, 1, 0], [0, 0, 1], [0, 0, 0]]), Flavor.DRAZIN
    ).inverse,
}


class TestBuiltMatrices:
    @pytest.mark.parametrize("build", CONSTRUCTION_ROUTES.values(), ids=list(CONSTRUCTION_ROUTES))
    def test_every_route_builds_an_immutable_plain_matrix(self, build):
        x = build()
        assert type(x) is SquareMatrix
        assert not hasattr(x, "__dict__")
        for name in ("ring", "n", "num", "den", "_chi", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        again = SquareMatrix(x.ring, x.entries)
        assert x == again and hash(x) == hash(again)


class TestStoredCharacteristicPolynomial:
    """_chi(a) is one Berkowitz run kept on a, invisible to everything that
    compares, hashes, prints or serialises a."""

    @pytest.mark.parametrize("ring", [RING_Q, RING_Z, gf(5), zmod(4)], ids=str)
    @given(data=st.data())
    def test_chi_is_berkowitz_and_filling_it_changes_nothing(self, ring, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        built = data.draw(entries_strategy(ring, n))
        trusted = _trusted(ring, built.num, built.den)
        for a, other in ((built, trusted), (trusted, built)):
            unfilled = SquareMatrix(ring, a.entries)
            before = (hash(a), repr(a), matrix_to_json(a))
            with pytest.raises(AttributeError):
                a._chi
            cs = _chi(a)
            assert type(cs) is tuple
            assert cs == tuple(_berkowitz(a.num, ring.modulus))
            assert _chi(a) is cs
            assert (hash(a), repr(a), matrix_to_json(a)) == before
            assert a == unfilled and unfilled == a and a == other
            assert hash(a) == hash(unfilled)

    def test_building_keeps_the_layout_of_square_matrix(self):
        # _trusted turns a _Building into a SquareMatrix by assigning
        # __class__, which needs the two layouts to be the same.
        assert _Building.__slots__ == ()
        assert _Building.__basicsize__ == SquareMatrix.__basicsize__
        assert "_chi" in SquareMatrix.__slots__
        a = _trusted(gf(5), ((1, 2), (3, 4)))
        assert type(a) is SquareMatrix and not hasattr(a, "__dict__")
        assert not hasattr(a, "_chi")
        assert _chi(a) == (1, 0, 3)


class TestInverse:
    def test_identity(self):
        eye = SquareMatrix.identity(RING_Q, 3)
        assert inverse(eye) == eye

    def test_singular_rejected(self):
        with pytest.raises(NotInvertible):
            inverse(m(RING_Q, [[0, -1], [0, 1]]))

    def test_residue_ring_inverse(self):
        a = m(zmod(4), [[1, 1], [0, 1]])
        assert inverse(a) == m(zmod(4), [[1, 3], [0, 1]])

    def test_integer_unimodular(self):
        a = m(RING_Z, [[2, 1], [1, 1]])
        assert a * inverse(a) == SquareMatrix.identity(RING_Z, 2)

    def test_integer_non_unit_det_rejected(self):
        with pytest.raises(NotInvertible):
            inverse(m(RING_Z, [[2, 0], [0, 1]]))

    @pytest.mark.parametrize("ring", [zmod(4), RING_Z], ids=str)
    def test_wrong_elimination_fails_its_check(self, ring, monkeypatch):
        # With the backward pass's D negated, the result is -a^-1; off the
        # fields, a x = 1 is checked and the fault is an internal error.
        real = matrix_rings._back_substitute
        monkeypatch.setattr(
            matrix_rings, "_back_substitute", lambda *args: -real(*args)
        )
        with pytest.raises(FormulaViolation, match="elimination inverse failed"):
            inverse(m(ring, [[1, 1], [0, 1]]))

    @given(entries_strategy(RING_Q, 3))
    def test_two_sided_over_q(self, a):
        assume(det(a) != 0)
        eye = SquareMatrix.identity(RING_Q, 3)
        b = inverse(a)
        assert a * b == eye and b * a == eye

    @given(entries_strategy(zmod(12), 2))
    def test_two_sided_over_residue_ring(self, a):
        assume(is_invertible(a))
        eye = SquareMatrix.identity(zmod(12), 2)
        b = inverse(a)
        assert a * b == eye and b * a == eye


    @pytest.mark.parametrize(
        "ring", [zmod(4), zmod(9), zmod(12), RING_Z], ids=str
    )
    @given(data=st.data())
    def test_adjugate_over_unit_determinant(self, ring, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        a = data.draw(entries_strategy(ring, n))
        d = leibniz_det(a)
        if ring.kind == "Z":
            unit, d_inv = d in (1, -1), d
        else:
            unit = gcd(d, ring.modulus) == 1
            d_inv = pow(d, -1, ring.modulus) if unit else None
        if unit:
            assert inverse(a) == leibniz_adjugate(a).scalar_mul(d_inv)
        else:
            with pytest.raises(NotInvertible) as info:
                inverse(a)
            assert info.value.reason == "det not a unit"


class TestNonUnitRefusal:
    """No GF ring reaches a non-unit pivot or den, since GF moduli are
    proven prime; the kernels still refuse one with a typed error naming
    gcd(x, m), not pow's ValueError."""

    def test_echelon_pivot(self):
        with pytest.raises(NotInvertible, match=r"^2 is not a unit mod 6: gcd\(2, 6\) = 2$") as exc:
            matrix_rings._echelon([[2, 1], [1, 1]], 2, 6)
        assert exc.value.reason == "not a unit mod m"

    @pytest.mark.parametrize("den,g", [(3, 3), (-4, 4), (0, 12)])
    def test_from_rows_den(self, den, g):
        with pytest.raises(NotInvertible, match=rf"gcd\({den}, 12\) = {g}$"):
            _from_rows(zmod(12), [[1, 0], [0, 1]], den)


class TestDet:
    def test_identity(self):
        assert det(SquareMatrix.identity(RING_Q, 3)) == 1

    def test_integer_nilpotent(self):
        assert det(m(RING_Z, [[0, 2], [0, 0]])) == 0

    @given(entries_strategy(RING_Q, 3), entries_strategy(RING_Q, 3))
    def test_multiplicative_over_q(self, a, b):
        assert det(a * b) == det(a) * det(b)

    @given(entries_strategy(zmod(12), 2), entries_strategy(zmod(12), 2))
    def test_multiplicative_over_z12(self, a, b):
        assert det(a * b) == det(a) * det(b) % 12

    @given(entries_strategy(RING_Q, 3))
    def test_bareiss_route_agrees(self, a):
        assert det(a) == det_bareiss(a)

    @given(st.one_of(
        entries_strategy(RING_Z, 3),
        entries_strategy(zmod(9), 3),
        entries_strategy(zmod(12), 3),
    ))
    def test_bareiss_route_agrees_over_z(self, a):
        assert det(a) == det_bareiss(a)

    @given(st.one_of(entries_strategy(gf(5), 3), entries_strategy(gf(7), 3)))
    def test_bareiss_route_agrees_over_gf(self, a):
        assert det(a) == det_bareiss(a)

    @pytest.mark.parametrize(
        "ring", [RING_Q, RING_Z, gf(5), zmod(9), zmod(12)], ids=str
    )
    @given(data=st.data())
    def test_leibniz_expansion_agrees(self, ring, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        a = data.draw(entries_strategy(ring, n, max_denominator=12))
        assert det(a) == det_bareiss(a) == leibniz_det(a)

    @pytest.mark.parametrize(
        "ring", [RING_Q, RING_Z, gf(5), zmod(4), zmod(12)], ids=str
    )
    @given(data=st.data())
    def test_berkowitz_at_one_is_det_of_one_minus_a(self, ring, data):
        # det(t I - A) = sum c_k t^(n-k) at t = 1, on the integer rows of a
        # (Q numerators, integers, residues), with every value reduced mod m
        # on the finite rings.
        n = data.draw(st.integers(min_value=1, max_value=4))
        big_a = SquareMatrix(ring, data.draw(entries_strategy(ring, n)).num)
        cs = _berkowitz(big_a.num, ring.modulus)
        eye = SquareMatrix.identity(ring, n)
        assert ring.canon(sum(cs)) == det_bareiss(eye - big_a)


class TestReducedEchelon:
    """The elimination kernel against textbook Gauss-Jordan over Q and
    modulo p."""

    @given(data=st.data())
    def test_matches_gauss_jordan_with_identity(self, data):
        # [A | I] with A singular about half the time: the right half of
        # every row, those below the rank too, is pinned.
        n = data.draw(st.integers(min_value=1, max_value=4))
        a = data.draw(q_matrices(n))
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(a.entries)]
        assert reduced_echelon(RING_Q, aug, n) == gauss_jordan(aug, n)

    @given(data=st.data())
    def test_matches_gauss_jordan_on_solver_systems(self, data):
        # The shape the d-solver eliminates: b X b = v as an n^2 x (n^2 + 1)
        # system with coefficient b[i][k] b[l][j], rank-deficient whenever
        # b is singular; v is b a c or arbitrary, so some are inconsistent.
        n = data.draw(st.integers(min_value=1, max_value=3))
        b = data.draw(q_matrices(n))
        a, c = (data.draw(entries_strategy(RING_Q, n, max_denominator=12)) for _ in "ac")
        v = (b * a * c if data.draw(st.booleans()) else a).entries
        b = b.entries
        aug = [[b[i][k] * b[l][j] for k in range(n) for l in range(n)] + [v[i][j]]
               for i in range(n) for j in range(n)]
        assert reduced_echelon(RING_Q, aug, n * n) == gauss_jordan(aug, n * n)


    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(data=st.data())
    def test_matches_gauss_jordan_mod_p(self, p, data):
        # The rows of u v mod p for an h x k and a k x w matrix have rank at
        # most k, so rows below the rank are common; the columns past ncols
        # are an augmented right side, never pivoted on.
        h, ncols = (data.draw(st.integers(min_value=1, max_value=4)) for _ in "hc")
        w = ncols + data.draw(st.integers(min_value=0, max_value=3))
        k = data.draw(st.integers(min_value=0, max_value=min(h, w)))
        cell = st.integers(min_value=0, max_value=p - 1)
        u, v = (
            data.draw(st.lists(st.lists(cell, min_size=c, max_size=c), min_size=r, max_size=r))
            for r, c in ((h, k), (k, w))
        )
        rows = [[sum(u[i][t] * v[t][j] for t in range(k)) % p for j in range(w)]
                for i in range(h)]
        assert reduced_echelon(gf(p), rows, ncols) == gauss_jordan_mod(rows, ncols, p)


class TestNilpotency:
    def test_shift_matrix(self):
        assert is_nilpotent(m(RING_Q, [[0, 1], [0, 0]])) == (True, 2)

    def test_integer_example(self):
        assert is_nilpotent(m(RING_Z, [[0, 2], [0, 0]])) == (True, 2)

    def test_identity_is_not(self):
        assert is_nilpotent(SquareMatrix.identity(RING_Q, 2)) == (False, None)

    def test_residue_scalar(self):
        # 2 squares to zero mod 4 even though 2 is not zero
        assert is_nilpotent(m(zmod(4), [[2]])) == (True, 2)

    def test_residue_needs_degree_beyond_dimension(self):
        # over Z/8 the scalar 2 needs the third power, above n = 1
        assert is_nilpotent(m(zmod(8), [[2]])) == (True, 3)


class TestRadical:
    def test_scalar_two_matrix_mod_4(self):
        assert in_radical(m(zmod(4), [[2, 0], [0, 2]]))

    def test_radical_is_divisibility_by_the_distinct_primes(self):
        # rad(Z/4) = 2Z/4, rad(Z/12) = 6Z/12, and Z/30 is squarefree
        assert not in_radical(m(zmod(4), [[1]]))
        assert not in_radical(m(zmod(12), [[2]]))
        assert not in_radical(m(zmod(12), [[3]]))
        assert not in_radical(m(zmod(30), [[6]]))
        assert not in_radical(m(zmod(30), [[15]]))
        assert in_radical(m(zmod(30), [[0]]))

    @pytest.mark.parametrize("modulus", range(2, 65))
    def test_matches_the_definition(self, modulus):
        # x is in rad(Z/m) iff x is nilpotent, and a nilpotent x has
        # x^j = 0 for some j <= m
        for x in range(modulus):
            nilpotent = any(pow(x, j, modulus) == 0 for j in range(1, modulus + 1))
            assert in_radical(m(zmod(modulus), [[x]])) == nilpotent

    def test_large_composite_modulus_needs_no_factorization(self):
        # (2^61 - 1)(2^31 - 1) is a product of two large primes; trial
        # division would take about 2^30 steps.
        ring = zmod((2**61 - 1) * (2**31 - 1))
        a = m(ring, [[0, 2**61 - 1], [0, 0]])
        start = time.perf_counter()
        assert is_nilpotent(a) == (True, 2)
        assert not is_nilpotent(SquareMatrix.identity(ring, 2))[0]
        assert not in_radical(a)
        assert in_radical(m(zmod((2**61 - 1) ** 2), [[2**61 - 1]]))
        cert = verify_axioms(a, SquareMatrix.zeros(ring, 2), Flavor.PDRAZIN)
        assert cert.valid and cert.index == 2
        assert time.perf_counter() - start < 0.5

    def test_mod_12_needs_divisibility_by_6(self):
        assert in_radical(m(zmod(12), [[6, 0], [0, 0]]))
        assert not in_radical(m(zmod(12), [[4, 0], [0, 0]]))

    def test_semisimple_rings_have_zero_radical(self):
        assert not in_radical(m(RING_Q, [[1, 0], [0, 0]]))
        assert in_radical(SquareMatrix.zeros(RING_Q, 2))
        assert in_radical(SquareMatrix.zeros(gf(3), 2))

    @given(entries_strategy(zmod(12), 2), entries_strategy(zmod(12), 2),
           entries_strategy(zmod(12), 2))
    def test_ideal_property(self, a, b, x):
        def radicalize(v: SquareMatrix) -> SquareMatrix:
            scaled = [[6 * e for e in row] for row in v.entries]
            return SquareMatrix(zmod(12), scaled)

        ra, rb = radicalize(a), radicalize(b)
        assert in_radical(ra + rb)
        assert in_radical(x * ra)


class TestEnumeration:
    def test_gf2_two_by_two_count(self):
        assert sum(1 for _ in all_matrices(gf(2), 2)) == 16

    def test_gf3_two_by_two_count(self):
        assert sum(1 for _ in all_matrices(gf(3), 2)) == 81

    def test_deterministic_order(self):
        first = list(all_matrices(gf(2), 1))
        assert first == [m(gf(2), [[0]]), m(gf(2), [[1]])]
        z4 = list(all_matrices(zmod(4), 2))
        assert len(set(z4)) == 256
        assert [a.num for a in z4] == sorted(a.num for a in z4)
        assert z4[1] == m(zmod(4), [[0, 0], [0, 1]])


class TestMatrixJson:
    @given(st.sampled_from([RING_Q, RING_Z, gf(3), zmod(4)]), st.integers(1, 3),
           st.data())
    def test_round_trip(self, ring, n, data):
        a = data.draw(entries_strategy(ring, n))
        assert matrix_from_json(matrix_to_json(a)) == a

    def test_schema_is_strict(self):
        good = matrix_to_json(m(RING_Q, [[1]]))
        for broken in (
            {**good, "extra": 1},
            {"rows": good["rows"]},
            {"ring": good["ring"]},
            {"ring": "Q", "rows": [[1]]},
            {"ring": "Q", "rows": [["1", "2"]]},
            {"ring": {"GF": 6}, "rows": [["1"]]},
            "Q",
        ):
            with pytest.raises((DrazinkitError, ZeroDivisionError)):
                matrix_from_json(broken)

    def test_residue_scalars_serialize_reduced(self):
        a = m(zmod(4), [[7]])
        assert matrix_to_json(a)["rows"] == [["3"]]

    def test_a_modulus_past_the_digit_limit_is_written_in_full(self):
        # 10^5000 + 1 has 5001 digits, past the 4300 that str() writes; 17
        # divides it.
        big = 10**5000 + 1
        digits = "1" + "0" * 4999 + "1"
        ring = zmod(big)
        assert str(ring) == f"Zmod({digits})"
        assert matrix_to_json(m(ring, [[7, 10**5000], [0, big]])) == {
            "ring": {"Zmod": big}, "rows": [["7", "1" + "0" * 5000], ["0", "0"]],
        }
        with pytest.raises(NotInvertible) as exc:
            matrix_rings._echelon([[17, 1], [1, 1]], 2, big)
        assert str(exc.value) == f"17 is not a unit mod {digits}: gcd(17, {digits}) = 17"
        with pytest.raises(DrazinkitError) as exc:
            m(RING_Z, [[Fraction(big, 2)]])
        assert str(exc.value) == f"{digits}/2 is not an element of Z"


class Poly:
    """A polynomial with integer coefficients in symbols such as ("x", i, j):
    a dict from monomials, sorted tuples of symbols, to nonzero
    coefficients. It knows +, *, unary - and % m (each coefficient reduced
    mod m), all a generated kernel can do to its entries, so running a
    kernel on symbols gives the polynomial it computes."""

    __hash__ = None

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c}

    @staticmethod
    def lift(x: "Poly | int") -> "Poly":
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in Poly.lift(other).terms.items():
            terms[k] = terms.get(k, 0) + c
        return Poly(terms)

    def __mul__(self, other):
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in Poly.lift(other).terms.items():
                k = tuple(sorted(k1 + k2))
                terms[k] = terms.get(k, 0) + c1 * c2
        return Poly(terms)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()})

    def __mod__(self, m: int):
        return Poly({k: c % m for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, (Poly, int)) and self.terms == Poly.lift(other).terms

    def __repr__(self):
        return f"Poly({self.terms})"


def symbols(name: str, n: int) -> list[list[Poly]]:
    """The n x n rows of the symbols (name, i, j)."""
    return [[Poly({((name, i, j),): 1}) for j in range(n)] for i in range(n)]


UP_TO_THE_BOUND = range(1, _UNROLL_MAX_N + 1)


class TestGeneratedKernels:
    """The straight-line kernels are proved on symbols, once per n up to the
    bound: the polynomial each one computes is the one its definition
    computes, over Z and after reduction mod m."""

    def test_polynomials_multiply_as_polynomials(self):
        [[x]], [[y]] = symbols("x", 1), symbols("y", 1)
        assert (x + y) * (x + -y) == x * x + -(y * y)
        assert (x + 1) * (x + 1) + -(x * x) + -(2 * x) == 1
        assert (3 * x + 5) % 4 == 3 * x + 1 and x * 2 % 2 == 0
        assert x != y and x + 0 == x and 0 + x == x and not x == "x"

    def test_the_loop_is_the_characteristic_polynomial_at_n_two(self):
        # The reference the kernels are proved against, on the symbols:
        # det(t I - X) = t^2 - (x00 + x11) t + (x00 x11 - x01 x10).
        (x00, x01), (x10, x11) = symbols("x", 2)
        assert _berkowitz_loop(symbols("x", 2)) == [
            1, -(x00 + x11), x00 * x11 + -(x01 * x10)
        ]

    @pytest.mark.parametrize("modulus", [None, 2, 4, 12, 2**64])
    @pytest.mark.parametrize("n", UP_TO_THE_BOUND)
    def test_chi_kernel_is_the_loop_on_symbols(self, n, modulus):
        kernel = _CHI[n]
        x = symbols("x", n)
        assert kernel(x, modulus) == _berkowitz_loop(x, modulus)

    @pytest.mark.parametrize("modulus", [None, 2, 12, 2**64])
    @pytest.mark.parametrize("n", UP_TO_THE_BOUND)
    def test_product_kernel_is_the_sum_of_products_on_symbols(self, n, modulus):
        kernel = _PRODUCT[n]
        a, b = symbols("x", n), symbols("y", n)
        want = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        if modulus is not None:
            want = [[x % modulus for x in row] for row in want]
        got = kernel(a, b, modulus)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        assert [list(row) for row in got] == want

    @pytest.mark.parametrize("modulus", [None, 2, 12, 2**64])
    @pytest.mark.parametrize("n", UP_TO_THE_BOUND)
    def test_product_kernel_adds_c_on_the_diagonal_on_symbols(self, n, modulus):
        # The addend is -c for a symbol c: its coefficient -1 changes under
        # % m, so adding it after the reduction gives another polynomial.
        kernel = _PRODUCT[n]
        a, b = symbols("x", n), symbols("y", n)
        [[c]] = symbols("c", 1)
        want = [[sum(a[i][k] * b[k][j] for k in range(n)) + (-c if i == j else 0)
                 for j in range(n)] for i in range(n)]
        if modulus is not None:
            want = [[x % modulus for x in row] for row in want]
        got = kernel(a, b, modulus, -c)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        assert [list(row) for row in got] == want

    @pytest.mark.parametrize("modulus", [None, 2, 12, 2**64])
    @pytest.mark.parametrize("n", range(1, _UNROLL_MAX_N + 2))
    def test_rows_mul_adds_c_before_reducing(self, n, modulus):
        # Kernels up to the bound and the listcomp above it, against the
        # sum of products plus c on the diagonal, reduced once at the end.
        rng = random.Random(3200 + n)
        for c in (0, 1, -7, 13, 2**70, -(2**64) - 1):
            x, y = ([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            want = tuple(
                tuple(sum(x[i][k] * y[k][j] for k in range(n)) + (c if i == j else 0)
                      for j in range(n))
                for i in range(n)
            )
            if modulus is not None:
                want = tuple(tuple(v % modulus for v in row) for row in want)
            assert _rows_mul(x, y, modulus, c) == want
            assert _rows_mul(tuple(map(tuple, x)), y, modulus, c) == want

    # (den, f, bound): rows of f times seeded integers in [-bound, bound]
    # over den: a negative den, a den sharing a factor with every entry,
    # gcd 1 with either sign of den, all-zero rows, and entries near 2^80.
    @pytest.mark.parametrize("den,f,bound", [
        (-6, 1, 30), (6, 3, 30), (-10, 10, 30), (7, 1, 30), (-7, 1, 30),
        (5, 0, 30), (-5, 0, 30), (3 * 2**40, 2**40, 2**40), (-9, 1, 2**80),
    ], ids=str)
    @pytest.mark.parametrize("n", UP_TO_THE_BOUND)
    def test_normaliser_is_the_loop_and_the_constructor(self, n, den, f, bound):
        rng = random.Random(3300 + n)
        for _ in range(20):
            rows = [[f * rng.choice([rng.randint(-bound, bound), bound - rng.randint(0, 3),
                                     -bound + rng.randint(0, 3)])
                     for _ in range(n)] for _ in range(n)]
            got = _from_rows(RING_Q, rows, den)
            assert _from_rows(RING_Q, tuple(map(tuple, rows)), den) == got
            assert got == SquareMatrix(RING_Q, [[Fraction(x, den) for x in row] for row in rows])
            assert_canonical(got)
            # The same rows through the loop that runs above the bound.
            assert _normalise_loop(rows, den) == (got.num, got.den)

    def test_up_to_the_bound_q_rows_never_reach_the_chained_gcd(self, monkeypatch):
        # Once a normaliser kernel exists, _from_rows over Q calls no gcd of
        # this module for n <= _UNROLL_MAX_N; above the bound the table's
        # loop calls one.
        rows = {n: _seeded_rows(n, 50 + n, 2) for n in range(1, _UNROLL_MAX_N + 2)}
        want = {n: SquareMatrix(RING_Q, [[Fraction(x, -4) for x in row] for row in r])
                for n, r in rows.items()}
        for n in UP_TO_THE_BOUND:
            _from_rows(RING_Q, rows[n], 4)
        real, calls = matrix_rings.gcd, []

        def counted(*args):
            calls.append(len(args))
            return real(*args)

        monkeypatch.setattr(matrix_rings, "gcd", counted)
        for n, r in rows.items():
            assert _from_rows(RING_Q, r, -4) == want[n]
        n = _UNROLL_MAX_N + 1
        assert calls == [n * n + 1]
        assert _NORMALISER[n] is _normalise_loop
        assert all(_NORMALISER[k] is not _normalise_loop for k in UP_TO_THE_BOUND)

    @pytest.mark.parametrize("n", range(1, _UNROLL_MAX_N + 2))
    def test_berkowitz_is_the_loop_on_big_integers(self, n):
        rng = random.Random(3100 + n)
        for _ in range(40):
            bound = rng.choice([3, 2**20, 2**80])
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            want = _berkowitz_loop(rows)
            assert _berkowitz(rows) == want
            assert _berkowitz(tuple(map(tuple, rows))) == want

    @pytest.mark.parametrize("modulus", [2, 5, 4, 12, 2**64], ids=["GF2", "GF5", "Z4", "Z12", "Z2^64"])
    @pytest.mark.parametrize("n", range(1, _UNROLL_MAX_N + 2))
    def test_berkowitz_is_the_loop_on_residues(self, n, modulus):
        rng = random.Random(modulus * 10 + n)
        for _ in range(40):
            rows = tuple(
                tuple(rng.choice([0, 1, modulus - 1, rng.randrange(modulus)]) for _ in range(n))
                for _ in range(n)
            )
            got = _berkowitz(rows, modulus)
            assert type(got) is list and got == _berkowitz_loop(rows, modulus)
            assert all(0 <= c < modulus for c in got)

    def test_up_to_the_bound_the_loop_never_runs_once_a_kernel_exists(self, monkeypatch):
        # A table whose loop counts its calls: _berkowitz reaches it only
        # above the bound, and the module's table holds the loop itself there.
        rows = {n: [[(3 * i + j) % 7 - 3 for j in range(n)] for i in range(n)]
                for n in range(1, _UNROLL_MAX_N + 2)}
        calls = []

        def counted(rows, m=None):
            calls.append((len(rows), m))
            return _berkowitz_loop(rows, m)

        monkeypatch.setattr(matrix_rings, "_CHI", _Table(_chi_source, counted))
        for n in rows:
            for modulus in (None, 5):
                assert _berkowitz(rows[n], modulus) == _berkowitz_loop(rows[n], modulus)
        assert calls == [(_UNROLL_MAX_N + 1, None), (_UNROLL_MAX_N + 1, 5)]
        assert _CHI[_UNROLL_MAX_N + 1] is _berkowitz_loop

    def test_a_patched_berkowitz_leaves_the_cached_kernels_alone(self, monkeypatch):
        for n in UP_TO_THE_BOUND:
            _berkowitz([[1] * n] * n)
        cached = dict(_CHI)
        monkeypatch.setattr(matrix_rings, "_berkowitz", lambda rows, m=None: [7] * 5)
        for n in UP_TO_THE_BOUND:
            assert _chi(_square(RING_Q, n, seed=n)) == (7,) * 5
        assert _CHI == cached
        assert all(_CHI[n] is kernel for n, kernel in cached.items())

    def test_kernels_built_while_berkowitz_is_patched_trace_the_loop(self, monkeypatch):
        # _chi reaches the dispatcher through a patched name that bumps its
        # result; kernels built on that path are still the loop's own.
        real = _berkowitz

        def bumped(rows, m=None):
            cs = real(rows, m)
            cs[-1] += 1
            return cs

        kernels = _Table(_chi_source, _berkowitz_loop)
        monkeypatch.setattr(matrix_rings, "_CHI", kernels)
        monkeypatch.setattr(matrix_rings, "_berkowitz", bumped)
        for n in UP_TO_THE_BOUND:
            a = _square(RING_Z, n, seed=20 + n)
            assert _chi(a) == (*_berkowitz_loop(a.num)[:-1], _berkowitz_loop(a.num)[-1] + 1)
        assert sorted(kernels) == list(UP_TO_THE_BOUND)
        for n, kernel in kernels.items():
            x = symbols("x", n)
            assert kernel(x, None) == _berkowitz_loop(x)

    @pytest.mark.parametrize("table,source,loop", [
        (_PRODUCT, _product_source, _rows_mul_loop),
        (_CHI, _chi_source, _berkowitz_loop),
        (_NORMALISER, _normaliser_source, _normalise_loop),
    ], ids=["product", "chi", "normaliser"])
    def test_each_table_holds_a_kernel_up_to_the_bound_and_the_loop_above(
        self, table, source, loop
    ):
        # The package's table and a fresh one: a kernel compiled from the
        # source for every n up to the bound, the loop object above it, and
        # the same object again on a second lookup.
        fresh = _Table(source, loop)
        for n in range(1, _UNROLL_MAX_N + 3):
            for kernels in (table, fresh):
                kernel = kernels[n]
                assert kernels[n] is kernel
                if n <= _UNROLL_MAX_N:
                    assert kernel is not loop and kernel.__name__ == "kernel"
                    assert kernel.__code__.co_filename == f"<{source.__name__} n={n}>"
                else:
                    assert kernel is loop
        assert sorted(fresh) == list(range(1, _UNROLL_MAX_N + 3))


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: RingSpec("Q", 5), DrazinkitError, "Q takes no modulus"),
        (lambda: RingSpec.from_json("R"), DrazinkitError, "not a ring descriptor: 'R'"),
        (lambda: SquareMatrix(RING_Q, []), DimensionMismatch,
         "matrices must have dimension >= 1"),
        (lambda: SquareMatrix(RING_Q, [[1, 2], [3]]), DimensionMismatch,
         "expected 2 columns, got 1"),
        (lambda: SquareMatrix.identity(RING_Q, 2).power(-1), DrazinkitError,
         "power exponent must be >= 0"),
        (lambda: next(all_matrices(RING_Q, 1)), DrazinkitError,
         "cannot enumerate matrices over Q"),
    ],
    ids=["modulus-on-Q", "unknown-descriptor", "empty", "ragged", "negative-power",
         "enumerate-Q"],
)
def test_library_refusals(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == text
