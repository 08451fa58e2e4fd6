"""Rational scalars and the integer polynomial kernel."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drazinkit import exact_arith
from drazinkit.errors import (
    BudgetExceeded,
    DivisionByZero,
    DrazinkitError,
    ZeroPolynomial,
)
from drazinkit.exact_arith import (
    _pseudo_divmod,
    format_rational,
    int_poly_gcd,
    parse_rational,
    primitive,
    rational_roots,
    squarefree_part,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


# -- a reference on Fraction coefficient lists ---------------------------------
# Lists of Fractions, lowest degree first, no trailing zeros; [] is zero. The
# helpers below run Euclid's algorithm over Q and share no code with the
# integer kernel, whose results they check through as_monic.


def trim(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


small_polys = st.lists(rationals, min_size=0, max_size=5).map(trim)


def add(p, q) -> list[Fraction]:
    longer, shorter = (p, q) if len(p) >= len(q) else (q, p)
    return trim([c + (shorter[i] if i < len(shorter) else 0) for i, c in enumerate(longer)])


def mul(p, q) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def evaluate(p, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def fdivmod(p, q) -> tuple[list[Fraction], list[Fraction]]:
    """Euclidean division over Q: p = quo*q + rem with deg rem < deg q."""
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        k = len(rem) - len(q)
        f = rem[-1] / q[-1]
        quo[k] = f
        for j, c in enumerate(q):
            rem[k + j] -= f * c
        rem = trim(rem)
    return quo, rem


def monic(p) -> list[Fraction]:
    return [c / p[-1] for c in p]


def derivative(p) -> list[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def euclid_gcd(p, q) -> list[Fraction]:
    """Reference monic gcd: the euclidean algorithm on Fraction coefficients."""
    a, b = p, q
    while b:
        a, b = b, fdivmod(a, b)[1]
    return monic(a) if a else []


def euclid_squarefree(p) -> list[Fraction]:
    """Reference monic p / gcd(p, p') on Fraction coefficients."""
    quo, rem = fdivmod(p, euclid_gcd(p, derivative(p)))
    assert not rem
    return monic(quo)


def ints(p) -> tuple[int, ...]:
    """p times the lcm of its denominators: an integer multiple, not
    necessarily primitive."""
    den = math.lcm(*(c.denominator for c in p))
    return tuple(int(c * den) for c in p)


def as_monic(t) -> list[Fraction]:
    """The monic Fraction form of a kernel tuple; [] for ()."""
    return [Fraction(c, t[-1]) for c in t]


small_int_polys = small_polys.map(ints)


class TestRationals:
    def test_exact_sum(self):
        assert parse_rational("1/2") + parse_rational("1/3") == Fraction(5, 6)

    def test_canonical_form(self):
        assert parse_rational("2/4") == Fraction(1, 2)
        assert format_rational(parse_rational("2/4")) == "1/2"

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            parse_rational("7/3") / 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            parse_rational("1/0")

    @pytest.mark.parametrize("text", ["", "1.5", "a", "1/2/3", "1 /2", "--3"])
    def test_malformed_rejected(self, text):
        with pytest.raises(DrazinkitError):
            parse_rational(text)

    def test_integer_forms(self):
        assert parse_rational("-7") == -7
        assert parse_rational("+4/6") == Fraction(2, 3)
        assert format_rational(Fraction(5)) == "5"

    @given(rationals, rationals, rationals)
    def test_field_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z

    @given(rationals)
    def test_format_parse_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestFractionReference:
    # The reference is an oracle only while it is right itself.
    @given(small_polys, small_polys, rationals)
    def test_mul_is_pointwise(self, p, q, x):
        assert evaluate(mul(p, q), x) == evaluate(p, x) * evaluate(q, x)

    @given(small_polys, small_polys, rationals)
    def test_add_is_pointwise(self, p, q, x):
        assert evaluate(add(p, q), x) == evaluate(p, x) + evaluate(q, x)

    @given(small_polys, small_polys)
    def test_divmod_reconstructs(self, p, q):
        if not q:
            return
        quo, rem = fdivmod(p, q)
        assert add(mul(quo, q), rem) == p
        assert len(rem) < len(q)


class TestPolyGcd:
    def test_linear_common_factor(self):
        assert int_poly_gcd((-1, 0, 1), (-1, 1)) == (-1, 1)

    def test_power_pair(self):
        assert int_poly_gcd((0, 0, 1), (0, 0, 0, 1)) == (0, 0, 1)

    def test_squared_vs_split(self):
        # (x-1)^2 against (x-1)(x+1) share exactly x-1
        assert int_poly_gcd((1, -2, 1), (-1, 0, 1)) == (-1, 1)

    def test_zero_operands(self):
        assert int_poly_gcd((2, 4), ()) == (1, 2)
        assert int_poly_gcd((), (-2, -4)) == (1, 2)
        assert int_poly_gcd((), ()) == ()

    @given(small_int_polys, small_int_polys)
    def test_divides_both_exactly(self, a, b):
        g = int_poly_gcd(a, b)
        if not g:
            assert a == () and b == ()
            return
        for operand in (a, b):
            assert _pseudo_divmod(operand, g)[1] == []

    @given(small_int_polys, small_int_polys)
    def test_monic_or_zero(self, a, b):
        # The primitive gcd stands for the monic one: content 1, lead > 0.
        g = int_poly_gcd(a, b)
        assert g == () or (g[-1] > 0 and math.gcd(*g) == 1)


class TestSquarefreePart:
    def test_double_root(self):
        assert squarefree_part((1, -2, 1)) == (-1, 1)

    def test_power_of_lambda_times_simple(self):
        # x^2 (x - 1) reduces to x (x - 1) = x^2 - x
        assert squarefree_part((0, 0, -1, 1)) == (0, -1, 1)

    def test_perfect_cube(self):
        assert squarefree_part((-1, 3, -3, 1)) == (-1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(())

    @given(small_polys)
    def test_square_invariance(self, p):
        if not p:
            return
        assert squarefree_part(ints(mul(p, p))) == squarefree_part(ints(p))

    @given(small_polys)
    def test_result_is_squarefree(self, p):
        if len(p) < 2:
            return
        s = trim(squarefree_part(ints(p)))
        assert euclid_gcd(s, derivative(s)) == [1]


class TestIntegerKernel:
    def test_primitive_form(self):
        assert primitive([0, -4, 6]) == (0, -2, 3)
        assert primitive([3, 0, -9]) == (-1, 0, 3)
        assert primitive([]) == ()

    def test_gcd_is_primitive_with_positive_lead(self):
        # (2x - 2)(x + 3) and -4(x - 1)^2 share x - 1
        assert int_poly_gcd((-6, 4, 2), (-4, 8, -4)) == (-1, 1)
        assert int_poly_gcd((0, 6), ()) == (0, 1)
        assert int_poly_gcd((), ()) == ()

    def test_squarefree_of_repeated_roots(self):
        # (2x - 1)^2 (x + 2) reduces to (2x - 1)(x + 2)
        assert squarefree_part((2, -7, 4, 4)) == (-2, 3, 2)

    def test_gcd_that_does_not_divide_raises(self, monkeypatch):
        # x + 1 does not divide x^2 + 1, so the pseudo-remainder is nonzero
        monkeypatch.setattr(exact_arith, "int_poly_gcd", lambda a, b: (1, 1))
        with pytest.raises(DrazinkitError, match="fails to divide"):
            squarefree_part((1, 0, 1))

    @given(small_int_polys, small_int_polys)
    def test_pseudo_division_identity(self, a, b):
        if not b:
            return
        quo, rem = _pseudo_divmod(a, b)
        assert len(rem) < len(b)
        # c*a = quo*b + rem for one nonzero integer c
        lhs, rhs = trim(a), add(mul(trim(quo), trim(b)), trim(rem))
        assert bool(lhs) == bool(rhs)
        if lhs:
            c = rhs[-1] / lhs[-1]
            assert c.denominator == 1 and rhs == [c * x for x in lhs]

    @given(small_polys, small_polys, small_polys)
    def test_gcd_matches_euclid(self, p, q, r):
        pr, qr = mul(p, r), mul(q, r)
        assert as_monic(int_poly_gcd(ints(pr), ints(qr))) == euclid_gcd(pr, qr)
        assert as_monic(int_poly_gcd(ints(p), ints(q))) == euclid_gcd(p, q)

    @given(small_polys, small_polys)
    def test_squarefree_matches_euclid(self, p, r):
        for f in (mul(mul(p, r), r), mul(mul(p, p), r)):
            if f:
                assert as_monic(squarefree_part(ints(f))) == euclid_squarefree(f)


class TestRationalRoots:
    def test_known_roots(self):
        # (x - 1)(2x + 1)(x - 3) = 2x^3 - 7x^2 + 2x + 3, roots ascending
        assert rational_roots((3, 2, -7, 2)) == [Fraction(-1, 2), Fraction(1), Fraction(3)]

    def test_zero_root_reported(self):
        assert rational_roots((0, 0, -2, 1)) == [Fraction(0), Fraction(2)]

    def test_irrational_only(self):
        assert rational_roots((-2, 0, 1)) == []

    @given(small_polys)
    def test_every_reported_root_vanishes(self, p):
        if not p:
            return
        for r in rational_roots(ints(p)):
            assert evaluate(p, r) == 0

    def test_roots_of_x(self):
        assert rational_roots((0, 1)) == [Fraction(0)]

    def test_large_search_inside_budget_is_fast(self):
        # 30030x^3 + x + 735134400: 86,016 candidate pairs, none a root.
        start = time.perf_counter()
        assert rational_roots((735134400, 1, 0, 30030)) == []
        assert time.perf_counter() - start < 1.0

    @given(st.lists(rationals.filter(bool), min_size=1, max_size=3), rationals)
    def test_roots_of_a_product_of_linear_factors(self, roots, c):
        p = [c] if c else [Fraction(1)]
        for r in roots:
            p = mul(p, [-r, Fraction(1)])
        assert rational_roots(ints(p)) == sorted(set(roots))

    def test_search_over_budget_raises_up_front(self):
        # x - (10^30 + 57): about 10^15 trial divisions to find the divisors.
        with pytest.raises(BudgetExceeded, match="trial divisions"):
            rational_roots((-(10**30 + 57), 1))

    def test_non_primitive_input_keeps_its_roots(self):
        assert rational_roots((-3, 6)) == [Fraction(1, 2)]
        assert rational_roots((-1, 2)) == [Fraction(1, 2)]
        # 10^20 (2x - 1) is over budget as it stands, not once primitive.
        assert rational_roots((-(10**20), 2 * 10**20)) == [Fraction(1, 2)]

    def test_budget_is_judged_on_the_primitive_form(self):
        base = (-(10**30 + 57), 1)
        with pytest.raises(BudgetExceeded) as want:
            rational_roots(base)
        with pytest.raises(BudgetExceeded) as got:
            rational_roots(tuple(6 * c for c in base))
        assert str(got.value) == str(want.value)
