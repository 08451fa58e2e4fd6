"""Rational scalars and exact univariate polynomials."""

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
    POLY_ONE,
    POLY_X,
    POLY_ZERO,
    Poly,
    _pseudo_divmod,
    format_rational,
    int_poly_gcd,
    int_squarefree,
    integer_form,
    parse_rational,
    poly_gcd,
    primitive,
    rational_roots,
    squarefree_part,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def poly(*coeffs: object) -> Poly:
    """Lowest-degree-first constructor shorthand for tests."""
    return Poly([Fraction(c) for c in coeffs])


small_polys = st.lists(rationals, min_size=0, max_size=5).map(Poly)


def euclid_gcd(p: Poly, q: Poly) -> Poly:
    """Reference monic gcd: the euclidean algorithm on Fraction coefficients,
    through Poly.divmod, sharing no code with the integer kernel."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def derivative(p: Poly) -> Poly:
    return Poly(k * c for k, c in enumerate(p.coeffs) if k > 0)


def euclid_squarefree(p: Poly) -> Poly:
    """Reference monic p / gcd(p, p') on Fraction coefficients."""
    g = euclid_gcd(p, derivative(p))
    quo, rem = p.divmod(g)
    assert rem.is_zero
    return quo.monic()


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


class TestPoly:
    def test_canonical_zero(self):
        assert poly(0, 0) == POLY_ZERO
        assert poly().degree == -1

    def test_str_uses_lambda_powers(self):
        p = poly(-1, 0, 1)
        assert str(p).count("^2") == 1

    @given(small_polys, small_polys, rationals)
    def test_add_is_pointwise(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)

    @given(small_polys, small_polys, rationals)
    def test_mul_is_pointwise(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(small_polys, small_polys)
    def test_divmod_reconstructs(self, p, q):
        if q.degree < 0:
            return
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


class TestPolyGcd:
    def test_linear_common_factor(self):
        assert poly_gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)

    def test_power_pair(self):
        assert poly_gcd(poly(0, 0, 1), poly(0, 0, 0, 1)) == poly(0, 0, 1)

    def test_squared_vs_split(self):
        # (x-1)^2 against (x-1)(x+1) share exactly x-1
        assert poly_gcd(poly(1, -2, 1), poly(-1, 0, 1)) == poly(-1, 1)

    def test_zero_operands(self):
        p = poly(2, 4)
        assert poly_gcd(p, POLY_ZERO) == p.monic()
        assert poly_gcd(POLY_ZERO, POLY_ZERO) == POLY_ZERO

    @given(small_polys, small_polys)
    def test_divides_both_exactly(self, p, q):
        g = poly_gcd(p, q)
        if g.degree < 0:
            assert p == POLY_ZERO and q == POLY_ZERO
            return
        for operand in (p, q):
            _, rem = divmod(operand, g)
            assert rem == POLY_ZERO

    @given(small_polys, small_polys)
    def test_monic_or_zero(self, p, q):
        g = poly_gcd(p, q)
        assert g == POLY_ZERO or g.coeffs[-1] == 1


class TestSquarefreePart:
    def test_double_root(self):
        assert squarefree_part(poly(1, -2, 1)) == poly(-1, 1)

    def test_power_of_lambda_times_simple(self):
        # x^2 (x - 1) reduces to x (x - 1) = x^2 - x
        assert squarefree_part(poly(0, 0, -1, 1)) == poly(0, -1, 1)

    def test_perfect_cube(self):
        assert squarefree_part(poly(-1, 3, -3, 1)) == poly(-1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(POLY_ZERO)

    @given(small_polys)
    def test_square_invariance(self, p):
        if p.degree < 0:
            return
        assert squarefree_part(p * p) == squarefree_part(p)

    @given(small_polys)
    def test_result_is_squarefree(self, p):
        if p.degree < 1:
            return
        s = squarefree_part(p)
        assert poly_gcd(s, derivative(s)) == POLY_ONE


class TestIntegerKernel:
    def test_primitive_form(self):
        assert primitive([0, -4, 6]) == (0, -2, 3)
        assert primitive([3, 0, -9]) == (-1, 0, 3)
        assert primitive([]) == ()

    def test_integer_form_clears_denominators(self):
        assert integer_form(poly("1/2", "-2/3", "5/6")) == (3, -4, 5)
        assert integer_form(POLY_ZERO) == ()

    def test_gcd_is_primitive_with_positive_lead(self):
        # (2x - 2)(x + 3) and -4(x - 1)^2 share x - 1
        assert int_poly_gcd((-6, 4, 2), (-4, 8, -4)) == (-1, 1)
        assert int_poly_gcd((0, 6), ()) == (0, 1)
        assert int_poly_gcd((), ()) == ()

    def test_squarefree_of_repeated_roots(self):
        # (2x - 1)^2 (x + 2) reduces to (2x - 1)(x + 2)
        assert int_squarefree((2, -7, 4, 4)) == (-2, 3, 2)

    def test_gcd_that_does_not_divide_raises(self, monkeypatch):
        # x + 1 does not divide x^2 + 1, so the pseudo-remainder is nonzero
        monkeypatch.setattr(exact_arith, "int_poly_gcd", lambda a, b: (1, 1))
        with pytest.raises(DrazinkitError, match="fails to divide"):
            int_squarefree((1, 0, 1))

    @given(small_polys, small_polys)
    def test_pseudo_division_identity(self, p, q):
        a, b = integer_form(p), integer_form(q)
        if not b:
            return
        quo, rem = _pseudo_divmod(a, b)
        assert len(rem) < len(b)
        # c*a = quo*b + rem for one nonzero rational c
        lhs, rhs = Poly(a), Poly(quo) * Poly(b) + Poly(rem)
        assert lhs.is_zero == rhs.is_zero
        if not lhs.is_zero:
            c = rhs.leading() / lhs.leading()
            assert c.denominator == 1 and rhs == lhs.scale(c)

    @given(small_polys, small_polys, small_polys)
    def test_gcd_matches_euclid(self, p, q, r):
        assert poly_gcd(p * r, q * r) == euclid_gcd(p * r, q * r)
        assert poly_gcd(p, q) == euclid_gcd(p, q)

    @given(small_polys, small_polys)
    def test_squarefree_matches_euclid(self, p, r):
        for f in (p * r * r, p * p * r):
            if not f.is_zero:
                assert squarefree_part(f) == euclid_squarefree(f)


class TestRationalRoots:
    def test_known_roots(self):
        # (x - 1)(2x + 1)(x - 3), nonzero rational roots, ascending
        p = poly(-1, 1) * poly(1, 2) * poly(-3, 1)
        assert rational_roots(p) == [Fraction(-1, 2), Fraction(1), Fraction(3)]

    def test_zero_root_reported(self):
        assert rational_roots(poly(0, 0, -2, 1)) == [Fraction(0), Fraction(2)]

    def test_irrational_only(self):
        assert rational_roots(poly(-2, 0, 1)) == []

    @given(small_polys)
    def test_every_reported_root_vanishes(self, p):
        if p.degree < 0:
            return
        for r in rational_roots(p):
            assert p(r) == 0

    def test_roots_of_x(self):
        assert rational_roots(POLY_X) == [Fraction(0)]

    def test_large_search_inside_budget_is_fast(self):
        # 30030x^3 + x + 735134400: 86,016 candidate pairs, none a root.
        p = poly(735134400, 1, 0, 30030)
        start = time.perf_counter()
        assert rational_roots(p) == []
        assert time.perf_counter() - start < 1.0

    @given(st.lists(rationals.filter(bool), min_size=1, max_size=3), rationals)
    def test_roots_of_a_product_of_linear_factors(self, roots, c):
        p = Poly([c]) if c else POLY_ONE
        for r in roots:
            p = p * poly(-r, 1)
        assert rational_roots(p) == sorted(set(roots))

    def test_search_over_budget_raises_up_front(self):
        # x - (10^30 + 57): about 10^15 trial divisions to find the divisors.
        with pytest.raises(BudgetExceeded, match="trial divisions"):
            rational_roots(poly(-(10**30 + 57), 1))
