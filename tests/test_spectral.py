"""Characteristic polynomials, nonzero-spectrum comparison, unit transfer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drazinkit.drazin_core import Quadruple, jacobson_inverse
from drazinkit.errors import NotInvertible, UnsupportedRing, ZeroLambda
from drazinkit.exact_arith import Poly
from drazinkit.fixtures import example_quadruple
from drazinkit.matrix_rings import (
    RING_Q,
    RING_Z,
    SquareMatrix,
    det_bareiss,
    gf,
    inverse,
    is_invertible,
    over_q,
)
from drazinkit.spectral import (
    DEFAULT_LAMBDAS,
    SpectrumSummary,
    char_poly,
    invertibility_transfer,
    nonzero_spectrum_equal,
    quadruple_spectrum_report,
    transfer_lambdas,
)
from test_matrix_rings import leibniz_det


def m(ring, rows) -> SquareMatrix:
    return SquareMatrix(ring, rows)


def integer_demo_over_q() -> Quadruple:
    """Instance 3.6 with its integer entries read over Q."""
    q = example_quadruple("3.6")
    return Quadruple(*(over_q(x) for x in (q.a, q.b, q.c, q.d)))


def poly(*coeffs) -> Poly:
    return Poly([Fraction(c) for c in coeffs])


def q_matrices(n: int, lo: int = -3, hi: int = 3):
    cell = st.integers(min_value=lo, max_value=hi).map(Fraction)
    return st.lists(
        st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: SquareMatrix(RING_Q, rows))


def q_fraction_matrices(n: int, max_den: int = 4):
    """Q matrices with entries of denominators up to max_den, so char_poly
    scales its integer coefficients by powers of the common denominator."""
    cell = st.fractions(min_value=-3, max_value=3, max_denominator=max_den)
    return st.lists(
        st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: SquareMatrix(RING_Q, rows))


nonzero_lambdas = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(
    lambda v: v != 0
)


class TestCharPoly:
    def test_shift_matrix(self):
        assert char_poly(m(RING_Q, [[0, 1], [0, 0]])) == poly(0, 0, 1)

    def test_identity(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        assert char_poly(eye) == poly(1, -2, 1)

    def test_rank_one_idempotent(self):
        assert char_poly(m(RING_Q, [[1, 1], [0, 0]])) == poly(0, -1, 1)

    def test_integer_matrices_lift(self):
        assert char_poly(m(RING_Z, [[0, 2], [0, 0]])) == poly(0, 0, 1)

    def test_finite_rings_rejected(self):
        with pytest.raises(UnsupportedRing):
            char_poly(SquareMatrix.identity(gf(2), 2))

    @given(q_matrices(3), st.fractions(min_value=-3, max_value=3,
                                       max_denominator=2))
    def test_agrees_with_bareiss_determinant(self, a, lam):
        # det(lam I - A) computed by a wholly different elimination route
        shifted = SquareMatrix.identity(RING_Q, 3).scalar_mul(lam) - a
        assert char_poly(a)(lam) == det_bareiss(shifted)

    @given(q_matrices(3), q_matrices(3))
    def test_products_in_both_orders_agree(self, a, b):
        assert char_poly(a * b) == char_poly(b * a)

    @given(q_matrices(4))
    def test_monic_of_degree_n(self, a):
        p = char_poly(a)
        assert p.degree == 4 and p.coeffs[-1] == 1

    @given(q_fraction_matrices(3), st.fractions(min_value=-3, max_value=3,
                                                max_denominator=2))
    def test_agrees_with_bareiss_determinant_with_denominators(self, a, lam):
        shifted = SquareMatrix.identity(RING_Q, 3).scalar_mul(lam) - a
        assert char_poly(a)(lam) == det_bareiss(shifted)

    @given(q_fraction_matrices(3), q_fraction_matrices(3))
    def test_products_in_both_orders_agree_with_denominators(self, a, b):
        assert char_poly(a * b) == char_poly(b * a)

    @given(q_fraction_matrices(4))
    def test_monic_of_degree_n_with_denominators(self, a):
        p = char_poly(a)
        assert p.degree == 4 and p.coeffs[-1] == 1

    @given(st.integers(1, 4).flatmap(q_fraction_matrices))
    def test_matches_leibniz_at_n_plus_one_points(self, a):
        # A monic polynomial of degree n is fixed by its values at n + 1
        # points; the Leibniz sum shares no code with Berkowitz or Bareiss.
        p = char_poly(a)
        eye = SquareMatrix.identity(RING_Q, a.n)
        for k in range(a.n + 1):
            lam = Fraction(2 * k - a.n, 3)
            assert p(lam) == leibniz_det(eye.scalar_mul(lam) - a)


class TestSpectrumSummary:
    def test_zero_matrix(self):
        s = SpectrumSummary.of(SquareMatrix.zeros(RING_Q, 3))
        assert s.zero_multiplicity == 3
        assert s.nonzero_part == poly(1)

    def test_nonzero_constant_term_invariant(self):
        s = SpectrumSummary.of(m(RING_Q, [[1, 1], [0, 0]]))
        assert s.zero_multiplicity == 1
        assert s.nonzero_part == poly(-1, 1)
        assert s.nonzero_part.coeffs[0] != 0

    def test_serialization_uses_rational_strings(self):
        blob = SpectrumSummary.of(m(RING_Q, [[Fraction(1, 2)]])).to_json()
        assert blob["char_poly"] == ["-1/2", "1"]
        assert blob["zero_multiplicity"] == 0


class TestNonzeroSpectrumEqual:
    def test_different_zero_multiplicities_still_equal(self):
        p = m(RING_Q, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        q = m(RING_Q, [[0, 0], [0, 1]])
        report = nonzero_spectrum_equal(p, q)
        assert report.equal

    def test_integer_demo_products_both_nilpotent(self):
        q = integer_demo_over_q()
        report = nonzero_spectrum_equal(q.ac, q.bd)
        assert report.equal
        assert report.left.nonzero_part == poly(1)

    def test_general_quadruples_may_disagree(self):
        # a valid quadruple whose products have different nonzero spectra:
        # the set-level transfer is strictly weaker than similarity
        q = example_quadruple("2.5")
        report = nonzero_spectrum_equal(q.ac, q.bd)
        assert not report.equal

    def test_multiplicity_flag_is_informational(self):
        p = m(RING_Q, [[1, 0], [0, 1]])
        q = m(RING_Q, [[1]])
        report = nonzero_spectrum_equal(p, q)
        assert report.equal and not report.multiplicity_equal

    @given(q_matrices(3), q_matrices(3))
    def test_products_in_both_orders(self, a, b):
        assert nonzero_spectrum_equal(a * b, b * a).equal

    @given(q_fraction_matrices(3), q_fraction_matrices(3))
    def test_products_in_both_orders_with_denominators(self, a, b):
        report = nonzero_spectrum_equal(a * b, b * a)
        assert report.equal and report.multiplicity_equal

    @given(q_fraction_matrices(3))
    def test_repeated_block_changes_multiplicity_only(self, a):
        # diag(a, a) has the eigenvalues of a, each twice as often.
        n = a.n
        rows = [list(r) + [0] * n for r in a.entries]
        rows += [[0] * n + list(r) for r in a.entries]
        double = SquareMatrix(RING_Q, rows)
        report = nonzero_spectrum_equal(a, double)
        assert report.equal
        has_nonzero = report.left.nonzero_part.degree > 0
        assert report.multiplicity_equal == (not has_nonzero)
        assert report.left.nonzero_part == report.right.nonzero_part
        assert report.left.to_json()["nonzero_part_squarefree"] == (
            report.right.to_json()["nonzero_part_squarefree"]
        )


def jacobson_or_none(q: Quadruple, lam) -> SquareMatrix | None:
    try:
        return jacobson_inverse(q, lam)
    except NotInvertible:
        return None


def rescaled(q: Quadruple, lam) -> Quadruple:
    """(a/lambda, b, c, d/lambda), validated by the constructor."""
    inv = 1 / Fraction(lam)
    return Quadruple(q.a.scalar_mul(inv), q.b, q.c, q.d.scalar_mul(inv))


class TestScaledJacobsonInverse:
    def test_zero_lambda_rejected(self):
        with pytest.raises(ZeroLambda):
            jacobson_inverse(example_quadruple("2.5"), Fraction(0))

    def test_integer_ring_rejected(self):
        with pytest.raises(UnsupportedRing):
            jacobson_inverse(example_quadruple("3.6"), Fraction(2))

    @given(nonzero_lambdas)
    def test_relations_preserved(self, lam):
        # The relations are homogeneous of degree one in (a, d) jointly, so
        # the rescaled quadruple exists and has the same unit transfer.
        q = example_quadruple("2.5")
        assert jacobson_or_none(q, lam) == jacobson_or_none(rescaled(q, lam), 1)

    @given(st.integers(0, 500), nonzero_lambdas)
    def test_relations_preserved_on_random_quadruples(self, pick, lam):
        from drazinkit.quadruple_lab import seeded_rational_suite

        q = seeded_rational_suite(1, seed=pick)[0]
        assert jacobson_or_none(q, lam) == jacobson_or_none(rescaled(q, lam), 1)

    @given(st.integers(0, 500), st.data())
    def test_inverts_one_minus_scaled_bd(self, pick, data):
        from drazinkit.quadruple_lab import seeded_rational_suite

        q = seeded_rational_suite(1, seed=pick)[0]
        # The eigenvalues of ac are where the hypothesis side turns singular.
        lam = data.draw(st.sampled_from(transfer_lambdas(q)) | nonzero_lambdas)
        eye = SquareMatrix.identity(RING_Q, q.n)
        if is_invertible(eye - q.ac.scalar_mul(1 / lam)):
            expected = inverse(eye - q.bd.scalar_mul(1 / lam))
            assert jacobson_inverse(q, lam) == expected
        else:
            with pytest.raises(NotInvertible):
                jacobson_inverse(q, lam)


class TestInvertibilityTransfer:
    def test_integer_demo_instance_at_lambda_one(self):
        q = integer_demo_over_q()
        report = invertibility_transfer(q, [Fraction(1)])
        row = report.rows[0]
        assert row.ac_side_invertible and row.bd_side_invertible
        assert row.formula_verified
        # ac = 0, so the resolvent formula collapses to 1 + bd
        eye = SquareMatrix.identity(RING_Q, 2)
        assert jacobson_inverse(q) == eye + q.bd
        assert jacobson_inverse(q) == m(RING_Q, [[1, 2], [0, 1]])

    def test_zero_quadruple_always_invertible(self):
        zero = SquareMatrix.zeros(RING_Q, 2)
        q = Quadruple(zero, zero, zero, zero)
        report = invertibility_transfer(q, DEFAULT_LAMBDAS)
        assert report.all_hold
        for row in report.rows:
            assert row.ac_side_invertible and row.bd_side_invertible

    def test_second_demo_instance_records_singular_side(self):
        q = example_quadruple("2.5")
        report = invertibility_transfer(q, [Fraction(1)])
        row = report.rows[0]
        assert not row.ac_side_invertible
        assert row.bd_side_invertible
        assert row.holds  # implication with false hypothesis

    def test_both_sides_singular_at_a_shared_eigenvalue(self):
        a, b = m(RING_Q, [[2]]), m(RING_Q, [[1]])
        report = invertibility_transfer(Quadruple(a, b, b, a), [Fraction(2)])
        row = report.rows[0]
        assert (row.ac_side_invertible, row.bd_side_invertible) == (False, False)
        assert row.formula_verified is None and row.holds

    @given(st.integers(0, 300))
    def test_transfer_on_random_quadruples(self, pick):
        from drazinkit.quadruple_lab import seeded_rational_suite

        q = seeded_rational_suite(1, seed=pick)[0]
        assert invertibility_transfer(q, DEFAULT_LAMBDAS).all_hold


class TestTransferLambdas:
    def test_includes_defaults(self):
        q = example_quadruple("2.5")
        lams = transfer_lambdas(q)
        for lam in DEFAULT_LAMBDAS:
            assert lam in lams

    def test_includes_rational_eigenvalues(self):
        a = m(RING_Q, [[7, 0], [0, 0]])
        eye = SquareMatrix.identity(RING_Q, 2)
        q = Quadruple(a, eye, eye, a)
        assert Fraction(7) in transfer_lambdas(q)

    def test_never_includes_zero(self):
        q = integer_demo_over_q()
        assert Fraction(0) not in transfer_lambdas(q)


class TestQuadrupleSpectrumReport:
    def test_report_shape_and_literal_invertibility(self):
        report = quadruple_spectrum_report(example_quadruple("2.5"))
        assert set(report) == {
            "ac", "bd", "ac_drazin_invertible", "bd_drazin_invertible",
            "comparison", "transfer",
        }
        # every finite matrix has a Drazin inverse, making the classical
        # Drazin-type spectrum empty; the report pins that down literally
        assert report["ac_drazin_invertible"] is True
        assert report["bd_drazin_invertible"] is True
        assert report["transfer"]["all_hold"] is True
