"""Characteristic polynomials, nonzero-spectrum comparison, unit transfer."""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import drazinkit.drazin_core as drazin_core
import drazinkit.matrix_rings as matrix_rings
import drazinkit.spectral as spectral
from drazinkit.drazin_core import (
    Flavor,
    Quadruple,
    _Resolvent,
    _shifted_det,
    cline_generalized,
    jacobson_inverse,
    quadruple_over_q,
)
from drazinkit.errors import (
    DrazinkitError,
    FormulaViolation,
    NotInvertible,
    UnsupportedRing,
    ZeroLambda,
)
from drazinkit.exact_arith import squarefree_part
from drazinkit.fixtures import example_quadruple
from drazinkit.matrix_rings import (
    RING_Q,
    RING_Z,
    SquareMatrix,
    _berkowitz,
    det,
    det_bareiss,
    gf,
    inverse,
    is_invertible,
    over_q,
    zmod,
)
from drazinkit.quadruple_lab import (
    SearchSpace,
    Strategy,
    brute_force_inverse,
    enumerate_quadruples,
    random_matrix,
    seeded_rational_suite,
    solve_for_d,
)
from drazinkit.spectral import (
    DEFAULT_LAMBDAS,
    SpectrumSummary,
    TransferReport,
    TransferRow,
    char_poly,
    invertibility_transfer,
    nonzero_spectrum_equal,
    quadruple_spectrum_report,
    transfer_lambdas,
)
from test_cli_golden import INPUTS
from test_matrix_rings import count_products, leibniz_det


def m(ring, rows) -> SquareMatrix:
    return SquareMatrix(ring, rows)


def integer_demo_over_q() -> Quadruple:
    """Instance 3.6 with its integer entries read over Q."""
    q = example_quadruple("3.6")
    return Quadruple(*(over_q(x) for x in (q.a, q.b, q.c, q.d)))


def monic(p) -> list[Fraction]:
    """The monic form of a primitive integer tuple, lowest degree first."""
    return [Fraction(c, p[-1]) for c in p]


def at(p, lam) -> Fraction:
    """The monic form of p, evaluated at lam."""
    acc = Fraction(0)
    for c in reversed(monic(p)):
        acc = acc * lam + c
    return acc


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
        assert char_poly(m(RING_Q, [[0, 1], [0, 0]])) == (0, 0, 1)

    def test_identity(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        assert char_poly(eye) == (1, -2, 1)

    def test_rank_one_idempotent(self):
        assert char_poly(m(RING_Q, [[1, 1], [0, 0]])) == (0, -1, 1)

    def test_integer_matrices_lift(self):
        assert char_poly(m(RING_Z, [[0, 2], [0, 0]])) == (0, 0, 1)

    def test_finite_rings_rejected(self):
        with pytest.raises(UnsupportedRing):
            char_poly(SquareMatrix.identity(gf(2), 2))

    @given(q_matrices(3), st.fractions(min_value=-3, max_value=3,
                                       max_denominator=2))
    def test_agrees_with_bareiss_determinant(self, a, lam):
        # det(lam I - A) computed by a wholly different elimination route
        shifted = SquareMatrix.identity(RING_Q, 3).scalar_mul(lam) - a
        assert at(char_poly(a), lam) == det_bareiss(shifted)

    @given(q_matrices(3), q_matrices(3))
    def test_products_in_both_orders_agree(self, a, b):
        assert char_poly(a * b) == char_poly(b * a)

    @given(q_matrices(4))
    def test_monic_of_degree_n(self, a):
        p = char_poly(a)
        assert len(p) == 5 and monic(p)[-1] == 1
        assert p[-1] > 0 and math.gcd(*p) == 1

    @given(q_fraction_matrices(3), st.fractions(min_value=-3, max_value=3,
                                                max_denominator=2))
    def test_agrees_with_bareiss_determinant_with_denominators(self, a, lam):
        shifted = SquareMatrix.identity(RING_Q, 3).scalar_mul(lam) - a
        assert at(char_poly(a), lam) == det_bareiss(shifted)

    @given(q_fraction_matrices(3), q_fraction_matrices(3))
    def test_products_in_both_orders_agree_with_denominators(self, a, b):
        assert char_poly(a * b) == char_poly(b * a)

    @given(q_fraction_matrices(4))
    def test_monic_of_degree_n_with_denominators(self, a):
        p = char_poly(a)
        assert len(p) == 5 and monic(p)[-1] == 1
        assert p[-1] > 0 and math.gcd(*p) == 1

    @given(st.integers(1, 4).flatmap(q_fraction_matrices))
    def test_matches_leibniz_at_n_plus_one_points(self, a):
        # A monic polynomial of degree n is fixed by its values at n + 1
        # points; the Leibniz sum shares no code with Berkowitz or Bareiss.
        p = char_poly(a)
        eye = SquareMatrix.identity(RING_Q, a.n)
        for k in range(a.n + 1):
            lam = Fraction(2 * k - a.n, 3)
            assert at(p, lam) == leibniz_det(eye.scalar_mul(lam) - a)

    @given(st.integers(1, 4).flatmap(q_fraction_matrices))
    def test_monic_form_is_berkowitz_over_powers_of_den(self, a):
        # With a = N / den, det(x I - a) = sum c_k x^(n-k) / den^k for the
        # Berkowitz coefficients c_k of N; a scaling by den^(n-k), or none,
        # fails wherever den > 1.
        p = char_poly(a)
        assert p[-1] > 0 and math.gcd(*p) == 1
        aq = over_q(a)
        cs = _berkowitz(aq.num)
        assert monic(p) == [Fraction(c, aq.den**k) for k, c in enumerate(cs)][::-1]


class TestSpectrumSummary:
    def test_zero_matrix(self):
        s = SpectrumSummary.of(SquareMatrix.zeros(RING_Q, 3))
        assert s.zero_multiplicity == 3
        assert s.nonzero_part == (1,)

    def test_nonzero_constant_term_invariant(self):
        s = SpectrumSummary.of(m(RING_Q, [[1, 1], [0, 0]]))
        assert s.zero_multiplicity == 1
        assert s.nonzero_part == (-1, 1)
        assert s.nonzero_part[0] != 0

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
        assert report.left.nonzero_part == (1,)

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
        has_nonzero = len(report.left.nonzero_part) > 1
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


CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "corpus")


def corpus_quadruple(name: str) -> Quadruple:
    with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
        return Quadruple.from_json(json.load(f))


def diagonal_ac_quadruple() -> Quadruple:
    """ac = diag(1, 2) and bd = 0: lambda - ac is singular at 1 and 2,
    lambda - bd a unit at every nonzero lambda."""
    a = m(RING_Q, [[1, 0], [0, 2]])
    zero = SquareMatrix.zeros(RING_Q, 2)
    return Quadruple(a, zero, SquareMatrix.identity(RING_Q, 2), zero)


# Rows at which lambda - ac is singular: both sides singular on the 3x3
# corpus quadruple, the bd side a unit on the diagonal one.
SINGULAR_AC_ROWS = [
    (corpus_quadruple("quad_q3.json"), Fraction(-11)),
    (corpus_quadruple("quad_q3.json"), Fraction(5)),
    (diagonal_ac_quadruple(), Fraction(1)),
]
SINGULAR_AC_IDS = ["quad_q3 at -11", "quad_q3 at 5", "diag(1, 2) at 1"]


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

    def test_singular_bd_side_beside_a_unit_ac_side_is_a_bug(self, monkeypatch):
        # At lambda = 2, lambda - ac is proven a unit, so lambda - bd is one
        # too; a characteristic polynomial of bd that says otherwise is
        # refused, not reported. eps = 1 here, so its value at lambda = 2 is
        # sum c_k 2^(n-k), which the shift makes 0.
        # Only bd's run is perturbed.
        def root_at_two(cs):
            cs[-1] -= sum(c * 2 ** (len(cs) - 1 - k) for k, c in enumerate(cs))

        q = fresh(example_quadruple("2.5"))
        kernel = perturbed_berkowitz(root_at_two, only=q.bd.num)
        monkeypatch.setattr(matrix_rings, "_berkowitz", kernel)
        with pytest.raises(FormulaViolation, match="lambda - ac is a unit"):
            invertibility_transfer(q, [Fraction(2)])
        assert kernel.perturbed == [q.bd.num]

    @pytest.mark.parametrize("q, lam", SINGULAR_AC_ROWS, ids=SINGULAR_AC_IDS)
    def test_determinant_disagreeing_at_a_singular_ac_side_is_a_bug(
        self, monkeypatch, q, lam
    ):
        # Where lambda - ac is singular the bd verdict has no proof behind
        # it, so the characteristic polynomial and the elimination
        # determinant must agree; a determinant with the verdict flipped is
        # refused in either direction.
        row = invertibility_transfer(q, [lam]).rows[0]
        assert not row.ac_side_invertible

        def flipped(v):
            return 0 if q.ring.is_unit_scalar(det(v)) else 1

        monkeypatch.setattr("drazinkit.spectral.det", flipped)
        with pytest.raises(FormulaViolation, match="disagree"):
            invertibility_transfer(q, [lam])

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

    @pytest.mark.parametrize("lambdas", [None, (Fraction(1),), (Fraction(-1, 2), 3)])
    def test_z_quadruple_reports_as_its_q_lift(self, lambdas):
        # Without lambdas the report samples rational lambda, which the
        # transfer refuses over Z; the report lifts to Q first, as the CLI
        # always has.
        a = SquareMatrix(RING_Z, [[1, 2], [3, 4]])
        b = SquareMatrix(RING_Z, [[0, 1], [1, 1]])
        for q in (Quadruple(a, b, b, a), example_quadruple("3.6")):
            assert q.ring == RING_Z
            lift = quadruple_over_q(q)
            assert lift.ring == RING_Q and lift == Quadruple(*map(over_q, (q.a, q.b, q.c, q.d)))
            assert quadruple_spectrum_report(q, lambdas) == quadruple_spectrum_report(lift, lambdas)

    @pytest.mark.parametrize("ring", [gf(5), zmod(4)], ids=str)
    def test_finite_quadruple_is_refused(self, ring):
        a = SquareMatrix(ring, [[1, 2], [3, 4]])
        with pytest.raises(UnsupportedRing, match="operation needs Q or Z entries"):
            quadruple_spectrum_report(Quadruple(a, a, a, a))


# -- the unit transfer against its elimination reference ----------------------


def reference_jacobson(q: Quadruple, lam) -> SquareMatrix:
    """Reference unit transfer: 1 + b (lambda - ac)^(-1) d, the inverse by
    elimination, checked two-sided against lambda I. It is the formula
    jacobson_inverse first ran, and it shares no code with the resolvent."""
    ident = SquareMatrix.identity(q.ring, q.n)
    lam_i = ident.scalar_mul(lam)
    result = ident + q.b * inverse(lam_i - q.ac) * q.d
    v = lam_i - q.bd
    assert v * result == lam_i and result * v == lam_i
    return result


def reference_transfer(q: Quadruple, lambdas) -> TransferReport:
    """The transfer rows from reference_jacobson and is_invertible."""
    ident = SquareMatrix.identity(q.ring, q.n)
    rows = []
    for lam in map(Fraction, lambdas):
        ac_ok = isinstance(outcome(reference_jacobson, q, lam), SquareMatrix)
        bd_ok = is_invertible(ident.scalar_mul(lam) - q.bd)
        rows.append(TransferRow(lam, ac_ok, bd_ok, True if ac_ok else None))
    return TransferReport(tuple(rows))


def outcome(fn, q: Quadruple, lam):
    """fn(q, lam), or the text of the NotInvertible it raises."""
    try:
        return fn(q, lam)
    except NotInvertible as exc:
        return ("NotInvertible", str(exc))


def _fraction_rows(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def singular_b_draw(seed: int) -> tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """(a, b, c') over Q with denominators up to 4 and n in 2..4, where b's
    last row is the sum of its other rows, so b is singular. With c = c' b
    the linear relation b X b = b a c is consistent."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    a, c1 = (SquareMatrix(RING_Q, _fraction_rows(rng, n)) for _ in range(2))
    rows = _fraction_rows(rng, n)
    rows[-1] = [sum(col[:-1]) for col in zip(*rows)]
    return a, SquareMatrix(RING_Q, rows), c1


# The seeds below 200 at which solve_for_d finds a d for singular_b_draw
# within its candidate cap, all at n = 2. At most seeds the quadratic relation
# d b d = a c d cuts every candidate, after 0.2 to 0.6 s of search.
SOLVED_SINGULAR_B_SEEDS = (1, 31, 46, 54, 57, 111, 121, 123, 143, 154, 160, 185, 190)


def linear_solve_singular_b(seed: int) -> Quadruple:
    """The solve_for_d quadruple of a seed above, or with seed -1 the 4x4
    linear-solve quadruple of the golden spectrum pin, whose b has rank 3."""
    if seed == -1:
        return Quadruple.from_json(INPUTS["quad_q4_singular_b.json"])
    a, b, c1 = singular_b_draw(seed)
    c = c1 * b
    return Quadruple(a, b, c, solve_for_d(a, b, c, budget=1)[0])


def factored_singular_b(seed: int) -> Quadruple:
    """(a, b, c' b, a c'), which satisfies both relations for every draw:
    b d b = b a c' b = b a c and d b d = a (c' b a c') = a c d."""
    a, b, c1 = singular_b_draw(seed)
    return Quadruple(a, b, c1 * b, a * c1)


singular_b_quadruples = st.sampled_from((-1,) + SOLVED_SINGULAR_B_SEEDS).map(
    linear_solve_singular_b
) | st.integers(0, 10**6).map(factored_singular_b)


def lambdas_for(q: Quadruple):
    """The eigenvalues of ac and bd, where a side turns singular, or any
    small nonzero rational."""
    return st.sampled_from(transfer_lambdas(q)) | nonzero_lambdas


def integral(q: Quadruple) -> bool:
    return all(x.den == 1 for x in (q.a, q.b, q.c, q.d))


def finite_draw(ring, n: int, seed: int) -> Quadruple:
    """A seeded linear-solve draw over the ring at dimension n. Z has no
    linear-solve route, so its draws are the Q draws with integer d read
    over Z."""
    source = RING_Q if ring == RING_Z else ring
    space = SearchSpace(source, n, Strategy.LINEAR_SOLVE, 400)
    q = next(q for q in enumerate_quadruples(space, seed) if integral(q))
    if ring == RING_Z:
        q = Quadruple(*(SquareMatrix(RING_Z, x.entries) for x in (q.a, q.b, q.c, q.d)))
    return q


# (ring, dimensions) with a linear-solve route: Z/m beyond the enumeration
# tables has none, so Z/12 is drawn at n = 1 and classical quadruples
# (a, b, b, a) cover it at n = 2 and 3 in the test below.
FINITE_DRAWS = [
    (RING_Z, (1, 2, 3)),
    (gf(2), (2, 4)),
    (gf(3), (2, 3)),
    (gf(5), (2,)),
    (zmod(4), (1, 2)),
    (zmod(12), (1,)),
]


class TestUnitTransferMatchesReference:
    @given(st.integers(0, 500), st.data())
    def test_jacobson_on_rational_suite(self, pick, data):
        q = seeded_rational_suite(1, seed=pick)[0]
        lam = data.draw(lambdas_for(q))
        assert outcome(jacobson_inverse, q, lam) == outcome(reference_jacobson, q, lam)

    @given(singular_b_quadruples, st.data())
    def test_jacobson_with_singular_b(self, q, data):
        lam = data.draw(lambdas_for(q))
        assert outcome(jacobson_inverse, q, lam) == outcome(reference_jacobson, q, lam)

    @given(st.integers(0, 500), st.lists(nonzero_lambdas, max_size=3))
    def test_transfer_rows_on_rational_suite(self, pick, extra):
        q = seeded_rational_suite(1, seed=pick)[0]
        lams = transfer_lambdas(q) + tuple(extra)
        got, want = invertibility_transfer(q, lams), reference_transfer(q, lams)
        assert got == want and got.to_json() == want.to_json()

    @given(singular_b_quadruples, st.lists(nonzero_lambdas, max_size=3))
    def test_transfer_rows_with_singular_b(self, q, extra):
        lams = transfer_lambdas(q) + tuple(extra)
        assert invertibility_transfer(q, lams) == reference_transfer(q, lams)

    @pytest.mark.parametrize(
        "ring, dims", FINITE_DRAWS, ids=[str(r) for r, _ in FINITE_DRAWS]
    )
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_at_lambda_one_outside_q(self, ring, dims, seed, data):
        q = finite_draw(ring, data.draw(st.sampled_from(dims)), seed)
        assert outcome(jacobson_inverse, q, 1) == outcome(reference_jacobson, q, 1)
        assert invertibility_transfer(q, [1]) == reference_transfer(q, [1])

    @pytest.mark.parametrize("ring", [RING_Z, zmod(4), zmod(12)], ids=str)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 3))
    def test_classical_at_lambda_one_outside_q(self, ring, seed, n):
        rng = random.Random(seed)
        a, b = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
        q = Quadruple(a, b, b, a)
        assert outcome(jacobson_inverse, q, 1) == outcome(reference_jacobson, q, 1)
        assert invertibility_transfer(q, [1]) == reference_transfer(q, [1])

    def test_large_modulus_3x3_is_fast(self):
        ring = zmod((2**61 - 1) * (2**31 - 1))
        rng = random.Random(61)
        a, b = random_matrix(ring, 3, rng), random_matrix(ring, 3, rng)
        q = Quadruple(a, b, b, a)
        start = time.perf_counter()
        got = outcome(jacobson_inverse, q, 1)
        rows = invertibility_transfer(q, [1])
        assert time.perf_counter() - start < 0.5
        assert got == outcome(reference_jacobson, q, 1)
        assert rows == reference_transfer(q, [1])


# -- trust in the resolvent route ------------------------------------------------


def perturbed_berkowitz(shift, only):
    """The Berkowitz kernel with shift(coefficients) applied to its output
    on the integer rows only, and left alone on any other rows: one side of
    a quadruple is perturbed, as its rows key it. The kernel's perturbed
    list records each perturbed run."""

    def kernel(rows, m=None):
        cs = _berkowitz(rows, m)
        if rows == only:
            shift(cs)
            kernel.perturbed.append(rows)
        return cs

    kernel.perturbed = []
    return kernel


def fresh(q: Quadruple) -> Quadruple:
    """An equal quadruple of new matrices, ac and bd included, none of which
    has its characteristic polynomial stored yet: the only kind on which a
    patched Berkowitz kernel runs at all."""
    return Quadruple(*(SquareMatrix(x.ring, x.entries) for x in (q.a, q.b, q.c, q.d)))


def reference_unit(q: Quadruple, lam) -> SquareMatrix | None:
    r = outcome(reference_jacobson, q, lam)
    return r if isinstance(r, SquareMatrix) else None


def keeps_identity(q: Quadruple, e: SquareMatrix) -> bool:
    """Whether sum c_k alpha^(n-k) eps^k e^(n-k+1) vanishes, with c_k the
    coefficients of det(t I - A) for ac = A / alpha and eps the den of bd,
    summed from plain powers of the integer matrix e."""
    n, alpha, eps = q.n, q.ac.den, q.bd.den
    cs = _berkowitz(q.ac.num, q.ring.modulus)
    total, power = SquareMatrix.zeros(e.ring, n), e
    for k in range(n, -1, -1):
        total = total + power.scalar_mul(cs[k] * alpha ** (n - k) * eps**k)
        power = power * e
    return total.is_zero


def quadruples_with_unit_at_one(pick: int) -> list[Quadruple]:
    """Suite and finite-ring draws at which 1 - ac is a unit."""
    quads = [
        seeded_rational_suite(1, seed=pick)[0],
        finite_draw(gf(5), 2, pick),
        finite_draw(zmod(12), 1, pick),
    ]
    rng = random.Random(pick)
    a, b = random_matrix(zmod(12), 3, rng), random_matrix(zmod(12), 3, rng)
    quads.append(Quadruple(a, b, b, a))
    return [q for q in quads if reference_unit(q, 1) is not None]


class TestResolventTrust:
    @given(st.integers(0, 500), st.data())
    def test_perturbed_coefficient_never_returns_a_wrong_inverse(self, pick, data):
        q = seeded_rational_suite(1, seed=pick)[0]
        lam = data.draw(lambdas_for(q))
        expected = reference_unit(q, lam)
        if expected is None:
            return
        k = data.draw(st.integers(1, q.n))

        def bump(cs):
            cs[k] += 1

        # Drawing lam stored the characteristic polynomials of q.ac and
        # q.bd, so every run below is on a fresh copy.
        kernel = perturbed_berkowitz(bump, only=q.ac.num)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix_rings, "_berkowitz", kernel)
            try:
                got = jacobson_inverse(fresh(q), lam)
            except FormulaViolation:
                got = None
            assert kernel.perturbed == [q.ac.num]
            assert got in (None, expected)
            # A wrong c_n adds a multiple of I to sum c_k A^(n-k), so the
            # closure refuses it whatever bd is.
            if k == q.n:
                assert got is None
                with pytest.raises(FormulaViolation):
                    invertibility_transfer(fresh(q), [lam])
                # Once for ac, and once more for bd when its rows are ac's.
                assert len(kernel.perturbed) in (2, 3)

    @given(st.integers(0, 300))
    def test_forced_singular_verdict_is_refused(self, pick):
        for q in quadruples_with_unit_at_one(pick):
            m, alpha = q.ring.modulus, q.ac.den

            def zero_x(cs):
                # X at lambda = 1 is sum c_k alpha^(n-k); make it 0.
                x = sum(c * alpha ** (len(cs) - 1 - k) for k, c in enumerate(cs))
                cs[-1] -= x if m is None else x % m

            kernel = perturbed_berkowitz(zero_x, only=q.ac.num)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(matrix_rings, "_berkowitz", kernel)
                with pytest.raises(FormulaViolation, match="no unit"):
                    jacobson_inverse(fresh(q), 1)
                assert kernel.perturbed == [q.ac.num]
                with pytest.raises(FormulaViolation, match="no unit"):
                    invertibility_transfer(fresh(q), [Fraction(1)])
                # Once for ac, and once more for bd when its rows are ac's.
                assert len(kernel.perturbed) in (2, 3)

    @pytest.mark.parametrize("ring", [RING_Q, gf(5), zmod(4)], ids=str)
    def test_unit_verdict_needs_cayley_hamilton(self, ring):
        # 1 - ac is singular at lambda = 1 and bd = 0, so r = I passes the
        # two-sided check; a bumped c_n makes X a unit, and only the
        # closure check can refuse the "1 - ac invertible" verdict.
        a = SquareMatrix(ring, [[1, 0], [0, 2]])
        zero = SquareMatrix.zeros(ring, 2)
        q = Quadruple(a, zero, SquareMatrix.identity(ring, 2), zero)

        def bump(cs):
            cs[-1] += 1

        kernel = perturbed_berkowitz(bump, only=q.ac.num)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix_rings, "_berkowitz", kernel)
            with pytest.raises(FormulaViolation, match="Cayley-Hamilton"):
                jacobson_inverse(fresh(q), 1)
            with pytest.raises(FormulaViolation, match="Cayley-Hamilton"):
                invertibility_transfer(fresh(q), [Fraction(1)])
        assert kernel.perturbed == [q.ac.num] * 2

    @given(st.integers(0, 300), st.data())
    def test_changed_stored_e_is_refused(self, pick, data):
        # The identity is all that ties r to bd = E / eps: with one entry of
        # the stored E changed after construction, it must fail whenever
        # the changed E breaks it. Over small rings some changes keep it (r
        # then truly inverts 1 - E'/(eps lambda)); those are skipped.
        init = _Resolvent.__init__
        refused = 0
        for q in quadruples_with_unit_at_one(pick):
            at = data.draw(st.integers(0, q.n * q.n - 1))
            rows = [list(row) for row in q.bd.num]
            rows[at // q.n][at % q.n] += 1
            changed = SquareMatrix(RING_Z if q.ring == RING_Q else q.ring, rows)
            if keeps_identity(q, changed):
                continue

            def bumped(self, quad):
                init(self, quad)
                self.e = changed

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_Resolvent, "__init__", bumped)
                with pytest.raises(FormulaViolation, match="failed to invert"):
                    jacobson_inverse(q, 1)
                with pytest.raises(FormulaViolation, match="failed to invert"):
                    invertibility_transfer(q, [Fraction(1)])
            refused += 1
        assume(refused)

    def test_transfer_products_do_not_grow_with_lambdas(self, monkeypatch):
        # Once per quadruple, n - 1 products check the closure and n the
        # identity, whose polynomial in E has degree n + 1; a lambda adds
        # none.
        more = DEFAULT_LAMBDAS + tuple(Fraction(k, 11) for k in range(1, 8))
        quads = [q for q in seeded_rational_suite(12, seed=41)
                 if reference_unit(q, 1) is not None]
        assert {q.n for q in quads} == {1, 2, 3, 4}
        calls = count_products(monkeypatch)
        for q in quads:
            counts = []
            for lams in (DEFAULT_LAMBDAS, more):
                calls.clear()
                invertibility_transfer(q, lams)
                counts.append(len(calls))
            assert counts == [2 * q.n - 1] * 2

    @given(st.integers(0, 300))
    def test_inverse_runs_only_on_singular_lambdas(self, pick):
        q = seeded_rational_suite(1, seed=pick)[0]
        lams = transfer_lambdas(q)
        singular = [lam for lam in lams if reference_unit(q, lam) is None]
        calls = []

        def counted(a):
            calls.append(a)
            return inverse(a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(drazin_core, "inverse", counted)
            invertibility_transfer(q, lams)
        eye = SquareMatrix.identity(RING_Q, q.n)
        assert calls == [eye.scalar_mul(lam) - q.ac for lam in singular]

    def test_lambda_checks_keep_their_order(self):
        q = example_quadruple("3.6")
        with pytest.raises(UnsupportedRing, match="scaling needs Q, got Z"):
            invertibility_transfer(q, [Fraction(2), Fraction(0)])
        with pytest.raises(ZeroLambda, match="lambda must be nonzero"):
            invertibility_transfer(q, [Fraction(0), Fraction(2)])
        with pytest.raises(ZeroLambda, match="lambda must be nonzero"):
            jacobson_inverse(q, 0)

    def test_lambda_is_anything_fraction_takes(self):
        # A float or a "p/q" string is the lambda Fraction makes of it, at
        # both entry points, and a transfer row records it as that Fraction.
        half, third = Fraction(1, 2), Fraction(1, 3)
        q = next(q for q in seeded_rational_suite(20, seed=3)
                 if reference_unit(q, half) is not None and q.n > 1)
        r = jacobson_inverse(q, half)
        assert r == reference_unit(q, half)
        assert jacobson_inverse(q, 0.5) == r and jacobson_inverse(q, "1/2") == r
        rows = invertibility_transfer(q, [half, 0.5, "1/2", third, "1/3", 2, "-3"]).rows
        assert rows[:3] == (rows[0],) * 3 and rows[3] == rows[4]
        assert [row.lam for row in rows] == [half] * 3 + [third] * 2 + [2, -3]
        assert all(type(row.lam) is Fraction for row in rows)
        z = example_quadruple("3.6")
        assert jacobson_inverse(z, 1.0) == jacobson_inverse(z, "1") == jacobson_inverse(z)
        with pytest.raises(UnsupportedRing, match="scaling needs Q, got Z"):
            jacobson_inverse(z, "2/1")
        with pytest.raises(ZeroLambda, match="lambda must be nonzero"):
            invertibility_transfer(q, ["0/5"])

    @pytest.mark.parametrize(
        "lam, shown",
        [("abc", "'abc'"), (float("nan"), "nan"), (float("inf"), "inf"), (None, "None")],
        ids=["text", "nan", "inf", "none"],
    )
    @pytest.mark.parametrize("entry", ["jacobson_inverse", "invertibility_transfer"])
    def test_a_lambda_fraction_refuses_is_a_package_error(self, entry, lam, shown):
        # Fraction's own ValueError, OverflowError or TypeError stays inside
        # the package; the refusal names the lambda, at both entry points.
        q = example_quadruple("3.6")
        call = {
            "jacobson_inverse": lambda: jacobson_inverse(q, lam),
            "invertibility_transfer": lambda: invertibility_transfer(q, [1, lam]),
        }[entry]
        with pytest.raises(DrazinkitError) as exc:
            call()
        assert type(exc.value) is DrazinkitError
        assert str(exc.value) == f"lambda {shown} is not a rational number"


# -- the bd side: one characteristic polynomial, det where ac is singular ------


class TestBdSide:
    @given(
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )),
        st.integers(-9, 9),
        st.integers(1, 9),
    )
    def test_shifted_det_is_det_of_u_minus_s_a(self, rows, u, s):
        # The one homogeneous Horner evaluation behind both sides of the
        # transfer, against the Bareiss determinant of u I - s A.
        a = SquareMatrix(RING_Z, rows)
        eye = SquareMatrix.identity(RING_Z, a.n)
        shifted = eye.scalar_mul(u) - a.scalar_mul(s)
        assert _shifted_det(_berkowitz(rows), u, s) == det_bareiss(shifted)

    @given(
        st.sampled_from([RING_Q, RING_Z, gf(5), zmod(12)]),
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(
                st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                min_size=n, max_size=n,
            ),
            min_size=n, max_size=n,
        )),
        st.integers(-9, 9),
        st.integers(1, 9),
    )
    def test_chi_at_is_det_of_p_den_minus_s_n(self, ring, pairs, p, s):
        # The one chi-at-lambda verdict of both sides, on a = N / den:
        # det(p den I - s N), unreduced, whose residue mod m is the verdict's
        # on GF(m) and Z/m.
        if ring == RING_Q:
            rows = [[Fraction(x, y) for x, y in row] for row in pairs]
        else:
            rows = [[x for x, _ in row] for row in pairs]
        a = SquareMatrix(ring, rows)
        big_n = SquareMatrix(RING_Z, a.num)
        eye = SquareMatrix.identity(RING_Z, a.n)
        want = det_bareiss(eye.scalar_mul(p * a.den) - big_n.scalar_mul(s))
        got = matrix_rings._chi_at(matrix_rings._chi(a), a.den, p, s)
        if ring.modulus is None:
            assert got == want
        else:
            assert got % ring.modulus == want % ring.modulus

    def test_bd_verdicts_match_bareiss_on_rational_suite(self):
        singular = 0
        for q in seeded_rational_suite(40, seed=19):
            eye = SquareMatrix.identity(q.ring, q.n)
            for row in invertibility_transfer(q, transfer_lambdas(q)).rows:
                shifted = eye.scalar_mul(row.lam) - q.bd
                want = q.ring.is_unit_scalar(det_bareiss(shifted))
                assert row.bd_side_invertible == want, (q, row.lam)
                singular += not want
        assert singular > 0

    def test_det_runs_once_per_singular_ac_row_and_nowhere_else(self, monkeypatch):
        calls = []

        def counted(v):
            calls.append(1)
            return det(v)

        monkeypatch.setattr("drazinkit.spectral.det", counted)
        more = (
            DEFAULT_LAMBDAS
            + (Fraction(-11), Fraction(5))
            + tuple(Fraction(k, 11) for k in range(1, 6))
        )
        assert len(more) == 14
        quads = seeded_rational_suite(12, seed=41) + [
            corpus_quadruple("quad_q3.json"),
            diagonal_ac_quadruple(),
            example_quadruple("2.5"),
        ]
        singular_rows = 0
        for q in quads:
            for lams in (DEFAULT_LAMBDAS, more):
                calls.clear()
                rows = invertibility_transfer(q, lams).rows
                singular = sum(not r.ac_side_invertible for r in rows)
                assert len(calls) == singular
                singular_rows += singular
                for lam in lams:
                    calls.clear()
                    row = invertibility_transfer(q, [lam]).rows[0]
                    assert len(calls) == (0 if row.ac_side_invertible else 1)
        assert singular_rows > 0


# -- one characteristic polynomial per matrix ----------------------------------------


def count_berkowitz(monkeypatch) -> list:
    """Wrap the one Berkowitz kernel; the returned list records the rows
    of every run."""
    runs = []

    def counted(rows, m=None):
        runs.append(rows)
        return _berkowitz(rows, m)

    monkeypatch.setattr(matrix_rings, "_berkowitz", counted)
    return runs


class TestOneBerkowitzRunPerMatrix:
    """Certifying a quadruple runs Berkowitz's recurrence once on ac and
    once on bd, however many routes read the two polynomials."""

    @pytest.mark.parametrize("seed", [3, 8, 13, 21])
    def test_a_certified_rational_quadruple_takes_two_runs(self, monkeypatch, seed):
        q = fresh(seeded_rational_suite(1, seed=seed)[0])
        runs = count_berkowitz(monkeypatch)
        cline_generalized(q, Flavor.DRAZIN)
        invertibility_transfer(q, DEFAULT_LAMBDAS)
        nonzero_spectrum_equal(q.ac, q.bd)
        assert runs == [q.ac.num, q.bd.num]

    @pytest.mark.parametrize("ring", [gf(5), zmod(4)], ids=str)
    def test_finite_rings_take_two_runs(self, monkeypatch, ring):
        rng = random.Random(5)
        a, b = random_matrix(ring, 2, rng), random_matrix(ring, 2, rng)
        q = Quadruple(a, b, b, a)
        # Over Z/4 no inverse is constructed; brute force supplies h.
        h = None if ring.is_field else brute_force_inverse(q.ac)[0].inverse
        runs = count_berkowitz(monkeypatch)
        cline_generalized(q, Flavor.DRAZIN, h)
        invertibility_transfer(q, [Fraction(1)])
        assert runs == [q.ac.num, q.bd.num]

    def test_equal_nonzero_parts_share_one_squarefree_part(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return squarefree_part(p)

        a = m(RING_Q, [[1, 2], [0, 3]])
        b = m(RING_Q, [[0, 1], [1, Fraction(1, 2)]])
        classical = Quadruple(a, b, b, a)
        second = example_quadruple("2.5")
        expected = [
            (SpectrumSummary.of(q.ac), SpectrumSummary.of(q.bd))
            for q in (classical, second)
        ]
        monkeypatch.setattr(spectral, "squarefree_part", counted)
        got = nonzero_spectrum_equal(classical.ac, classical.bd)
        assert len(calls) == 1
        assert (got.left, got.right) == expected[0]
        assert got.equal and got.multiplicity_equal
        calls.clear()
        got = nonzero_spectrum_equal(second.ac, second.bd)
        assert len(calls) == 2
        assert (got.left, got.right) == expected[1]
        assert not got.equal and not got.multiplicity_equal
