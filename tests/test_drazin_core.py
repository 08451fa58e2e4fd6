"""Inverse construction, axiom verification, and the product-swap formulas."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drazinkit import drazin_core, matrix_rings
from drazinkit.drazin_core import (
    AxiomCheck,
    DrazinCertificate,
    Flavor,
    Quadruple,
    cline_classical,
    cline_generalized,
    drazin_inverse,
    flavor_inverse,
    group_inverse,
    intertwining_report,
    jacobson_inverse,
    no_group_inverse_reason,
    verify_axioms,
    verify_intertwining,
)
from drazinkit.errors import (
    DimensionMismatch,
    DrazinkitError,
    FormulaViolation,
    NoGroupInverse,
    NotAField,
    NotInvertible,
    RelationViolation,
    RingMismatch,
)
from drazinkit.fixtures import example_matrices, example_quadruple
from drazinkit.matrix_rings import (
    RING_Q,
    RING_Z,
    SquareMatrix,
    _berkowitz,
    _first_power,
    _nilpotency_bound,
    all_matrices,
    gf,
    in_radical,
    inverse,
    is_nilpotent,
    over_q,
    reduced_echelon,
    zmod,
)
from drazinkit.quadruple_lab import (
    brute_force_inverse,
    get_space,
    random_invertible_matrix,
    random_matrix,
    seeded_rational_suite,
)
from test_matrix_rings import count_products


def m(ring, rows) -> SquareMatrix:
    return SquareMatrix(ring, rows)


def integer_demo_over_q() -> Quadruple:
    """Instance 3.6 with its integer entries read over Q."""
    q = example_quadruple("3.6")
    return Quadruple(*(over_q(x) for x in (q.a, q.b, q.c, q.d)))


def q_matrices(n: int, lo: int = -3, hi: int = 3):
    cell = st.integers(min_value=lo, max_value=hi).map(Fraction)
    return st.lists(
        st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: SquareMatrix(RING_Q, rows))


NILP = [[0, 1], [0, 0]]
IDEM = [[1, 1], [0, 0]]


class TestDrazinInverse:
    def test_identity(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        cert = drazin_inverse(eye)
        assert cert.inverse == eye and cert.index == 0 and cert.valid

    def test_nilpotent_gets_zero(self):
        cert = drazin_inverse(m(RING_Q, NILP))
        assert cert.inverse.is_zero and cert.index == 2

    def test_idempotent_is_own_inverse(self):
        a = m(RING_Q, IDEM)
        cert = drazin_inverse(a)
        assert cert.inverse == a and cert.index == 1

    @given(q_matrices(3))
    def test_invertible_case_reduces_to_inverse(self, a):
        cert = drazin_inverse(a)
        if cert.index == 0:
            assert cert.inverse == inverse(a)

    @pytest.mark.parametrize("ring,n", [(RING_Q, 4), (gf(2), 4), (gf(5), 3)])
    def test_axioms_exactly(self, ring, n):
        import random

        rng = random.Random(n * 1000 + ring.modulus if ring.is_finite else n)
        from drazinkit.quadruple_lab import random_matrix

        for _ in range(25):
            a = random_matrix(ring, n, rng)
            x = drazin_inverse(a).inverse
            assert a * x == x * a
            assert x * a * x == x
            core = a - a * a * x
            assert core.power(n).is_zero

    def test_needs_field(self):
        with pytest.raises(NotAField):
            drazin_inverse(m(RING_Z, [[2]]))


def rank_sequence_index(a: SquareMatrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)), ranks counted as the
    pivots of reduced_echelon: an index that shares nothing with the core
    walk of verify_axioms."""
    rank_k, power = a.n, a
    for k in range(a.n + 1):
        rank_next = len(reduced_echelon(a.ring, power.entries, a.n)[1])
        if rank_next == rank_k:
            return k
        rank_k, power = rank_next, power * a
    raise AssertionError("rank sequence failed to stabilize within n steps")


class TestUniqueness:
    @pytest.mark.parametrize("ring", [gf(2), gf(3)])
    def test_brute_force_agrees(self, ring):
        # Every element of M3(GF(2)) and of M2(GF(3)).
        for a in all_matrices(ring, {2: 3, 3: 2}[ring.modulus]):
            cert = drazin_inverse(a)
            certs = brute_force_inverse(a, Flavor.DRAZIN)
            assert len(certs) == 1
            assert (certs[0].inverse, certs[0].index) == (cert.inverse, cert.index)
            assert cert.index == rank_sequence_index(a)


def construction_outcome(a: SquareMatrix, flavor: Flavor):
    """The certificate flavor_inverse issues, or the text of its refusal."""
    try:
        return flavor_inverse(a, flavor)
    except NoGroupInverse as exc:
        return f"NoGroupInverse: {exc}"


@st.composite
def perturbed_constructions(draw):
    """An element, a flavor, and one coefficient of its characteristic
    polynomial with the amount to bump it by."""
    ring = draw(st.sampled_from([RING_Q, gf(2), gf(5)]))
    n = draw(st.integers(min_value=1, max_value=4))
    if ring.is_finite:
        cell = st.integers(min_value=0, max_value=ring.modulus - 1)
    else:
        # Zeros about half the time, so that 0 is often an eigenvalue.
        cell = st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        )
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    flavor = draw(st.sampled_from(list(Flavor)))
    # Position 0 is the leading 1, which the construction never reads.
    position = draw(st.integers(min_value=0, max_value=n))
    bump = draw(st.sampled_from([-1, 1, 2]))
    return SquareMatrix(ring, rows), flavor, position, bump


class TestConstructionTrust:
    """A wrong characteristic polynomial never yields a wrong certificate:
    flavor_inverse raises FormulaViolation or issues the right one."""

    @settings(max_examples=300)
    @given(perturbed_constructions())
    def test_bumped_coefficient_is_caught_or_harmless(self, case):
        a, flavor, position, bump = case
        expected = construction_outcome(a, flavor)
        # The run above stored a's characteristic polynomial on a; an equal
        # copy has none stored, so its construction runs the bumped kernel.
        fresh = SquareMatrix(a.ring, a.entries)
        calls = []

        def bumped(rows, m=None):
            calls.append(rows)
            cs = _berkowitz(rows, m)
            cs[position] += bump
            return cs if m is None else [c % m for c in cs]

        with mock.patch.object(matrix_rings, "_berkowitz", bumped):
            try:
                got = construction_outcome(fresh, flavor)
            except FormulaViolation:
                got = None
        assert calls == [fresh.num]
        assert got in (None, expected)


class TestSingleConstruction:
    """Each flavor inverse is built once and its axioms verified once."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []

        def counted(a, x, flavor):
            calls.append(flavor)
            return verify_axioms(a, x, flavor)

        monkeypatch.setattr(drazin_core, "verify_axioms", counted)
        return calls

    @pytest.mark.parametrize("flavor", list(Flavor), ids=lambda f: f.value)
    def test_one_verification_per_construction(self, verify_calls, flavor):
        # Ranks 3, 2, 2: index 1, so every flavor, the group one too, exists.
        a = m(RING_Q, [[Fraction(1, 2), 1, 0], [1, 2, 0], [3, Fraction(-1, 3), 1]])
        cert = flavor_inverse(a, flavor)
        assert cert.valid and cert.flavor is flavor and cert.index == 1
        assert verify_calls == [flavor]

    @pytest.mark.parametrize("flavor", list(Flavor), ids=lambda f: f.value)
    def test_invertible_element_costs_no_identity_products(self, monkeypatch, flavor):
        # Index 0: x is -h(a) / g(0) with no a^0 = I factor in front. h has
        # degree 2, so one Horner product builds h(a), starting at
        # c_0 a + c_1 I, and four verify the axioms; the core
        # a - a^2 x is already zero (or in the radical) at its first power,
        # so no flavor's walk takes another.
        calls = count_products(monkeypatch)
        a = m(RING_Q, [[2, 1, 0], [1, 1, 0], [0, Fraction(1, 3), 5]])
        cert = flavor_inverse(a, flavor)
        assert cert.valid and cert.index == 0
        assert len(calls) == 5

    def test_group_refusal_reads_the_certificate_index(self, verify_calls):
        # chi = t^3, so x = 0; the one group verification finds the core
        # a - a^2 x = a nilpotent of degree 3, and that index is refused.
        a = m(RING_Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        with pytest.raises(NoGroupInverse, match="^index 3 exceeds 1$"):
            group_inverse(a)
        assert verify_calls == [Flavor.GROUP]


class TestGroupInverse:
    def test_identity(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        assert group_inverse(eye).inverse == eye

    def test_nonzero_nilpotent_never_has_one(self):
        with pytest.raises(NoGroupInverse):
            group_inverse(m(RING_Q, [[0, 2], [0, 0]]))

    def test_idempotent(self):
        a = m(RING_Q, IDEM)
        assert group_inverse(a).inverse == a

    def test_candidate_verification_path_over_z(self):
        zero = SquareMatrix.zeros(RING_Z, 2)
        cert = group_inverse(zero, candidate=zero)
        assert cert.valid and cert.flavor is Flavor.GROUP

    def test_rejected_candidate(self):
        a = m(RING_Z, [[0, 2], [0, 0]])
        with pytest.raises(NoGroupInverse):
            group_inverse(a, candidate=SquareMatrix.zeros(RING_Z, 2))

    def test_reason_names_nilpotency(self):
        reason = no_group_inverse_reason(m(RING_Z, [[0, 2], [0, 0]]))
        assert "nilpotent" in reason


class TestVerifyAxioms:
    def test_nilpotent_zero_pair(self):
        cert = verify_axioms(m(RING_Q, NILP), SquareMatrix.zeros(RING_Q, 2),
                             Flavor.DRAZIN)
        assert cert.valid and cert.index == 2

    def test_identity_group_pair(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        cert = verify_axioms(eye, eye, Flavor.GROUP)
        assert cert.valid and cert.index == 0

    def test_radical_core_needs_smaller_power_than_nilpotent_core(self):
        two = m(zmod(4), [[2]])
        zero = SquareMatrix.zeros(zmod(4), 1)
        p_cert = verify_axioms(two, zero, Flavor.PDRAZIN)
        d_cert = verify_axioms(two, zero, Flavor.DRAZIN)
        assert p_cert.valid and p_cert.index == 1
        assert d_cert.valid and d_cert.index == 2

    def test_group_flavor_fails_at_index_two(self):
        cert = verify_axioms(m(RING_Q, NILP), SquareMatrix.zeros(RING_Q, 2),
                             Flavor.GROUP)
        assert not cert.valid
        failed = [c.check for c in cert.checks if not c.passed]
        assert failed == ["index-at-most-one"]

    def test_wrong_inverse_fails_with_witness(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        cert = verify_axioms(eye, SquareMatrix.zeros(RING_Q, 2), Flavor.DRAZIN)
        assert not cert.valid

    def test_gdrazin_over_finite_ring_checks_nilpotency(self):
        two = m(zmod(4), [[2]])
        cert = verify_axioms(two, SquareMatrix.zeros(zmod(4), 1), Flavor.GDRAZIN)
        assert cert.valid
        assert any(c.check == "core-qnil" for c in cert.checks)
        assert "(a - a^2 x)^2 = 0" in [c.witness for c in cert.checks]


def reference_index(a: SquareMatrix, x: SquareMatrix, reached=lambda b: b.is_zero):
    """Smallest k <= the nilpotency bound with reached(a^k - a^(k+1) x):
    zero, or with in_radical the p-Drazin index. The walk is over a^k and
    a^(k+1) x, two products a step, independently of the core."""
    a_k = SquareMatrix.identity(a.ring, a.n)
    for k in range(_nilpotency_bound(a) + 1):
        a_k1 = a_k * a
        if reached(a_k - a_k1 * x):
            return k
        a_k = a_k1
    return None


NILPOTENT_FLAVORS = (Flavor.DRAZIN, Flavor.GROUP, Flavor.GDRAZIN)


class TestIndexFromCore:
    """The index is read off the core's one walk; with x commuting and
    absorbing it is the smallest k with a^k = a^(k+1) x, or for pdrazin
    with a^k - a^(k+1) x in the radical."""

    @staticmethod
    def expected(a, x):
        ax = a * x
        if ax != x * a or x * ax != x:
            return None
        return reference_index(a, x)

    def test_every_pair_over_m2_gf2(self):
        elements = list(all_matrices(gf(2), 2))
        for a in elements:
            for x in elements:
                want = self.expected(a, x)
                for flavor in NILPOTENT_FLAVORS:
                    assert verify_axioms(a, x, flavor).index == want, (a, x, flavor)

    def test_commuting_absorbing_pairs_over_m2_z4(self):
        space = get_space(zmod(4), 2)
        mul, els = space.mul, space.elements
        pairs = [
            (els[a], els[x])
            for a in range(len(els))
            for x in range(len(els))
            if mul[a][x] == mul[x][a] and mul[mul[x][a]][x] == x
        ]
        assert len(pairs) == 544
        for a, x in pairs:
            want = reference_index(a, x)
            for flavor in NILPOTENT_FLAVORS:
                assert verify_axioms(a, x, flavor).index == want, (a, x, flavor)
            want = reference_index(a, x, in_radical)
            cert = verify_axioms(a, x, Flavor.PDRAZIN)
            assert (cert.index, cert.valid) == (want, want is not None), (a, x)

    def test_rational_suite(self):
        for q in seeded_rational_suite(60, seed=9301):
            for e in (q.ac, q.bd):
                cert = drazin_inverse(e)
                assert cert.index == reference_index(e, cert.inverse)

    def test_one_nilpotency_proof(self, monkeypatch):
        calls = count_products(monkeypatch)
        # Strictly upper triangular 3 x 3 with Drazin inverse 0: degree 3.
        a = m(RING_Q, [[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        cert = verify_axioms(a, SquareMatrix.zeros(RING_Q, 3), Flavor.DRAZIN)
        assert cert.valid and cert.index == 3
        assert len(calls) <= 3 + 3

    def test_non_commuting_candidate_has_no_index(self):
        # a x = a != x a = x, yet x a x = x and a - a^2 x = 0, so
        # a^1 - a^2 x = 0 would give index 1 without the commuting axiom.
        a = m(RING_Q, [[1, 0], [0, 0]])
        x = m(RING_Q, [[1, 0], [1, 0]])
        assert reference_index(a, x) == 1
        for flavor in NILPOTENT_FLAVORS:
            cert = verify_axioms(a, x, flavor)
            assert cert.index is None
            assert [c.check for c in cert.checks if not c.passed][0] == "commutes"


def block_pair(ring, rng, n, rad):
    """(a, x) = (P diag(U, N) P^-1, P diag(U^-1, 0) P^-1): x commutes with a
    and absorbs it. N is rad times a random block plus a random block that
    is strictly upper triangular, so N is nilpotent modulo the radical, or,
    half the time, arbitrary, so the core usually stays outside it."""
    r = rng.randint(0, n)
    upper = rng.random() < 0.5
    a_rows = [[0] * n for _ in range(n)]
    x_rows = [[0] * n for _ in range(n)]
    if r:
        u = random_invertible_matrix(ring, r, rng)
        for i, (u_row, v_row) in enumerate(zip(u.entries, inverse(u).entries)):
            a_rows[i][:r], x_rows[i][:r] = u_row, v_row
    for i in range(r, n):
        for j in range(r, n):
            a_rows[i][j] = rad * rng.randrange(ring.modulus)
            if j > i or not upper:
                a_rows[i][j] += rng.randrange(ring.modulus)
    p = random_invertible_matrix(ring, n, rng)
    p_inv = inverse(p)
    return p * m(ring, a_rows) * p_inv, p * m(ring, x_rows) * p_inv


class TestPDrazinFromCore:
    """The p-Drazin core check walks the powers of a - a^2 x into the
    radical, as the other flavors walk them to zero; with x commuting and
    absorbing it finds the smallest k with a^k - a^(k+1) x in the radical."""

    def test_seeded_pairs_over_residue_rings(self):
        rng = random.Random(20)
        kinds = {"valid": 0, "axioms, core outside": 0, "axiom fails": 0}
        for ring, rad in ((zmod(8), 2), (zmod(9), 3), (zmod(12), 6)):
            for n in (1, 2, 3):
                for _ in range(40):
                    draw = rng.random()
                    if draw < 0.5:
                        a, x = block_pair(ring, rng, n, rad)
                    elif draw < 0.75:
                        # c0 + c1 a commutes with a, and rarely absorbs it.
                        a = random_matrix(ring, n, rng)
                        c0, c1 = (rng.randrange(ring.modulus) for _ in range(2))
                        x = SquareMatrix.identity(ring, n).scalar_mul(c0) + a.scalar_mul(c1)
                    else:
                        a, x = (random_matrix(ring, n, rng) for _ in range(2))
                    ax = a * x
                    axioms = ax == x * a and x * ax == x
                    want = reference_index(a, x, in_radical)
                    cert = verify_axioms(a, x, Flavor.PDRAZIN)
                    assert cert.valid == (axioms and want is not None), (a, x)
                    assert cert.index == (want if axioms else None), (a, x)
                    if not axioms:
                        kinds["axiom fails"] += 1
                    elif cert.valid:
                        kinds["valid"] += 1
                    else:
                        kinds["axioms, core outside"] += 1
        assert all(kinds.values()), kinds

    def test_failing_axioms_give_no_index_in_any_flavor(self):
        # a x = 0 != x a and x a x = 0 != x, yet the core a is nilpotent:
        # a^2 - a^3 x = 0 would give index 2 without the axioms.
        a = m(RING_Q, [[0, 1], [0, 0]])
        x = m(RING_Q, [[1, 0], [0, 0]])
        assert reference_index(a, x, in_radical) == 2
        cores = {}
        for flavor in Flavor:
            cert = verify_axioms(a, x, flavor)
            assert cert.index is None and not cert.valid
            (core,) = [c for c in cert.checks if c.check.startswith("core-")]
            cores[flavor] = core
        assert {c.passed for c in cores.values()} == {True}
        assert cores[Flavor.PDRAZIN].witness == "(a - a^2 x)^k in radical at k = 2"
        assert cores[Flavor.DRAZIN].witness == "(a - a^2 x)^2 = 0"

    def test_witness_names_a_k_only_under_the_axioms(self):
        eye = SquareMatrix.identity(zmod(4), 1)
        zero = SquareMatrix.zeros(zmod(4), 1)
        shift = m(zmod(4), [[0, 1], [0, 0]])
        # x = 0 commutes and absorbs; the core 1 never reaches the radical.
        assert verify_axioms(eye, zero, Flavor.PDRAZIN).checks[-1].witness == (
            "a^k - a^(k+1) x outside radical for all k <= 2"
        )
        assert verify_axioms(eye, eye, Flavor.PDRAZIN).checks[-1].witness == (
            "a^k - a^(k+1) x in radical at k = 0"
        )
        # x = shift commutes with 1 but fails x a x = x; core 1 - shift.
        cert = verify_axioms(SquareMatrix.identity(zmod(4), 2), shift, Flavor.PDRAZIN)
        assert cert.index is None and not cert.checks[-1].passed
        assert cert.checks[-1].witness == "(a - a^2 x)^k outside radical for all k <= 4"


# -- verify_axioms on integer rows against the matrix route ----------------------


def matrix_route_verify_axioms(a, x, flavor):
    """verify_axioms as it was written on SquareMatrix products: each axiom
    decided by comparing built matrices, and the core built as
    a - a (a x). The integer-row route must give equal certificates."""
    a._require_compatible(x)
    checks = []
    ax = a * x
    commute = ax == x * a
    checks.append(
        AxiomCheck("commutes", commute, "a x = x a" if commute else "a x != x a")
    )
    absorb = x * ax == x
    checks.append(
        AxiomCheck("absorbs", absorb, "x a x = x" if absorb else "x a x != x")
    )
    bound = _nilpotency_bound(a)
    core = a - a * ax
    pdrazin = flavor is Flavor.PDRAZIN
    degree = _first_power(core, in_radical) if pdrazin else is_nilpotent(core)[1]
    reached = degree is not None
    index = None
    if commute and absorb and reached:
        index = 0 if ax == SquareMatrix.identity(a.ring, a.n) else degree
    if pdrazin:
        power, k = (
            ("a^k - a^(k+1) x", index) if commute and absorb else ("(a - a^2 x)^k", degree)
        )
        name = "core-radical"
        found = f"{power} in radical at k = {k}"
        missed = f"{power} outside radical for all k <= {bound}"
    else:
        name = "core-qnil" if flavor is Flavor.GDRAZIN else "core-nilpotent"
        found = f"(a - a^2 x)^{degree} = 0"
        missed = f"a - a^2 x not nilpotent within bound {bound}"
    checks.append(AxiomCheck(name, reached, found if reached else missed))
    if flavor is Flavor.GROUP:
        ok = index is not None and index <= 1
        witness = f"index {index}" if index is not None else "index undefined"
        checks.append(AxiomCheck("index-at-most-one", ok, witness))
    return DrazinCertificate(a, x, flavor, index, tuple(checks))


# Q with denominators, Z, a prime field and two residue rings, one of them
# with a radical that is not nil of index 2.
ROW_RINGS = [RING_Q, RING_Z, gf(5), zmod(4), zmod(12)]


def ring_cells(ring):
    if ring.kind == "Q":
        return st.fractions(min_value=-3, max_value=3, max_denominator=6)
    if ring.kind == "Z":
        return st.integers(min_value=-3, max_value=3)
    return st.integers(min_value=0, max_value=ring.modulus - 1)


def drawn_matrix(data, ring, n):
    cell = ring_cells(ring)
    return m(ring, data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))


def elementary_unit(data, ring, n):
    """A product of drawn row operations R_i += t R_j on I: det 1, so a unit
    in every ring, Z included."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), ring_cells(ring))
    for i, j, t in data.draw(st.lists(ops, max_size=2 * n)):
        if i != j:
            rows[i] = [u + t * v for u, v in zip(rows[i], rows[j])]
    return m(ring, rows)


def conjugated_pair(data, ring, n):
    """(a, x) = (P diag(U, N) P^-1, P diag(U^-1, 0) P^-1) with P and U
    elementary units and N strictly upper triangular: x is the Drazin
    inverse of a in every ring, of index at most n - r for the r x r U."""
    r = data.draw(st.integers(0, n))
    a_rows = [[0] * n for _ in range(n)]
    x_rows = [[0] * n for _ in range(n)]
    if r:
        u = elementary_unit(data, ring, r)
        for i, (u_row, v_row) in enumerate(zip(u.entries, inverse(u).entries)):
            a_rows[i][:r], x_rows[i][:r] = u_row, v_row
    cell = ring_cells(ring)
    for i in range(r, n):
        for j in range(i + 1, n):
            a_rows[i][j] = data.draw(cell)
    p = elementary_unit(data, ring, n)
    p_inv = inverse(p)
    return p * m(ring, a_rows) * p_inv, p * m(ring, x_rows) * p_inv


def bumped(x):
    """x with its (0, 0) entry raised by 1: another element of the ring."""
    rows = [list(row) for row in x.entries]
    rows[0][0] += 1
    return m(x.ring, rows)


class TestVerifyAxiomsOnRows:
    """verify_axioms decides the axioms on the integer rows of _rows_mul
    and builds only the core; the certificates are those of the matrix
    route, for valid and invalid candidates, at n = 1..5 (n = 5 is above
    the unrolled kernels, in the listcomp)."""

    @pytest.mark.parametrize("ring", ROW_RINGS, ids=str)
    @given(data=st.data())
    def test_certificates_match_the_matrix_route(self, ring, data):
        n = data.draw(st.integers(1, 5))
        sources = ["constructed", "conjugated", "commuting", "random"]
        source = data.draw(st.sampled_from(sources))
        a = drawn_matrix(data, ring, n)
        if source == "constructed" and ring.is_field:
            x = flavor_inverse(a, Flavor.DRAZIN).inverse
        elif source in ("constructed", "conjugated"):
            a, x = conjugated_pair(data, ring, n)
        elif source == "commuting":
            # c0 + c1 a commutes with a and rarely absorbs it.
            c0, c1 = data.draw(st.tuples(ring_cells(ring), ring_cells(ring)))
            x = SquareMatrix.identity(ring, n).scalar_mul(c0) + a.scalar_mul(c1)
        else:
            x = drawn_matrix(data, ring, n)
        valid = source in ("constructed", "conjugated")
        for flavor in Flavor:
            cert = verify_axioms(a, x, flavor)
            assert cert == matrix_route_verify_axioms(a, x, flavor), (a, x, flavor)
            if valid and flavor is not Flavor.GROUP:
                assert cert.valid, (a, x, flavor)

    @pytest.mark.parametrize("ring", ROW_RINGS, ids=str)
    @given(data=st.data())
    def test_a_bumped_inverse_is_refused(self, ring, data):
        # Every flavor-inverse is unique, so x with one entry moved is none.
        n = data.draw(st.integers(1, 5))
        if ring.is_field and data.draw(st.booleans()):
            a = drawn_matrix(data, ring, n)
            x = flavor_inverse(a, Flavor.DRAZIN).inverse
        else:
            a, x = conjugated_pair(data, ring, n)
        for flavor in (Flavor.DRAZIN, Flavor.PDRAZIN, Flavor.GDRAZIN):
            assert verify_axioms(a, x, flavor).valid
            cert = verify_axioms(a, bumped(x), flavor)
            assert cert == matrix_route_verify_axioms(a, bumped(x), flavor)
            assert not cert.valid, (a, x, flavor)

    def test_brute_forced_certificates_over_m2_z4(self):
        refused = 0
        for a in all_matrices(zmod(4), 2):
            for flavor in Flavor:
                for cert in brute_force_inverse(a, flavor):
                    # The brute-force certificate adds the double-commutant
                    # check after the axioms.
                    got = verify_axioms(a, cert.inverse, flavor)
                    assert got == matrix_route_verify_axioms(a, cert.inverse, flavor)
                    assert got.valid and got.index == cert.index
                    assert cert.checks[:len(got.checks)] == got.checks
                    wrong = verify_axioms(a, bumped(cert.inverse), flavor)
                    assert wrong == matrix_route_verify_axioms(a, bumped(cert.inverse), flavor)
                    assert not wrong.valid
                    refused += 1
        assert refused > 256


class TestIndexZero:
    """a x = 1 is decided as AX = s I, with a = A / alpha, x = X / xi and
    s = alpha xi: index 0 goes to an inverse, never to an x whose AX is
    some other multiple s' I, nor to one whose AX is diagonal but not
    scalar."""

    @staticmethod
    def indices(a, x):
        return {flavor: verify_axioms(a, x, flavor).index for flavor in Flavor}

    @pytest.mark.parametrize("ring", [RING_Q, gf(2), gf(5), zmod(4), zmod(12)], ids=str)
    def test_an_inverse_gets_index_zero(self, ring):
        rng = random.Random(f"index zero {ring}")
        for n in (1, 2, 3):
            a = random_invertible_matrix(ring, n, rng)
            if ring is RING_Q:
                a = a.scalar_mul(Fraction(2, 3))
            x = inverse(a)
            if ring is RING_Q:
                assert a.den * x.den != 1
            assert self.indices(a, x) == dict.fromkeys(Flavor, 0)

    @pytest.mark.parametrize("ring", [RING_Q, gf(5), zmod(4)], ids=str)
    def test_zero_times_zero_is_scalar_but_not_one(self, ring):
        # AX = 0 I with s = 1 (or 3 over Q): x = 0 is the inverse of a
        # nilpotent a at its degree, never at index 0.
        nil = m(ring, NILP)
        if ring is RING_Q:
            nil = nil.scalar_mul(Fraction(1, 3))
        zero = SquareMatrix.zeros(ring, 2)
        assert self.indices(nil, zero) == dict.fromkeys(Flavor, 2)
        assert self.indices(zero, zero) == dict.fromkeys(Flavor, 1)

    @pytest.mark.parametrize(
        "ring, rows",
        [(zmod(6), [[3, 0], [0, 3]]), (zmod(12), [[4, 0], [0, 4]]),
         (zmod(12), [[9, 0], [0, 9]]), (RING_Q, [[1, 0], [0, 0]]),
         (gf(2), [[1, 1, 1]] * 3)],
        ids=["3I-mod-6", "4I-mod-12", "9I-mod-12", "diagonal", "ones-mod-2"],
    )
    def test_an_idempotent_other_than_one_is_index_one(self, ring, rows):
        # e^2 = e: a = x = e passes both axioms with a x = e != 1 and the
        # core e - e^3 = 0. Here AX is a multiple of I other than s I, or
        # diagonal but not scalar, or s on the diagonal beside nonzero
        # entries (the all-ones matrix over GF(2), 3 = 1 mod 2).
        e = m(ring, rows)
        assert e * e == e
        assert self.indices(e, e) == dict.fromkeys(Flavor, 1)

    def test_a_multiple_of_the_inverse_is_refused(self):
        # x = 2 a^(-1) has AX = 2 s I: a x != 1, and x a x = 2 x != x.
        a = m(RING_Q, [[Fraction(1, 2), 1], [0, 3]])
        cert = verify_axioms(a, inverse(a).scalar_mul(2), Flavor.DRAZIN)
        assert not cert.valid and cert.index is None


class TestQuadruple:
    @pytest.mark.parametrize("slot", [1, 2, 3], ids=["b", "c", "d"])
    @pytest.mark.parametrize(
        "other, error, text",
        [(SquareMatrix.zeros(zmod(4), 2), RingMismatch, "Q vs Zmod(4)"),
         (SquareMatrix.zeros(RING_Q, 3), DimensionMismatch, "2 vs 3")],
        ids=["ring", "dimension"],
    )
    def test_a_mismatch_names_the_operand(self, slot, other, error, text):
        mats = [SquareMatrix.zeros(RING_Q, 2)] * 4
        mats[slot] = other
        with pytest.raises(error) as exc:
            Quadruple(*mats)
        assert type(exc.value) is error and str(exc.value) == text

    def test_c_is_checked_before_d(self):
        zero = SquareMatrix.zeros(RING_Q, 2)
        ring_off, dim_off = SquareMatrix.zeros(zmod(4), 2), SquareMatrix.zeros(RING_Q, 3)
        with pytest.raises(RingMismatch, match="^Q vs Zmod\\(4\\)$"):
            Quadruple(zero, zero, ring_off, dim_off)
        with pytest.raises(DimensionMismatch, match="^2 vs 3$"):
            Quadruple(zero, zero, dim_off, ring_off)

    def test_first_demo_instance_rejected_with_report(self):
        mats = example_matrices("2.4")
        with pytest.raises(RelationViolation) as exc:
            Quadruple(**mats)
        report = exc.value.report
        assert report["accepted"] is False
        first = report["relations"][0]
        assert first["relation"] == "bdb = bac"
        assert first["left"]["rows"] == [["1", "0"], ["0", "0"]]
        assert first["right"]["rows"] == [["1", "1"], ["0", "0"]]

    def test_verify_intertwining_returns_report_on_failure(self):
        result = verify_intertwining(**example_matrices("2.4"))
        assert isinstance(result, dict) and result["accepted"] is False

    def test_verify_intertwining_returns_quadruple_on_success(self):
        result = verify_intertwining(**example_matrices("2.5"))
        assert isinstance(result, Quadruple)

    def test_valid_quadruple_builds_no_report(self, monkeypatch):
        # The relations are compared as matrices; the report text, with its
        # JSON for every relation side, is built only for a rejection.
        import drazinkit.drazin_core as core

        def no_json(_):
            raise AssertionError("report built for a valid quadruple")

        monkeypatch.setattr(core, "matrix_to_json", no_json)
        q = Quadruple(**example_matrices("2.5"))
        assert q.ac == q.a * q.c and q.bd == q.b * q.d
        assert Quadruple(q.b, q.a, q.a, q.b).ac == q.b * q.a

    def test_second_demo_instance_products_all_vanish(self):
        report = intertwining_report(**example_matrices("2.5"))
        assert report["accepted"]
        for entry in report["relations"]:
            assert entry["left"]["rows"] == [["0", "0"], ["0", "0"]]
            assert entry["right"]["rows"] == [["0", "0"], ["0", "0"]]

    @given(q_matrices(2), q_matrices(2))
    def test_classical_shape_always_valid(self, a, b):
        q = Quadruple(a, b, b, a)
        assert q.ac == a * b and q.bd == b * a

    def test_json_round_trip(self):
        q = example_quadruple("2.5")
        assert Quadruple.from_json(q.to_json()) == q

    def test_assignment_raises(self):
        q = example_quadruple("2.5")
        assert not hasattr(q, "__dict__")
        for name in ("a", "b", "c", "d", "ac", "bd", "extra"):
            with pytest.raises(AttributeError):
                setattr(q, name, q.a)

    def test_sides_with_equal_numerators_over_different_denominators_differ(self):
        # a = b = c = 1, d = 1/2: bdb = 1/2 and bac = 1 share the numerator
        # rows ((1,),), as do dbd = 1/4 and acd = 1/2; only den tells them
        # apart.
        one, half = m(RING_Q, [[1]]), m(RING_Q, [[Fraction(1, 2)]])
        assert (one * half * one).num == (one * one * one).num
        with pytest.raises(RelationViolation) as exc:
            Quadruple(one, one, one, half)
        assert [r["holds"] for r in exc.value.report["relations"]] == [False, False]

    def test_relations_hold_across_different_denominators(self):
        # d = a c b^-1 solves both relations for an invertible b, and
        # bd = b ac b^-1 need not share ac's denominator: then each side of
        # each relation is a product over its own denominator.
        suite = [q for q in seeded_rational_suite(60, seed=17) if q.ac.den != q.bd.den]
        a = m(RING_Q, [[0, 1], [0, 0]])
        b = m(RING_Q, [[1, 0], [0, 2]])
        d = m(RING_Q, [[0, Fraction(1, 2)], [0, 0]])
        suite.append(Quadruple(a, b, SquareMatrix.identity(RING_Q, 2), d))
        assert len(suite) > 10
        for q in suite:
            assert q.ac.den != q.bd.den
            assert Quadruple(q.a, q.b, q.c, q.d) == q
            # Twice d keeps d's numerators or halves its den, and breaks
            # bdb = bac unless bac = 0.
            twice = q.d.scalar_mul(2)
            if (q.b * q.ac).is_zero:
                continue
            with pytest.raises(RelationViolation) as exc:
                Quadruple(q.a, q.b, q.c, twice)
            assert exc.value.report == intertwining_report(q.a, q.b, q.c, twice)
            assert exc.value.report["relations"][0]["holds"] is False

    @pytest.mark.parametrize("ring,rows", [
        (RING_Q, [[Fraction(1, 2), 1], [0, Fraction(1, 3)]]),
        (RING_Z, [[1, 1], [0, 1]]),
        (gf(5), [[1, 1], [0, 1]]),
        (zmod(4), [[1, 1], [0, 1]]),
    ], ids=str)
    def test_only_the_second_relation_fails(self, ring, rows):
        # With b = 0, bdb = 0 = bac for every a, c, d, while dbd = 0 differs
        # from acd = a^3 here.
        a = m(ring, rows)
        with pytest.raises(RelationViolation, match="fail: dbd = acd$") as exc:
            Quadruple(a, SquareMatrix.zeros(ring, 2), a, a)
        assert [r["holds"] for r in exc.value.report["relations"]] == [True, False]

    @pytest.mark.parametrize("ring", [RING_Q, gf(5), zmod(4)], ids=str)
    def test_above_the_unroll_bound(self, ring):
        # n = 5 decides the relations on the raw rows of _rows_mul's
        # listcomp, compiling no kernel for 5.
        n = 5
        rng = random.Random(5)
        cached = dict(matrix_rings._KERNELS)
        for _ in range(20):
            a, b = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
            q = Quadruple(a, b, b, a)
            assert (q.ac, q.bd) == (a * b, b * a)
            with pytest.raises(RelationViolation):
                Quadruple(a, b, b, b * a * a)
        assert 5 not in matrix_rings._KERNELS and matrix_rings._KERNELS == cached


class TestClineGeneralized:
    def test_second_demo_instance(self):
        q = example_quadruple("2.5")
        result = cline_generalized(q, Flavor.DRAZIN)
        # ac is idempotent so its inverse is itself; bd is nilpotent so
        # the transferred inverse must be zero with index 2
        assert result.h_cert.inverse == q.ac and result.h_cert.index == 1
        assert result.e_cert.inverse.is_zero and result.e_cert.index == 2
        assert result.index_bound_holds
        assert result.classification == "index-2"

    def test_integer_demo_instance_over_q(self):
        q = integer_demo_over_q()
        result = cline_generalized(q, Flavor.DRAZIN)
        assert result.h_cert.inverse.is_zero and result.h_cert.index == 1
        assert result.e_cert.inverse.is_zero and result.e_cert.index == 2
        assert result.classification == "index-2"

    def test_identity_classical_specialization(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        q = Quadruple(eye, eye, eye, eye)
        result = cline_generalized(q, Flavor.DRAZIN)
        assert result.h_cert.inverse == eye and result.e_cert.inverse == eye
        assert result.classification == "invertible"

    def test_supplied_inverse_is_verified_not_trusted(self):
        q = example_quadruple("2.5")
        with pytest.raises(DrazinkitError):
            cline_generalized(q, Flavor.DRAZIN,
                              h=SquareMatrix.identity(RING_Q, 2))

    def test_supplied_inverse_enables_non_field_rings(self):
        q = example_quadruple("3.6")
        assert q.ring == RING_Z
        zero = SquareMatrix.zeros(RING_Z, 2)
        result = cline_generalized(q, Flavor.DRAZIN, h=zero)
        assert result.e_cert.valid and result.e_cert.inverse.is_zero

    def test_group_flavor_classifies_trichotomy(self):
        q = integer_demo_over_q()
        result = cline_generalized(q, Flavor.GROUP)
        # ac = 0 has a group inverse; bd is nilpotent of index 2, landing
        # in the third branch of the classification
        assert result.h_cert.flavor is Flavor.GROUP
        assert result.classification == "index-2"


class TestClineClassical:
    def test_hand_example(self):
        a = m(RING_Q, [[0, 1], [0, 0]])
        b = m(RING_Q, [[0, 0], [1, 0]])
        cert = cline_classical(a, b)
        assert cert.inverse == m(RING_Q, [[0, 0], [0, 1]])
        assert cert.valid

    def test_identity_pair(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        assert cline_classical(eye, eye).inverse == eye

    def test_nilpotent_with_identity(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        cert = cline_classical(m(RING_Q, NILP), eye)
        assert cert.inverse.is_zero

    @given(q_matrices(3, -2, 2), q_matrices(3, -2, 2))
    def test_mutual_consistency(self, a, b):
        # the two orientations must reproduce each other's inverse
        ba_cert = cline_classical(a, b)
        ab_cert = cline_classical(b, a)
        x = ba_cert.inverse
        assert a * (x * x) * b == ab_cert.inverse


class TestJacobson:
    def test_hand_example(self):
        a = m(RING_Q, [[0, 1], [0, 0]])
        b = m(RING_Q, [[0, 0], [2, 0]])
        q = Quadruple(a, b, b, a)
        assert jacobson_inverse(q) == m(RING_Q, [[1, 0], [0, -1]])

    def test_zero_b_and_d(self):
        # with b = d = 0 both relations hold for any a, c; pick ac = 0 so
        # the hypothesis side is trivially invertible too
        a = m(RING_Q, NILP)
        zero = SquareMatrix.zeros(RING_Q, 2)
        q = Quadruple(a, zero, a, zero)
        assert q.ac.is_zero
        assert jacobson_inverse(q) == SquareMatrix.identity(RING_Q, 2)

    def test_singular_hypothesis_rejected(self):
        with pytest.raises(NotInvertible):
            jacobson_inverse(example_quadruple("2.5"))

    @given(q_matrices(2, -2, 2), q_matrices(2, -2, 2))
    def test_two_sided_on_classical_family(self, a, b):
        q = Quadruple(a, b, b, a)
        eye = SquareMatrix.identity(RING_Q, 2)
        try:
            out = jacobson_inverse(q)
        except NotInvertible:
            assume(False)
            return
        lhs = eye - q.bd
        assert lhs * out == eye and out * lhs == eye


class TestCertificateSerialization:
    def test_transcript_shape(self):
        cert = drazin_inverse(m(RING_Q, IDEM))
        blob = cert.to_json()
        assert set(blob) == {
            "element", "inverse", "flavor", "index", "valid", "transcript",
        }
        for entry in blob["transcript"]:
            assert set(entry) == {"check", "pass", "witness"}
        assert blob["flavor"] == "drazin"
