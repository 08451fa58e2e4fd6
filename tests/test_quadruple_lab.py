"""Finite-ring oracles, quadruple generation, and the d-solver."""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import drazinkit.quadruple_lab as quadruple_lab
from drazinkit.drazin_core import Flavor, Quadruple
from drazinkit.errors import (
    BudgetExceeded,
    DrazinkitError,
    FormulaViolation,
    NoSolution,
    UnsupportedRing,
)
from drazinkit.fixtures import example_matrices, example_quadruple
from drazinkit.matrix_rings import (
    RING_Q,
    RING_Z,
    SquareMatrix,
    all_matrices,
    gf,
    inverse,
    is_nilpotent,
    matrix_to_json,
    reduced_echelon,
    zmod,
)
from drazinkit.quadruple_lab import (
    DEFAULT_SEED,
    MAX_SOLVE_UNKNOWNS,
    MAX_SPACE_ELEMENTS,
    SearchSpace,
    Strategy,
    brute_force_inverse,
    commutant,
    double_commutant_check,
    enumerate_quadruples,
    get_space,
    is_qnil_by_definition,
    qnil_transfer_check,
    random_matrix,
    seeded_rational_suite,
    solve_for_d,
)
from test_matrix_rings import count_products

GF2 = gf(2)
Z4 = zmod(4)

# Independently recounted via a table-free naive sweep before being frozen
# here; see the acceptance suite for the re-derivation at test time.
GF2_2X2_QUADRUPLE_COUNT = 9412
GF2_SCALAR_QUADRUPLE_COUNT = 11
Z4_SCALAR_QUADRUPLE_COUNT = 108


def kronecker_solve(a, b, c, budget):
    """solve_for_d by elimination of the whole n^2 x (n^2 + 1) system, the
    reference for the factored solve.

    Row (i, j) states (b X b)[i][j] = (b a c)[i][j], with the coefficient
    b[i][k] b[l][j] at X[k][l]. The solutions are the particular one plus
    the nullspace basis, one vector per free unknown in row-major order,
    walked with the same coefficient alphabet, cap and dbd = acd filter.
    """
    ring, n, m = a.ring, a.n, a.ring.modulus
    nn = n * n
    be, target = b.entries, (b * a * c).entries
    aug = [
        [be[i][k] * be[l][j] if m is None else be[i][k] * be[l][j] % m
         for k in range(n) for l in range(n)]
        + [target[i][j]]
        for i in range(n)
        for j in range(n)
    ]
    rows, pivots = reduced_echelon(ring, aug, nn)
    if any(row[nn] != 0 for row in rows[len(pivots):]):
        raise NoSolution("b X b = b a c is inconsistent")
    particular = [0] * nn
    for r, col in enumerate(pivots):
        particular[col] = rows[r][nn]
    basis = []
    for f in range(nn):
        if f not in pivots:
            vec = [0] * nn
            vec[f] = 1
            for r, col in enumerate(pivots):
                vec[col] = -rows[r][f]
            basis.append(vec)
    # Integer numerators over one denominator keep the walk off Fractions.
    den = math.lcm(*(Fraction(x).denominator for x in particular + sum(basis, [])))
    particular = [int(x * den) for x in particular]
    basis = [[int(x * den) for x in vec] for vec in basis]
    alphabet = (0, 1, -1, 2, -2) if ring.modulus is None else range(ring.modulus)
    candidates = itertools.product(alphabet, repeat=len(basis))
    ac = a * c
    out = []
    for coeffs in itertools.islice(candidates, quadruple_lab._CANDIDATE_CAP):
        vec = particular
        for coef, bvec in zip(coeffs, basis):
            if coef:
                vec = [v + coef * t for v, t in zip(vec, bvec)]
        x = SquareMatrix(
            ring, [[Fraction(v, den) for v in vec[i * n:(i + 1) * n]] for i in range(n)]
        )
        if x * b * x == ac * x:
            out.append(x)
            if len(out) == budget:
                break
    return out


def m(ring, rows) -> SquareMatrix:
    return SquareMatrix(ring, rows)


# -- a golden of solve_for_d ---------------------------------------------------

GOLDEN_RINGS = (RING_Q, GF2, gf(3), gf(5), gf(7))

# Triples per (ring, n, kind); a singular b walks the free-unknown loop,
# which over Q at n = 4 costs up to _CANDIDATE_CAP candidates, so it
# gets fewer.
GOLDEN_COUNTS = {"unit": 60, "any": 60, "singular": 15}


def golden_triple(ring, n, kind, rng):
    """(a, b, c) of one kind: b a unit, b as random_matrix draws it, or b
    with its last row the sum of the others (rank at most n - 1) and
    c = b, which makes b X b = b a c consistent (X = a solves it)."""
    a, c = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
    if kind == "unit":
        return a, quadruple_lab.random_invertible_matrix(ring, n, rng), c
    b = random_matrix(ring, n, rng)
    if kind == "singular":
        rows = [list(r) for r in b.num]
        rows[-1] = [sum(col) for col in zip(*rows[:-1])] if n > 1 else [0]
        b = SquareMatrix(ring, rows)
        return a, b, b
    return a, b, c


def solve_digest(ring, n, kind) -> str:
    """The first 16 hex digits of the sha256 of a seeded solve_for_d
    transcript at budget 3: one line per triple, the rows of each d as
    JSON, or NoSolution."""
    rng = random.Random(f"{ring} {n} {kind}")
    lines = []
    for _ in range(GOLDEN_COUNTS[kind]):
        a, b, c = golden_triple(ring, n, kind, rng)
        try:
            ds = solve_for_d(a, b, c, budget=3)
        except NoSolution:
            lines.append("NoSolution")
        else:
            lines.append(json.dumps([matrix_to_json(d)["rows"] for d in ds]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# Recorded before solve_for_d gained its exit for a unit b; every output,
# NoSolution included, must stay as it was.
SOLVE_GOLDEN = {
    ("Q", 1, "unit"): "68c7c84ed9edd68e",
    ("Q", 1, "any"): "13bb1ad6ec91b360",
    ("Q", 1, "singular"): "5135a2a99e5d41be",
    ("Q", 2, "unit"): "cf3125e4a62e587a",
    ("Q", 2, "any"): "b5578b1e4b9ce12d",
    ("Q", 2, "singular"): "9cf01f5ad830b9d3",
    ("Q", 3, "unit"): "1a580fd04e9ecbfc",
    ("Q", 3, "any"): "16357655d04ecda6",
    ("Q", 3, "singular"): "8005c4cfeaee9d00",
    ("Q", 4, "unit"): "1b8ac49df38664ef",
    ("Q", 4, "any"): "75c8a92a0ae00079",
    ("Q", 4, "singular"): "28489cb55d1ed8d2",
    ("GF(2)", 1, "unit"): "d7a11e62707d7481",
    ("GF(2)", 1, "any"): "8d22f88f6f427e2c",
    ("GF(2)", 1, "singular"): "570010780f6a9a6f",
    ("GF(2)", 2, "unit"): "ab4a71918b31a6e6",
    ("GF(2)", 2, "any"): "6e74fa7303793016",
    ("GF(2)", 2, "singular"): "3facfde996710429",
    ("GF(2)", 3, "unit"): "b99f4878bb4eaf1c",
    ("GF(2)", 3, "any"): "d4358d282663e075",
    ("GF(2)", 3, "singular"): "15afc45c635fee9a",
    ("GF(2)", 4, "unit"): "333032fbaff3f766",
    ("GF(2)", 4, "any"): "ed04ba8d4dbacd55",
    ("GF(2)", 4, "singular"): "18123b078ab1f729",
    ("GF(3)", 1, "unit"): "2c47e90b6e1d30b2",
    ("GF(3)", 1, "any"): "51ea24c697b5e28a",
    ("GF(3)", 1, "singular"): "83f94fa28f51d6fd",
    ("GF(3)", 2, "unit"): "eb78fa2d4d4f9ca8",
    ("GF(3)", 2, "any"): "d1b97946e0f6d4f8",
    ("GF(3)", 2, "singular"): "a031ec59cf56ded1",
    ("GF(3)", 3, "unit"): "833dd51bb6f437f8",
    ("GF(3)", 3, "any"): "54337e08a187c498",
    ("GF(3)", 3, "singular"): "5f2897f935194a94",
    ("GF(3)", 4, "unit"): "829c57d9187ceb4d",
    ("GF(3)", 4, "any"): "765c06b32dda9aa7",
    ("GF(3)", 4, "singular"): "c82dbdc04aaec38f",
    ("GF(5)", 1, "unit"): "29dd26c7a4b95991",
    ("GF(5)", 1, "any"): "9ef451b227ba0e76",
    ("GF(5)", 1, "singular"): "83f94fa28f51d6fd",
    ("GF(5)", 2, "unit"): "24a5e85a90d2cd3f",
    ("GF(5)", 2, "any"): "f544d4d6b16b04a7",
    ("GF(5)", 2, "singular"): "d52646fcd33b8cae",
    ("GF(5)", 3, "unit"): "9c1e209d67a47206",
    ("GF(5)", 3, "any"): "969b1df65e46a0a3",
    ("GF(5)", 3, "singular"): "6f71230ebf2dfefe",
    ("GF(5)", 4, "unit"): "b44aefb71e6b32cb",
    ("GF(5)", 4, "any"): "3174f7c3d5e1c7e6",
    ("GF(5)", 4, "singular"): "f4783f02922ce503",
    ("GF(7)", 1, "unit"): "c92bab7ec4730113",
    ("GF(7)", 1, "any"): "e577c0007616b407",
    ("GF(7)", 1, "singular"): "83f94fa28f51d6fd",
    ("GF(7)", 2, "unit"): "b4aac8613fe1a436",
    ("GF(7)", 2, "any"): "93a8daae8f3acc57",
    ("GF(7)", 2, "singular"): "c338e3083979e4a8",
    ("GF(7)", 3, "unit"): "1d2c5b8417f7a6ac",
    ("GF(7)", 3, "any"): "3bc5b760b11e848f",
    ("GF(7)", 3, "singular"): "7d288b21da8c032d",
    ("GF(7)", 4, "unit"): "3051243311dd97bf",
    ("GF(7)", 4, "any"): "2da20842e25ce512",
    ("GF(7)", 4, "singular"): "4559ac073865e80d",
}


class TestCommutant:
    def test_identity_commutes_with_everything(self):
        assert len(commutant(SquareMatrix.identity(GF2, 2))) == 16

    def test_zero_commutes_with_everything(self):
        assert len(commutant(SquareMatrix.zeros(GF2, 2))) == 16

    def test_shift_matrix_commutant(self):
        shift = m(GF2, [[0, 1], [0, 0]])
        eye = SquareMatrix.identity(GF2, 2)
        expected = {
            SquareMatrix.zeros(GF2, 2), shift, eye, eye + shift,
        }
        assert set(commutant(shift)) == expected

    def test_needs_finite_ring(self):
        with pytest.raises(DrazinkitError):
            commutant(SquareMatrix.identity(RING_Q, 2))


class TestDoubleCommutant:
    def test_element_is_in_its_own_double_commutant(self):
        a = m(GF2, [[0, 1], [0, 0]])
        assert double_commutant_check(a, a)

    def test_identity_always_passes(self):
        a = m(GF2, [[0, 1], [0, 0]])
        assert double_commutant_check(a, SquareMatrix.identity(GF2, 2))

    def test_transpose_of_shift_fails(self):
        a = m(GF2, [[0, 1], [0, 0]])
        x = m(GF2, [[0, 0], [1, 0]])
        assert not double_commutant_check(a, x)


class TestQnil:
    def test_zero_matrix(self):
        assert is_qnil_by_definition(SquareMatrix.zeros(GF2, 2))

    def test_identity_over_gf2_is_not(self):
        # x = identity commutes and 1 + 1 = 0 is not a unit
        assert not is_qnil_by_definition(SquareMatrix.identity(GF2, 2))

    def test_radical_scalar_mod_4(self):
        assert is_qnil_by_definition(m(Z4, [[2]]))

    def test_nilpotent_matrix(self):
        assert is_qnil_by_definition(m(GF2, [[0, 1], [0, 0]]))

    @pytest.mark.parametrize("ring", [GF2, gf(3), Z4], ids=str)
    def test_nilpotency_matches_the_definition(self, ring):
        # verify_axioms checks the g-Drazin core by nilpotency; the
        # definitional sweep over the commutant is the oracle for that.
        for e in all_matrices(ring, 2):
            assert is_nilpotent(e)[0] == is_qnil_by_definition(e), e


class TestQnilTransfer:
    def test_second_demo_instance_vacuous(self):
        report = qnil_transfer_check(example_quadruple("2.5"))
        assert report["ac_qnil"] is False and report["holds"] is True

    def test_integer_demo_instance(self):
        report = qnil_transfer_check(example_quadruple("3.6"))
        assert report["ac_qnil"] and report["bd_qnil"] and report["holds"]

    def test_zero_quadruple(self):
        zero = SquareMatrix.zeros(GF2, 2)
        report = qnil_transfer_check(Quadruple(zero, zero, zero, zero))
        assert report["holds"] and report["witness"] is None

    def test_nilpotent_ac_beside_a_non_nilpotent_bd_is_a_bug(self, monkeypatch):
        # (bd)^(k+1) = b (ac)^k d for a validated quadruple, so a nilpotent
        # ac forces a nilpotent bd; the opposite verdict is refused.
        q = example_quadruple("3.6")
        real = quadruple_lab.is_nilpotent
        monkeypatch.setattr(
            quadruple_lab, "is_nilpotent",
            lambda x: (False, None) if x == q.bd else real(x),
        )
        with pytest.raises(FormulaViolation):
            qnil_transfer_check(q)

    @pytest.mark.parametrize("ring", [GF2, gf(3), Z4], ids=str)
    def test_verdicts_match_the_definition(self, ring):
        # The verdicts come from nilpotency; the definitional sweep over the
        # commutant is the oracle they must agree with.
        zero = SquareMatrix.zeros(ring, 2)
        eye = SquareMatrix.identity(ring, 2)
        quads = [Quadruple(zero, zero, zero, zero), Quadruple(eye, eye, eye, eye)]
        space = SearchSpace(ring, 2, Strategy.LINEAR_SOLVE, 40)
        quads += enumerate_quadruples(space, seed=DEFAULT_SEED)
        assert len(quads) > 10
        for q in quads:
            report = qnil_transfer_check(q)
            assert report["ac_qnil"] == is_qnil_by_definition(q.ac), q
            assert report["bd_qnil"] == is_qnil_by_definition(q.bd), q

    def test_space_over_the_budget_decides_by_nilpotency(self):
        # M2(GF(5)) has 625 elements, over the table budget, so the
        # definitional sweep is out of reach; nilpotency decides instead.
        gf5 = gf(5)
        a = m(gf5, [[1, 2], [3, 4]])
        b = m(gf5, [[0, 1], [1, 1]])
        q = Quadruple(a, b, b, a)
        report = qnil_transfer_check(q)
        assert report["ac_qnil"] == is_nilpotent(q.ac)[0]
        assert report["bd_qnil"] == is_nilpotent(q.bd)[0]
        assert report["holds"] and report["witness"] is None


class TestBruteForce:
    def test_identity_drazin(self):
        eye = SquareMatrix.identity(GF2, 2)
        certs = brute_force_inverse(eye, Flavor.DRAZIN)
        assert [c.inverse for c in certs] == [eye]

    def test_nilpotent_drazin_is_zero(self):
        certs = brute_force_inverse(m(GF2, [[0, 1], [0, 0]]), Flavor.DRAZIN)
        assert [c.inverse for c in certs] == [SquareMatrix.zeros(GF2, 2)]

    def test_radical_scalar_pdrazin(self):
        certs = brute_force_inverse(m(Z4, [[2]]), Flavor.PDRAZIN)
        assert [c.inverse for c in certs] == [SquareMatrix.zeros(Z4, 1)]
        assert certs[0].index == 1

    def test_every_certificate_records_double_commutant(self):
        certs = brute_force_inverse(m(GF2, [[1, 1], [0, 0]]), Flavor.DRAZIN)
        assert certs
        for cert in certs:
            assert any(c.check == "double-commutant" for c in cert.checks)

    def test_group_flavor_can_be_empty(self):
        assert brute_force_inverse(m(GF2, [[0, 1], [0, 0]]), Flavor.GROUP) == []

    def test_pdrazin_implies_gdrazin_on_scalars_mod_4(self):
        for a in all_matrices(Z4, 1):
            pd = {c.inverse for c in brute_force_inverse(a, Flavor.PDRAZIN)}
            gd = {c.inverse for c in brute_force_inverse(a, Flavor.GDRAZIN)}
            if pd:
                assert gd and pd <= gd

    def test_pdrazin_sweep_over_m2_z4_walks_one_core(self, monkeypatch):
        # One product a step of the core walk: 2416 products over all 256
        # elements, where a second walk over a^k and a^(k+1) x made 4192.
        space = quadruple_lab.PackedSpace(Z4, 2)
        calls = count_products(monkeypatch)
        for i in range(len(space.elements)):
            space.brute(i, Flavor.PDRAZIN)
        assert len(calls) <= 2416

    def test_pdrazin_equals_drazin_on_m2_z4(self):
        # The radical of M2(Z/4) is nil, so a p-Drazin inverse is the Drazin
        # inverse; only its index can be smaller.
        smaller = 0
        for a in all_matrices(Z4, 2):
            pd = {c.inverse: c.index for c in brute_force_inverse(a, Flavor.PDRAZIN)}
            (cert,) = brute_force_inverse(a, Flavor.DRAZIN)
            assert set(pd) == {cert.inverse}, a
            assert pd[cert.inverse] <= cert.index, a
            smaller += pd[cert.inverse] < cert.index
        assert smaller == 99


class TestSolveForD:
    def test_recovers_published_d(self):
        mats = example_matrices("2.5")
        ds = solve_for_d(mats["a"], mats["b"], mats["c"], budget=64)
        assert mats["d"] in ds

    def test_identity_triple(self):
        eye = SquareMatrix.identity(RING_Q, 2)
        assert solve_for_d(eye, eye, eye, budget=8) == [eye]

    # M2(GF(5)) has 625 elements, over the table budget, so GF(5) and Q
    # take the elimination route; with b = 0 every unknown is free.
    @pytest.mark.parametrize("ring", [GF2, gf(5), RING_Q], ids=str)
    def test_zero_b_keeps_annihilators(self, ring):
        a = m(ring, [[1, 0], [0, 0]])
        zero = SquareMatrix.zeros(ring, 2)
        ds = solve_for_d(a, zero, a, budget=300)
        assert ds
        assert len(set(ds)) == len(ds)
        for d in ds:
            assert (a * a * d).is_zero
            Quadruple(a, zero, a, d)

    def test_inconsistent_system(self):
        # b x b can only reach matrices supported on the top right corner
        a = m(GF2, [[0, 0], [1, 0]])
        b = m(GF2, [[0, 1], [0, 0]])
        eye = SquareMatrix.identity(GF2, 2)
        with pytest.raises(NoSolution):
            solve_for_d(a, b, eye, budget=8)

    def test_inconsistent_system_over_q(self):
        a = m(RING_Q, [[0, 0], [1, 0]])
        b = m(RING_Q, [[0, 1], [0, 0]])
        eye = SquareMatrix.identity(RING_Q, 2)
        with pytest.raises(NoSolution):
            solve_for_d(a, b, eye, budget=8)

    def test_integers_unsupported(self):
        eye = SquareMatrix.identity(RING_Z, 2)
        with pytest.raises(DrazinkitError):
            solve_for_d(eye, eye, eye, budget=8)

    def test_dimension_over_the_unknown_cap_is_refused_before_any_system(
        self, monkeypatch
    ):
        def no_reduce(*args):
            raise AssertionError("system reduced over the unknown cap")

        monkeypatch.setattr(quadruple_lab, "_reduce", no_reduce)
        n = math.isqrt(MAX_SOLVE_UNKNOWNS) + 1
        zero = SquareMatrix.zeros(RING_Q, n)
        with pytest.raises(BudgetExceeded, match=(
            f"^linear solve needs {n * n} unknowns, budget is {MAX_SOLVE_UNKNOWNS}$"
        )):
            solve_for_d(zero, zero, zero, budget=1)

    @given(st.integers(0, 10_000))
    def test_solutions_always_satisfy_relations(self, pick):
        rng = random.Random(pick)
        ring = gf(3)
        a = random_matrix(ring, 2, rng)
        b = random_matrix(ring, 2, rng)
        c = random_matrix(ring, 2, rng)
        try:
            ds = solve_for_d(a, b, c, budget=4)
        except NoSolution:
            return
        for d in ds:
            Quadruple(a, b, c, d)

    @pytest.mark.parametrize("ring", [Z4, GF2], ids=str)
    def test_table_route_matches_the_definition_in_order(self, ring):
        # The first budget solutions in enumeration order, found by direct
        # matrix arithmetic; NoSolution exactly when b X b = b a c has none.
        els = list(all_matrices(ring, 2))
        rng = random.Random(0x50D)
        for budget in (1, 4, 300) * 6:
            a, b, c = (random_matrix(ring, 2, rng) for _ in range(3))
            bac, ac = b * a * c, a * c
            linear = [x for x in els if b * x * b == bac]
            expected = [x for x in linear if x * b * x == ac * x][:budget]
            if not linear:
                with pytest.raises(NoSolution):
                    solve_for_d(a, b, c, budget=budget)
            else:
                assert solve_for_d(a, b, c, budget=budget) == expected

    # Every (ring, n) here is over the table budget, so solve_for_d takes
    # the factored elimination route.
    @pytest.mark.parametrize(
        "ring, n",
        [(RING_Q, 1), (RING_Q, 2), (RING_Q, 3), (RING_Q, 4),
         (GF2, 4), (gf(3), 3), (gf(5), 2)],
        ids=str,
    )
    def test_factored_solve_matches_the_kronecker_reference(self, ring, n):
        rng = random.Random(0x50D + n)

        def draw_b(kind):
            b = random_matrix(ring, n, rng)
            if kind == 1:  # rank at most 1
                u, v = random_matrix(ring, n, rng).num[0], b.num[0]
                return SquareMatrix(ring, [[x * y for y in v] for x in u])
            if kind == 2:  # rank at most n - 1
                rows = [list(r) for r in b.num]
                rows[-1] = [sum(col) for col in zip(*rows[:-1])] if n > 1 else [0]
                return SquareMatrix(ring, rows)
            return b

        outcomes = set()
        for trial in range(18):
            a, b = random_matrix(ring, n, rng), draw_b(trial % 3)
            # c = b makes the linear relation consistent (d = a solves it)
            # however singular b is.
            c = b if trial % 2 else random_matrix(ring, n, rng)
            budget = (1, 4, 16)[trial // 6]
            try:
                expected = kronecker_solve(a, b, c, budget)
            except NoSolution:
                with pytest.raises(NoSolution):
                    solve_for_d(a, b, c, budget=budget)
                outcomes.add("none")
                continue
            assert solve_for_d(a, b, c, budget=budget) == expected
            outcomes.add("some" if expected else "filtered")
        # At n = 1 only b = 0 is singular, and then b a c = 0 too.
        assert outcomes >= ({"some"} if n == 1 else {"none", "some"})

    def test_invertible_b_gives_conjugate_product(self):
        rng = random.Random(5)
        from drazinkit.quadruple_lab import random_invertible_matrix
        from drazinkit.matrix_rings import inverse

        a = random_matrix(RING_Q, 3, rng)
        c = random_matrix(RING_Q, 3, rng)
        b = random_invertible_matrix(RING_Q, 3, rng)
        # with invertible b the linear relation pins d = a c b^(-1), and
        # b d = b (ac) b^(-1) is then conjugate to a c
        ds = solve_for_d(a, b, c, budget=4)
        assert ds == [(a * c) * inverse(b)]

    @pytest.mark.parametrize("key", list(SOLVE_GOLDEN), ids=str)
    def test_outputs_match_the_golden(self, key):
        name, n, kind = key
        ring = {str(r): r for r in GOLDEN_RINGS}[name]
        assert solve_digest(ring, n, kind) == SOLVE_GOLDEN[key]

    @pytest.fixture
    def reductions(self, monkeypatch):
        """The column counts of every _reduce call solve_for_d makes."""
        calls = []
        real = quadruple_lab._reduce

        def counted(rows, ncols, m):
            calls.append(ncols)
            return real(rows, ncols, m)

        monkeypatch.setattr(quadruple_lab, "_reduce", counted)
        return calls

    # Every (ring, n) here is over the table budget, so solve_for_d takes
    # the elimination route.
    ELIMINATION = [(RING_Q, 1), (RING_Q, 2), (RING_Q, 3), (RING_Q, 4),
                   (GF2, 4), (gf(3), 3), (gf(5), 2), (gf(7), 4)]

    @pytest.mark.parametrize("ring, n", ELIMINATION, ids=str)
    def test_a_unit_b_takes_one_reduction(self, ring, n, reductions):
        rng = random.Random(f"unit exit {ring} {n}")
        for _ in range(6):
            a, b, c = golden_triple(ring, n, "unit", rng)
            reductions.clear()
            ds = solve_for_d(a, b, c, budget=3)
            assert reductions == [n]
            assert ds == [a * c * inverse(b)]

    @pytest.mark.parametrize("ring, n", ELIMINATION, ids=str)
    def test_a_singular_b_takes_two_reductions(self, ring, n, reductions):
        rng = random.Random(f"singular b {ring} {n}")
        for trial in range(6):
            a, b, c = golden_triple(ring, n, "singular", rng)
            if trial % 2:
                c = random_matrix(ring, n, rng)
            reductions.clear()
            try:
                solve_for_d(a, b, c, budget=3)
            except NoSolution:
                pass
            assert reductions == [n, n]

    def test_the_unit_exit_keeps_the_dbd_filter(self, monkeypatch):
        # d = a c b^(-1) always satisfies d b d = a c d; the filter is
        # still asked, and a refusal there leaves no solution.
        asked = []

        def refuse(*args):
            asked.append(args)
            return False

        monkeypatch.setattr(quadruple_lab, "_products_equal", refuse)
        a, b, c = golden_triple(RING_Q, 3, "unit", random.Random(3))
        assert solve_for_d(a, b, c, budget=3) == [] and len(asked) == 1


class TestPackedSpace:
    def test_small_spaces_build(self):
        assert len(get_space(GF2, 2).elements) == 16
        assert len(get_space(Z4, 2).elements) == 256
        assert len(get_space(gf(3), 2).elements) == 81

    def test_large_space_rejected(self):
        with pytest.raises(BudgetExceeded):
            get_space(gf(3), 3)

    def test_large_dimension_rejected_before_counting(self):
        # 2^(10^8) takes 12.5 MB and has more digits than str() prints;
        # past n * n = 9 the count is written as a power, never computed.
        start = time.perf_counter()
        with pytest.raises(
            BudgetExceeded, match=r"^GF\(2\) dimension 10000 has 2\^100000000 matrices"
        ):
            get_space(GF2, 10**4)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "ring, n, count",
        [(GF2, 3, None), (GF2, 4, "2^16"), (gf(5), 2, "625"), (zmod(6), 2, "1296"),
         (gf(3), 3, "19683"), (zmod(97), 1, None), (zmod(513), 1, "513")],
        ids=str,
    )
    def test_space_refusal_text(self, ring, n, count):
        refusal = quadruple_lab._space_refusal(ring, n)
        if count is None:
            assert refusal is None
        else:
            assert refusal == (
                f"{ring} dimension {n} has {count} matrices, over the "
                "512-element enumeration budget"
            )

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [1500, 5000])
    def test_huge_modulus_refused_without_its_power(self, k, n):
        # m = 10^k + 1: m^4 has over 6000 digits, past the 4300 that str()
        # prints, and at k = 5000 so does m; both are written in full.
        digits = "1" + "0" * (k - 1) + "1"
        with pytest.raises(BudgetExceeded) as exc:
            get_space(zmod(10**k + 1), n)
        count = digits if n == 1 else f"{digits}^4"
        assert str(exc.value) == (
            f"Zmod({digits}) dimension {n} has {count} matrices, over the "
            "512-element enumeration budget"
        )

    def test_infinite_ring_rejected(self):
        with pytest.raises(DrazinkitError):
            get_space(RING_Q, 2)

    @pytest.mark.parametrize(
        "ring, n",
        [(GF2, 1), (GF2, 2), (gf(3), 1), (gf(3), 2), (Z4, 1), (Z4, 2)]
        + [(zmod(m), 1) for m in (2, 6, 8, 12, 30, 97, 256)],
        ids=str,
    )
    def test_product_table_matches_matrix_products(self, ring, n):
        space = get_space(ring, n)
        els = space.elements
        assert els == list(all_matrices(ring, n))
        assert all(space.index[x] == i for i, x in enumerate(els))
        for i, x in enumerate(els):
            assert space.mul[i] == [space.index[x * y] for y in els]

    def test_product_table_gf2_3x3_sampled_rows(self):
        space = get_space(GF2, 3)
        els = space.elements
        assert len(els) == 512
        assert els == list(all_matrices(GF2, 3))
        one = space.identity_idx
        assert els[one] == SquareMatrix.identity(GF2, 3)
        assert space.mul[one] == list(range(512))
        assert [row[one] for row in space.mul] == list(range(512))
        for i in random.Random(0x7AB1E).sample(range(512), 24):
            assert space.mul[i] == [space.index[els[i] * y] for y in els]

    def test_element_indices_fit_the_sandwich_index_type(self):
        # PackedSpace.sandwich stores element indices as array("H").
        assert MAX_SPACE_ELEMENTS < 2**16

    @pytest.mark.parametrize("ring, n, sample", [(Z4, 2, None), (GF2, 3, 24)], ids=str)
    def test_sandwich_groups_match_the_literal_scan(self, ring, n, sample):
        space = get_space(ring, n)
        mul = space.mul
        size = len(space.elements)
        bs = range(size) if sample is None else random.Random(0xB).sample(range(size), sample)
        for b in bs:
            order, start = space.sandwich(b)
            # The groups partition range(size): start runs 0 .. size without
            # going down, and order is a permutation of the element indices.
            assert len(start) == size + 1 and start[0] == 0 and start[-1] == size
            assert all(start[t] <= start[t + 1] for t in range(size))
            assert sorted(order) == list(range(size))
            # One pass over x fills, for every target t, the literal scan
            # [x for x in range(size) if mul[mul[b][x]][b] == t] in order.
            scans: list[list[int]] = [[] for _ in range(size)]
            for x in range(size):
                scans[mul[mul[b][x]][b]].append(x)
            for t in range(size):
                assert list(order[start[t]:start[t + 1]]) == scans[t]


class TestEnumeration:
    def test_scalar_gf2_count_and_contents(self):
        space = SearchSpace(ring=GF2, n=1, strategy=Strategy.EXHAUSTIVE,
                            budget=16)
        quads = list(enumerate_quadruples(space))
        assert len(quads) == GF2_SCALAR_QUADRUPLE_COUNT
        zero = SquareMatrix.zeros(GF2, 1)
        one = SquareMatrix.identity(GF2, 1)
        assert Quadruple(zero, zero, zero, zero) in quads
        assert Quadruple(one, one, one, one) in quads

    def test_scalar_gf2_matches_naive_recount(self):
        mats = list(all_matrices(GF2, 1))
        naive = sum(
            1
            for a, b, c, d in itertools.product(mats, repeat=4)
            if b * d * b == b * a * c and d * b * d == a * c * d
        )
        assert naive == GF2_SCALAR_QUADRUPLE_COUNT

    def test_scalar_z4_matches_naive_recount(self):
        space = SearchSpace(ring=Z4, n=1, strategy=Strategy.EXHAUSTIVE,
                            budget=256)
        count = sum(1 for _ in enumerate_quadruples(space))
        mats = list(all_matrices(Z4, 1))
        naive = sum(
            1
            for a, b, c, d in itertools.product(mats, repeat=4)
            if b * d * b == b * a * c and d * b * d == a * c * d
        )
        assert count == naive == Z4_SCALAR_QUADRUPLE_COUNT

    def test_budget_guard(self):
        space = SearchSpace(ring=GF2, n=2, strategy=Strategy.EXHAUSTIVE,
                            budget=100)
        with pytest.raises(BudgetExceeded):
            list(enumerate_quadruples(space))

    def test_budget_checked_before_the_tables_are_built(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("PackedSpace built for a sweep over budget")

        monkeypatch.setattr(quadruple_lab, "_SPACES", {})
        monkeypatch.setattr(quadruple_lab, "PackedSpace", no_build)
        space = SearchSpace(ring=GF2, n=3, strategy=Strategy.EXHAUSTIVE,
                            budget=1_000_000)
        with pytest.raises(BudgetExceeded, match=(
            "^exhaustive sweep needs 68719476736 candidates, budget is 1000000$"
        )):
            list(enumerate_quadruples(space))

    def test_space_size_error_keeps_its_precedence(self):
        space = SearchSpace(ring=gf(3), n=3, strategy=Strategy.EXHAUSTIVE,
                            budget=10)
        with pytest.raises(BudgetExceeded, match="^GF\\(3\\) dimension 3 has 19683"):
            list(enumerate_quadruples(space))

    def test_linear_solve_dimension_checked_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("matrix drawn over the unknown cap")

        monkeypatch.setattr(quadruple_lab, "random_matrix", no_draw)
        n = math.isqrt(MAX_SOLVE_UNKNOWNS) + 1
        space = SearchSpace(ring=GF2, n=n, strategy=Strategy.LINEAR_SOLVE,
                            budget=1)
        with pytest.raises(BudgetExceeded, match="^linear solve needs"):
            list(enumerate_quadruples(space))

    def test_linear_solve_strategy_emits_valid_quadruples(self):
        space = SearchSpace(ring=Z4, n=2, strategy=Strategy.LINEAR_SOLVE,
                            budget=30)
        quads = list(enumerate_quadruples(space, seed=DEFAULT_SEED))
        assert quads
        for q in quads:
            assert q.ring == Z4


class TestSeededSuite:
    def test_deterministic(self):
        assert seeded_rational_suite(25) == seeded_rational_suite(25)

    def test_seed_changes_output(self):
        assert seeded_rational_suite(25) != seeded_rational_suite(25, seed=1)

    def test_dimensions_bounded(self):
        for q in seeded_rational_suite(50, max_dim=3):
            assert 1 <= q.n <= 3
            assert q.ring == RING_Q

    def test_contains_both_families(self):
        suite = seeded_rational_suite(60)
        classical = sum(1 for q in suite if q.c == q.b and q.d == q.a)
        assert 0 < classical < 60


def reference_random_matrix(ring, n, rng):
    """random_matrix as randrange and randint draw it, the stream the
    seeded suites and workloads were built on."""
    if ring.is_finite:
        rows = [[rng.randrange(ring.modulus) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return SquareMatrix(ring, rows)


# Moduli around powers of two, where getrandbits redraws most often, and
# past 2^64, where the draw spans two 32-bit words; 2^64 + 13 is prime.
STREAM_MODULI = [2, 3, 4, 5, 6, 7, 9, 12, 2**64, 2**64 + 13]
STREAM_RINGS = (
    [RING_Q, RING_Z]
    + [gf(m) for m in STREAM_MODULI if m in (2, 3, 5, 7, 2**64 + 13)]
    + [zmod(m) for m in STREAM_MODULI]
)


class TestDrawStream:
    """random_matrix draws entries with getrandbits; every seed must give
    the matrices, and leave the generator in the state, that randrange and
    randint give. A Python whose randrange consumes its stream otherwise
    fails here."""

    @pytest.mark.parametrize("ring", STREAM_RINGS, ids=str)
    def test_random_matrix_matches_randrange(self, ring):
        for n in range(1, 6):
            for seed in range(200):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                assert random_matrix(ring, n, got_rng) == reference_random_matrix(
                    ring, n, want_rng
                )
                assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("ring", [r for r in STREAM_RINGS if r != RING_Z], ids=str)
    def test_random_invertible_matrix_matches_randrange(self, ring, monkeypatch):
        sizes = range(1, 6)
        seeds = range(200)
        got = [quadruple_lab.random_invertible_matrix(ring, n, random.Random(s))
               for n in sizes for s in seeds]
        monkeypatch.setattr(quadruple_lab, "random_matrix", reference_random_matrix)
        want = [quadruple_lab.random_invertible_matrix(ring, n, random.Random(s))
                for n in sizes for s in seeds]
        assert got == want

    @pytest.mark.parametrize("n", range(1, 6))
    def test_invertible_draw_over_z_is_refused_before_drawing(self, n, monkeypatch):
        # det = +-1 is rare among entries in [-3, 3], so no n is drawn over Z:
        # the refusal draws nothing and leaves the generator as it was.
        def no_draw(*args):
            raise AssertionError("drew a matrix over Z")

        monkeypatch.setattr(quadruple_lab, "random_matrix", no_draw)
        rng = random.Random(n)
        state = rng.getstate()
        with pytest.raises(UnsupportedRing, match="no invertible draw over Z"):
            quadruple_lab.random_invertible_matrix(RING_Z, n, rng)
        assert rng.getstate() == state

    def test_seeded_rational_suite_matches_randrange(self, monkeypatch):
        # The suite draws through random_matrix and random_invertible_matrix,
        # pinned above on every seed, and through randint and random.
        seeds = list(range(50)) + [DEFAULT_SEED]
        got = [seeded_rational_suite(50, seed) for seed in seeds]
        monkeypatch.setattr(quadruple_lab, "random_matrix", reference_random_matrix)
        assert got == [seeded_rational_suite(50, seed) for seed in seeds]


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: solve_for_d(*[SquareMatrix.identity(RING_Q, 2)] * 3, budget=0),
         "budget must be >= 1"),
        (lambda: SearchSpace(GF2, 1, Strategy.EXHAUSTIVE, 0), "budget must be >= 1"),
        (lambda: SearchSpace(RING_Q, 1, Strategy.EXHAUSTIVE, 5),
         "exhaustive enumeration requires a finite ring"),
        (lambda: SearchSpace(RING_Z, 1, Strategy.LINEAR_SOLVE, 5),
         "linear-solve requires a field or a residue ring"),
    ],
    ids=["solve-budget-0", "space-budget-0", "exhaustive-over-Q", "linear-solve-over-Z"],
)
def test_library_refusals(call, text):
    with pytest.raises(DrazinkitError) as exc:
        call()
    assert type(exc.value) is DrazinkitError and str(exc.value) == text
