"""Whole-package gate: every property the toolkit promises, at desk scale.

Each test states its wall-clock budget next to the assertion. Shared
fixtures are built once per module and their build time is charged against
every budget that consumes them, so the timings stay honest.
"""

import json
import random
import time

import pytest

from drazinkit.cli import main
from drazinkit.drazin_core import (
    Flavor,
    Quadruple,
    cline_classical,
    drazin_inverse,
    verify_axioms,
)
from drazinkit.errors import NoSolution
from drazinkit.matrix_rings import RING_Q, all_matrices, gf, zmod
from drazinkit.quadruple_lab import (
    SearchSpace,
    Strategy,
    brute_force_inverse,
    enumerate_quadruples,
    get_space,
    is_qnil_by_definition,
    random_matrix,
    seeded_rational_suite,
    solve_for_d,
)
from drazinkit.spectral import (
    DEFAULT_LAMBDAS,
    char_poly,
    invertibility_transfer,
    nonzero_spectrum_equal,
)

GF2 = gf(2)
GF3 = gf(3)
Z4 = zmod(4)

ZERO_ROWS = [["0", "0"], ["0", "0"]]


@pytest.fixture(scope="module")
def gf2_sweep():
    """All 9412 relation-satisfying quadruples over 2x2 matrices mod 2.

    The 65536-candidate sweep and the packed index tables are built once;
    the build time is reported so dependent tests can charge it.
    """
    start = time.monotonic()
    space = get_space(GF2, 2)
    search = SearchSpace(ring=GF2, n=2, strategy=Strategy.EXHAUSTIVE, budget=65536)
    quads = list(enumerate_quadruples(search))
    return {"space": space, "quads": quads, "seconds": time.monotonic() - start}


@pytest.fixture(scope="module")
def rational_suite():
    """The 1000-quadruple seeded reference suite over Q, n up to 4."""
    start = time.monotonic()
    quads = seeded_rational_suite(1000)
    return {"quads": quads, "seconds": time.monotonic() - start}


def run_demo(capsys, example: str) -> tuple[int, dict]:
    code = main(["demo", "--example", example])
    return code, json.loads(capsys.readouterr().out)


def test_bundled_demos_report_exact_products(capsys):
    start = time.monotonic()

    code, report = run_demo(capsys, "2.4")
    assert code == 1
    assert report["verdict"] == "rejected"
    first = report["intertwining"]["relations"][0]
    assert first["relation"] == "bdb = bac"
    assert first["left"]["rows"] == [["1", "0"], ["0", "0"]]
    assert first["right"]["rows"] == [["1", "1"], ["0", "0"]]

    code, report = run_demo(capsys, "2.5")
    assert code == 0
    assert report["verdict"] == "accepted"
    for relation in report["intertwining"]["relations"]:
        assert relation["left"]["rows"] == ZERO_ROWS
        assert relation["right"]["rows"] == ZERO_ROWS

    code, report = run_demo(capsys, "3.6")
    assert code == 0
    assert report["ac"]["rows"] == ZERO_ROWS
    assert report["ac_certificate"]["flavor"] == "group"
    assert report["ac_certificate"]["valid"] is True
    assert report["ac_certificate"]["inverse"]["rows"] == ZERO_ROWS
    assert report["bd"]["rows"] == [["0", "2"], ["0", "0"]]
    assert report["bd_certificate"]["flavor"] == "drazin"
    assert report["bd_certificate"]["valid"] is True
    assert report["bd_certificate"]["inverse"]["rows"] == ZERO_ROWS
    assert report["bd_certificate"]["index"] == 2
    assert report["bd_group_inverse"]["exists"] is False

    assert time.monotonic() - start < 1.0


def test_exhaustive_sweep_transfers_the_generalized_inverse(gf2_sweep):
    start = time.monotonic()
    space = gf2_sweep["space"]
    quads = gf2_sweep["quads"]
    assert len(quads) == 9412  # frozen count, recounted in test_quadruple_lab

    unique_gd = {}
    for i in range(len(space.elements)):
        certs = space.brute(i, Flavor.GDRAZIN)
        assert len(certs) == 1
        unique_gd[i] = certs[0]

    mismatches = 0
    for q in quads:
        h = unique_gd[space.index[q.ac]].inverse
        e = q.b * h * h * q.d
        if e != unique_gd[space.index[q.bd]].inverse:
            mismatches += 1
    assert mismatches == 0

    assert time.monotonic() - start + gf2_sweep["seconds"] < 60.0


def test_qnil_core_transfers_from_ac_to_bd(gf2_sweep):
    start = time.monotonic()
    space = gf2_sweep["space"]

    # the cached flag is the literal definition; prove that once per element
    for i, element in enumerate(space.elements):
        assert space.is_qnil(i) == is_qnil_by_definition(element)

    violations = 0
    for q in gf2_sweep["quads"]:
        if space.is_qnil(space.index[q.ac]):
            if not space.is_qnil(space.index[q.bd]):
                violations += 1

    # every scalar tuple mod 4: 256 candidates, 108 satisfy the relations
    scalar_space = get_space(Z4, 1)
    for i, element in enumerate(scalar_space.elements):
        assert scalar_space.is_qnil(i) == is_qnil_by_definition(element)
    search = SearchSpace(ring=Z4, n=1, strategy=Strategy.EXHAUSTIVE, budget=256)
    scalar_quads = list(enumerate_quadruples(search))
    assert len(scalar_quads) == 108
    for q in scalar_quads:
        if scalar_space.is_qnil(scalar_space.index[q.ac]):
            if not scalar_space.is_qnil(scalar_space.index[q.bd]):
                violations += 1

    assert violations == 0
    assert time.monotonic() - start + gf2_sweep["seconds"] < 60.0


def test_rational_suite_satisfies_index_bound(rational_suite):
    start = time.monotonic()
    quads = rational_suite["quads"]
    assert len(quads) == 1000

    violations = 0
    for q in quads:
        h = drazin_inverse(q.ac)
        e = q.b * h.inverse * h.inverse * q.d
        cert = verify_axioms(q.bd, e, Flavor.DRAZIN)
        if not (cert.valid and cert.index <= h.index + 1):
            violations += 1
    assert violations == 0

    assert time.monotonic() - start + rational_suite["seconds"] < 120.0


def test_residue_ring_samples_satisfy_pdrazin_transfer():
    start = time.monotonic()
    space = get_space(Z4, 2)
    rng = random.Random(0x5EED)

    def unique_pd(idx: int):
        certs = space.brute(idx, Flavor.PDRAZIN)
        assert len(certs) == 1
        return certs[0]

    subset_checked: set[int] = set()

    def pd_inside_gd(idx: int) -> None:
        if idx in subset_checked:
            return
        pd = {cert.inverse for cert in space.brute(idx, Flavor.PDRAZIN)}
        gd = {cert.inverse for cert in space.brute(idx, Flavor.GDRAZIN)}
        assert pd <= gd and len(gd) == 1
        subset_checked.add(idx)

    produced = 0
    violations = 0
    for _ in range(100_000):
        a = random_matrix(Z4, 2, rng)
        b = random_matrix(Z4, 2, rng)
        c = random_matrix(Z4, 2, rng)
        try:
            ds = solve_for_d(a, b, c, budget=4)
        except NoSolution:
            continue
        ac = a * c
        ac_idx = space.index[ac]
        h_cert = unique_pd(ac_idx)
        pd_inside_gd(ac_idx)
        h = h_cert.inverse
        for d in ds:
            bd = b * d
            bd_idx = space.index[bd]
            bd_cert = unique_pd(bd_idx)
            pd_inside_gd(bd_idx)
            e = b * h * h * d
            if e != bd_cert.inverse:
                violations += 1
            if bd_cert.index > h_cert.index + 1:
                violations += 1
            produced += 1
            if produced % 1000 == 0:
                q = Quadruple(a, b, c, d)
                spot = verify_axioms(q.bd, e, Flavor.PDRAZIN)
                assert spot.valid and spot.inverse == bd_cert.inverse

    assert produced > 0
    assert violations == 0
    assert time.monotonic() - start < 300.0


def test_unit_transfer_on_the_rational_suite(rational_suite):
    for q in rational_suite["quads"]:
        report = invertibility_transfer(q, DEFAULT_LAMBDAS)
        assert report.all_hold
        for row in report.rows:
            if row.ac_side_invertible:
                assert row.bd_side_invertible and row.formula_verified


def test_nonzero_spectra_of_the_two_products_agree(rational_suite):
    for q in rational_suite["quads"]:
        assert nonzero_spectrum_equal(q.ac, q.bd).equal


def test_constructed_inverse_matches_exhaustive_oracle():
    start = time.monotonic()
    checked = 0
    for ring, n in ((GF2, 2), (GF3, 1), (GF3, 2), (GF2, 3)):
        for m in all_matrices(ring, n):
            certs = brute_force_inverse(m, Flavor.DRAZIN)
            assert len(certs) == 1
            built = drazin_inverse(m)
            assert built.valid
            assert built.inverse == certs[0].inverse
            assert built.index == certs[0].index
            checked += 1
    assert checked == 16 + 3 + 81 + 512
    assert time.monotonic() - start < 10.0


def test_classical_family_matches_known_identities():
    rng = random.Random(0xC11E)
    for _ in range(500):
        n = rng.randint(1, 4)
        a = random_matrix(RING_Q, n, rng)
        b = random_matrix(RING_Q, n, rng)
        cert = cline_classical(a, b)
        assert cert.valid
        assert char_poly(a * b) == char_poly(b * a)
