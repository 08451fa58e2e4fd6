"""Golden CLI reports: exit code and stdout SHA-256 pinned per invocation.

The invocations cover the routes that the corpus under bench/ does not
reach: the Z-to-Q lift in spectrum and jacobson, the quadruple loader with
its rejection report in verify and cline, group-inverse construction over
Q, and the GF elimination route of solve_for_d (GF(3) 3x3 has 3^9
matrices, too many for the enumeration tables). A second group pins the
routes that construct a flavor inverse or a unit-transfer inverse: drazin
with the pdrazin and gdrazin flavors on an index-2 matrix over Q, cline
with the group and pdrazin flavors on instance 2.5, jacobson at the
default lambda on a classical (a, b, b, a) quadruple, and spectrum with a
lambda at which 1 - ac is singular. A third group pins the inverse over
Z and Z/n, which no other pin reaches: jacobson at the default lambda on
3x3 Z and Z/12 quadruples where 1 - ac is a unit other than the
identity, and on a Z/12 quadruple where it is not a unit. A fourth group
pins spectrum without --lambdas on Q quadruples whose products have
denominators above 1, a repeated nonzero eigenvalue and a non-integer
rational eigenvalue, so the scaling of the characteristic polynomial, the
squarefree part and the root search all reach the report. A fifth group
pins the flavor construction at its two ends: cline with the gdrazin
flavor on instance 2.5, and the group flavor refused, on an index-2
matrix by drazin and on a classical quadruple whose ac has index 2 by
cline; a refusal prints nothing on stdout. A sixth group pins the unit
transfer where no other pin reaches it: jacobson at the default lambda
over GF(5), once with 1 - ac a unit and once with it singular, and
spectrum with explicit lambdas on a 4x4 linear-solve Q quadruple whose b
is singular and whose b, d, ac and bd all have denominators above 1, with
1 - ac singular at lambda = 1. A seventh group pins the search stream of
both strategies: the exhaustive sweeps over GF(2) at dimensions 1 and 2
and over Z/4 and GF(3) at dimension 1, 200 linear-solve draws over Z/4 at
dimension 2, and 300 seeded linear-solve draws over GF(2) at dimension 3,
whose 512 matrices are the largest space the enumeration tables take.
Every hash was
recorded before the code it pins was reworked, so a changed byte in any
of these reports fails here.
"""

import hashlib
import json

import pytest

from drazinkit.cli import main


def _quad(ring, **rows):
    return {
        k: {"ring": ring, "rows": [[str(x) for x in row] for row in m]}
        for k, m in rows.items()
    }


INPUTS = {
    "quad_3.6.json": _quad(
        "Z",
        a=[[0, 1], [0, 1]],
        b=[[1, 1], [0, 0]],
        c=[[1, -1], [0, 0]],
        d=[[0, 1], [0, 1]],
    ),
    "quad_2.5.json": _quad(
        "Q",
        a=[[0, 1], [0, 0]],
        b=[[0, 0], [0, 1]],
        c=[[1, 0], [1, 1]],
        d=[[1, 0], [-1, 0]],
    ),
    # The classical case c = b, d = a of the intertwining relations.
    "quad_classical.json": _quad(
        "Q",
        a=[[0, 1], [0, 0]],
        b=[[0, 0], [2, 0]],
        c=[[0, 0], [2, 0]],
        d=[[0, 1], [0, 0]],
    ),
    "quad_2.4.json": _quad(
        "Q",
        a=[[0, 1], [0, 0]],
        b=[[1, 0], [0, 0]],
        c=[[1, 0], [1, 1]],
        d=[[1, 1], [0, 0]],
    ),
    # Classical (a, b, b, a) quadruples with 3x3 entries whose 1 - ac is a
    # unit other than the identity: det -1 over Z, det 7 over Z/12.
    "quad_z_unit.json": _quad(
        "Z",
        a=[[-1, -2, 2], [0, 0, 0], [0, 2, -2]],
        b=[[0, 0, 0], [0, -2, 2], [-2, -2, -1]],
        c=[[0, 0, 0], [0, -2, 2], [-2, -2, -1]],
        d=[[-1, -2, 2], [0, 0, 0], [0, 2, -2]],
    ),
    "quad_zmod12_unit.json": _quad(
        {"Zmod": 12},
        a=[[2, 10, 10], [11, 11, 9], [10, 1, 3]],
        b=[[0, 10, 10], [7, 10, 2], [1, 10, 2]],
        c=[[0, 10, 10], [7, 10, 2], [1, 10, 2]],
        d=[[2, 10, 10], [11, 11, 9], [10, 1, 3]],
    ),
    # Here det(1 - ac) = 9 shares the factor 3 with 12, so 1 - ac is no unit.
    "quad_zmod12_singular.json": _quad(
        {"Zmod": 12},
        a=[[1, 2, 0], [3, 1, 4], [0, 5, 2]],
        b=[[2, 1, 0], [0, 11, 1], [0, 0, 3]],
        c=[[2, 1, 0], [0, 11, 1], [0, 0, 3]],
        d=[[1, 2, 0], [3, 1, 4], [0, 5, 2]],
    ),
    # Classical (a, b, b, a) quadruples over Q whose ac and bd have
    # denominators above 1, the repeated eigenvalue 3/2 and the eigenvalue
    # -2/3; the 4x4 one also has the eigenvalue 0.
    "quad_q_repeated.json": _quad(
        "Q",
        a=[["-1/2", "1/4", "5/2"], ["-13/12", "5/24", "13/6"],
           ["-1/12", "-7/24", "5/3"]],
        b=[[1, 0, 1], [0, 2, 0], [1, 0, 0]],
        c=[[1, 0, 1], [0, 2, 0], [1, 0, 0]],
        d=[["-1/2", "1/4", "5/2"], ["-13/12", "5/24", "13/6"],
           ["-1/12", "-7/24", "5/3"]],
    ),
    "quad_q_repeated_zero.json": _quad(
        "Q",
        a=[[-2, 1, "5/2", 0], ["-40/9", "11/6", "41/18", "1/9"],
           ["-13/9", "1/3", "7/9", "1/9"], [1, "-1/2", 1, 0]],
        b=[[1, 0, 1, 0], [0, 2, 0, 1], [1, 0, 0, 0], [0, 0, 1, 3]],
        c=[[1, 0, 1, 0], [0, 2, 0, 1], [1, 0, 0, 0], [0, 0, 1, 3]],
        d=[[-2, 1, "5/2", 0], ["-40/9", "11/6", "41/18", "1/9"],
           ["-13/9", "1/3", "7/9", "1/9"], [1, "-1/2", 1, 0]],
    ),
    # The classical (a, I, I, a) with a nonzero nilpotent a: ac = a has
    # index 2, so ac has no group inverse.
    "quad_classical_index2.json": _quad(
        "Q",
        a=[[0, 1], [0, 0]],
        b=[[1, 0], [0, 1]],
        c=[[1, 0], [0, 1]],
        d=[[0, 1], [0, 0]],
    ),
    # A GF(5) quadruple with 1 - ac a unit other than the identity, and one
    # with 1 - ac = [[0, 1], [0, 4]] singular.
    "quad_gf5_unit.json": _quad(
        {"GF": 5},
        a=[[4, 2], [2, 4]],
        b=[[0, 3], [1, 0]],
        c=[[1, 0], [2, 3]],
        d=[[2, 3], [4, 0]],
    ),
    "quad_gf5_singular.json": _quad(
        {"GF": 5},
        a=[[1, 4], [3, 0]],
        b=[[0, 0], [0, 4]],
        c=[[0, 4], [4, 0]],
        d=[[0, 2], [0, 3]],
    ),
    # A linear-solve Q quadruple: b has rank 3 (row 4 is row 1 plus row 2),
    # d came from solve_for_d, and 1 is an eigenvalue of both ac and bd.
    "quad_q4_singular_b.json": _quad(
        "Q",
        a=[["2/7", "3/14", "-2/7", "1/7"], ["2/7", "-11/14", "5/7", "-6/7"],
           ["-2/7", "-17/14", "9/7", "-15/7"], ["1/7", "-9/14", "6/7", "-10/7"]],
        b=[["1/4", "1/3", 0, -1], [1, 0, 1, "2/3"], [-1, 0, -1, "3/4"],
           ["5/4", "1/3", 1, "-1/3"]],
        c=[[0, 1, -2, 2], [1, -2, 1, 1], [-2, 0, 0, 1], [-2, 1, -1, 0]],
        d=[[-1, "-25/17", "-25/17", 0], ["15/4", "27/8", "17/4", 0],
           [1, 2, 1, 0], [0, "21/34", "2/17", 0]],
    ),
    # Rank 2 and rank(A^2) = 2, so the index is 1 and a group inverse exists.
    "matrix_q_index1.json": {
        "ring": "Q",
        "rows": [["1/2", "1", "0"], ["1", "2", "0"], ["3", "-1/3", "1"]],
    },
    # Ranks 3, 2, 1, 1 for the powers 0..3, so the index is 2.
    "matrix_q_index2.json": {
        "ring": "Q",
        "rows": [["0", "1", "2"], ["0", "0", "3"], ["0", "0", "1"]],
    },
}

GOLDEN = [
    (
        ["spectrum", "--in", "quad_3.6.json"],
        0,
        "c45df261ef1102011152130e274280ca36ada9f133d97f3ecb2c3572ceb55a44",
    ),
    (
        ["jacobson", "--in", "quad_3.6.json", "--lambda", "3/2"],
        0,
        "65eded32a91f4daf2eec197bcaf573aa48dc129e1cbcc32b4c4af4a86d78880e",
    ),
    (
        ["verify", "--in", "quad_2.4.json"],
        1,
        "e09dc56165e988f121eeeb653c13a39a193b6e77919e622a5d49038954a7f86b",
    ),
    (
        ["cline", "--in", "quad_2.4.json"],
        1,
        "e09dc56165e988f121eeeb653c13a39a193b6e77919e622a5d49038954a7f86b",
    ),
    (
        ["drazin", "--in", "matrix_q_index1.json", "--flavor", "group"],
        0,
        "def1f35e2f6854cc09063d3f7b0c47ac8b5375d6da57ce2c8045847d202e5cd3",
    ),
    (
        ["search", "--ring", "gf3", "--dim", "3", "--strategy", "linear-solve",
         "--budget", "20"],
        0,
        "4e4f0172c100a73fd64dd0cf33fb31aa21058d6cb43ec469718ae65d7d6cf464",
    ),
]

FLAVOR_AND_TRANSFER = {
    "drazin-pdrazin": (
        ["drazin", "--in", "matrix_q_index2.json", "--flavor", "pdrazin"],
        0,
        "21255bde537b5108290e7c55a15c310c3b278137d6bf0fa2cd54ff83865e2200",
    ),
    "drazin-gdrazin": (
        ["drazin", "--in", "matrix_q_index2.json", "--flavor", "gdrazin"],
        0,
        "e5936c8b170f4d150dfc4cb23bfc2e31eefde42147ad0e50209a44bd2470c570",
    ),
    "cline-group": (
        ["cline", "--in", "quad_2.5.json", "--flavor", "group"],
        0,
        "23b57a480a0de902e3408b005bc390828db3bb3a47fe8f007a3ee762de565f3b",
    ),
    "cline-pdrazin": (
        ["cline", "--in", "quad_2.5.json", "--flavor", "pdrazin"],
        0,
        "53ffed27c22102baf33ec83da2c167ca2e4e3a7546dacb3344cdc78b94ab5eb1",
    ),
    "jacobson-default-lambda": (
        ["jacobson", "--in", "quad_classical.json"],
        0,
        "66bfe4d73d8a700487d3816ed8c6d29a97df6592910fde11365ca605c57cf68c",
    ),
    "spectrum-singular-lambda": (
        ["spectrum", "--in", "quad_2.5.json", "--lambdas", "1,2,1/2,-1"],
        0,
        "150d9d52fac6a89f3865770dc867b75d48fa5244aac951aafe43cc2263cb291c",
    ),
}

INTEGER_INVERSE = {
    "jacobson-z-unit": (
        ["jacobson", "--in", "quad_z_unit.json"],
        0,
        "52b6e2d59f06ff6e4fddf861f285c3c27a784368962bbbcafb31ed2ac31f6576",
    ),
    "jacobson-zmod12-unit": (
        ["jacobson", "--in", "quad_zmod12_unit.json"],
        0,
        "181cb7af57ac56e94fb71b99e71749b1131e048554807f391ed119cffea7471d",
    ),
    "jacobson-zmod12-not-unit": (
        ["jacobson", "--in", "quad_zmod12_singular.json"],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}

# Spectrum on Q products with denominators above 1 and a repeated nonzero
# eigenvalue, so the squarefree part differs from the nonzero part; run
# without --lambdas, so the rational root search and the lambda list it
# feeds are pinned too.
SCALED_SPECTRUM = {
    "spectrum-q-repeated-root": (
        ["spectrum", "--in", "quad_q_repeated.json"],
        0,
        "54d5db0c5605ec4d82ac60d5e1f5ff1fa148d01823a345db924cfc50da306ed1",
    ),
    "spectrum-q-repeated-root-and-zero": (
        ["spectrum", "--in", "quad_q_repeated_zero.json"],
        0,
        "001db7bd9a1b9a38fd34acde8b9d4881ff6b64c62fd48fc04403bf9f5908b5a4",
    ),
}

FLAVOR_CONSTRUCTION = {
    "cline-gdrazin": (
        ["cline", "--in", "quad_2.5.json", "--flavor", "gdrazin"],
        0,
        "f58d85ec286c9f75302b55830e06b8c8e156f169ba66a0354c25edb9184b7694",
    ),
    "drazin-group-index2": (
        ["drazin", "--in", "matrix_q_index2.json", "--flavor", "group"],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "cline-group-index2": (
        ["cline", "--in", "quad_classical_index2.json", "--flavor", "group"],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}

UNIT_TRANSFER = {
    "jacobson-gf5-unit": (
        ["jacobson", "--in", "quad_gf5_unit.json"],
        0,
        "5e2cfd84f1c7315b11ba928e50902f5d429b664fa70ee2a1814d0e2c56ba8225",
    ),
    "jacobson-gf5-not-unit": (
        ["jacobson", "--in", "quad_gf5_singular.json"],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "spectrum-q4-singular-b": (
        ["spectrum", "--in", "quad_q4_singular_b.json", "--lambdas", "1,-1,5/7,-3"],
        0,
        "aea589a56993eb75586d3d39ee5a82914d8a83143380bb87f1c9f75371c63ce5",
    ),
}

SEARCH = {
    "search-gf2-dim2-exhaustive": (
        ["search", "--ring", "gf2", "--dim", "2", "--strategy", "exhaustive"],
        0,
        "b2abe1483f83c90a4617b749c4f997f52a942f6d4bd2a59790c96cf021805a6a",
    ),
    "search-zmod4-dim2-linear-solve": (
        ["search", "--ring", "zmod4", "--dim", "2", "--strategy", "linear-solve",
         "--budget", "200"],
        0,
        "83b85198eecf05f64ed60c2f676c5cf9d3c065d2ee7bf7a2063a97db8357125b",
    ),
    "search-gf2-dim1-exhaustive": (
        ["search", "--ring", "gf2", "--dim", "1", "--strategy", "exhaustive"],
        0,
        "7ac26f6506146905f0f2aa44b0b58e33bedc1136a51671c1f8205e2402b65e32",
    ),
    "search-zmod4-dim1-exhaustive": (
        ["search", "--ring", "zmod4", "--dim", "1", "--strategy", "exhaustive"],
        0,
        "01fee8c5eec70bfbb7a7cfd00e4e8f116eefabde322eeb7174f73986e9c579dd",
    ),
    "search-gf3-dim1-exhaustive": (
        ["search", "--ring", "gf3", "--dim", "1", "--strategy", "exhaustive"],
        0,
        "e947676fa2d0e2a84232fa3def2737f42f9e07863ec8bfd1b2c8ca4360fc8154",
    ),
    "search-gf2-dim3-linear-solve": (
        ["search", "--ring", "gf2", "--dim", "3", "--strategy", "linear-solve",
         "--budget", "300", "--seed", "7"],
        0,
        "8e33c7c074ea3a62c70bf2bcff58c0451d1c06f7bc7b56c3d322d78ff60bed1d",
    ),
}

CASES = [pytest.param(*g, id=g[0][0]) for g in GOLDEN] + [
    pytest.param(*g, id=name)
    for name, g in (
        FLAVOR_AND_TRANSFER
        | INTEGER_INVERSE
        | SCALED_SPECTRUM
        | FLAVOR_CONSTRUCTION
        | UNIT_TRANSFER
        | SEARCH
    ).items()
]


@pytest.mark.parametrize("argv, exit_code, sha256", CASES)
def test_report_bytes_are_pinned(argv, exit_code, sha256, capsys, tmp_path):
    for name, payload in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    argv = [str(tmp_path / a) if a in INPUTS else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
        exit_code,
        sha256,
    )
