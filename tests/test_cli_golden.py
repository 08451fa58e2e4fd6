"""Golden CLI reports: exit code and stdout SHA-256 pinned per invocation.

The invocations cover the routes that the corpus under bench/ does not
reach: the Z-to-Q lift in spectrum and jacobson, the quadruple loader with
its rejection report in verify and cline, group-inverse construction over
Q, and the GF elimination route of solve_for_d (GF(3) 3x3 has 3^9
matrices, too many for the enumeration tables). The hashes were recorded
before the field elimination, the lift and the loader were each merged into
one routine, so a changed byte in any of these reports fails here.
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
    "quad_2.4.json": _quad(
        "Q",
        a=[[0, 1], [0, 0]],
        b=[[1, 0], [0, 0]],
        c=[[1, 0], [1, 1]],
        d=[[1, 1], [0, 0]],
    ),
    # Rank 2 and rank(A^2) = 2, so the index is 1 and a group inverse exists.
    "matrix_q_index1.json": {
        "ring": "Q",
        "rows": [["1/2", "1", "0"], ["1", "2", "0"], ["3", "-1/3", "1"]],
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


@pytest.mark.parametrize(
    "argv, exit_code, sha256", GOLDEN, ids=[g[0][0] for g in GOLDEN]
)
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
