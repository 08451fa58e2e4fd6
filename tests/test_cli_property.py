"""Every subcommand, on generated flags and input files, keeps the exit-code
contract and never prints a traceback.

The subcommand and its flags come from `cli._COMMANDS`, so a subcommand or
flag added there is drawn here too (a flag with no value strategy below
fails the test). Input files cover Q, Z, prime, composite, pseudoprime and
unproven GF moduli, and Z/1, Z/6 and Z/12, at sizes 0 to 4, well-formed
or broken: non-string entries, 1/0, ragged rows, 5000-digit literals and
extra keys. `--out` is never drawn; `search` always gets a `--budget`
between 1 and 20, so each call stays small.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinkit import cli
from drazinkit.matrix_rings import _MR_PROVEN_BELOW

RINGS = ["Q", "Z", {"GF": 2}, {"GF": 3}, {"GF": 5}, {"Zmod": 6}, {"Zmod": 12}]
REFUSED_RINGS = [
    {"GF": 4}, {"GF": 9}, {"GF": 15},
    {"GF": 318665857834031151167461},  # a strong pseudoprime to bases 2..37
    {"GF": _MR_PROVEN_BELOW},
    {"Zmod": 1},
]

_HUGE = "7" * 5000  # over the interpreter's 4300-digit int() limit

rational = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
bad_cell = st.sampled_from([1, None, [], 0.5, "1/0", "x", "", _HUGE, "1/" + _HUGE])


def cells(ring):
    """Entries as the ring's own literals: rationals over Q, integers over
    Z, residues below the modulus (at most 6 of them) over GF and Z/m."""
    if ring == "Q":
        return rational
    if ring == "Z":
        return st.integers(-3, 3).map(str)
    (modulus,) = ring.values()
    return st.integers(0, min(modulus, 6) - 1).map(str)


def sometimes(strategy, then):
    """then(x) for about one draw in eight, x unchanged otherwise."""
    return st.tuples(strategy, st.sampled_from([False] * 7 + [True])).flatmap(
        lambda xb: then(xb[0]) if xb[1] else st.just(xb[0])
    )


def matrices(ring, n):
    row = st.lists(cells(ring), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(lambda rows: {"ring": ring, "rows": rows})


@st.composite
def quadruples(draw, ring, n):
    a, b, c, d = (draw(matrices(ring, n)) for _ in range(4))
    # The classical quadruple (a, b, b, a) always intertwines, so well-formed
    # files reach the constructions as often as the rejections.
    return {"a": a, "b": b, "c": b, "d": a} if draw(st.booleans()) else {
        "a": a, "b": b, "c": c, "d": d}


# One fault in about one input file in three.
FAULTS = [None] * 10 + ["cell", "ragged", "extra-key", "shape", "text"]


@st.composite
def input_files(draw, command, ring_flag):
    """The text of a matrix file for drazin and oracle, of a quadruple file
    for the rest, with at most one fault; the ring of a --ring flag is drawn
    as often as all the others together."""
    rings = RINGS
    if ring_flag in cli._RING_FLAGS:
        rings = rings + [cli._RING_FLAGS[ring_flag].to_json()] * len(rings)
    ring = draw(sometimes(st.sampled_from(rings), lambda _: st.sampled_from(REFUSED_RINGS)))
    n = draw(st.integers(0, 4))
    shapes = [matrices(ring, n), quadruples(ring, n)]
    if command not in ("drazin", "oracle"):
        shapes.reverse()
    fault = draw(st.sampled_from(FAULTS))
    if fault == "text":
        return draw(st.sampled_from(["{", "null", "[]", '{"a": 1']))
    doc = draw(shapes[fault == "shape"])
    if fault == "extra-key":
        doc["e"] = 1
    elif fault in ("cell", "ragged") and n:
        matrix = doc[draw(st.sampled_from("abcd"))] if "a" in doc else doc
        rows = matrix["rows"] = [list(row) for row in matrix["rows"]]
        if fault == "ragged":
            rows[-1].pop()
        else:
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(bad_cell)
    return json.dumps(doc)


FLAG_VALUES = {
    "--dim": st.integers(-1, 4).map(str),
    "--budget": st.integers(1, 20).map(str),
    "--seed": st.integers(0, 99).map(str),
    "--lambda": st.one_of(rational, st.sampled_from(["0", "x", "", "1/0", _HUGE])),
    "--lambdas": st.lists(st.one_of(rational, st.sampled_from(["0", "x", ""])),
                          max_size=4).map(",".join),
}


@st.composite
def invocations(draw):
    """(argv, input file text or None) for one drawn subcommand."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, flags = cli._COMMANDS[command]
    values = {}
    for flag, kwargs in flags:
        required = kwargs.get("required") or flag == "--budget"
        if not required and not draw(st.booleans()):
            continue
        if kwargs.get("dest") == "infile":
            values[flag] = None  # the file's path, once it is written
        elif "choices" in kwargs:
            values[flag] = draw(sometimes(st.sampled_from(list(kwargs["choices"])),
                                          lambda _: st.just("bogus")))
        else:
            values[flag] = draw(FLAG_VALUES[flag])
    text = None
    if "--in" in values:
        text = draw(input_files(command, values.get("--ring")))
    return [command] + [x for kv in values.items() for x in kv if x is not None], text


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property") / "input.json"


@settings(max_examples=250)
@given(invocations())
def test_every_subcommand_keeps_the_exit_contract(input_path, invocation):
    argv, text = invocation
    if text is not None:
        input_path.write_text(text, encoding="utf-8")
        at = argv.index("--in") + 1
        argv = argv[:at] + [str(input_path)] + argv[at:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    if code == 0:
        assert err == ""
    elif code == 1:
        assert len(lines) <= 1
    else:
        assert len(lines) == 1
    for line in lines:
        assert set(json.loads(line)) == {"error", "detail"}
