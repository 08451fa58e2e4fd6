"""The CLI's declared surface: every subcommand, every flag, the refusals.

The parser pins record, for each subcommand in order, the attributes of
each argparse action (option strings, dest, default, type, choices,
required, metavar, help); unlike `--help` text they do not depend on the
terminal width or the Python version. The refusal pins record the exit
code and the one stderr line of refusals that no golden pin reaches.
Both were recorded before the parser was rebuilt from one table, so a
changed flag or a changed refusal byte fails here.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from drazinkit import cli
from drazinkit.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _matrix(ring, rows):
    return {"ring": ring, "rows": [[str(x) for x in row] for row in rows]}


_EYE = [[1, 0], [0, 1]]
_SHIFT = [[0, 1], [0, 0]]


def describe(action: argparse.Action) -> tuple:
    choices = action.choices
    return (
        tuple(action.option_strings),
        action.dest,
        action.default,
        action.type.__name__ if action.type is not None else None,
        list(choices) if choices is not None else None,
        action.required,
        action.metavar,
        action.help,
    )


def subcommand_action(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    # argparse exposes the subcommands only through its action list.
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False, None,
         "show this help message and exit")
_OUT = (("--out",), "out", None, None, None, False, None, "write the report to this path")
_IN = (("--in",), "infile", None, None, None, True, None, None)
_FLAVOR = (("--flavor",), "flavor", "drazin", None,
           ["drazin", "pdrazin", "gdrazin", "group"], False, None, None)
_RING = (("--ring",), "ring", None, None, ["gf2", "gf3", "zmod4"], True, None, None)

SUBCOMMANDS = [
    ("demo", "run a bundled demonstration instance"),
    ("verify", "check the intertwining relations"),
    ("drazin", "construct an inverse over a field"),
    ("cline", "inverse of bd from the inverse of ac, with certificates"),
    ("jacobson", "invert 1 - b(d/lambda) via 1 + b (1 - (a/lambda)c)^(-1) (d/lambda)"),
    ("spectrum", "compare nonzero eigenvalue sets of ac and bd"),
    ("search", "enumerate or sample quadruples"),
    ("oracle", "brute-force every flavor-inverse in a finite matrix ring"),
]

FLAGS = {
    "demo": [
        _HELP,
        (("--example",), "example", None, None, ["2.4", "2.5", "3.6"], True, None, None),
        _OUT,
    ],
    "verify": [_HELP, _IN, _OUT],
    "drazin": [_HELP, _IN, _FLAVOR, _OUT],
    "cline": [_HELP, _IN, _FLAVOR, _OUT],
    "jacobson": [
        _HELP,
        _IN,
        (("--lambda",), "lam", "1", None, None, False, "P/Q", None),
        _OUT,
    ],
    "spectrum": [
        _HELP,
        _IN,
        (("--lambdas",), "lambdas", None, None, None, False, None,
         "comma-separated nonzero rationals"),
        _OUT,
    ],
    "search": [
        _HELP,
        _RING,
        (("--dim",), "dim", 2, "int", None, False, None, None),
        (("--strategy",), "strategy", None, None, ["exhaustive", "linear-solve"],
         True, None, None),
        (("--budget",), "budget", None, "int", None, False, None, None),
        (("--seed",), "seed", 24301, "int", None, False, None, None),
        _OUT,
    ],
    "oracle": [_HELP, _IN, _RING, _FLAVOR, _OUT],
}


def test_top_level_parser_is_pinned():
    parser = cli._build_parser()
    sub = subcommand_action(parser)
    assert [describe(a) for a in parser._actions if a is not sub] == [_HELP]
    assert (sub.dest, sub.required) == ("command", True)
    assert [(c.dest, c.help) for c in sub._choices_actions] == SUBCOMMANDS
    assert list(sub.choices) == [name for name, _ in SUBCOMMANDS]


@pytest.mark.parametrize("name", list(FLAGS))
def test_subcommand_flags_are_pinned(name):
    parser = subcommand_action(cli._build_parser()).choices[name]
    assert [describe(a) for a in parser._actions] == FLAGS[name]


def _quad_q_identity(tmp):
    return write_json(tmp / "quad_q.json", {k: _matrix("Q", _EYE) for k in "abcd"})


# id -> (argv from a temporary directory, exit code, the stderr line).
REFUSALS = {
    "drazin-zmod4": (
        lambda tmp: ["drazin", "--in", write_json(tmp / "m.json", _matrix({"Zmod": 4}, _EYE))],
        1,
        {"error": "rejected", "detail": "construction requires a field coefficient "
         "ring, got Zmod(4); use the oracle command for finite rings"},
    ),
    "drazin-z": (
        lambda tmp: ["drazin", "--in", write_json(tmp / "m.json", _matrix("Z", _EYE))],
        1,
        {"error": "rejected", "detail": "construction requires a field coefficient "
         "ring, got Z; use the oracle command for finite rings"},
    ),
    "drazin-group-index-2": (
        lambda tmp: ["drazin", "--flavor", "group",
                     "--in", write_json(tmp / "m.json", _matrix("Q", _SHIFT))],
        1,
        {"error": "rejected", "detail": "no group inverse: index 2 exceeds 1"},
    ),
    "cline-z": (
        lambda tmp: ["cline", "--in", write_json(
            tmp / "q.json", {k: _matrix("Z", _EYE) for k in "abcd"})],
        1,
        {"error": "rejected", "detail": "no construction over Z: rerun over Q "
         "(field) or a finite ring (brute force)"},
    ),
    # a = d = [[0, 1], [0, 0]], b = c = 1 over Z/4: ac = a has index 2.
    "cline-group-zmod4": (
        lambda tmp: ["cline", "--flavor", "group", "--in", write_json(
            tmp / "q.json",
            {k: _matrix({"Zmod": 4}, _SHIFT if k in "ad" else _EYE) for k in "abcd"})],
        1,
        {"error": "rejected", "detail": "ac has no group inverse in this ring"},
    ),
    "jacobson-lambda-0": (
        lambda tmp: ["jacobson", "--lambda", "0", "--in", _quad_q_identity(tmp)],
        2,
        {"error": "malformed-input", "detail": "--lambda must be nonzero"},
    ),
    "jacobson-lambda-x": (
        lambda tmp: ["jacobson", "--lambda", "x", "--in", _quad_q_identity(tmp)],
        2,
        {"error": "malformed-input", "detail": "bad --lambda: not a rational literal: 'x'"},
    ),
    "spectrum-zero-lambda": (
        lambda tmp: ["spectrum", "--lambdas", "1,0", "--in", _quad_q_identity(tmp)],
        2,
        {"error": "malformed-input", "detail": "--lambdas entries must be nonzero"},
    ),
    "search-over-default-budget": (
        lambda tmp: ["search", "--ring", "gf3", "--dim", "2", "--strategy", "exhaustive"],
        1,
        {"error": "rejected", "detail": "exhaustive sweep needs 43046721 candidates, "
         "budget is 1000000"},
    ),
    "search-dim-0": (
        lambda tmp: ["search", "--ring", "gf2", "--dim", "0", "--strategy", "exhaustive"],
        2,
        {"error": "malformed-input", "detail": "dimension must be >= 1"},
    ),
    "oracle-fraction": (
        lambda tmp: ["oracle", "--ring", "zmod4",
                     "--in", write_json(tmp / "m.json", _matrix("Q", [["1/2"]]))],
        2,
        {"error": "malformed-input", "detail": "matrix ring Q does not embed in "
         "--ring Zmod(4)"},
    ),
}


@pytest.mark.parametrize("argv, code, error", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal_is_pinned(argv, code, error, capsys, tmp_path):
    assert run(capsys, *argv(tmp_path)) == (code, "", json.dumps(error, sort_keys=True) + "\n")


# Usage errors are malformed input: one JSON line on stderr, as every other
# exit 2 writes, where argparse would print its usage text. Each detail
# holds the given text; how argparse lists the valid choices after it, and
# which parser names an unrecognized argument, vary with the Python version.
USAGE_ERRORS = {
    "no-subcommand": ([], "drazinkit: the following arguments are required: command"),
    "unknown-subcommand": (
        ["invert"], "drazinkit: argument command: invalid choice: 'invert'",
    ),
    "missing-in": (["drazin"], "drazinkit drazin: the following arguments are required: --in"),
    "dim-not-an-integer": (
        ["search", "--ring", "gf2", "--dim", "x", "--strategy", "exhaustive"],
        "drazinkit search: argument --dim: invalid int value: 'x'",
    ),
    "unknown-choice": (
        ["demo", "--example", "9.9"],
        "drazinkit demo: argument --example: invalid choice: '9.9'",
    ),
    "unknown-flag": (
        ["demo", "--example", "2.5", "--verbose"],
        "unrecognized arguments: --verbose",
    ),
    "lambda-without-value": (
        ["jacobson", "--in", "quad.json", "--lambda"],
        "drazinkit jacobson: argument --lambda: expected one argument",
    ),
}


@pytest.mark.parametrize("argv, detail", USAGE_ERRORS.values(), ids=list(USAGE_ERRORS))
def test_usage_error_writes_one_error_object(argv, detail, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["error"] == "malformed-input" and detail in error["detail"]
    assert set(error) == {"error", "detail"}


@pytest.mark.parametrize("argv", [["--help"], ["search", "-h"]], ids=" ".join)
def test_help_exits_0_on_stdout(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: drazinkit")


@pytest.mark.parametrize("command, flag, value", [
    ("jacobson", "--lambda", "-1/2"),
    ("jacobson", "--lambda", "-3"),
    ("spectrum", "--lambdas", "-1,2"),
    ("spectrum", "--lambdas", "-1/2,-7"),
])
def test_signed_flag_value_reads_as_with_equals(command, flag, value, capsys, tmp_path):
    path = _quad_q_identity(tmp_path)
    attached = run(capsys, command, "--in", path, f"{flag}={value}")
    assert attached[0] == 0
    assert run(capsys, command, "--in", path, flag, value) == attached
    assert run(capsys, command, flag, value, "--in", path) == attached


@pytest.mark.parametrize("value", ["", ",", ",,"])
def test_empty_lambdas_is_malformed(value, capsys, tmp_path):
    error = {"error": "malformed-input", "detail": "--lambdas is empty"}
    argv = ["spectrum", "--in", _quad_q_identity(tmp_path), "--lambdas", value]
    assert run(capsys, *argv) == (2, "", json.dumps(error, sort_keys=True) + "\n")


def test_readme_documents_each_subcommand_in_table_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    headings = re.findall(r"^### (.+)$", section, flags=re.MULTILINE)
    assert headings == list(cli._COMMANDS)
