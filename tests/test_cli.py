"""End-to-end command tests: exit codes, report shapes, determinism."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import drazinkit
from drazinkit.cli import main
from drazinkit.drazin_core import Flavor, flavor_inverse, verify_axioms
from drazinkit.errors import FormulaViolation
from drazinkit.fixtures import example_matrices, example_quadruple
from drazinkit.matrix_rings import (
    RING_Q,
    SquareMatrix,
    _berkowitz,
    gf,
    matrix_from_json,
    matrix_to_json,
    zmod,
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def quad_file(tmp_path, example: str) -> str:
    mats = example_matrices(example)
    payload = {k: matrix_to_json(v) for k, v in mats.items()}
    return write_json(tmp_path / f"quad_{example}.json", payload)


def walk_matrices(node):
    """Yield every embedded matrix JSON object in a report."""
    if isinstance(node, dict):
        if set(node) == {"ring", "rows"}:
            yield node
        else:
            for value in node.values():
                yield from walk_matrices(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_matrices(value)


class TestDemo:
    def test_first_instance_rejects(self, capsys):
        code, out, _ = run(capsys, "demo", "--example", "2.4")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "rejected"
        first = report["intertwining"]["relations"][0]
        assert first["left"]["rows"] == [["1", "0"], ["0", "0"]]
        assert first["right"]["rows"] == [["1", "1"], ["0", "0"]]

    def test_second_instance_accepts(self, capsys):
        code, out, _ = run(capsys, "demo", "--example", "2.5")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "accepted"
        assert report["classification"] == "index-2"
        assert report["jacobson"]["one_minus_ac_invertible"] is False

    def test_integer_instance_accepts(self, capsys):
        code, out, _ = run(capsys, "demo", "--example", "3.6")
        assert code == 0
        report = json.loads(out)
        assert report["ac"]["rows"] == [["0", "0"], ["0", "0"]]
        assert report["bd"]["rows"] == [["0", "2"], ["0", "0"]]
        assert report["bd_group_inverse"]["exists"] is False

    def test_unknown_example_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "demo", "--example", "9.9")
        assert code == 2


class TestVerify:
    def test_valid_quadruple(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--in", quad_file(tmp_path, "2.5"))
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_invalid_quadruple(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--in", quad_file(tmp_path, "2.4"))
        assert code == 1
        assert json.loads(out)["accepted"] is False

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense", encoding="utf-8")
        code, _, err = run(capsys, "verify", "--in", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "malformed-input"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
        assert code == 2

    def test_wrong_keys(self, capsys, tmp_path):
        payload = {"a": matrix_to_json(SquareMatrix.identity(RING_Q, 1))}
        path = write_json(tmp_path / "partial.json", payload)
        code, _, err = run(capsys, "verify", "--in", path)
        assert code == 2

    def test_mismatched_rings(self, capsys, tmp_path):
        eye_q = matrix_to_json(SquareMatrix.identity(RING_Q, 2))
        eye_4 = matrix_to_json(SquareMatrix.identity(zmod(4), 2))
        path = write_json(
            tmp_path / "mixed.json",
            {"a": eye_q, "b": eye_4, "c": eye_q, "d": eye_q},
        )
        code, _, err = run(capsys, "verify", "--in", path)
        assert code == 2


class TestDrazin:
    def test_identity_three(self, capsys, tmp_path):
        eye = SquareMatrix.identity(RING_Q, 3)
        path = write_json(tmp_path / "eye.json", matrix_to_json(eye))
        code, out, _ = run(capsys, "drazin", "--in", path)
        assert code == 0
        report = json.loads(out)
        assert report["inverse"] == matrix_to_json(eye)
        assert report["index"] == 0 and report["valid"] is True

    def test_group_flavor_rejects_higher_index(self, capsys, tmp_path):
        shift = SquareMatrix(RING_Q, [[0, 1], [0, 0]])
        path = write_json(tmp_path / "shift.json", matrix_to_json(shift))
        code, _, err = run(capsys, "drazin", "--in", path, "--flavor", "group")
        assert code == 1
        assert "group" in json.loads(err)["detail"]

    def test_group_refusal_names_the_index(self, capsys, tmp_path):
        # The matrix of the drazin-group-index2 golden pin: ranks 3, 2, 1, 1.
        path = write_json(
            tmp_path / "index2.json",
            {"ring": "Q", "rows": [["0", "1", "2"], ["0", "0", "3"], ["0", "0", "1"]]},
        )
        code, out, err = run(capsys, "drazin", "--in", path, "--flavor", "group")
        assert (code, out) == (1, "")
        assert json.loads(err)["detail"] == "no group inverse: index 2 exceeds 1"

    def test_finite_ring_routed_to_oracle_command(self, capsys, tmp_path):
        two = SquareMatrix(zmod(4), [[2]])
        path = write_json(tmp_path / "two.json", matrix_to_json(two))
        code, _, err = run(capsys, "drazin", "--in", path)
        assert code == 1
        assert "oracle" in json.loads(err)["detail"]

    def test_huge_modulus_over_the_enumeration_budget(self, capsys, tmp_path):
        # M3(Z/m) with a 1501-digit m: m^9 would have more digits than
        # str() prints, so the refusal writes the count as a power.
        big = 10**1500 + 1
        eye = matrix_to_json(SquareMatrix.identity(zmod(big), 3))
        path = write_json(tmp_path / "quad_big.json", {k: eye for k in "abcd"})
        code, out, err = run(capsys, "cline", "--in", path)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["detail"] == (
            f"Zmod({big}) dimension 3 has {big}^9 matrices, over the "
            "512-element enumeration budget"
        )

    def test_gdrazin_over_gf5(self, capsys, tmp_path):
        # GF(5) 2x2 has 625 matrices, past the 512-element enumeration
        # tables; the g-Drazin core is checked by nilpotency instead.
        path = write_json(
            tmp_path / "gf5.json",
            {"ring": {"GF": 5}, "rows": [["1", "2"], ["2", "4"]]},
        )
        code, out, _ = run(capsys, "drazin", "--in", path, "--flavor", "gdrazin")
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is True
        assert {"check": "core-qnil", "pass": True, "witness": "(a - a^2 x)^2 = 0"} in (
            report["transcript"]
        )


class TestCline:
    def test_second_instance(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cline", "--in", quad_file(tmp_path, "2.5"))
        assert code == 0
        report = json.loads(out)
        assert report["index_bound_holds"] is True
        assert report["bd_certificate"]["index"] == 2

    def test_integer_instance_uses_brute_force(self, capsys, tmp_path):
        # M2(Z) has no construction; the command reports that honestly
        code, _, err = run(capsys, "cline", "--in", quad_file(tmp_path, "3.6"))
        assert code == 1

    def test_rejected_quadruple_prints_report(self, capsys, tmp_path):
        code, out, err = run(capsys, "cline", "--in", quad_file(tmp_path, "2.4"))
        assert code == 1
        assert json.loads(out)["accepted"] is False

    def test_finite_ring_over_the_enumeration_budget(self, capsys, tmp_path):
        # M2(Z/6) has 1296 matrices, over the 512-element brute-force tables.
        eye = matrix_to_json(SquareMatrix.identity(zmod(6), 2))
        path = write_json(tmp_path / "quad_z6.json", {k: eye for k in "abcd"})
        code, out, err = run(capsys, "cline", "--in", path)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "rejected",
            "detail": "Zmod(6) dimension 2 has 1296 matrices, over the "
            "512-element enumeration budget",
        }

    def test_gdrazin_over_gf5(self, capsys, tmp_path):
        # A classical (a, b, b, a) quadruple over GF(5): both certificates
        # check the g-Drazin core without the 512-element tables.
        a = [["1", "2"], ["3", "4"]]
        b = [["0", "1"], ["1", "1"]]
        ring = {"GF": 5}
        path = write_json(
            tmp_path / "quad_gf5.json",
            {k: {"ring": ring, "rows": rows} for k, rows in zip("abcd", (a, b, b, a))},
        )
        code, out, _ = run(capsys, "cline", "--in", path, "--flavor", "gdrazin")
        assert code == 0
        report = json.loads(out)
        assert report["ac_certificate"]["valid"] is True
        assert report["bd_certificate"]["valid"] is True


class TestJacobson:
    def test_default_lambda_on_integer_instance(self, capsys, tmp_path):
        code, out, _ = run(capsys, "jacobson", "--in", quad_file(tmp_path, "3.6"))
        assert code == 0
        report = json.loads(out)
        assert report["one_minus_bd_inverse"]["rows"] == [["1", "2"], ["0", "1"]]

    def test_scaling_lambda(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "jacobson", "--in", quad_file(tmp_path, "2.5"),
            "--lambda", "2",
        )
        assert code == 0
        assert json.loads(out)["lambda"] == "2"

    def test_singular_hypothesis(self, capsys, tmp_path):
        code, _, err = run(capsys, "jacobson", "--in", quad_file(tmp_path, "2.5"))
        assert code == 1

    def test_zero_lambda_is_malformed(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "jacobson", "--in", quad_file(tmp_path, "2.5"),
            "--lambda", "0",
        )
        assert code == 2


_HUGE = "7" * 5000  # over the interpreter's 4300-digit int() limit

# Each of these ended in a Python traceback instead of exit 2.
UNREADABLE_INPUTS = {
    "q-entry": (["drazin"], json.dumps({"ring": "Q", "rows": [[_HUGE]]})),
    "zmod4-entry": (
        ["drazin"], json.dumps({"ring": {"Zmod": 4}, "rows": [[_HUGE]]}),
    ),
    "q-denominator": (
        ["drazin"], json.dumps({"ring": "Q", "rows": [["1/" + _HUGE]]}),
    ),
    "json-integer": (["drazin"], '{"ring": "Q", "rows": [[' + _HUGE + "]]}"),
    "json-nesting": (["drazin"], "[" * 200_000 + "]" * 200_000),
    "not-utf8": (["drazin"], b"\xff\xfe{"),
    "lambda": (
        ["jacobson", "--lambda", _HUGE],
        json.dumps(
            {k: matrix_to_json(SquareMatrix.zeros(RING_Q, 1)) for k in "abcd"}
        ),
    ),
}


@pytest.mark.parametrize(
    "command, text", UNREADABLE_INPUTS.values(), ids=list(UNREADABLE_INPUTS)
)
def test_unreadable_input_is_malformed(command, text, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, out, err = run(capsys, command[0], "--in", str(path), *command[1:])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "malformed-input"


# A GF modulus that is not proven prime is malformed input, as {"GF": 4} is.
# 318665857834031151167461 = 399165290221 * 798330580441 passes Miller-Rabin
# on every prime base up to 37; over it as a field, elimination would meet
# the non-invertible pivot 399165290221. 3317044064679887385961981 passes
# every prime base up to 41, the last base used, so its primality is
# unproven.
NOT_A_FIELD = {
    "composite": (4, "must be prime"),
    "pseudoprime-to-37": (318665857834031151167461, "must be prime"),
    "pseudoprime-to-41": (3317044064679887385961981, "unproven"),
}


@pytest.mark.parametrize("modulus, detail", NOT_A_FIELD.values(), ids=list(NOT_A_FIELD))
def test_gf_modulus_not_proven_prime_is_malformed(modulus, detail, capsys, tmp_path):
    matrix = {"ring": {"GF": modulus}, "rows": [["399165290221", "0"], ["0", "1"]]}
    code, out, err = run(capsys, "drazin", "--in", write_json(tmp_path / "m.json", matrix))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == "malformed-input" and detail in report["detail"]


def long_rational(text: str) -> Fraction:
    """A printed "p" or "p/q" of any length, read in chunks of 500 digits
    so the interpreter's digit limit stays as it is."""
    def long_int(digits: str) -> int:
        sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
        value = 0
        for start in range(0, len(digits), 500):
            chunk = digits[start:start + 500]
            value = value * 10 ** len(chunk) + int(chunk)
        return sign * value

    num, _, den = text.partition("/")
    return Fraction(long_int(num), long_int(den) if den else 1)


def test_result_over_the_digit_limit_is_printed_exactly(capsys, tmp_path):
    # x has 2500 digits, within the input limit; the inverse's denominator
    # x^2 - 1 has 5000, over the 4300 digits str() writes.
    x = 10**2500 - 1
    path = write_json(
        tmp_path / "big.json", {"ring": "Q", "rows": [[str(x), "1"], ["1", str(x)]]}
    )
    code, out, err = run(capsys, "drazin", "--in", path)
    assert (code, err) == (0, "")
    rows = json.loads(out)["inverse"]["rows"]
    det = x * x - 1
    expected = [[Fraction(x, det), Fraction(-1, det)], [Fraction(-1, det), Fraction(x, det)]]
    assert [[long_rational(cell) for cell in row] for row in rows] == expected


def test_integer_products_over_the_digit_limit_are_printed_exactly(capsys, tmp_path):
    # a = b = c = d = [[x, x], [x, x]] over Z satisfies both relations; the
    # reported products have 7500 digits.
    x = 10**2500 - 1
    m = {"ring": "Z", "rows": [[str(x)] * 2] * 2}
    path = write_json(tmp_path / "bigz.json", {k: m for k in "abcd"})
    code, out, err = run(capsys, "verify", "--in", path)
    assert (code, err) == (0, "")
    cube = 4 * x**3
    for relation in json.loads(out)["relations"]:
        for side in ("left", "right"):
            cells = [c for row in relation[side]["rows"] for c in row]
            assert [long_rational(c) for c in cells] == [cube] * 4


def _bumped_berkowitz(rows, m=None):
    """The characteristic polynomial with its constant coefficient bumped."""
    cs = _berkowitz(rows, m)
    cs[-1] += 1
    return cs if m is None else [c % m for c in cs]


def _raise_formula_violation(*args, **kwargs):
    raise FormulaViolation("injected")


def _drazin_candidates_plus_one(a, x, flavor):
    """Certifies each Drazin candidate with the identity added to it; the
    group candidates that cline constructs for ac are certified as they are."""
    if flavor is Flavor.DRAZIN:
        x = x + SquareMatrix.identity(x.ring, x.n)
    return verify_axioms(a, x, flavor)


def _index_understated(a, flavor):
    """The constructed certificate with its index understated as 0."""
    return replace(flavor_inverse(a, flavor), index=0)


# Each case makes an internal check fail: a wrong construction that the
# certificate re-verification catches, or a FormulaViolation raised inside
# a call whose other DrazinkitErrors mean malformed input.
INTERNAL_FAULTS = {
    "drazin-construction": (
        "drazinkit.drazin_core._berkowitz", _bumped_berkowitz,
        lambda tmp: ["drazin", "--in", write_json(
            tmp / "m.json", matrix_to_json(SquareMatrix.identity(RING_Q, 2)))],
    ),
    "cline-construction": (
        "drazinkit.drazin_core._berkowitz", _bumped_berkowitz,
        lambda tmp: ["cline", "--in", quad_file(tmp, "2.5")],
    ),
    # On instance 2.5, bd is nilpotent and b h^2 d = 0; the identity fails
    # x bd x = x there.
    "cline-transfer": (
        "drazinkit.drazin_core.verify_axioms", _drazin_candidates_plus_one,
        lambda tmp: ["cline", "--flavor", "group", "--in", quad_file(tmp, "2.5")],
    ),
    # On instance 2.5, bd has index 2, over the bound 0 + 1.
    "cline-index-bound": (
        "drazinkit.drazin_core.flavor_inverse", _index_understated,
        lambda tmp: ["cline", "--in", quad_file(tmp, "2.5")],
    ),
    "load": (
        "drazinkit.cli.matrix_from_json", _raise_formula_violation,
        lambda tmp: ["drazin", "--in", write_json(
            tmp / "m.json", matrix_to_json(SquareMatrix.identity(RING_Q, 2)))],
    ),
    "search-space": (
        "drazinkit.cli.SearchSpace", _raise_formula_violation,
        lambda tmp: ["search", "--ring", "gf2", "--dim", "1", "--strategy", "exhaustive"],
    ),
    # lambda - ac is proven a unit at every lambda but the eigenvalue 1, so
    # a singular lambda - bd there contradicts the unit transfer.
    "spectrum-det": (
        "drazinkit.spectral.det", lambda v: 0,
        lambda tmp: ["spectrum", "--in", quad_file(tmp, "2.5")],
    ),
}


@pytest.mark.parametrize(
    "target, fake, argv", INTERNAL_FAULTS.values(), ids=list(INTERNAL_FAULTS)
)
def test_internal_check_failure_exits_3(target, fake, argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(target, fake)
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "internal-error"
    assert "Traceback" not in err


class TestSpectrum:
    def test_second_instance(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spectrum", "--in", quad_file(tmp_path, "2.5"))
        assert code == 0
        report = json.loads(out)
        assert report["transfer"]["all_hold"] is True
        assert report["comparison"]["equal"] is False

    def test_explicit_lambdas(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "spectrum", "--in", quad_file(tmp_path, "3.6"),
            "--lambdas", "1,-1,3/2",
        )
        assert code == 0
        assert len(json.loads(out)["transfer"]["rows"]) == 3

    def test_zero_lambda_rejected(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "spectrum", "--in", quad_file(tmp_path, "2.5"),
            "--lambdas", "0,1",
        )
        assert code == 2

    def test_root_search_over_budget_is_rejected_up_front(self, capsys, tmp_path):
        # ac = [[10^30 + 57]]: the rational root bound would trial-divide
        # up to 10^15 before the budget; an explicit --lambdas skips it.
        big = {"ring": "Q", "rows": [["1000000000000000000000000000057"]]}
        one = {"ring": "Q", "rows": [["1"]]}
        quad = {"a": big, "b": one, "c": one, "d": big}
        path = write_json(tmp_path / "big.json", quad)
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "--in", path)
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "rejected"
        code, out, _ = run(capsys, "spectrum", "--in", path, "--lambdas", "1,2")
        assert code == 0
        assert len(json.loads(out)["transfer"]["rows"]) == 2


class TestSearch:
    def test_exhaustive_scalar_gf2(self, capsys):
        code, out, _ = run(
            capsys, "search", "--ring", "gf2", "--dim", "1",
            "--strategy", "exhaustive",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1] == {"quadruples": 11}
        assert len(lines) == 12

    def test_budget_guard(self, capsys):
        code, _, err = run(
            capsys, "search", "--ring", "gf3", "--dim", "2",
            "--strategy", "exhaustive", "--budget", "100",
        )
        assert code == 1

    def test_linear_solve_dimension_over_the_unknown_cap(self, capsys):
        # MAX_SOLVE_UNKNOWNS is 64, so 9 is the smallest dimension over it.
        code, out, err = run(
            capsys, "search", "--ring", "gf2", "--dim", "9",
            "--strategy", "linear-solve", "--budget", "1",
        )
        assert code == 1
        assert "linear solve needs 81 unknowns, budget is 64" in out + err

    def test_linear_solve_deterministic(self, capsys):
        args = ("search", "--ring", "zmod4", "--dim", "2",
                "--strategy", "linear-solve", "--budget", "12", "--seed", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    SEEDED_SEARCH = ("search", "--ring", "zmod4", "--dim", "2",
                     "--strategy", "linear-solve", "--budget", "12", "--seed", "3")

    def test_seed_comes_from_the_flag_alone(self, capsys, monkeypatch):
        # The environment is no second source of the seed: the same command
        # line prints the same bytes whatever DRAZINKIT_SEED holds.
        baseline = run(capsys, *self.SEEDED_SEARCH)[:2]
        assert baseline[0] == 0
        monkeypatch.setenv("DRAZINKIT_SEED", "99")
        assert run(capsys, *self.SEEDED_SEARCH)[:2] == baseline

    def test_non_integer_env_seed_is_not_read(self, capsys, monkeypatch):
        # A value that is no integer is not parsed either, so it cannot turn
        # a valid command line into a malformed one.
        baseline = run(capsys, *self.SEEDED_SEARCH)[:2]
        assert baseline[0] == 0
        monkeypatch.setenv("DRAZINKIT_SEED", "pi")
        assert run(capsys, *self.SEEDED_SEARCH)[:2] == baseline

    def test_quadruple_refused_on_revalidation_is_internal(self, capsys, monkeypatch):
        # A d from solve_for_d that fails the relations is a solver bug, not
        # a rejected hypothesis: exit 3 after the quadruples already printed.
        monkeypatch.setattr(
            "drazinkit.quadruple_lab.solve_for_d",
            lambda a, b, c, budget: [SquareMatrix.identity(a.ring, a.n)],
        )
        code, _, err = run(
            capsys, "search", "--ring", "gf2", "--dim", "1",
            "--strategy", "exhaustive",
        )
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "internal-error"

    def test_every_emitted_quadruple_revalidates(self, capsys):
        from drazinkit.drazin_core import Quadruple

        code, out, _ = run(
            capsys, "search", "--ring", "gf2", "--dim", "2",
            "--strategy", "linear-solve", "--budget", "10",
        )
        assert code == 0
        lines = out.splitlines()
        for line in lines[:-1]:
            Quadruple.from_json(json.loads(line))


class TestOracle:
    def test_pdrazin_of_radical_scalar_matrix(self, capsys, tmp_path):
        two_eye = SquareMatrix(zmod(4), [[2, 0], [0, 2]])
        path = write_json(tmp_path / "m.json", matrix_to_json(two_eye))
        code, out, _ = run(
            capsys, "oracle", "--in", path, "--ring", "zmod4",
            "--flavor", "pdrazin",
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 1
        assert report["certificates"][0]["inverse"]["rows"] == [
            ["0", "0"], ["0", "0"],
        ]

    def test_integer_entries_embed_into_target_ring(self, capsys, tmp_path):
        from drazinkit.matrix_rings import RING_Z

        two = SquareMatrix(RING_Z, [[2]])
        path = write_json(tmp_path / "z.json", matrix_to_json(two))
        code, out, _ = run(
            capsys, "oracle", "--in", path, "--ring", "zmod4",
            "--flavor", "pdrazin",
        )
        assert code == 0
        assert json.loads(out)["element"]["ring"] == {"Zmod": 4}

    def test_empty_result_is_a_rejection(self, capsys, tmp_path):
        shift = SquareMatrix(zmod(4), [[0, 1], [0, 0]])
        path = write_json(tmp_path / "shift.json", matrix_to_json(shift))
        code, out, _ = run(
            capsys, "oracle", "--in", path, "--ring", "zmod4",
            "--flavor", "group",
        )
        assert code == 1
        assert json.loads(out)["count"] == 0

    def test_space_over_the_enumeration_budget(self, capsys, tmp_path):
        # M3(GF(3)) has 19683 matrices, over the 512-element tables.
        eye = SquareMatrix.identity(gf(3), 3)
        path = write_json(tmp_path / "eye3.json", matrix_to_json(eye))
        code, out, err = run(capsys, "oracle", "--in", path, "--ring", "gf3")
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "rejected",
            "detail": "GF(3) dimension 3 has 19683 matrices, over the "
            "512-element enumeration budget",
        }

    def test_fractional_entries_do_not_embed(self, capsys, tmp_path):
        half = SquareMatrix(RING_Q, [[0.5]])
        path = write_json(tmp_path / "half.json", matrix_to_json(half))
        code, _, err = run(
            capsys, "oracle", "--in", path, "--ring", "zmod4",
        )
        assert code == 2


class TestReportInvariants:
    @pytest.mark.parametrize("example", ["2.4", "2.5", "3.6"])
    def test_every_printed_matrix_reparses(self, capsys, example):
        _, out, _ = run(capsys, "demo", "--example", example)
        report = json.loads(out)
        seen = 0
        for blob in walk_matrices(report):
            reparsed = matrix_from_json(blob)
            assert matrix_to_json(reparsed) == blob
            seen += 1
        assert seen > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("demo", "--example", "2.5"),
            ("demo", "--example", "3.6"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_spectrum_byte_identical(self, capsys, tmp_path):
        path = quad_file(tmp_path, "2.5")
        _, first, _ = run(capsys, "spectrum", "--in", path)
        _, second, _ = run(capsys, "spectrum", "--in", path)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "demo", "--example", "2.5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["verdict"] == (
            "accepted"
        )

    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ("demo", "--example", "2.5"),
    ("demo", "--example", "2.4"),
    ("search", "--ring", "gf2", "--dim", "2", "--strategy", "exhaustive"),
], ids=" ".join)
def test_closed_stdout_exits_quietly(argv):
    # The read end of the child's stdout is closed before the child starts,
    # so its first write to the pipe fails whatever the output size, as in
    # `drazinkit demo | head -c 10` once head has exited.
    src = os.path.dirname(os.path.dirname(drazinkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "drazinkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("command", ["search", "oracle"])
def test_huge_dimension_is_refused_without_a_traceback(command, tmp_path):
    # M120(GF(2)) has 2^14400 matrices; a count with 4335 digits is past
    # Python's integer-to-text limit, so the refusal writes it as a power.
    src = os.path.dirname(os.path.dirname(drazinkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if command == "search":
        argv = ["search", "--ring", "gf2", "--dim", "120", "--strategy", "exhaustive"]
    else:
        zero = matrix_to_json(SquareMatrix.zeros(gf(2), 120))
        argv = ["oracle", "--in", write_json(tmp_path / "zero.json", zero), "--ring", "gf2"]
    proc = subprocess.run(
        [sys.executable, "-m", "drazinkit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "rejected",
        "detail": "GF(2) dimension 120 has 2^14400 matrices, over the "
        "512-element enumeration budget",
    }


def test_package_runs_as_a_module():
    # From a source checkout, with src on the path and nothing installed,
    # python -m drazinkit is the CLI of python -m drazinkit.cli, byte for byte.
    src = os.path.dirname(os.path.dirname(drazinkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "demo", "--example", "2.5"],
            capture_output=True,
            env=env,
            timeout=120,
        )
        for module in ("drazinkit", "drazinkit.cli")
    ]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"{")


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_module(argv, env_extra=None) -> subprocess.CompletedProcess:
    """python -m drazinkit in a fresh process, from the repository root,
    with src on the path and DRAZINKIT_SEED unset unless env_extra sets it."""
    env = dict(os.environ)
    env.pop("DRAZINKIT_SEED", None)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "drazinkit", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )


def _z4(rows):
    return {"ring": {"Zmod": 4}, "rows": rows}


def _q(rows):
    return {"ring": "Q", "rows": rows}


_Z6_EYE = {"ring": {"Zmod": 6}, "rows": [["1", "0"], ["0", "1"]]}
_Q2_A = _q([["1/2", "1"], ["0", "1/3"]])
_Q2_B = _q([["1", "0"], ["1", "1"]])

# Inputs written to a temporary directory; "{name}" in an argv names one.
CONSOLE_INPUTS = {
    # Line 3 of search --ring zmod4 --dim 2 --strategy linear-solve
    # --budget 40 --seed 3: the residue-ring route of the resolvent.
    "quad_z4": {
        "a": _z4([["0", "2"], ["2", "2"]]), "b": _z4([["1", "3"], ["3", "3"]]),
        "c": _z4([["3", "0"], ["2", "3"]]), "d": _z4([["0", "2"], ["1", "1"]]),
    },
    "gf2_3x3": {"ring": {"GF": 2}, "rows": [["1", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
    # The classical Q quadruple a = d, b = c: ac = [[3/2, 1], [1/3, 1/3]].
    "quad_q2": {"a": _Q2_A, "b": _Q2_B, "c": _Q2_B, "d": _Q2_A},
    "quad_z6": {k: _Z6_EYE for k in "abcd"},
}


def _jacobson_z4(out, err):
    rows = json.loads(out)["one_minus_bd_inverse"]["rows"]
    assert rows == [["0", "1"], ["3", "2"]], rows


def _last_line(expected):
    def check(out, err):
        assert out.splitlines()[-1] == expected
    return check


def _spectrum_q3(out, err):
    # lambda - ac is singular at -11 and 5, the rows whose bd verdict the
    # elimination determinant cross-checks; both sides are units at the
    # seven default lambdas.
    rows = json.loads(out)["transfer"]["rows"]
    sides = {
        r["lambda"]: (r["one_minus_ac_invertible"], r["one_minus_bd_invertible"])
        for r in rows
    }
    default = ["1", "-1", "2", "1/2", "3", "-3", "5/7"]
    assert sorted(sides) == sorted(default + ["-11", "5"]), sides
    assert all(sides[lam] == (True, True) for lam in default), sides
    assert sides["-11"] == sides["5"] == (False, False), sides


def _spectrum_q2(out, err):
    # Trace 11/6 and det 1/6, written as monic rationals from primitive forms.
    cmp = json.loads(out)["comparison"]
    want = ["1/6", "-11/6", "1"]
    assert cmp["left"]["char_poly"] == want, cmp["left"]
    assert cmp["left"]["nonzero_part_squarefree"] == want, cmp["left"]
    assert cmp["equal"] is True and cmp["multiplicity_equal"] is True, cmp


def _cline_pdrazin(out, err):
    # Both p-Drazin certificates read their index off the one core walk.
    r = json.loads(out)
    certs = [r["ac_certificate"], r["bd_certificate"]]
    assert [(c["valid"], c["index"]) for c in certs] == [(True, 1), (True, 1)], certs


def _no_traceback(out, err):
    assert "Traceback" not in err


_SEEDED_SEARCH = ["search", "--ring", "zmod4", "--dim", "2", "--strategy", "linear-solve",
                  "--budget", "12", "--seed", "3"]


def _seed_flag_alone(out, err):
    # --seed alone seeds a search; the environment does not.
    plain = run_module(_SEEDED_SEARCH)
    assert plain.returncode == 0 and out == plain.stdout


# id: (argv, extra environment, exit code, check of (stdout, stderr) or None)
CONSOLE_RUNS = {
    "demo-3.6": (["demo", "--example", "3.6"], None, 0, None),
    "demo-2.4-rejected": (["demo", "--example", "2.4"], None, 1, None),
    "jacobson-q3": (
        ["jacobson", "--in", "bench/corpus/quad_q3.json", "--lambda", "5/7"], None, 0, None),
    "jacobson-gf5": (["jacobson", "--in", "bench/corpus/quad_gf5.json"], None, 0, None),
    "jacobson-zmod4": (["jacobson", "--in", "{quad_z4}"], None, 0, _jacobson_z4),
    "oracle-gf2": (
        ["oracle", "--in", "{gf2_3x3}", "--ring", "gf2", "--flavor", "drazin"], None, 0, None),
    "oracle-zmod4": (
        ["oracle", "--in", "bench/corpus/matrix_zmod4.json", "--ring", "zmod4",
         "--flavor", "pdrazin"], None, 0, None),
    # Dimension 9 has 81 unknowns, over MAX_SOLVE_UNKNOWNS = 64.
    "search-over-solve-limit": (
        ["search", "--ring", "gf2", "--dim", "9", "--strategy", "linear-solve",
         "--budget", "1"], None, 1, None),
    "search-exhaustive-gf2": (
        ["search", "--ring", "gf2", "--dim", "2", "--strategy", "exhaustive"],
        None, 0, _last_line('{"quadruples":9412}')),
    "search-linear-solve-gf2": (
        ["search", "--ring", "gf2", "--dim", "3", "--strategy", "linear-solve",
         "--budget", "50", "--seed", "7"], None, 0, _last_line('{"quadruples":63}')),
    "spectrum-q3": (["spectrum", "--in", "bench/corpus/quad_q3.json"], None, 0, _spectrum_q3),
    "spectrum-q2": (["spectrum", "--in", "{quad_q2}"], None, 0, _spectrum_q2),
    "cline-pdrazin-zmod4": (
        ["cline", "--in", "bench/corpus/quad_zmod4.json", "--flavor", "pdrazin"],
        None, 0, _cline_pdrazin),
    # M120(GF(2)) has 2^14400 matrices.
    "search-huge-refused": (
        ["search", "--ring", "gf2", "--dim", "120", "--strategy", "exhaustive"],
        None, 1, _no_traceback),
    # M2(Z/6) has 1296 matrices, over the 512-element brute-force budget.
    "cline-over-brute-budget": (["cline", "--in", "{quad_z6}"], None, 1, None),
    "search-seed-env-ignored": (_SEEDED_SEARCH, {"DRAZINKIT_SEED": "99"}, 0, _seed_flag_alone),
}


@pytest.mark.parametrize(
    "argv, env_extra, code, check", CONSOLE_RUNS.values(), ids=list(CONSOLE_RUNS)
)
def test_module_runs(argv, env_extra, code, check, tmp_path):
    paths = {
        name: write_json(tmp_path / f"{name}.json", payload)
        for name, payload in CONSOLE_INPUTS.items()
    }
    proc = run_module([arg.format(**paths) for arg in argv], env_extra)
    assert proc.returncode == code, proc.stderr
    if check is not None:
        check(proc.stdout, proc.stderr)
