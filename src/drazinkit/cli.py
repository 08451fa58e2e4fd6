"""Command-line interface: JSON in, JSON report out, exit codes for scripts.

Exit code contract: 0 when the command succeeds and any checked property is
confirmed; 1 when well-formed input is rejected (intertwining relations
fail, a required inverse does not exist, an enumeration or search budget is
exceeded); 2 when the input itself is malformed (bad JSON, bad matrix schema,
unusable flag values, a usage error); 3 when an internal check fails
(FormulaViolation: a computed result failed its own verification or a
transfer cross-check, which is always a bug in this package, never a
verdict on the input); 141 when standard output is closed before the
report is written out (the reader of a pipe exited, as `| head` does), with
nothing more written and no traceback. main is the one place that maps an
exception to its exit code; handlers raise only the refusals whose wording
they supply. Reports go to standard output. Exits 2 and 3 put one
structured {"error", "detail"} object on standard error, and so does exit 1
unless the report itself is the verdict (verify, oracle, a rejected demo);
a rejected quadruple's intertwining report comes first, on standard output.
Identical (command, input, --seed) invocations produce byte-identical
reports: no environment variable is read.

_COMMANDS declares each subcommand once, with its handler, its help line
and its flags; _build_parser makes the parser from it alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NoReturn, Optional, TextIO, TypeVar

from .drazin_core import (
    Flavor,
    Quadruple,
    cline_generalized,
    flavor_inverse,
    group_inverse,
    intertwining_report,
    jacobson_inverse,
    no_group_inverse_reason,
    verify_axioms,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DrazinkitError,
    FormulaViolation,
    NoGroupInverse,
    NotAField,
    NotInvertible,
    RelationViolation,
    RingMismatch,
    UnsupportedRing,
)
from .exact_arith import parse_rational
from .fixtures import EXAMPLE_IDS, example_matrices
from .matrix_rings import (
    SquareMatrix,
    gf,
    matrix_from_json,
    matrix_to_json,
    over_q,
    zmod,
)
from .quadruple_lab import (
    DEFAULT_SEED,
    SearchSpace,
    Strategy,
    brute_force_inverse,
    enumerate_quadruples,
    qnil_transfer_check,
)
from .spectral import quadruple_spectrum_report

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a piped writer cut off

_RING_FLAGS = {"gf2": gf(2), "gf3": gf(3), "zmod4": zmod(4)}

_FLAVOR_CHOICES = tuple(f.value for f in Flavor)

# A value of these flags may begin with "-" (a negative rational), which
# argparse reads as the next flag unless it is attached as --flag=value.
_SIGNED_FLAGS = ("--lambda", "--lambdas")

T = TypeVar("T")


class _Malformed(Exception):
    """Internal marker: the input cannot be interpreted at all."""


class _Rejected(Exception):
    """Internal marker: well-formed input whose hypothesis fails."""


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input; its subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        raise _Malformed(f"{self.prog}: {message}")


def _emit(out: TextIO, report: dict) -> None:
    out.write(json.dumps(report, indent=2, sort_keys=True))
    out.write("\n")


def _emit_line(out: TextIO, obj: dict) -> None:
    out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    out.write("\n")


def _load(path: str, from_json: Callable[[object], T]) -> T:
    """Read a JSON file and parse it; any schema error is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _Malformed(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is
        # an integer over the digit limit; RecursionError is nesting too deep.
        raise _Malformed(f"invalid JSON in {path}: {exc}") from exc
    try:
        return from_json(obj)
    except FormulaViolation:
        raise
    except (DrazinkitError, ZeroDivisionError) as exc:
        raise _Malformed(str(exc)) from exc


def _load_quadruple(path: str) -> Quadruple:
    """Parse and validate; a RelationViolation carries the intertwining
    report to main."""
    mats = _load(path, Quadruple.matrices_from_json)
    try:
        return Quadruple(*mats)
    except (RingMismatch, DimensionMismatch) as exc:
        raise _Malformed(str(exc)) from exc


def _quadruple_over_q(q: Quadruple) -> Quadruple:
    """q over Q; only a lift from another ring is validated again."""
    if q.ring.kind == "Q":
        return q
    return Quadruple(*(over_q(m) for m in (q.a, q.b, q.c, q.d)))


# -- subcommands -----------------------------------------------------------------


def _cmd_demo(args: argparse.Namespace, out: TextIO) -> int:
    mats = example_matrices(args.example)
    a, b, c, d = mats["a"], mats["b"], mats["c"], mats["d"]
    report: dict[str, object] = {
        "example": args.example,
        "ring": a.ring.to_json(),
        "matrices": {k: matrix_to_json(v) for k, v in mats.items()},
        "intertwining": intertwining_report(a, b, c, d),
    }
    if not report["intertwining"]["accepted"]:  # type: ignore[index]
        report["verdict"] = "rejected"
        _emit(out, report)
        return EXIT_REJECTED
    q = Quadruple(a, b, c, d)
    report["verdict"] = "accepted"
    report["ac"] = matrix_to_json(q.ac)
    report["bd"] = matrix_to_json(q.bd)
    report["qnil_transfer"] = qnil_transfer_check(q)
    if args.example == "2.5":
        cline = cline_generalized(q, Flavor.DRAZIN)
        report["ac_certificate"] = cline.h_cert.to_json()
        report["bd_certificate"] = cline.e_cert.to_json()
        report["index_bound_holds"] = cline.index_bound_holds
        report["classification"] = cline.classification
        try:
            jacobson_inverse(q)
            report["jacobson"] = {"one_minus_ac_invertible": True}
        except NotInvertible as exc:
            report["jacobson"] = {
                "one_minus_ac_invertible": False,
                "detail": str(exc),
            }
    elif args.example == "3.6":
        zero = SquareMatrix.zeros(q.ring, q.n)
        report["ac_certificate"] = group_inverse(q.ac, candidate=zero).to_json()
        report["bd_certificate"] = verify_axioms(q.bd, zero, Flavor.DRAZIN).to_json()
        report["bd_group_inverse"] = {
            "exists": False,
            "reason": no_group_inverse_reason(q.bd),
        }
        lift = _quadruple_over_q(q)
        lift_cline = cline_generalized(lift, Flavor.DRAZIN)
        try:
            group_inverse(lift.bd)
            bd_group_over_q: object = "exists"
        except NoGroupInverse as exc:
            bd_group_over_q = f"none: {exc}"
        report["rational_lift"] = {
            "ac_certificate": lift_cline.h_cert.to_json(),
            "bd_certificate": lift_cline.e_cert.to_json(),
            "classification": lift_cline.classification,
            "bd_group_inverse": bd_group_over_q,
        }
    _emit(out, report)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    mats = _load(args.infile, Quadruple.matrices_from_json)
    try:
        report = intertwining_report(*mats)
    except (RingMismatch, DimensionMismatch) as exc:
        raise _Malformed(str(exc)) from exc
    _emit(out, report)
    return EXIT_OK if report["accepted"] else EXIT_REJECTED


def _cmd_drazin(args: argparse.Namespace, out: TextIO) -> int:
    a = _load(args.infile, matrix_from_json)
    try:
        cert = flavor_inverse(a, Flavor(args.flavor))
    except NotAField as exc:
        raise _Rejected(
            f"construction requires a field coefficient ring, got {a.ring}; "
            "use the oracle command for finite rings"
        ) from exc
    except NoGroupInverse as exc:
        raise _Rejected(f"no group inverse: {exc}") from exc
    _emit(out, cert.to_json())
    return EXIT_OK


def _cmd_cline(args: argparse.Namespace, out: TextIO) -> int:
    q = _load_quadruple(args.infile)
    flavor = Flavor(args.flavor)
    if q.ring.is_field:
        try:
            result = cline_generalized(q, flavor)
        except NoGroupInverse as exc:
            raise _Rejected(f"ac has no group inverse: {exc}") from exc
    elif q.ring.is_finite:
        certs = brute_force_inverse(q.ac, flavor)
        if not certs:
            raise _Rejected(f"ac has no {flavor.value} inverse in this ring")
        result = cline_generalized(q, flavor, h=certs[0].inverse)
    else:
        raise _Rejected(
            f"no construction over {q.ring}: rerun over Q (field) or a "
            "finite ring (brute force)"
        )
    _emit(out, result.to_json())
    return EXIT_OK


def _cmd_jacobson(args: argparse.Namespace, out: TextIO) -> int:
    q = _load_quadruple(args.infile)
    try:
        lam = parse_rational(args.lam)
    except (DrazinkitError, ZeroDivisionError) as exc:
        raise _Malformed(f"bad --lambda: {exc}") from exc
    if lam == 0:
        raise _Malformed("--lambda must be nonzero")
    if lam != 1:
        q = _quadruple_over_q(q)
    try:
        inv = jacobson_inverse(q, lam)
    except NotInvertible as exc:
        raise _Rejected(
            f"1 - (a/lambda) c is not invertible at lambda = {lam}: {exc}"
        ) from exc
    _emit(
        out,
        {
            "lambda": str(lam),
            "one_minus_bd_inverse": matrix_to_json(inv),
            "verified_two_sided": True,
        },
    )
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace, out: TextIO) -> int:
    q = _quadruple_over_q(_load_quadruple(args.infile))
    lambdas = None
    if args.lambdas is not None:
        try:
            lambdas = tuple(
                parse_rational(tok) for tok in args.lambdas.split(",") if tok
            )
        except (DrazinkitError, ZeroDivisionError) as exc:
            raise _Malformed(f"bad --lambdas: {exc}") from exc
        if not lambdas:
            raise _Malformed("--lambdas is empty")
        if any(v == 0 for v in lambdas):
            raise _Malformed("--lambdas entries must be nonzero")
    try:
        report = quadruple_spectrum_report(q, lambdas)
    except BudgetExceeded as exc:
        raise _Rejected(f"{exc}; pass --lambdas to skip it") from exc
    _emit(out, report)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace, out: TextIO) -> int:
    ring = _RING_FLAGS[args.ring]
    strategy = Strategy(args.strategy)
    if args.budget is not None:
        budget = args.budget
    else:
        budget = 1_000_000 if strategy is Strategy.EXHAUSTIVE else 1000
    try:
        space = SearchSpace(ring=ring, n=args.dim, strategy=strategy, budget=budget)
    except FormulaViolation:
        raise
    except DrazinkitError as exc:
        raise _Malformed(str(exc)) from exc
    count = 0
    for quad in enumerate_quadruples(space, seed=args.seed):
        _emit_line(out, quad.to_json())
        count += 1
    _emit_line(out, {"quadruples": count})
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace, out: TextIO) -> int:
    ring = _RING_FLAGS[args.ring]
    a = _load(args.infile, matrix_from_json)
    if a.ring != ring:
        # The flag names the enumeration universe; integer entries embed.
        if a.ring.kind == "Z" or (a.ring.kind == "Q" and a.den == 1):
            a = SquareMatrix(ring, a.num)
        else:
            raise _Malformed(
                f"matrix ring {a.ring} does not embed in --ring {ring}"
            )
    flavor = Flavor(args.flavor)
    certs = brute_force_inverse(a, flavor)
    _emit(
        out,
        {
            "element": matrix_to_json(a),
            "flavor": flavor.value,
            "count": len(certs),
            "certificates": [cert.to_json() for cert in certs],
        },
    )
    return EXIT_OK if certs else EXIT_REJECTED


# Each subcommand, in --help order: its handler, its help line and its
# flags as (option string, add_argument keywords); every one also takes --out.
_IN = ("--in", {"dest": "infile", "required": True})
_FLAVOR = ("--flavor", {"default": "drazin", "choices": _FLAVOR_CHOICES})
_RING = ("--ring", {"required": True, "choices": sorted(_RING_FLAGS)})

_COMMANDS = {
    "demo": (_cmd_demo, "run a bundled demonstration instance",
             [("--example", {"required": True, "choices": EXAMPLE_IDS})]),
    "verify": (_cmd_verify, "check the intertwining relations", [_IN]),
    "drazin": (_cmd_drazin, "construct an inverse over a field", [_IN, _FLAVOR]),
    "cline": (_cmd_cline, "inverse of bd from the inverse of ac, with certificates",
              [_IN, _FLAVOR]),
    "jacobson": (_cmd_jacobson,
                 "invert 1 - b(d/lambda) via 1 + b (1 - (a/lambda)c)^(-1) (d/lambda)",
                 [_IN, ("--lambda", {"dest": "lam", "default": "1", "metavar": "P/Q"})]),
    "spectrum": (_cmd_spectrum, "compare nonzero eigenvalue sets of ac and bd",
                 [_IN, ("--lambdas", {"help": "comma-separated nonzero rationals"})]),
    "search": (_cmd_search, "enumerate or sample quadruples", [
        _RING,
        ("--dim", {"type": int, "default": 2}),
        ("--strategy", {"required": True, "choices": [s.value for s in Strategy]}),
        ("--budget", {"type": int}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
    ]),
    "oracle": (_cmd_oracle, "brute-force every flavor-inverse in a finite matrix ring",
               [_IN, _RING, _FLAVOR]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drazinkit",
        description=(
            "Exact computation and verification of Drazin-type inverses, "
            "intertwined-product formulas, and spectra of matrix pairs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help="write the report to this path")
        p.set_defaults(handler=handler)
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with the token after each flag of _SIGNED_FLAGS attached to it,
    so --lambda -1/2 reads as --lambda=-1/2 does."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _SIGNED_FLAGS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit:  # --help printed its screen
        return EXIT_OK
    except _Malformed as exc:
        _emit_error("malformed-input", str(exc))
        return EXIT_MALFORMED
    close_out = False
    if args.out is not None:
        try:
            out: TextIO = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            _emit_error("malformed-input", f"cannot open --out {args.out}: {exc}")
            return EXIT_MALFORMED
        close_out = True
    else:
        out = sys.stdout
    try:
        code = _run(args.handler, args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away, as `| head` does. The interpreter
        # flushes stdout once more at exit; pointed at devnull, that flush
        # stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    finally:
        if close_out:
            out.close()


def _run(
    handler: Callable[[argparse.Namespace, TextIO], int],
    args: argparse.Namespace,
    out: TextIO,
) -> int:
    """The handler's exit code, or the one its library exception maps to."""
    try:
        return handler(args, out)
    except _Malformed as exc:
        _emit_error("malformed-input", str(exc))
        return EXIT_MALFORMED
    except (_Rejected, BudgetExceeded, RelationViolation, UnsupportedRing) as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _emit(out, report)
        _emit_error("rejected", str(exc))
        return EXIT_REJECTED
    except FormulaViolation as exc:
        _emit_error("internal-error", str(exc))
        return EXIT_INTERNAL


def _emit_error(kind: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}, sort_keys=True))
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
