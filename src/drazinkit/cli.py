"""Command-line interface: JSON in, JSON report out, exit codes for scripts.

Exit code contract: 0 when the command succeeds and any checked property is
confirmed; 1 when well-formed input is rejected (intertwining relations
fail, a required inverse does not exist, an enumeration or search budget is
exceeded); 2 when the input itself is malformed (bad JSON, bad matrix schema,
unusable flag values); 3 when an internal check fails (FormulaViolation: a
computed result failed its own verification or a transfer cross-check, which
is always a bug in this package, never a verdict on the input); 141 when
standard output is closed before the report is written out (the reader of
a pipe exited, as `| head` does), with nothing more written and no
traceback. main is the one place that maps an exception to its exit
code; handlers raise only the refusals whose wording they supply. Reports
go to standard output; nonzero exits also put a structured {"error",
"detail"} object on standard error, after the intertwining report when the
relations fail. Identical (command, input, --seed) invocations produce
byte-identical reports: no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional, TextIO, TypeVar

from .drazin_core import (
    DrazinCertificate,
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

T = TypeVar("T")


class _Malformed(Exception):
    """Internal marker: the input cannot be interpreted at all."""


class _Rejected(Exception):
    """Internal marker: well-formed input whose hypothesis fails."""


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


def _construct_flavor_certificate(
    a: SquareMatrix, flavor: Flavor
) -> DrazinCertificate:
    if not a.ring.is_field:
        raise _Rejected(
            f"construction requires a field coefficient ring, got {a.ring}; "
            "use the oracle command for finite rings"
        )
    try:
        return flavor_inverse(a, flavor)
    except NoGroupInverse as exc:
        raise _Rejected(f"no group inverse: {exc}") from exc


def _cmd_drazin(args: argparse.Namespace, out: TextIO) -> int:
    a = _load(args.infile, matrix_from_json)
    cert = _construct_flavor_certificate(a, Flavor(args.flavor))
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


_HANDLERS = {
    "demo": _cmd_demo,
    "verify": _cmd_verify,
    "drazin": _cmd_drazin,
    "cline": _cmd_cline,
    "jacobson": _cmd_jacobson,
    "spectrum": _cmd_spectrum,
    "search": _cmd_search,
    "oracle": _cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drazinkit",
        description=(
            "Exact computation and verification of Drazin-type inverses, "
            "intertwined-product formulas, and spectra of matrix pairs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write the report to this path")

    p_demo = sub.add_parser("demo", help="run a bundled demonstration instance")
    p_demo.add_argument("--example", required=True, choices=EXAMPLE_IDS)
    add_out(p_demo)

    p_verify = sub.add_parser("verify", help="check the intertwining relations")
    p_verify.add_argument("--in", dest="infile", required=True)
    add_out(p_verify)

    p_drazin = sub.add_parser("drazin", help="construct an inverse over a field")
    p_drazin.add_argument("--in", dest="infile", required=True)
    p_drazin.add_argument("--flavor", default="drazin", choices=_FLAVOR_CHOICES)
    add_out(p_drazin)

    p_cline = sub.add_parser(
        "cline", help="inverse of bd from the inverse of ac, with certificates"
    )
    p_cline.add_argument("--in", dest="infile", required=True)
    p_cline.add_argument("--flavor", default="drazin", choices=_FLAVOR_CHOICES)
    add_out(p_cline)

    p_jac = sub.add_parser(
        "jacobson", help="invert 1 - b(d/lambda) via 1 + b (1 - (a/lambda)c)^(-1) (d/lambda)"
    )
    p_jac.add_argument("--in", dest="infile", required=True)
    p_jac.add_argument("--lambda", dest="lam", default="1", metavar="P/Q")
    add_out(p_jac)

    p_spec = sub.add_parser(
        "spectrum", help="compare nonzero eigenvalue sets of ac and bd"
    )
    p_spec.add_argument("--in", dest="infile", required=True)
    p_spec.add_argument(
        "--lambdas", default=None, help="comma-separated nonzero rationals"
    )
    add_out(p_spec)

    p_search = sub.add_parser("search", help="enumerate or sample quadruples")
    p_search.add_argument("--ring", required=True, choices=sorted(_RING_FLAGS))
    p_search.add_argument("--dim", type=int, default=2)
    p_search.add_argument(
        "--strategy", required=True, choices=("exhaustive", "linear-solve")
    )
    p_search.add_argument("--budget", type=int, default=None)
    p_search.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p_search)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force every flavor-inverse in a finite matrix ring"
    )
    p_oracle.add_argument("--in", dest="infile", required=True)
    p_oracle.add_argument("--ring", required=True, choices=sorted(_RING_FLAGS))
    p_oracle.add_argument("--flavor", default="drazin", choices=_FLAVOR_CHOICES)
    add_out(p_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_MALFORMED
    handler = _HANDLERS[args.command]
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
        code = _run(handler, args, out)
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
