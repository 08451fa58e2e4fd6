"""Exact characteristic polynomials and nonzero-spectrum comparison.

Every square matrix is Drazin invertible, so the Drazin-type spectra of
finite matrices are empty and carry no information. The meaningful finite
surrogate is the set of nonzero eigenvalues, compared here without ever
extracting an eigenvalue. Both characteristic polynomials come from the
Berkowitz recurrence on integer numerators as primitive integer tuples; each
is stripped of its power of lambda and reduced to its primitive squarefree
part by the integer gcd kernel of exact_arith, and the sets agree iff those
tuples are identical (primitive forms are canonical, so equal tuples are
equal monic polynomials). Monic rational coefficients appear only in the
JSON reports. Pointwise unit transfer at sampled nonzero lambda complements
the set comparison: one Cayley-Hamilton resolvent of ac per quadruple
(drazin_core._Resolvent) decides at every lambda whether lambda - ac is
invertible, and proves the formula for (1 - bd/lambda)^(-1) in integers
once, for every such lambda at once (one side is checked; the other follows
because both factors are then polynomials in bd, which commute); at every
lambda where it finds lambda - ac singular, an elimination inverse must
agree. The bd side is decided at every lambda by one characteristic
polynomial of bd per quadruple, and each verdict rests on two routes: where
lambda - ac is a unit, the proven formula makes lambda - bd one, and a
characteristic polynomial that says otherwise is a bug; where lambda - ac is
singular, the elimination determinant of lambda - bd must give the same
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .drazin_core import Quadruple, _Resolvent, _shifted_det, drazin_inverse
from .errors import FormulaViolation, NotInvertible
from .exact_arith import format_rational, primitive, rational_roots, squarefree_part
from .matrix_rings import SquareMatrix, _berkowitz, det, matrix_to_json, over_q

DEFAULT_LAMBDAS: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(-3),
    Fraction(5, 7),
)


def char_poly(a: SquareMatrix) -> tuple[int, ...]:
    """Primitive form of the characteristic polynomial det(lambda I - a).

    With a = N / den, Berkowitz's recurrence on the integer rows N gives
    det(x I - N) = sum c_k x^(n-k), so det(den x I - N), which is
    den^n det(x I - a), has the coefficient c_(n-j) den^j at x^j.
    """
    aq = over_q(a)
    den = aq.den
    return primitive([c * den**j for j, c in enumerate(reversed(_berkowitz(aq.num)))])


def _monic_strings(p: Sequence[int]) -> list[str]:
    """The coefficients of the monic form of p, lowest degree first, in
    exact rational syntax: the one place a report sees rationals."""
    return [format_rational(Fraction(c, p[-1])) for c in p]


@dataclass(frozen=True)
class SpectrumSummary:
    """char_poly factored as lambda^z times a nonzero-rooted part, both
    primitive integer forms."""

    char: tuple[int, ...]
    zero_multiplicity: int
    nonzero_part: tuple[int, ...]

    @staticmethod
    def of(a: SquareMatrix) -> "SpectrumSummary":
        p = char_poly(a)
        z = 0
        while p[z] == 0:
            z += 1
        return SpectrumSummary(p, z, squarefree_part(p[z:]))

    def to_json(self) -> dict[str, object]:
        return {
            "char_poly": _monic_strings(self.char),
            "zero_multiplicity": self.zero_multiplicity,
            "nonzero_part_squarefree": _monic_strings(self.nonzero_part),
        }


@dataclass(frozen=True)
class SpectrumComparison:
    equal: bool
    left: SpectrumSummary
    right: SpectrumSummary
    multiplicity_equal: bool

    def to_json(self) -> dict[str, object]:
        return {
            "equal": self.equal,
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            # Informational only: whether the nonzero parts agree with
            # multiplicity, which the set-level statement does not promise.
            "multiplicity_equal": self.multiplicity_equal,
            "note": (
                "set-level comparison of nonzero eigenvalues via squarefree "
                "parts of the characteristic polynomials; zero eigenvalues "
                "and multiplicities are reported separately"
            ),
        }


def nonzero_spectrum_equal(p: SquareMatrix, q: SquareMatrix) -> SpectrumComparison:
    """Do p and q have the same set of nonzero eigenvalues, exactly?

    Equality means identical primitive squarefree nonzero parts of the two
    characteristic polynomials, which is identical monic ones; dimensions
    may differ.
    """
    left = SpectrumSummary.of(p)
    right = SpectrumSummary.of(q)
    return SpectrumComparison(
        equal=left.nonzero_part == right.nonzero_part,
        left=left,
        right=right,
        # Dropping the zero low coefficients of a primitive char leaves it
        # primitive, so its nonzero-rooted parts compare as they stand.
        multiplicity_equal=(
            left.char[left.zero_multiplicity:] == right.char[right.zero_multiplicity:]
        ),
    )


@dataclass(frozen=True)
class TransferRow:
    lam: Fraction
    ac_side_invertible: bool
    bd_side_invertible: bool
    formula_verified: Optional[bool]

    @property
    def holds(self) -> bool:
        if not self.ac_side_invertible:
            return True
        return self.bd_side_invertible and bool(self.formula_verified)

    def to_json(self) -> dict[str, object]:
        return {
            "lambda": format_rational(self.lam),
            "one_minus_ac_invertible": self.ac_side_invertible,
            "one_minus_bd_invertible": self.bd_side_invertible,
            "formula_verified": self.formula_verified,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class TransferReport:
    rows: tuple[TransferRow, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows)

    def to_json(self) -> dict[str, object]:
        return {"rows": [r.to_json() for r in self.rows], "all_hold": self.all_hold}


def invertibility_transfer(
    q: Quadruple, lambdas: Sequence[Fraction]
) -> TransferReport:
    """Pointwise unit transfer at each sampled nonzero lambda.

    Whenever lambda - ac is invertible, the explicit formula
    1 + b (lambda - ac)^(-1) d must invert 1 - bd/lambda, which is the
    statement that lambda - bd is a unit whenever lambda - ac is. One
    Cayley-Hamilton resolvent of ac serves every lambda (the route of
    jacobson_inverse). At the first lambda where it finds lambda - ac
    invertible it proves the formula, by exact integer multiplication, for
    every lambda at once: it checks (lambda - bd) r = lambda, and
    r (lambda - bd) = lambda follows because both factors are then
    polynomials in bd, so the proof is two-sided. After that each lambda
    costs one Horner evaluation of the resolvent determinant, and the
    formula itself is never assembled. At each lambda where it finds lambda - ac
    singular, inverse(lambda - ac) must confirm that by raising
    NotInvertible, so no row holds on the resolvent's word alone.

    The bd side takes one Berkowitz run per quadruple, on the integer
    numerators E of bd = E / eps, and at lambda = p / s the same Horner
    evaluation, det(p eps I - s E) = (s eps)^n det(lambda - bd). Each
    verdict rests on two routes. Where lambda - ac is proven a unit, the
    formula has proven lambda - bd one, and a characteristic polynomial
    that finds no unit raises FormulaViolation (a bug), so every row holds.
    Where lambda - ac is singular, the elimination determinant of
    lambda - bd must return the same verdict, or FormulaViolation is
    raised; both side verdicts are recorded.
    """
    rows: list[TransferRow] = []
    resolvent = _Resolvent(q)
    chi_e = _berkowitz(resolvent.e.num, q.ring.modulus)
    for lam in map(Fraction, lambdas):
        try:
            resolvent.unit_numerator(lam)
            ac_ok = True
        except NotInvertible:
            ac_ok = False
        y = _shifted_det(chi_e, lam.numerator * resolvent.eps, lam.denominator)
        bd_ok = q.ring.is_unit_scalar(resolvent.zring.canon(y))
        if ac_ok and not bd_ok:
            raise FormulaViolation(
                "lambda - ac is a unit but lambda - bd is not at lambda = "
                + format_rational(lam)
            )
        if not ac_ok and bd_ok != q.ring.is_unit_scalar(det(resolvent.shifted_bd(lam))):
            raise FormulaViolation(
                "the characteristic polynomial and the determinant of lambda - bd "
                "disagree on a unit at lambda = " + format_rational(lam)
            )
        rows.append(TransferRow(lam, ac_ok, bd_ok, True if ac_ok else None))
    return TransferReport(tuple(rows))


def transfer_lambdas(q: Quadruple) -> tuple[Fraction, ...]:
    """The fixed deterministic sample list plus every rational eigenvalue
    candidate of ac and bd, which are the points where invertibility can
    actually change."""
    return _with_eigenvalues(char_poly(m) for m in (q.ac, q.bd))


def _with_eigenvalues(chars: Iterable[tuple[int, ...]]) -> tuple[Fraction, ...]:
    extra: set[Fraction] = set()
    for p in chars:
        for root in rational_roots(p):
            if root != 0 and root not in DEFAULT_LAMBDAS:
                extra.add(root)
    return DEFAULT_LAMBDAS + tuple(sorted(extra))


def quadruple_spectrum_report(
    q: Quadruple, lambdas: Optional[Sequence[Fraction]] = None
) -> dict[str, object]:
    """Comparison plus transfer in one JSON-ready report.

    Also certifies that ac and bd are Drazin invertible outright: over a
    field every square matrix is, so the spectrum defined by missing
    Drazin-type inverses is literally empty for both sides. The nonzero
    eigenvalue comparison is the surrogate that still carries content.
    """
    comparison = nonzero_spectrum_equal(q.ac, q.bd)
    if lambdas is None:
        lambdas = _with_eigenvalues((comparison.left.char, comparison.right.char))
    transfer = invertibility_transfer(q, lambdas)
    return {
        "ac": matrix_to_json(q.ac),
        "bd": matrix_to_json(q.bd),
        "ac_drazin_invertible": drazin_inverse(over_q(q.ac)).valid,
        "bd_drazin_invertible": drazin_inverse(over_q(q.bd)).valid,
        "comparison": comparison.to_json(),
        "transfer": transfer.to_json(),
    }
