"""Exact characteristic polynomials and nonzero-spectrum comparison.

Every square matrix is Drazin invertible, so the Drazin-type spectra of
finite matrices are empty and carry no information. The meaningful finite
surrogate is the set of nonzero eigenvalues, compared here without ever
extracting an eigenvalue. Both characteristic polynomials come from
matrix_rings._chi, the Berkowitz recurrence on integer numerators run once
per matrix and shared with the unit transfer and the construction, as
primitive integer tuples; each is stripped of its power of lambda and
reduced to its primitive squarefree part by the integer gcd kernel of
exact_arith, once for both sides when their nonzero parts are equal, and the
sets agree iff those tuples are identical (primitive forms are canonical, so
equal tuples are equal monic polynomials). Monic rational coefficients
appear only in the JSON reports. Pointwise unit transfer at sampled nonzero
lambda complements the set comparison (invertibility_transfer; the
verdicts, both cross-checks and the argument are drazin_core._Resolvent's).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .drazin_core import Quadruple, _Resolvent, drazin_inverse, quadruple_over_q
from .exact_arith import format_rational, primitive, rational_roots, squarefree_part
from .matrix_rings import SquareMatrix, _chi, matrix_to_json, over_q

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

    With a = N / den, matrix_rings._chi(a), Berkowitz's recurrence on the
    integer rows N run once per matrix, gives det(x I - N) = sum c_k x^(n-k),
    so det(den x I - N), which is den^n det(x I - a), has the coefficient
    c_(n-j) den^j at x^j. over_q refuses GF(p) and Z/m; over Z, N is a's
    rows and den = 1.
    """
    den = over_q(a).den
    return primitive([c * den**j for j, c in enumerate(reversed(_chi(a)))])


def _zero_multiplicity(p: Sequence[int]) -> int:
    """The number of zero low coefficients of p, the multiplicity of its
    root 0."""
    z = 0
    while p[z] == 0:
        z += 1
    return z


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
        z = _zero_multiplicity(p)
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
    may differ. The squarefree part is a function of the nonzero-rooted
    part alone, so when the two nonzero-rooted parts are equal tuples it is
    computed once, for p, and q's summary reuses it.
    """
    left = SpectrumSummary.of(p)
    char = char_poly(q)
    z = _zero_multiplicity(char)
    # Dropping the zero low coefficients of a primitive char leaves it
    # primitive, so its nonzero-rooted parts compare as they stand.
    multiplicity_equal = char[z:] == left.char[left.zero_multiplicity:]
    right = SpectrumSummary(
        char, z, left.nonzero_part if multiplicity_equal else squarefree_part(char[z:])
    )
    return SpectrumComparison(
        equal=left.nonzero_part == right.nonzero_part,
        left=left,
        right=right,
        multiplicity_equal=multiplicity_equal,
    )


@dataclass(frozen=True)
class TransferRow:
    lam: Fraction
    ac_side_invertible: bool
    bd_side_invertible: bool

    @property
    def formula_verified(self) -> Optional[bool]:
        """True where lambda - ac is a unit, since the resolvent proved the
        formula there, and None where it has no formula to verify."""
        return True if self.ac_side_invertible else None

    @property
    def holds(self) -> bool:
        return not self.ac_side_invertible or self.bd_side_invertible

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
    q: Quadruple, lambdas: Sequence[Fraction | int | float | str]
) -> TransferReport:
    """Pointwise unit transfer at each sampled nonzero lambda, anything
    Fraction accepts: whether lambda - ac and lambda - bd are units, the
    latter whenever the former is. One drazin_core._Resolvent serves every
    lambda; its docstring holds the argument, the cost and both
    cross-checks, which raise FormulaViolation (a bug) rather than report.
    """
    resolvent = _Resolvent(q)
    return TransferReport(tuple(TransferRow(*resolvent.verdict(lam)) for lam in lambdas))


def transfer_lambdas(q: Quadruple) -> tuple[Fraction, ...]:
    """The fixed deterministic sample list plus every rational eigenvalue
    candidate of ac and bd, which are the points where invertibility can
    actually change."""
    extra: set[Fraction] = set()
    for m in (q.ac, q.bd):
        for root in rational_roots(char_poly(m)):
            if root != 0 and root not in DEFAULT_LAMBDAS:
                extra.add(root)
    return DEFAULT_LAMBDAS + tuple(sorted(extra))


def quadruple_spectrum_report(
    q: Quadruple, lambdas: Optional[Sequence[Fraction]] = None
) -> dict[str, object]:
    """Comparison plus transfer in one JSON-ready report.

    A Z quadruple is reported as its lift to Q (drazin_core's
    quadruple_over_q), where the transfer samples rational lambda; GF(p)
    and Z/m raise UnsupportedRing. Also certifies that ac and bd are Drazin
    invertible outright: over a field every square matrix is, so the
    spectrum defined by missing Drazin-type inverses is literally empty for
    both sides. The nonzero eigenvalue comparison is the surrogate that
    still carries content.
    """
    q = quadruple_over_q(q)
    comparison = nonzero_spectrum_equal(q.ac, q.bd)
    if lambdas is None:
        lambdas = transfer_lambdas(q)
    transfer = invertibility_transfer(q, lambdas)
    return {
        "ac": matrix_to_json(q.ac),
        "bd": matrix_to_json(q.bd),
        "ac_drazin_invertible": drazin_inverse(q.ac).valid,
        "bd_drazin_invertible": drazin_inverse(q.bd).valid,
        "comparison": comparison.to_json(),
        "transfer": transfer.to_json(),
    }
