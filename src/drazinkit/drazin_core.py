"""Drazin-family inverses: construction, axiom verification, and the
intertwined-product operations.

The four inverse flavors share the commutation and absorption axioms and
differ only in what the core a - a^2 x must satisfy: nilpotent (drazin),
nilpotent with index at most one (group), in the Jacobson radical at some
power (pdrazin), or quasinilpotent (gdrazin). Construction is offered over
fields, by flavor_inverse alone: one formula for every flavor, a polynomial
in the element read off its characteristic polynomial, verified once under
the flavor asked for. Over Z and Z/n only verification is available,
with brute-force search providing candidates from the lab module. The unit
transfer (jacobson_inverse) has one route in all four rings: the inverse
as a polynomial in bd, proven for every lambda at once by two polynomial
identities; _Resolvent holds the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    DrazinkitError,
    FormulaViolation,
    NoGroupInverse,
    NotAField,
    NotInvertible,
    RelationViolation,
    UnsupportedRing,
    ZeroLambda,
)
from .exact_arith import _shifted_det, format_rational
from .matrix_rings import (
    Scalar,
    SquareMatrix,
    _chi,
    _equal_over,
    _first_power,
    _from_rows,
    _nilpotency_bound,
    _numerators,
    _poly_at,
    _products_equal,
    _rows_mul,
    det,
    in_radical,
    inverse,
    is_nilpotent,
    matrix_from_json,
    matrix_to_json,
    over_q,
)


class Flavor(Enum):
    DRAZIN = "drazin"
    PDRAZIN = "pdrazin"
    GDRAZIN = "gdrazin"
    GROUP = "group"


@dataclass(frozen=True)
class AxiomCheck:
    check: str
    passed: bool
    witness: Optional[str] = None

    def to_json(self) -> dict[str, object]:
        return {"check": self.check, "pass": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class DrazinCertificate:
    """A candidate inverse together with the verified axiom transcript."""

    element: SquareMatrix
    inverse: SquareMatrix
    flavor: Flavor
    index: Optional[int]
    checks: tuple[AxiomCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict[str, object]:
        return {
            "element": matrix_to_json(self.element),
            "inverse": matrix_to_json(self.inverse),
            "flavor": self.flavor.value,
            "index": self.index,
            "valid": self.valid,
            "transcript": [c.to_json() for c in self.checks],
        }


# -- intertwining relations -----------------------------------------------------


def _relation_entry(
    name: str, left: SquareMatrix, right: SquareMatrix
) -> dict[str, object]:
    fmt = left.ring.format_scalar
    diffs = [
        {"row": i, "col": j, "left": fmt(x), "right": fmt(y)}
        for i, (lrow, rrow) in enumerate(zip(left.entries, right.entries))
        for j, (x, y) in enumerate(zip(lrow, rrow))
        if x != y
    ]
    return {
        "relation": name,
        "holds": not diffs,
        "left": matrix_to_json(left),
        "right": matrix_to_json(right),
        "differences": diffs,
    }


def intertwining_report(
    a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, d: SquareMatrix
) -> dict[str, object]:
    """Check bdb = bac and dbd = acd, reporting every differing entry."""
    for other in (b, c, d):
        a._require_compatible(other)
    first = _relation_entry("bdb = bac", b * d * b, b * a * c)
    second = _relation_entry("dbd = acd", d * b * d, a * c * d)
    return {
        "accepted": bool(first["holds"] and second["holds"]),
        "relations": [first, second],
    }


class Quadruple:
    """Four same-ring matrices with the intertwining relations as invariant.

    Construction validates bdb = bac and dbd = acd exactly, and rejects the
    input with the full report otherwise (the report is built only then),
    so every Quadruple in circulation satisfies the hypotheses of every
    transfer formula in this module. It makes two products, ac and bd,
    which it keeps; each relation, bd b = b ac and then d bd = ac d, is
    decided by matrix_rings._products_equal on the product kernel's raw
    rows, with no matrix built, and a failing first relation skips the
    second.
    """

    __slots__ = ("a", "b", "c", "d", "ac", "bd")

    def __init__(
        self, a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, d: SquareMatrix
    ):
        # a * c checks c against a, and b * d checks d against b, with the
        # text _require_compatible gives, so only b is checked here.
        a._require_compatible(b)
        ac, bd = a * c, b * d
        if not (_products_equal(bd, b, b, ac) and _products_equal(d, bd, ac, d)):
            report = intertwining_report(a, b, c, d)
            failing = [
                r["relation"] for r in report["relations"] if not r["holds"]  # type: ignore[index]
            ]
            raise RelationViolation(
                f"intertwining relations fail: {', '.join(failing)}", report=report
            )
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        _set_ac(self, ac)
        _set_bd(self, bd)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Quadruple is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quadruple)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Quadruple(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    @property
    def ring(self):
        return self.a.ring

    @property
    def n(self) -> int:
        return self.a.n

    def to_json(self) -> dict[str, object]:
        return {
            "a": matrix_to_json(self.a),
            "b": matrix_to_json(self.b),
            "c": matrix_to_json(self.c),
            "d": matrix_to_json(self.d),
        }

    @staticmethod
    def matrices_from_json(obj: object) -> tuple[SquareMatrix, ...]:
        """The matrices a, b, c, d of a quadruple JSON object, of one ring
        and one dimension, the relations unchecked.

        After all four parse, b, c and d must share a's ring and n, or
        RingMismatch or DimensionMismatch names the first that does not;
        the relations are checked when the matrices are passed to the
        constructor.
        """
        if not isinstance(obj, dict):
            raise DrazinkitError("quadruple JSON must be an object with keys a, b, c, d")
        extra = set(obj) - {"a", "b", "c", "d"}
        if extra:
            raise DrazinkitError(f"unknown quadruple fields: {sorted(extra)}")
        missing = {"a", "b", "c", "d"} - set(obj)
        if missing:
            raise DrazinkitError(f"quadruple JSON missing {sorted(missing)}")
        mats = tuple(matrix_from_json(obj[k]) for k in ("a", "b", "c", "d"))
        for other in mats[1:]:
            mats[0]._require_compatible(other)
        return mats

    @staticmethod
    def from_json(obj: object) -> "Quadruple":
        return Quadruple(*Quadruple.matrices_from_json(obj))


# The slot setters, which get past the raising __setattr__ at less cost than
# object.__setattr__; every Quadruple is built through them.
_set_a, _set_b, _set_c, _set_d, _set_ac, _set_bd = (
    Quadruple.__dict__[slot].__set__ for slot in Quadruple.__slots__
)


def quadruple_over_q(q: Quadruple) -> Quadruple:
    """q over Q, the one quadruple lift: a Q quadruple comes back as it
    is, and a Z quadruple's lift is validated again. GF(p) and Z/m raise
    over_q's UnsupportedRing."""
    if q.ring.kind == "Q":
        return q
    return Quadruple(*(over_q(m) for m in (q.a, q.b, q.c, q.d)))


def verify_intertwining(
    a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, d: SquareMatrix
) -> Union[Quadruple, dict]:
    """Validated Quadruple, or the rejection report naming what failed.

    The report pinpoints which of the two relations breaks and the exact
    differing entries. Callers that prefer an exception can construct
    Quadruple directly; it raises RelationViolation carrying this report.
    """
    try:
        return Quadruple(a, b, c, d)
    except RelationViolation as exc:
        return exc.report


# -- axiom verification ---------------------------------------------------------


def verify_axioms(a: SquareMatrix, x: SquareMatrix, flavor: Flavor) -> DrazinCertificate:
    """Certificate with the full transcript for x as a flavor-inverse of a.

    Failures are recorded in the transcript, never raised. The commuting
    axiom is checked as a x = x a; the literal double-commutant condition is
    enumerable only over finite rings and lives on the brute-force path.
    Every flavor then walks the powers of the one core a - a^2 x once: to
    zero for drazin, group and gdrazin, into the Jacobson radical for
    pdrazin. A candidate passing both axioms gets the walk's degree as its
    index, or 0 when a x = 1; any other candidate gets no index.

    The axioms are decided in integers, on the raw rows of
    matrix_rings._rows_mul (reduced mod m over GF(m) and Z/m): with
    a = A / alpha, x = X / xi and s = alpha xi, a x = x a is AX = XA,
    x a x = x is X AX = s X, and a x = 1 is AX = s I, read entrywise off
    the rows of AX with no identity built. The four products AX, XA, X AX
    and A AX are the only ones before the walk, and none of them becomes
    a matrix: only the core (s A - A AX) / (alpha s) does, for the walk.
    """
    a._require_compatible(x)
    checks: list[AxiomCheck] = []
    m = a.ring.modulus
    big_a, big_x, s = a.num, x.num, a.den * x.den
    ax = _rows_mul(big_a, big_x, m)
    commute = ax == _rows_mul(big_x, big_a, m)
    checks.append(
        AxiomCheck("commutes", commute, "a x = x a" if commute else "a x != x a")
    )
    absorb = _equal_over(_rows_mul(big_x, ax, m), s, big_x, 1)
    checks.append(
        AxiomCheck("absorbs", absorb, "x a x = x" if absorb else "x a x != x")
    )
    bound = _nilpotency_bound(a)
    # Quasinilpotent and nilpotent coincide in every ring supported here
    # (Koliha 1996): a finite ring is strongly pi-regular, and Z embeds in Q.
    # quadruple_lab.is_qnil_by_definition is the independent oracle. With
    # a x = x a and x a x = x, a x is an idempotent commuting with a, so
    # (a - a^2 x)^k = a^k - a^(k+1) x for k >= 1, and the idempotent
    # 1 - a x lies in the radical only when it is 0.
    rows = [
        [s * v - w for v, w in zip(row, a_ax)]
        for row, a_ax in zip(big_a, _rows_mul(big_a, ax, m))
    ]
    core = _from_rows(a.ring, rows, a.den * s)
    pdrazin = flavor is Flavor.PDRAZIN
    degree = _first_power(core, in_radical) if pdrazin else is_nilpotent(core)[1]
    reached = degree is not None
    index = None
    if commute and absorb and reached:
        # a x = 1 is AX = s I, read off the rows of AX: s >= 1, so a row
        # with s on the diagonal is right when its other n - 1 entries are 0.
        zeros = a.n - 1
        unit = all([row[i] == s and row.count(0) == zeros for i, row in enumerate(ax)])
        index = 0 if unit else degree
    if pdrazin:
        # Only the axioms make a^k - a^(k+1) x the core's k-th power.
        power, k = (
            ("a^k - a^(k+1) x", index) if commute and absorb else ("(a - a^2 x)^k", degree)
        )
        name = "core-radical"
        found = f"{power} in radical at k = {k}"
        missed = f"{power} outside radical for all k <= {bound}"
    else:
        name = "core-qnil" if flavor is Flavor.GDRAZIN else "core-nilpotent"
        found = f"(a - a^2 x)^{degree} = 0"
        missed = f"a - a^2 x not nilpotent within bound {bound}"
    checks.append(AxiomCheck(name, reached, found if reached else missed))
    if flavor is Flavor.GROUP:
        ok = index is not None and index <= 1
        witness = f"index {index}" if index is not None else "index undefined"
        checks.append(AxiomCheck("index-at-most-one", ok, witness))
    return DrazinCertificate(a, x, flavor, index, tuple(checks))


# -- construction ------------------------------------------------------------------


def flavor_inverse(a: SquareMatrix, flavor: Flavor) -> DrazinCertificate:
    """The flavor-inverse of a over a field, the one construction of every
    flavor, from the characteristic polynomial of N = den a alone.

    Write det(t I - N) = t^k g(t) with g(0) != 0, and g(t) = g(0) + t h(t).
    On the generalized 0-eigenspace of N, N^k = 0; on the rest g(N) = 0, so
    -h(N) / g(0) inverts N there. Hence N^D = N^k (-h(N) / g(0))^(k+1), a
    polynomial in N (Drazin 1958), and a^D = den N^D; over GF(p), N is a
    itself and den = 1. The coefficients are matrix_rings._chi(a), one
    Berkowitz run per matrix, shared with the unit transfer and
    spectral.char_poly when they ask for the same a. h(N) comes from
    matrix_rings._poly_at in max(n - k - 2, 0) products. Over a field
    the radical is 0 and quasinilpotent means nilpotent, so the Drazin
    inverse is also the p-Drazin and g-Drazin inverse, and the group
    inverse when its index is at most 1.
    The flavor's axioms are verified once. The group flavor raises
    NoGroupInverse when the certificate's index exceeds 1; a failed check,
    or an index above the algebraic multiplicity k of 0, raises
    FormulaViolation (a bug).
    """
    ring = a.ring
    if not ring.is_field:
        raise NotAField(f"drazin_inverse requires a field, got {ring}")
    n = a.n
    big_n = _numerators(a)
    cs = _chi(a)
    r = n  # the degree of g; chi is monic, so g = 1 and h = 0 when r = 0
    while r and not cs[r]:
        r -= 1
    k = n - r
    # g(t) = sum_(i<=r) cs[i] t^(r-i) and h has the coefficients cs[:r],
    # with the leading 1 of the monic chi written out, never read from cs.
    monic = [1, *cs[1:]]
    h, g0 = _poly_at(monic[:r], big_n), monic[r]
    x = h.power(k + 1)
    if k:
        x = big_n.power(k) * x
    rows = [[a.den * v for v in row] for row in x.num]
    cert = verify_axioms(a, _from_rows(ring, rows, (-g0) ** (k + 1)), flavor)
    if flavor is Flavor.GROUP and cert.index is not None and cert.index > 1:
        raise NoGroupInverse(f"index {cert.index} exceeds 1")
    if not cert.valid or cert.index > k:
        raise FormulaViolation(f"constructed {flavor.value} inverse failed verification")
    return cert


def drazin_inverse(a: SquareMatrix) -> DrazinCertificate:
    """Drazin inverse over a field, by flavor_inverse."""
    return flavor_inverse(a, Flavor.DRAZIN)


def group_inverse(
    a: SquareMatrix, candidate: Optional[SquareMatrix] = None
) -> DrazinCertificate:
    """Group inverse: construction over fields, verification anywhere.

    With a candidate supplied the axioms are checked against it directly,
    which works over any ring; a failing candidate raises NoGroupInverse
    naming the failed checks. Without one it is built by flavor_inverse,
    which raises NoGroupInverse when the index exceeds 1.
    """
    if candidate is None:
        return flavor_inverse(a, Flavor.GROUP)
    cert = verify_axioms(a, candidate, Flavor.GROUP)
    if not cert.valid:
        failed = [c.check for c in cert.checks if not c.passed]
        raise NoGroupInverse(f"candidate fails: {', '.join(failed)}")
    return cert


def no_group_inverse_reason(a: SquareMatrix) -> Optional[str]:
    """A ring-independent proof that a has no group inverse, when one exists.

    A nonzero nilpotent never has a group inverse in any ring: a = a^2 x
    forces a = a^m x^(m-1) = 0. Returns the explanation, or None when this
    criterion does not apply.
    """
    nil, degree = is_nilpotent(a)
    if nil and not a.is_zero:
        return (
            f"nonzero nilpotent (degree {degree}): a = a^2 x would force "
            f"a = a^{degree} x^{degree - 1} = 0"
        )
    return None


# -- intertwined-product operations ------------------------------------------------


@dataclass(frozen=True)
class ClineResult:
    """Outcome of the generalized inverse-product construction."""

    flavor: Flavor
    h_cert: DrazinCertificate
    e_cert: DrazinCertificate
    index_bound_holds: Optional[bool]
    classification: Optional[str]

    def to_json(self) -> dict[str, object]:
        return {
            "flavor": self.flavor.value,
            "ac_certificate": self.h_cert.to_json(),
            "bd_certificate": self.e_cert.to_json(),
            "index_bound_holds": self.index_bound_holds,
            "classification": self.classification,
        }


def _classify(index: Optional[int]) -> str:
    if index == 0:
        return "invertible"
    if index == 1:
        return "group"
    return "index-2"


def cline_generalized(
    q: Quadruple, flavor: Flavor = Flavor.DRAZIN, h: Optional[SquareMatrix] = None
) -> ClineResult:
    """Inverse of bd as b h^2 d, where h is the flavor-inverse of ac.

    Over fields h is constructed; over finite rings a brute-forced h may be
    supplied. The product b h^2 d is verified as the flavor-inverse of bd,
    and the index bound index(bd) <= index(ac) + 1 is asserted whenever both
    indices are defined. With a valid h, any verification failure here is an
    implementation bug, so it raises rather than reporting.
    """
    ac, bd = q.ac, q.bd
    if h is not None:
        h_cert = verify_axioms(ac, h, flavor)
        if not h_cert.valid:
            raise DrazinkitError(
                f"supplied candidate fails the {flavor.value} axioms for ac"
            )
    else:
        h_cert = flavor_inverse(ac, flavor)
    e = q.b * h_cert.inverse * h_cert.inverse * q.d
    e_flavor = Flavor.DRAZIN if flavor is Flavor.GROUP else flavor
    e_cert = verify_axioms(bd, e, e_flavor)
    if not e_cert.valid:
        raise FormulaViolation("b h^2 d failed verification as the inverse of bd")
    bound_ok: Optional[bool] = None
    if h_cert.index is not None and e_cert.index is not None:
        bound_ok = e_cert.index <= h_cert.index + 1
        if not bound_ok:
            raise FormulaViolation(
                f"index bound violated: {e_cert.index} > {h_cert.index} + 1"
            )
    classification = None
    if h_cert.index is not None and h_cert.index <= 1:
        classification = _classify(e_cert.index)
    return ClineResult(flavor, h_cert, e_cert, bound_ok, classification)


def cline_classical(
    a: SquareMatrix, b: SquareMatrix, flavor: Flavor = Flavor.DRAZIN
) -> DrazinCertificate:
    """Inverse of ba as b h^2 a with h the inverse of ab.

    The c = b, d = a specialization of the generalized construction: the
    intertwining relations hold identically there.
    """
    q = Quadruple(a, b, b, a)
    return cline_generalized(q, flavor).e_cert


class _Resolvent:
    """The unit transfer r = 1 + b (lambda - ac)^(-1) d of one quadruple at
    any nonzero lambda, as a polynomial in bd: the one statement of why
    lambda - bd is a unit wherever lambda - ac is one.

    Write chi(t) = det(t - ac). Then (lambda - t) q(t) = chi(lambda) - chi(t)
    for a polynomial q in t, so (lambda - ac) q(ac) = chi(lambda) once
    chi(ac) = 0, and b (ac)^j d = (bd)^(j+1), from bdb = bac, turns
    b q(ac) d into bd q(bd). Hence r = 1 + bd q(bd) / chi(lambda), and
    (lambda - bd) r = lambda - bd chi(bd) / chi(lambda). Two polynomial
    identities prove everything. With ac = A / alpha and bd = E / eps over
    integer numerators (matrix_rings._numerators: the residues themselves
    over GF(m) and Z/m, where both denominators are 1), matrix_rings._chi(ac)
    gives det(t I - A) = sum c_k t^(n-k): Berkowitz's recurrence, run once
    per matrix, so a quadruple whose ac has been through flavor_inverse or
    spectral.char_poly pays no second run here. Then
    - closure: sum c_k A^(n-k) = 0, which is chi(ac) = 0;
    - identity: sum c_k alpha^(n-k) eps^k E^(n-k+1) = 0, which is
      alpha^n eps^(n+1) bd chi(bd) = 0.
    Each is one matrix_rings._poly_at evaluation, checked zero in integers
    (mod m on residues): n - 1 and n products, 2n - 1 per quadruple, made
    once, at the first lambda whose X is a unit of the ring.

    At lambda = p / s the integers W_0 = 1, W_k = p alpha W_(k-1) + c_k s^k
    are (alpha s)^k times the Horner partial sums of chi at lambda, and
    X = W_n = (alpha s)^n chi(lambda) = exact_arith._shifted_det(cs, p alpha, s),
    with cs = _chi(ac) read once, when the resolvent is made. The
    closure makes lambda - ac a unit when X is one. The identity then gives
    (lambda - bd) r = lambda at every such lambda, with r = R / (X eps^n),
    R = sum v_m E^m and v_m = W_(n-m) (alpha s)^m eps^(n-m): no matrix is
    scaled by 1/lambda. r is a polynomial in bd, so it commutes with
    lambda - bd and the proof is two-sided. Where X is no unit,
    lambda - ac must be singular, and inverse(lambda - ac) is asked to
    confirm it by raising NotInvertible. Any other outcome raises
    FormulaViolation.

    verdict(lambda) decides both sides without assembling r. The bd side is
    the same evaluation on _chi(bd), the polynomial spectral.char_poly(bd)
    reads too: (eps s)^n det(lambda - bd) = _shifted_det(_chi(bd), p eps, s),
    unreduced, since a unit test mod m reads it mod m. Each bd verdict
    rests on two routes. Where lambda - ac is a unit, the identity has
    proven lambda - bd one, and a chi(bd) that finds no unit raises
    FormulaViolation. Where lambda - ac is singular nothing is proven, so
    det(lambda - bd), an independent elimination, must give the same
    verdict, or FormulaViolation is raised.
    """

    __slots__ = ("q", "e", "cs", "proven")

    def __init__(self, q: Quadruple):
        self.q = q
        self.e = _numerators(q.bd)
        self.cs = _chi(q.ac)
        self.proven = False

    def _split(self, lam: Scalar | float | str) -> tuple[Fraction, int, int]:
        """(lambda, p, s): lambda as a Fraction, and p / s its lowest terms
        with s > 0, after the checks on lambda.

        lambda is normalised here and nowhere else: a Fraction is read as it
        stands, and anything else Fraction accepts (an int, a float, a
        string such as "1/2") goes through Fraction once; what Fraction
        refuses (a NaN, an infinity, None, "abc", "1/0") raises
        DrazinkitError naming lambda. The checks are integer tests:
        lambda = 0 is p = 0, and lambda = 1 is p = s.
        """
        if not isinstance(lam, Fraction):
            try:
                lam = Fraction(lam)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise DrazinkitError(f"lambda {lam!r} is not a rational number") from None
        p, s = lam.numerator, lam.denominator
        if not p:
            raise ZeroLambda("lambda must be nonzero")
        if p != s and self.q.ring.kind != "Q":
            raise UnsupportedRing(f"scaling needs Q, got {self.q.ring}")
        return lam, p, s

    def unit_numerator(self, lam: Fraction, p: int, s: int) -> int:
        """X = (alpha s)^n det(lambda - ac) at lambda = p / s, as _split
        gives them, proven a unit of the ring together with the formula for
        r; raises NotInvertible, from inverse, when lambda - ac is
        singular."""
        q = self.q
        x = _shifted_det(self.cs, p * q.ac.den, s)
        if not q.ring.is_unit_scalar(x):
            inverse(self._shifted(lam, q.ac))
            raise FormulaViolation(
                "lambda - ac inverted although its resolvent determinant is no unit"
            )
        if not self.proven:
            n, cs, alpha, eps = q.n, self.cs, q.ac.den, q.bd.den
            if not _poly_at(cs, _numerators(q.ac)).is_zero:
                raise FormulaViolation(
                    "the characteristic polynomial of ac fails Cayley-Hamilton"
                )
            scaled = [c * alpha ** (n - k) * eps**k for k, c in enumerate(cs)]
            if not _poly_at(scaled + [0], self.e).is_zero:
                raise FormulaViolation(
                    "1 + b (lambda - ac)^(-1) d failed to invert 1 - bd/lambda"
                )
            self.proven = True
        return x

    def _shifted(self, lam: Fraction, m: SquareMatrix) -> SquareMatrix:
        """lambda I - m, for the elimination cross-checks."""
        return SquareMatrix.identity(self.q.ring, self.q.n).scalar_mul(lam) - m

    def verdict(self, lam: Scalar | float | str) -> tuple[Fraction, bool, bool]:
        """(lambda, whether lambda - ac is a unit, whether lambda - bd is),
        both cross-checked."""
        lam, p, s = self._split(lam)
        try:
            self.unit_numerator(lam, p, s)
            ac_ok = True
        except NotInvertible:
            ac_ok = False
        q = self.q
        bd_ok = q.ring.is_unit_scalar(_shifted_det(_chi(q.bd), p * q.bd.den, s))
        if ac_ok and not bd_ok:
            raise FormulaViolation(
                "lambda - ac is a unit but lambda - bd is not at lambda = "
                + format_rational(lam)
            )
        if not ac_ok and bd_ok != q.ring.is_unit_scalar(det(self._shifted(lam, q.bd))):
            raise FormulaViolation(
                "the characteristic polynomial and the determinant of "
                "lambda - bd disagree on a unit at lambda = " + format_rational(lam)
            )
        return lam, ac_ok, bd_ok

    def inverse_at(self, lam: Scalar | float | str) -> SquareMatrix:
        """r = R / (X eps^n), proven by unit_numerator; n - 1 products."""
        lam, p, s = self._split(lam)
        x = self.unit_numerator(lam, p, s)
        q = self.q
        n, cs, alpha, eps = q.n, self.cs, q.ac.den, q.bd.den
        u, scale = p * alpha, alpha * s
        # v_(n-k) = W_k (alpha s)^(n-k) eps^k, highest degree first.
        vs = [
            _shifted_det(cs[:k + 1], u, s) * scale ** (n - k) * eps**k
            for k in range(n + 1)
        ]
        return _from_rows(q.ring, _poly_at(vs, self.e).num, x * eps**n)


def jacobson_inverse(q: Quadruple, lam: Scalar | float | str = 1) -> SquareMatrix:
    """(1 - bd/lambda)^(-1) as r = 1 + b (lambda - ac)^(-1) d.

    The unit transfer: lambda - bd is a unit whenever lambda - ac is. r is
    a polynomial in bd, read off chi(t) = det(t - ac) and proven for every
    lambda at once by two polynomial identities in 2n - 1 products, r
    itself taking n - 1 more; _Resolvent holds the argument. lambda is
    anything Fraction accepts: Fraction(1, 2), 0.5 and "1/2" are one lambda;
    anything else raises DrazinkitError naming it.
    Raises ZeroLambda for lambda = 0, UnsupportedRing for lambda != 1
    outside Q, and NotInvertible, with inverse's own text, when
    lambda - ac is singular. A failed check raises FormulaViolation
    (always an implementation bug).
    """
    return _Resolvent(q).inverse_at(lam)
