"""Drazin-family inverses: index, construction, axiom verification, and the
intertwined-product operations.

The four inverse flavors share the commutation and absorption axioms and
differ only in what the core a - a^2 x must satisfy: nilpotent (drazin),
nilpotent with index at most one (group), in the Jacobson radical at some
power (pdrazin), or quasinilpotent (gdrazin). Construction is offered over
fields, by flavor_inverse alone: one formula for every flavor, verified once
under the flavor asked for. Over Z and Z/n only verification is available,
with brute-force search providing candidates from the lab module. The unit
transfer (jacobson_inverse) has one route in all four rings: a
Cayley-Hamilton resolvent of ac, built once per quadruple, whose formula is
proven for every lambda at once by one polynomial identity checked in
exact integer products. The identity is checked on one side only: once it
holds, both factors are polynomials in bd and commute, so the proof is
two-sided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import (
    DimensionMismatch,
    DrazinkitError,
    FormulaViolation,
    NoGroupInverse,
    NotAField,
    NotInvertible,
    RelationViolation,
    RingMismatch,
    UnsupportedRing,
    ZeroLambda,
)
from .matrix_rings import (
    RING_Z,
    Scalar,
    SquareMatrix,
    _berkowitz,
    _first_power,
    _from_rows,
    _nilpotency_bound,
    in_radical,
    inner_inverse,
    inverse,
    is_nilpotent,
    matrix_from_json,
    matrix_to_json,
    rank,
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

    Construction validates bdb = bac and dbd = acd exactly, as matrix
    equalities, and rejects the input with the full report otherwise (the
    report is built only then), so every Quadruple in circulation satisfies
    the hypotheses of every transfer formula in this module.
    """

    __slots__ = ("a", "b", "c", "d", "ac", "bd")

    def __init__(
        self, a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, d: SquareMatrix
    ):
        for other in (b, c, d):
            a._require_compatible(other)
        ac, bd = a * c, b * d
        if bd * b != b * ac or d * bd != ac * d:
            report = intertwining_report(a, b, c, d)
            failing = [
                r["relation"] for r in report["relations"] if not r["holds"]  # type: ignore[index]
            ]
            raise RelationViolation(
                f"intertwining relations fail: {', '.join(failing)}", report=report
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "ac", ac)
        object.__setattr__(self, "bd", bd)

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
        """The matrices a, b, c, d of a quadruple JSON object, unvalidated.

        Only the schema is checked here; the relations are checked when the
        matrices are passed to the constructor.
        """
        if not isinstance(obj, dict):
            raise DrazinkitError("quadruple JSON must be an object with keys a, b, c, d")
        extra = set(obj) - {"a", "b", "c", "d"}
        if extra:
            raise DrazinkitError(f"unknown quadruple fields: {sorted(extra)}")
        missing = {"a", "b", "c", "d"} - set(obj)
        if missing:
            raise DrazinkitError(f"quadruple JSON missing {sorted(missing)}")
        return tuple(matrix_from_json(obj[k]) for k in ("a", "b", "c", "d"))

    @staticmethod
    def from_json(obj: object) -> "Quadruple":
        return Quadruple(*Quadruple.matrices_from_json(obj))


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


# -- index and axiom verification -------------------------------------------------


def index_of(a: SquareMatrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)); fields only."""
    if not a.ring.is_field:
        raise NotAField(f"index_of requires a field, got {a.ring}")
    r_prev = a.n
    power = a
    for k in range(a.n + 1):
        r_next = rank(power)
        if r_next == r_prev:
            return k
        r_prev = r_next
        power = power * a
    raise FormulaViolation("rank sequence failed to stabilize within n steps")


def verify_axioms(a: SquareMatrix, x: SquareMatrix, flavor: Flavor) -> DrazinCertificate:
    """Certificate with the full transcript for x as a flavor-inverse of a.

    Failures are recorded in the transcript, never raised. The commuting
    axiom is checked as a x = x a; the literal double-commutant condition is
    enumerable only over finite rings and lives on the brute-force path.
    Every flavor then walks the powers of the one core a - a^2 x once: to
    zero for drazin, group and gdrazin, into the Jacobson radical for
    pdrazin. A candidate passing both axioms gets the walk's degree as its
    index, or 0 when a x = 1; any other candidate gets no index.
    """
    a._require_compatible(x)
    checks: list[AxiomCheck] = []
    ax = a * x
    commute = ax == x * a
    checks.append(
        AxiomCheck("commutes", commute, "a x = x a" if commute else "a x != x a")
    )
    absorb = x * ax == x
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
    core = a - a * ax
    pdrazin = flavor is Flavor.PDRAZIN
    degree = _first_power(core, in_radical) if pdrazin else is_nilpotent(core)[1]
    reached = degree is not None
    index = None
    if commute and absorb and reached:
        index = 0 if ax == SquareMatrix.identity(a.ring, a.n) else degree
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
    flavor: a^k (a^(2k+1))^- a^k with k = index_of(a), for any inner inverse.

    Over a field the radical is 0 and quasinilpotent means nilpotent, so the
    Drazin inverse is also the p-Drazin and g-Drazin inverse, and the group
    inverse when k <= 1; for k > 1 the group flavor raises NoGroupInverse
    before anything is built. The flavor's axioms are verified once, and a
    failure or an index other than k raises FormulaViolation (a bug).
    """
    if not a.ring.is_field:
        raise NotAField(f"drazin_inverse requires a field, got {a.ring}")
    k = index_of(a)
    if flavor is Flavor.GROUP and k > 1:
        raise NoGroupInverse(f"index {k} exceeds 1")
    x = inner_inverse(a.power(2 * k + 1))
    if k:
        a_k = a.power(k)
        x = a_k * x * a_k
    cert = verify_axioms(a, x, flavor)
    if not cert.valid or cert.index != k:
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


def _shifted_det(cs: list[int], u: int, s: int) -> int:
    """det(u I - s A) = sum c_k u^(n-k) s^k, from the coefficients
    [c_0, ..., c_n] of det(t I - A), by Horner's rule homogeneous in (u, s).
    With u = p den and A the integer numerators of a = A / den, it is
    (s den)^n det(lambda - a) at lambda = p / s."""
    x, s_k = cs[0], 1
    for c in cs[1:]:
        s_k *= s
        x = x * u + c * s_k
    return x


class _Resolvent:
    """The unit transfer r = 1 + b (lambda - ac)^(-1) d of one quadruple at
    any nonzero lambda, from one Cayley-Hamilton resolvent of ac.

    With ac = A / alpha, b = B / beta, d = D / delta and bd = E / eps over
    integer numerators (the residues themselves over GF(m) and Z/m, where
    every denominator is 1), Berkowitz's recurrence gives
    det(t I - A) = sum c_k t^(n-k), and Cayley-Hamilton gives
    adj(t I - A) = sum_(k<n) t^(n-1-k) M_k with M_0 = I and
    M_k = A M_(k-1) + c_k I. Only C_k = B M_k D is needed, and it is formed
    once per quadruple without M_k: b (ac) = (bd) b, from bdb = bac, turns
    B A into (alpha / eps) E B, so C_0 = B D = beta delta E / eps and
    C_k = alpha E C_(k-1) / eps + c_k C_0, each division exact. At
    lambda = p / s, the integers X = sum c_k (p alpha)^(n-k) s^k, which
    is (alpha s)^n det(lambda - ac), and Y = sum (p alpha)^(n-1-k) s^k C_k
    give r = R / (beta delta X) with R = beta delta X I + alpha s Y. E and
    every C_k are matrices over Z (over the residue ring itself on GF(m)
    and Z/m), and each combination of them is brought to stored form by
    matrix_rings._from_rows.

    Nothing is taken on trust, and the proofs are made once per quadruple,
    at the first lambda whose X is a unit of the ring. The verdict that
    lambda - ac is a unit rests on Cayley-Hamilton closure: with
    M_0 = c_0 I, A M_(n-1) + c_n I = 0. Then X I = (u I - s A) Q(A) for an
    integer polynomial Q, u = p alpha, so a unit X makes lambda - ac a
    unit. The formula rests on one polynomial identity. With V = p eps I -
    s E, the numerators of s eps (lambda - bd), V R - p eps beta delta X I
    is s times a form in (u, s) whose u^(n-k) s^k coefficient is
    eps C_k - beta delta c_k E - alpha E C_(k-1) (C_(-1) = C_n = 0). All
    n + 1 coefficients are checked zero in integers (mod m on residues).
    The products E C_0 ... E C_(n-2) are the ones that built C_1 ... C_(n-1),
    kept from construction (the same operands through the same exact
    product, so a second run could not disagree): the checks at k < n prove
    each division by eps exact, and one product E C_(n-1) is made for the
    check at k = n. That proves
    (lambda - bd) r = lambda, and r (lambda - bd) = lambda follows with no
    check of its own: once the coefficients vanish, each C_k is a
    polynomial in E (over Q; eps = 1 on residues), so R and V commute.
    Hence the identity is two-sided at every lambda where X is a unit.
    Where X is no unit, lambda - ac must be singular, and
    inverse(lambda - ac) is asked to confirm it by raising NotInvertible.
    Any other outcome raises FormulaViolation.
    """

    __slots__ = ("q", "zring", "alpha", "bd_den", "eps", "e", "cs", "cks", "ecs", "proven")

    def __init__(self, q: Quadruple):
        ring = q.ring
        # The integer numerators live over Z off the residue rings.
        zring = ring if ring.is_finite else RING_Z
        ac, bd = q.ac, q.bd
        alpha, bd_den, eps = ac.den, q.b.den * q.d.den, bd.den
        cs = _berkowitz(ac.num, ring.modulus)
        e = SquareMatrix._trusted(zring, bd.num)
        c0 = _from_rows(zring, [[bd_den * x for x in row] for row in e.num], eps)
        cks, ecs = [c0], []  # ecs[k] = E C_k
        for c in cs[1:q.n]:
            ecs.append(e * cks[-1])
            rows = [
                [alpha * x + eps * c * y for x, y in zip(r1, r2)]
                for r1, r2 in zip(ecs[-1].num, c0.num)
            ]
            cks.append(_from_rows(zring, rows, eps))
        self.q, self.zring, self.e, self.cs, self.cks = q, zring, e, cs, cks
        self.ecs = ecs
        self.alpha, self.bd_den, self.eps = alpha, bd_den, eps
        self.proven = False

    def _check_closure(self) -> None:
        """Raise FormulaViolation unless sum c_k A^(n-k) = 0, by the
        recurrence M_k = A M_(k-1) + c_k I, n integer products."""
        n, cs, zring = self.q.n, self.cs, self.zring
        big_a = SquareMatrix._trusted(zring, self.q.ac.num)
        rows = [[cs[0] * (i == j) for j in range(n)] for i in range(n)]
        mk = _from_rows(zring, rows, 1)
        for c in cs[1:]:
            rows = [
                [x + c * (i == j) for j, x in enumerate(row)]
                for i, row in enumerate((big_a * mk).num)
            ]
            mk = _from_rows(zring, rows, 1)
        if not mk.is_zero:
            raise FormulaViolation(
                "the characteristic polynomial of ac fails Cayley-Hamilton"
            )

    def _check_identity(self) -> None:
        """Raise FormulaViolation unless every coefficient of V R minus
        p eps beta delta X I vanishes, by one integer product, E C_(n-1);
        the E C_(k-1) below it are the construction's own. A C_k changed
        after construction, or a division by eps that was not exact, still
        leaves coefficient k nonzero. R V needs no check: while the
        coefficients below k vanish, C_(k-1) is a polynomial in E, so
        C_(k-1) E = E C_(k-1) and the R V coefficient at k is the V R one."""
        zring, e = self.zring, self.e
        zero = SquareMatrix.zeros(zring, self.q.n)
        e_cs = [zero, *self.ecs, e * self.cks[-1]]  # E C_(k-1), C_(-1) = 0
        for c, ck, e_c in zip(self.cs, self.cks + [zero], e_cs):
            rows = [
                [self.eps * x - self.bd_den * c * y - self.alpha * z
                 for x, y, z in zip(r1, r2, r3)]
                for r1, r2, r3 in zip(ck.num, e.num, e_c.num)
            ]
            if not _from_rows(zring, rows, 1).is_zero:
                raise FormulaViolation(
                    "1 + b (lambda - ac)^(-1) d failed to invert 1 - bd/lambda"
                )

    def _split(self, lam: Scalar) -> tuple[int, int]:
        """(p, s) with lambda = p / s and s > 0, after the checks on lambda."""
        if lam == 0:
            raise ZeroLambda("lambda must be nonzero")
        if lam != 1 and self.q.ring.kind != "Q":
            raise UnsupportedRing(f"scaling needs Q, got {self.q.ring}")
        return lam.numerator, lam.denominator

    def shifted_bd(self, lam: Scalar) -> SquareMatrix:
        """V = p eps I - s E, the integer numerators of s eps (lambda - bd).
        The unit transfer takes its determinant only where lambda - ac is
        singular, as the elimination cross-check of the bd verdict that
        the characteristic polynomial of E gives (spectral)."""
        p, s = self._split(lam)
        diag = p * self.eps
        rows = [
            [diag * (i == j) - s * x for j, x in enumerate(row)]
            for i, row in enumerate(self.e.num)
        ]
        return _from_rows(self.zring, rows, 1)

    def unit_numerator(self, lam: Scalar) -> int:
        """X = (alpha s)^n det(lambda - ac), proven a unit of the ring
        together with the formula for r; raises NotInvertible, from
        inverse, when lambda - ac is singular."""
        p, s = self._split(lam)
        q = self.q
        x = self.zring.canon(_shifted_det(self.cs, p * self.alpha, s))
        if not q.ring.is_unit_scalar(x):
            inverse(SquareMatrix.identity(q.ring, q.n).scalar_mul(lam) - q.ac)
            raise FormulaViolation(
                "lambda - ac inverted although its resolvent determinant is no unit"
            )
        if not self.proven:
            self._check_closure()
            self._check_identity()
            self.proven = True
        return x

    def inverse_at(self, lam: Scalar) -> SquareMatrix:
        """r = R / (beta delta X), proven by unit_numerator."""
        x = self.unit_numerator(lam)
        p, s = self._split(lam)
        u = p * self.alpha
        y, s_k = self.cks[0].num, 1
        for ck in self.cks[1:]:
            s_k *= s
            y = [[e * u + s_k * c for e, c in zip(r1, r2)] for r1, r2 in zip(y, ck.num)]
        den = self.bd_den * x
        scale = self.alpha * s
        rows = [
            [scale * e + den * (i == j) for j, e in enumerate(row)]
            for i, row in enumerate(y)
        ]
        return _from_rows(self.q.ring, rows, den)


def jacobson_inverse(q: Quadruple, lam: Scalar = 1) -> SquareMatrix:
    """(1 - bd/lambda)^(-1) as r = 1 + b (lambda - ac)^(-1) d.

    The unit transfer: lambda - bd is a unit whenever lambda - ac is. From
    bdb = bac and dbd = acd, (lambda - bd) r = r (lambda - bd) = lambda. r
    comes from the Cayley-Hamilton resolvent of ac, the one route in all
    four rings, which proves (lambda - bd) r = lambda in integers for every
    lambda at once, with no matrix scaled by 1/lambda (see _Resolvent). The
    other side needs no check of its own: r and lambda - bd are then both
    polynomials in bd, so they commute and the identity is two-sided.
    Raises ZeroLambda for lambda = 0, UnsupportedRing for lambda != 1
    outside Q, and NotInvertible, with inverse's own text, when
    lambda - ac is singular. A failed check raises FormulaViolation
    (always an implementation bug).
    """
    return _Resolvent(q).inverse_at(lam)
