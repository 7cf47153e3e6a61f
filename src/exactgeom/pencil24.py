"""Counting members of a (3,4)-curve pencil with a vertical bitangent.

A curve of bidegree (3,4) on P^1 x P^1 over GF(p) is stored through its 20
coefficients c[i][j] of x^(3-i) y^i u^(4-j) v^j, as ints in [0, p); a curve
over ZZ (p = None) holds any ints.  For the pencil F0 + t F1 the
fiber-quartic coefficients A..E become polynomials in (x, y, t); the
discriminant and seminvariant conditions give forms Delta (degree 18) and d
(degree 12) in (x, y), and eliminating (x, y) yields R(t), whose roots are
the pencil members for which the two conditions share a fiber.

The pencil is sampled once, into a cached table: at the members t = 0..6,
A..E are read at y = 1 as ints, Delta(x, 1), d(x, 1) and the closure-square
conditions of the fiber quartic are interpolated from their values at
x = 0..18, and every x^i coefficient of these six forms is interpolated in t.
R(t) is :func:`exactgeom.zpoly.sampled_resultant` of Delta(x, 1) and d(x, 1)
mod p, and Rc(t) with S1 (below) is one more call to it.  A pencil over ZZ
gets the same table, interpolated exactly, and R(t) over ZZ.  Validation reads
A..E and the conditions modulo each factor of R that divides Rc and at
t = infinity, as coefficient lists in x at y = 1, and Delta and d only to
flag a degenerate member.

The raw eliminant is heavily non-reduced and contains extraneous factors
(leading-coefficient collapse, fibers where A and B both vanish, and the
non-square branch of the joint discriminant/seminvariant locus), so the
degree of its squarefree part overcounts.  Each irreducible factor m(t) is
therefore settled in the exact field GF(p)[t]/(m), where a polynomial c(t)
takes the value c mod m.  A square fiber has Delta = d = 0 and also
c1 = c2 = 0, where c1 and c2 are the closure-square conditions for A != 0
(at A = 0 a square forces B = 0, and then c1 = c2 = 0 as well), so its
member is a root of the condition resultant Rc(t) = Res_x(c1, c2).  The
squarefree part is factored in two pieces, its gcd with Rc and the
cofactor; a factor of the cofactor is reported extraneous without
validation unless Delta and d vanish identically mod m.  Every other factor
is validated: some fiber of the member, found from the closure-square
conditions alone and constructed in a further extension when necessary,
must admit a perfect-square witness, which is re-verified by squaring.  The
fiber is read off the first subresultant S1 = s11 x + s10 of (c1, c2),
sampled with Rc, when s11 does not vanish mod m, and from gcds of the
conditions otherwise.  The validated count is the sum of deg(m) over
validated factors; for a generic pencil it equals the degree 24 of the
vertical-bitangent hypersurface.  The member at t = infinity (F1 itself) is
validated separately and never added to the count.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import univar, zpoly
from .binform import dehomogenize
from .domains import ExtensionField, FiniteField, PrimeField
from .errors import VerificationError
from .multipoly import MultiPoly
from .quartic import (
    QuarticCoeffs,
    closure_conditions_a_nonzero,
    closure_conditions_a_zero,
    closure_square_witness,
    disc_delta,
    sem_d,
)
MIN_PRIME = 1000
# degrees k in A..E of the forms of _member_forms (Delta, d and the
# closure-square conditions for A != 0 and A = 0): A..E are linear in t and
# cubic in x, so a form has t-degree k and x-degree 3k
FORM_T_DEGREES = (6, 4, 3, 4, 1, 2)
# R(t) is a Sylvester determinant: 3 * 4 rows of Delta, 3 * 6 rows of d, each
# of t-degree 6 or 4; a generic pencil samples it at this many points
ELIMINANT_POINTS = 2 * 3 * FORM_T_DEGREES[0] * FORM_T_DEGREES[1] + 1

# The transversality family P_0 + alpha Q, Q = -x^3 v^2 (u - v)^2, in the
# layout of Curve34; every other form of the family is derived from these two.
FAMILY_P0 = {(0, 0): 1, (3, 0): 1, (0, 1): -2, (0, 2): 1, (1, 4): 1, (3, 4): 1}
FAMILY_Q = {(0, 2): -1, (0, 3): 2, (0, 4): -1}


@dataclass(frozen=True)
class Curve34:
    """A (3,4)-curve over GF(p), or over ZZ when p is None: coefficient
    c[i][j] multiplies x^(3-i) y^i u^(4-j) v^j, an int in [0, p) over GF(p)."""

    p: Optional[int]
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 4 or any(len(row) != 5 for row in self.coeffs):
            raise ValueError("a (3,4)-curve needs a 4 x 5 coefficient array")
        if self.p is None:
            return
        PrimeField(self.p)  # raises ValueError for a p that GF(p) rejects
        if any(not 0 <= c < self.p for row in self.coeffs for c in row):
            raise ValueError(f"curve coefficients must be ints in [0, {self.p})")

    def is_proportional_to(self, other: "Curve34") -> bool:
        p = self.p
        ratio = None
        for row_a, row_b in zip(self.coeffs, other.coeffs):
            for a, b in zip(row_a, row_b):
                if not a and not b:
                    continue
                if not a or not b:
                    return False
                r = a * pow(b, -1, p) % p
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
        return True


def curve_from_ints(p: Optional[int], entries: dict[tuple[int, int], int]) -> Curve34:
    rows = [[0] * 5 for _ in range(4)]
    for (i, j), value in entries.items():
        rows[i][j] = value if p is None else value % p
    return Curve34(p, tuple(tuple(row) for row in rows))


def random_curve(p: int, rng: random.Random) -> Curve34:
    return Curve34(p, tuple(tuple(rng.randrange(p) for _ in range(5)) for _ in range(4)))


def random_pencil(p: int, seed: int) -> tuple[Curve34, Curve34]:
    """A reproducible generic pencil: deterministic in (p, seed).

    Rejection-resamples until the screens pass: the fiber quartics of both
    spanning members at [1:0] and [0:1] have nonzero leading coefficient A,
    the members are not proportional, and the raw eliminant R(t) is not
    identically zero.  More than 100 consecutive rejections signals a bug.
    """
    if p <= MIN_PRIME:
        raise ValueError(f"pencil counting requires a prime > {MIN_PRIME}, got {p}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = random.Random(f"pencil:{p}:{seed}")
    for _ in range(100):
        f0 = random_curve(p, rng)
        f1 = random_curve(p, rng)
        if not (f0.coeffs[0][0] and f0.coeffs[3][0] and f1.coeffs[0][0] and f1.coeffs[3][0]):
            continue
        if f0.is_proportional_to(f1):
            continue
        if not raw_resultant(f0, f1):
            continue
        return f0, f1
    raise RuntimeError("100 consecutive pencil rejections: genericity screens never passed")


def _member_forms(f0: Curve34, f1: Curve34, t: int) -> Iterator[tuple[int, ...]]:
    """Lazily, from the int fiber quartics of the member F0 + t F1 at y = 1:
    Delta(x, 1), d(x, 1) and the two pairs of closure-square conditions, each
    branch read at every x whatever the value of A there.  A form of degree k
    in A..E (:data:`FORM_T_DEGREES`) is interpolated from x = 0..3k: ints mod
    p, or over ZZ for a pencil over ZZ, low degree first, padded to degree 3k
    (the leading one may be 0)."""
    cubics = [[a + t * b for a, b in cs] for cs in _cubics_in_t(f0, f1)]
    delta_k, d_k, *ks = FORM_T_DEGREES
    xs = range(3 * delta_k + 1)
    fibers = [QuarticCoeffs(*(zpoly.int_eval(cs, x) for cs in cubics)) for x in xs]

    def interpolated(values, k: int) -> tuple[int, ...]:
        return _padded(zpoly.interpolate(values, f0.p), 3 * k)

    yield interpolated([disc_delta(q) for q in fibers], delta_k)
    yield interpolated([sem_d(q) for q in fibers[: 3 * d_k + 1]], d_k)
    branches = (closure_conditions_a_nonzero, ks[:2]), (closure_conditions_a_zero, ks[2:])
    for branch, pair in branches:
        for values, k in zip(zip(*map(branch, fibers[: 3 * max(pair) + 1])), pair):
            yield interpolated(values, k)


def _cubics_in_t(f0: Curve34, f1: Curve34) -> list[list[tuple[int, int]]]:
    # A..E at y = 1: column j is the cubic whose x^i coefficient is c0[3-i][j] + t c1[3-i][j]
    return [[(f0.coeffs[3 - i][j], f1.coeffs[3 - i][j]) for i in range(4)] for j in range(5)]


def _padded(cs: list[int], degree: int) -> tuple[int, ...]:
    return tuple(cs) + (0,) * (degree + 1 - len(cs))


@functools.lru_cache(maxsize=64)
def _forms_in_t(f0: Curve34, f1: Curve34) -> tuple[tuple[tuple, int], ...]:
    """The forms of F0 + t F1 as x^i coefficients in GF(p)[t], or in ZZ[t]
    for a pencil over ZZ, with their t-degrees: the six of
    :func:`_member_forms` interpolated from t = 0..6, then the cubics A..E of
    :func:`_cubics_in_t`.  Every member, t = infinity included, is read from
    these polynomials; the table is cached, so a pencil is sampled once."""
    if f0.p != f1.p:
        raise ValueError("pencil members live over different fields")
    p = f0.p
    rows = [tuple(_member_forms(f0, f1, t)) for t in range(max(FORM_T_DEGREES) + 1)]
    forms = [
        ([zpoly.interpolate(col, p) for col in zip(*(row[k] for row in rows[: n + 1]))], n)
        for k, n in enumerate(FORM_T_DEGREES)
    ] + [(cs, 1) for cs in _cubics_in_t(f0, f1)]
    return tuple((tuple(map(tuple, cs)), n) for cs, n in forms)


@functools.lru_cache(maxsize=64)
def raw_resultant(f0: Curve34, f1: Curve34) -> tuple[int, ...]:
    """R(t) = Res_(x,y)(Delta, d) as a coefficient tuple over GF(p), or over
    ZZ for a pencil over ZZ: the resultant of Delta(x, 1) and d(x, 1) at the
    formal degrees 18 and 12."""
    (delta, _), (d, _) = _forms_in_t(f0, f1)[:2]
    return tuple(zpoly.sampled_resultant(delta, d, f0.p))


def condition_resultant(f0: Curve34, f1: Curve34) -> tuple[tuple[int, ...], Optional[tuple]]:
    """Rc(t) = Res_x(c1, c2) of the closure-square conditions for A != 0, at
    the formal degrees 9 and 12, as a coefficient tuple over GF(p); and the
    first subresultant S1 = s11 x + s10 of (c1, c2) as the pair (s10, s11)
    of coefficient tuples, or None when the remainder sequence is not normal
    at every sample point.  One sampling pass at 12 * 3 + 9 * 4 + 1 = 73
    points gives both (:func:`exactgeom.zpoly.sampled_resultant`)."""
    (c1, _), (c2, _) = _forms_in_t(f0, f1)[2:4]
    rc, s1 = zpoly.sampled_resultant(c1, c2, f0.p, first_subresultant=True)
    return tuple(rc), None if s1 is None else tuple(map(tuple, s1))


# --- validation of a single member --------------------------------------------


@dataclass(frozen=True)
class FactorReport:
    """Validation outcome for one irreducible factor of the squarefree eliminant."""

    modulus: tuple[int, ...]
    degree: int
    validated: bool
    detail: str
    root_field_degree: Optional[int] = None
    witness: Optional[str] = None
    distinct_double_roots: Optional[bool] = None

    def summary(self) -> dict:
        # canonical ints in [0, p) print the same over QQ as over GF(p)
        factor = MultiPoly(("t",), {(e,): c for e, c in enumerate(self.modulus)})
        out = {
            "factor": factor.to_text(),
            "degree": self.degree,
            "validated": self.validated,
            "detail": self.detail,
        }
        for key in ("root_field_degree", "witness", "distinct_double_roots"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


def absolute_degree(field: FiniteField) -> int:
    degree = 1
    while isinstance(field, ExtensionField):
        degree *= field.degree
        field = field.base
    return degree


def _at_root(c: list[int], m: list[int], field: FiniteField):
    """c(tau) at a root tau of m, as a raw value of field = GF(p)[t]/(m), or of
    GF(p) for a linear m: the remainder of c mod m in the basis 1, t, ..., t^(deg m - 1)."""
    residue = _padded(zpoly.zp_rem(c, m, field.char), zpoly.zp_deg(m) - 1)
    return residue if isinstance(field, ExtensionField) else residue[0]


def _fiber_witness(abcde: list, field: FiniteField, x0, y0, label: str) -> Optional[dict]:
    """A verified perfect-square witness for the fiber quartic at [x0:y0], if any.

    Every caller passes y0 = 1, where the cubic with x^i y^(3-i) coefficient
    cs[i] is cs(x0) by :func:`exactgeom.zpoly.int_eval`, or [1:0], where it is cs[3].
    """
    fiber = QuarticCoeffs(*(zpoly.int_eval(cs, x0) if y0 else cs[3] for cs in abcde))
    witness = closure_square_witness(fiber, field)
    if witness is None:
        return None
    if not witness.reproduces(fiber):
        raise VerificationError("square witness failed to reproduce the fiber quartic")
    disc = witness.q1 * witness.q1 - 4 * witness.q0 * witness.q2
    return {
        "detail": f"perfect-square fiber at {label}",
        "root_field_degree": absolute_degree(witness.field),
        "witness": f"({witness.q0!r})*u^2 + ({witness.q1!r})*u*v + ({witness.q2!r})*v^2",
        "distinct_double_roots": bool(disc),
    }


def _witness_at_root(abcde: list, field: FiniteField, root) -> dict:
    """The witness at [root:1], a common root of the closure-square conditions."""
    outcome = _fiber_witness(abcde, field, root, field.one(), f"[{root!r}:1]")
    if outcome is None:
        # roots found from the closure-square conditions of their branch are
        # square fibers by construction, so a missing witness is an internal
        # contradiction
        raise VerificationError("no square witness at a root of the closure-square conditions")
    return outcome


def _witness_at_gcd_root(abcde: list, field: FiniteField, w: list, rng) -> dict:
    """The witness at a root of w (raw values), adjoined in an extension when w
    has no linear factor; ``abcde`` holds field elements."""
    h = w if univar.deg(w) == 1 else univar.ff_factor_squarefree(w, field, rng)[0]
    h = [field.wrap(c) for c in h]
    if univar.deg(h) == 1:
        return _witness_at_root(abcde, field, -h[0] / h[1])
    root_field = ExtensionField(field, h, name=f"w{absolute_degree(field)}", check=False)
    abcde = [[root_field.from_base(c) for c in cs] for cs in abcde]
    return _witness_at_root(abcde, root_field, root_field.generator())


def _subresultant_root(s1: tuple, a: list, c1: list, c2: list, field: FiniteField):
    """x0 = -s10/s11 from the raw values (s10, s11) of the first subresultant
    of (c1, c2) on a member, if s11 != 0, a leading coefficient of c1 or c2
    is nonzero, x0 != 0, A(x0) != 0 and c1(x0) = c2(x0) = 0; else None.  A,
    c1 and c2 are coefficient lists of field elements.

    Then gcd(c1, c2) has degree exactly 1: a nonzero minor s11 makes some
    combination of multiples of c1 and c2 equal x + c, so the gcd has degree
    at most 1, and x0 is a common root.  So x0 is the one root x0 != 0 off A
    that the gcd search of :func:`validate_member` finds.
    """
    s10, s11 = (field.wrap(c) for c in s1)
    if not s11 or not (c1[-1] or c2[-1]):
        return None
    x0 = -s10 / s11
    if not x0 or not zpoly.int_eval(a, x0):
        return None
    if zpoly.int_eval(c1, x0) or zpoly.int_eval(c2, x0):
        return None
    return x0


@dataclass(frozen=True)
class PencilCountReport:
    """Outcome of the vertical-bitangent count for one pencil."""

    prime: int
    seed: Optional[int]
    validated_count: int
    raw_degree: int
    squarefree_degree: int
    factor_count: int
    extraneous_count: int
    factors: tuple[FactorReport, ...]
    infinity_validated: bool
    # factors coprime to Rc reported extraneous without validation; not part
    # of the summary
    settled_count: int

    def __post_init__(self) -> None:
        if self.validated_count > self.squarefree_degree:
            raise VerificationError("validated count exceeds the squarefree degree")

    def summary(self) -> dict:
        return {
            "prime": self.prime,
            "seed": self.seed,
            "validated_count": self.validated_count,
            "raw_degree": self.raw_degree,
            "squarefree_degree": self.squarefree_degree,
            "factor_count": self.factor_count,
            "extraneous_count": self.extraneous_count,
            "infinity_member_validated": self.infinity_validated,
            "factors": [f.summary() for f in self.factors],
        }


def _common_roots(forms: list, field: FiniteField) -> list:
    """The monic squarefree polynomial whose roots are the common roots x0 != 0
    of the forms (lists in x at y = 1) that do not vanish identically."""
    g = []
    for cs in forms:
        core = dehomogenize(cs[::-1], field)[2]
        if core:
            g = univar.gcd(core, g, field) if g else core
    return univar.squarefree_part(g, field)


NO_SQUARE_FIBER = "conditions share roots but no fiber is a perfect square"


def validate_member(
    abcde: list,
    conditions: Iterable[list],
    degenerate: bool,
    field: FiniteField,
    rng: random.Random,
    s1: Optional[tuple] = None,
) -> tuple[bool, dict]:
    """Does a single (3,4)-curve, given by its fiber cubics A..E and closure-square
    conditions over GF(p) or GF(p)[t]/(m), carry an honest vertical bitangent?

    Every form is a coefficient list in x at y = 1 of raw field values, low
    degree first and padded to its degree: A..E (4 entries each), boxed as
    field elements once for the witness, and the four conditions (10, 13, 4
    and 7) of :func:`quartic.closure_conditions_a_nonzero`, then of
    :func:`quartic.closure_conditions_a_zero`.  ``conditions`` is read in
    that order, and the A = 0 pair only when the A != 0 pair leaves no root,
    so an iterator of them is reduced no further than needed.  A square
    fiber has Delta = d = 0, so Delta and d are not read: the ends [1:0] and
    [0:1] are always probed, and [1:1] too on a ``degenerate`` member (Delta
    and d vanish identically).  A root x0 != 0 is then read off ``s1``, the
    raw values (s10, s11) of the first subresultant of the A != 0 pair c1
    and c2 when the pencil has one (:func:`_subresultant_root`); where that
    gives none, the roots are searched root-free, by gcds of the conditions
    of the branch (A != 0, else A = 0).  Both searches give the same root
    where the first succeeds.  Only a validated member has an explicit root
    and witness constructed, in a tower extension when the root or the
    square root lives outside the field.

    The failure detail holds for a root of R(t), where Delta and d share a
    projective root; at t = infinity only the verdict is read.
    """
    one, zero = field.one(), field.zero()
    boxed = [[field.wrap(c) for c in cs] for cs in abcde]
    probes = [(one, zero, "[1:0]"), (zero, one, "[0:1]")]
    if degenerate:
        probes.append((one, one, "[1:1]"))
    for x0, y0, label in probes:
        outcome = _fiber_witness(boxed, field, x0, y0, label)
        if outcome is not None:
            return True, outcome
    if degenerate:
        return False, {"detail": "both condition forms vanish identically"}

    conditions = iter(conditions)
    a_nonzero = [next(conditions), next(conditions)]
    if s1 is not None:
        c1, c2 = ([field.wrap(c) for c in cs] for cs in a_nonzero)
        x0 = _subresultant_root(s1, boxed[0], c1, c2, field)
        if x0 is not None:
            return True, _witness_at_root(boxed, field, x0)
    a_core = dehomogenize(abcde[0][::-1], field)[2]
    w = _common_roots(a_nonzero, field)
    w = univar.divmod_(w, univar.gcd(a_core, w, field), field)[0]
    if univar.deg(w) < 1:
        w = _common_roots([*conditions, abcde[0]], field)
    if univar.deg(w) >= 1:
        return True, _witness_at_gcd_root(boxed, field, w, rng)
    return False, {"detail": NO_SQUARE_FIBER}


def pencil_intersection_count(
    f0: Curve34, f1: Curve34, seed: Optional[int] = None
) -> PencilCountReport:
    """Validated count of pencil members with a vertical bitangent.

    The pencil must be nondegenerate (members not proportional, eliminant not
    identically zero); the leading-coefficient screens of
    :func:`random_pencil` are not required here, so structured pencils can be
    analyzed too.
    """
    p = f0.p
    if f1.p != p:
        raise ValueError("pencil members must both live over GF(p)")
    fieldp = PrimeField(p)
    if f0.is_proportional_to(f1):
        raise ValueError("degenerate pencil: members are proportional")
    r = list(raw_resultant(f0, f1))
    if not r:
        raise ValueError("degenerate pencil: the eliminant vanishes identically")
    rng = random.Random(f"validate:{p}:{seed}")
    squarefree = zpoly.zp_squarefree_part(r, p)
    # every factor with a square fiber divides Rc: factor the part shared with
    # Rc apart from the cofactor (gcd(f, 0) = f, so Rc = 0 shares everything);
    # the factors are unique and sorted, so the merged list is that of the
    # squarefree part
    rc, subresultant = condition_resultant(f0, f1)
    shared = univar.gcd(squarefree, list(rc), fieldp)
    cofactor = univar.divmod_(squarefree, shared, fieldp)[0]
    irreducibles = sorted(
        [(m, True) for m in zpoly.zp_factor_squarefree(shared, p, rng)]
        + [(m, False) for m in zpoly.zp_factor_squarefree(cofactor, p, rng)],
        key=lambda item: (zpoly.zp_deg(item[0]), item[0]),
    )

    forms = _forms_in_t(f0, f1)

    def is_degenerate(value, field: FiniteField) -> bool:
        # the member reads each c of t-degree <= n as value(c, n); Delta and d
        # only flag a degenerate member, read up to a first nonzero coefficient
        return all(field._ris_zero(value(c, n)) for cs, n in forms[:2] for c in cs)

    def validate(value, field: FiniteField, degenerate: bool, s1=None) -> tuple[bool, dict]:
        # the conditions are reduced as validate_member reads them
        abcde = [[value(c, n) for c in cs] for cs, n in forms[6:]]
        conditions = ([value(c, n) for c in cs] for cs, n in forms[2:6])
        return validate_member(abcde, conditions, degenerate, field, rng, s1)

    reports = []
    validated_total = settled = 0
    for m, divides_rc in irreducibles:
        deg_m = zpoly.zp_deg(m)
        target = fieldp if deg_m == 1 else ExtensionField(fieldp, m, name="t", check=False)

        def at_root(c, _):
            return _at_root(c, m, target)

        degenerate = is_degenerate(at_root, target)
        if divides_rc or degenerate:
            s1 = None if subresultant is None else tuple(at_root(c, 0) for c in subresultant)
            ok, info = validate(at_root, target, degenerate, s1)
        else:
            # a member off Rc has no square fiber (module docstring)
            ok, info = False, {"detail": NO_SQUARE_FIBER}
            settled += 1
        reports.append(FactorReport(tuple(m), deg_m, ok, **info))
        if ok:
            validated_total += deg_m

    # the t = infinity member is F1 itself, reported separately and never
    # counted: every form is homogeneous in (F0, F1) of its t-degree, so the
    # forms of F1 are the top t-coefficients
    def at_infinity(c, n):
        return _padded(c, n)[n]

    inf_ok, _ = validate(at_infinity, fieldp, is_degenerate(at_infinity, fieldp))

    return PencilCountReport(
        prime=p,
        seed=seed,
        validated_count=validated_total,
        raw_degree=zpoly.zp_deg(r),
        squarefree_degree=zpoly.zp_deg(squarefree),
        factor_count=len(irreducibles),
        extraneous_count=sum(1 for rep in reports if not rep.validated),
        factors=tuple(reports),
        infinity_validated=inf_ok,
        settled_count=settled,
    )


def family_pencil(p: Optional[int]) -> tuple[Curve34, Curve34]:
    """The transversality family as a pencil mod p, or over ZZ for p = None:
    P_alpha = P_0 + alpha * Q with Q = -x^3 v^2 (u - v)^2.  The t = 0 member
    has its bitangent at [1:0]."""
    return curve_from_ints(p, FAMILY_P0), curve_from_ints(p, FAMILY_Q)
