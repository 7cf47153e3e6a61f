"""A one-parameter family of (3,4)-curves certifying that the vertical-bitangent
locus is a generically reduced divisor.

The family, in coordinates ([x:y], [u:v]) on P^1 x P^1 and parameter alpha, is

    (x^3+y^3) u^4 - 2x^3 u^3 v + (1-alpha) x^3 u^2 v^2 + 2 alpha x^3 u v^3
        + (-alpha x^3 + x^2 y + y^3) v^4.

At alpha = 0 the fiber over [x:y] = [1:0] is u^2 (u - v)^2, a perfect square,
so the alpha = 0 member has a vertical bitangent there.  Three exact
computations are carried out:

* the eliminant R(alpha) of the discriminant and seminvariant conditions:
  R is not identically zero and vanishes at alpha = 0 to finite order, so no
  member with alpha outside a finite set has a vertical bitangent;
* the seminvariant along the marked section, which equals
  -16 alpha^2 - 32 alpha with nonzero linear term (reducedness);
* a resultant-based certificate that the alpha = 0 member is a smooth
  surface divisor, with singular control inputs rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .binform import BinaryForm, sylvester_resultant
from . import binform
from .domains import QQ
from .errors import VerificationError
from .multipoly import MultiPoly
from .quartic import QuarticCoeffs, disc_delta, sem_d

FAMILY_VARS = ("x", "y", "alpha")
SURFACE_VARS = ("x", "y", "u", "v")


@dataclass(frozen=True)
class FamilyCoeffs:
    """Fiber-quartic coefficients of the family, polynomials in (x, y, alpha)."""

    A: MultiPoly
    B: MultiPoly
    C: MultiPoly
    D: MultiPoly
    E: MultiPoly

    def as_quartic(self) -> QuarticCoeffs:
        return QuarticCoeffs(self.A, self.B, self.C, self.D, self.E)


@functools.cache
def family_coeffs() -> FamilyCoeffs:
    x, y, alpha = MultiPoly.gens(QQ, FAMILY_VARS)
    one = MultiPoly.constant(QQ, FAMILY_VARS, 1)
    return FamilyCoeffs(
        A=x**3 + y**3,
        B=-2 * x**3,
        C=(one - alpha) * x**3,
        D=2 * alpha * x**3,
        E=-alpha * x**3 + x**2 * y + y**3,
    )


@functools.cache
def family_polynomial() -> MultiPoly:
    """The family as a polynomial in (x, y, u, v, alpha)."""
    fam_vars = ("x", "y", "u", "v", "alpha")
    u = MultiPoly.variable(QQ, fam_vars, "u")
    v = MultiPoly.variable(QQ, fam_vars, "v")

    def lift(poly: MultiPoly) -> MultiPoly:
        terms = {}
        for (ex_x, ex_y, ex_a), c in poly.terms.items():
            terms[(ex_x, ex_y, 0, 0, ex_a)] = c
        return MultiPoly(QQ, fam_vars, terms)

    fam = family_coeffs().as_quartic()
    monomials = [u**4, u**3 * v, u**2 * v**2, u * v**3, v**4]
    return sum(
        (lift(coeff) * mono for coeff, mono in zip(fam, monomials)),
        MultiPoly.zero(QQ, fam_vars),
    )


@functools.cache
def p0_polynomial() -> MultiPoly:
    """The alpha = 0 member as a polynomial in (x, y, u, v)."""
    return family_polynomial().specialize({"alpha": 0})


@functools.cache
def delta_alpha() -> BinaryForm:
    """Discriminant condition of the family: degree 18 in (x, y), parameter alpha."""
    return BinaryForm(disc_delta(family_coeffs().as_quartic()), ("x", "y"))


@functools.cache
def d_alpha() -> BinaryForm:
    """Seminvariant condition of the family: degree 12 in (x, y), parameter alpha."""
    return BinaryForm(sem_d(family_coeffs().as_quartic()), ("x", "y"))


@dataclass(frozen=True)
class ResultantDiagnostics:
    """The eliminant R(alpha) of the two bitangent conditions, with findings.

    The degree and the order of vanishing at alpha = 0 are reported as
    computed values, not asserted against externally chosen numbers.
    """

    polynomial: MultiPoly
    degree: int
    order_at_zero: int
    value_at_zero: Fraction
    identically_zero: bool
    sample_base: int

    def summary(self) -> dict:
        return {
            "degree": self.degree,
            "order_at_zero": self.order_at_zero,
            "value_at_zero": str(self.value_at_zero),
            "identically_zero": self.identically_zero,
        }


@functools.cache
def resultant_R(sample_base: int = 0) -> ResultantDiagnostics:
    """R(alpha) = Res_(x,y)(Delta_alpha, d_alpha) by exact interpolation.

    ``sample_base`` shifts the interpolation sample points, enabling
    cross-validation of the same determinant from an independent point set.
    """
    r = sylvester_resultant(delta_alpha(), d_alpha(), sample_base=sample_base)
    coeffs = {ex[0]: c for ex, c in r.terms.items()}
    degree = max(coeffs, default=-1)
    order = min(coeffs, default=-1)
    return ResultantDiagnostics(
        polynomial=r,
        degree=degree,
        order_at_zero=order if coeffs else -1,
        value_at_zero=coeffs.get(0, Fraction(0)),
        identically_zero=not coeffs,
        sample_base=sample_base,
    )


def specialized_pair(alpha0) -> tuple[BinaryForm, BinaryForm]:
    """(Delta, d) at a specific parameter value, as forms in (x, y) over QQ."""
    a = Fraction(alpha0)
    delta = delta_alpha().poly.specialize({"alpha": a})
    dd = d_alpha().poly.specialize({"alpha": a})
    return BinaryForm(delta, ("x", "y")), BinaryForm(dd, ("x", "y"))


def resultant_spot_check(alpha0) -> bool:
    """R(alpha0) equals the resultant of the specialized forms.

    Meaningful only when both leading coefficients survive specialization
    (checked); then specialize-then-eliminate equals eliminate-then-specialize.
    """
    delta, dd = specialized_pair(alpha0)
    if delta.degree != delta_alpha().degree or dd.degree != d_alpha().degree:
        raise ValueError(f"leading coefficient vanishes at alpha = {alpha0}")
    direct = sylvester_resultant(delta, dd).constant_value()
    via_r = resultant_R().polynomial.evaluate({"alpha": Fraction(alpha0)})
    return direct == via_r


@dataclass(frozen=True)
class SectionReport:
    """The seminvariant along the marked section [x:y] = [1:0]."""

    polynomial: MultiPoly
    linear_coefficient: Fraction
    constant_term: Fraction
    reduced: bool


def section_coefficients() -> QuarticCoeffs:
    """Fiber-quartic coefficients along the section: (1, -2, 1-alpha, 2 alpha, -alpha)."""
    (alpha,) = MultiPoly.gens(QQ, ("alpha",))
    one = MultiPoly.constant(QQ, ("alpha",), 1)
    return QuarticCoeffs(one, -2 * one, one - alpha, 2 * alpha, -alpha)


def section_reducedness() -> SectionReport:
    """The seminvariant of the section fiber; must be exactly -16 alpha^2 - 32 alpha."""
    poly = sem_d(section_coefficients())
    expected = {(2,): Fraction(-16), (1,): Fraction(-32)}
    if dict(poly.terms) != expected:
        raise VerificationError(f"unexpected section polynomial: {poly}")
    linear = poly.coefficient((1,))
    return SectionReport(
        polynomial=poly,
        linear_coefficient=linear,
        constant_term=poly.coefficient((0,)),
        reduced=bool(linear),
    )


def fiber_quartic(x0, y0, a0) -> QuarticCoeffs:
    """The quartic in (u, v) over the point ([x0:y0], alpha = a0)."""
    if not x0 and not y0:
        raise ValueError("(x, y) = (0, 0) is not a point of the projective line")
    point = {"x": Fraction(x0), "y": Fraction(y0), "alpha": Fraction(a0)}
    fam = family_coeffs().as_quartic()
    return QuarticCoeffs(*(c.evaluate(point) for c in fam))


# --- smoothness certificate ---------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Outcome of the resultant-based smoothness check of a surface divisor.

    ``status`` is "smooth" only when the eliminant resultant is nonzero and
    every degenerate fiber check passed; "fail" when a singular point was
    exhibited or the certificate could not exclude one; "inconclusive" when
    every eliminant of every partial pair vanished identically and no
    witness was found.  A "smooth" verdict is never emitted spuriously.
    """

    status: str
    detail: str
    pairs_used: tuple[tuple[str, str], ...] = ()
    resultant_value_digits: Optional[int] = None
    degenerate_fibers_checked: int = 0
    nonrational_degenerate_factors: int = 0
    witness: Optional[dict] = None

    def summary(self) -> dict:
        out = {
            "status": self.status,
            "detail": self.detail,
            "pairs_used": ["/".join(pair) for pair in self.pairs_used],
            "degenerate_fibers_checked": self.degenerate_fibers_checked,
            "nonrational_degenerate_factors": self.nonrational_degenerate_factors,
        }
        if self.resultant_value_digits is not None:
            out["resultant_digits"] = self.resultant_value_digits
        if self.witness is not None:
            out["witness"] = {k: str(v) for k, v in self.witness.items()}
        return out


def _bidegree(P: MultiPoly) -> tuple[int, int]:
    degrees_xy = {ex[0] + ex[1] for ex in P.terms}
    degrees_uv = {ex[2] + ex[3] for ex in P.terms}
    if len(degrees_xy) != 1 or len(degrees_uv) != 1:
        raise ValueError("polynomial is not bihomogeneous in ((x,y),(u,v))")
    return degrees_xy.pop(), degrees_uv.pop()


def _rational_projective_roots(form: BinaryForm) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """Rational projective roots of a nonzero (x, y)-form over QQ, plus the
    number of irreducible factors left unresolved (irrational root pairs)."""
    x_power, y_power, dehom = binform.dehomogenize(form.coefficient_list())
    roots = []
    if y_power:
        roots.append((Fraction(1), Fraction(0)))
    if x_power:
        roots.append((Fraction(0), Fraction(1)))
    if len(dehom) <= 1:
        return roots, 0
    denom = math.lcm(*(c.denominator for c in dehom))
    ints = [int(c * denom) for c in dehom]
    lead, const = abs(ints[-1]), abs(ints[0])
    rational = set()
    for num in _divisors(const):
        for den in _divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand in rational:
                    continue
                value = sum(c * cand**k for k, c in enumerate(ints))
                if value == 0:
                    rational.add(cand)
    roots.extend((r, Fraction(1)) for r in sorted(rational))
    # degree not accounted for by rational roots signals irrational factors
    unresolved = len(dehom) - 1 - len(rational)
    return roots, max(unresolved, 0)


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _fiber_singularity_witness(partials: dict[str, MultiPoly], x0, y0) -> Optional[dict]:
    """If all four partials share a (u, v)-root over the closure at the given
    rational fiber, return a witness description (gcd of the specialized forms;
    a gcd over QQ is unchanged by field extension)."""
    specialized = []
    for name, poly in partials.items():
        form = poly.specialize({"x": Fraction(x0), "y": Fraction(y0)})
        specialized.append((name, BinaryForm(form, ("u", "v"))))
    nonzero = [f for _, f in specialized if not f.is_zero()]
    if not nonzero:
        return {"fiber": (x0, y0), "common_factor": "all four partials vanish identically"}
    g = nonzero[0]
    for f in nonzero[1:]:
        g = binform.binary_gcd(g, f)
        if g.degree == 0:
            return None
    return {"fiber": (x0, y0), "common_factor": str(g)}


_SCAN_FIBERS = [(1, 1), (1, 0), (0, 1), (1, -1), (2, 1), (1, 2), (3, 1), (1, 3), (2, -1), (-1, 2)]


def smoothness_certificate(P: MultiPoly) -> SmoothnessCertificate:
    """Certify that the divisor P = 0 in P^1 x P^1 is smooth, or fail.

    Strategy: eliminate (u, v) from two pairs of partial derivatives by
    resultants, then eliminate (x, y) from the two eliminants.  A nonzero
    final resultant excludes any common zero of all four partials, and the
    Euler relations (deg_x P = x P_x + y P_y, deg_u P = u P_u + v P_v, in
    characteristic 0) make the four partials sufficient: the divisor is
    smooth.  Fibers where the leading (u, v)-coefficients of a used pair
    both vanish are additionally checked head-on at their rational points.
    If an eliminant pair is unavailable (identically zero eliminants), a
    direct fiber scan looks for a singular witness; with a witness the
    status is "fail", otherwise "inconclusive".
    """
    if P.is_zero():
        raise ValueError("zero polynomial does not define a divisor")
    if P.variables != SURFACE_VARS:
        raise ValueError(f"expected variables {SURFACE_VARS}")
    if QQ != P.domain:
        raise ValueError("smoothness certificate is implemented over the rationals")
    deg_xy, deg_uv = _bidegree(P)
    if deg_xy < 1 or deg_uv < 1:
        raise ValueError("certificate needs positive bidegree in both factors")

    partials = {
        "Pu": P.partial_derivative("u"),
        "Pv": P.partial_derivative("v"),
        "Px": P.partial_derivative("x"),
        "Py": P.partial_derivative("y"),
    }

    def eliminant(n1: str, n2: str) -> Optional[BinaryForm]:
        f, g = partials[n1], partials[n2]
        if f.is_zero() or g.is_zero():
            return None
        result = sylvester_resultant(BinaryForm(f, ("u", "v")), BinaryForm(g, ("u", "v")))
        if result.is_zero():
            return None
        return BinaryForm(result, ("x", "y"))

    # a singular point kills all four partials, so the eliminant of *any* pair
    # vanishes there; two nonzero eliminants suffice even if the pairs overlap
    candidate_pairs = [
        ("Pu", "Pv"),
        ("Px", "Py"),
        ("Pu", "Px"),
        ("Pv", "Py"),
        ("Pu", "Py"),
        ("Pv", "Px"),
    ]
    found: list[tuple[tuple[str, str], BinaryForm]] = []
    for pair in candidate_pairs:
        g = eliminant(*pair)
        if g is not None:
            found.append((pair, g))
        if len(found) == 2:
            (pair1, g1), (pair2, g2) = found
            return _certify_with_eliminants(partials, pair1, pair2, g1, g2)

    # fewer than two usable eliminants: look for an explicit witness
    shortfall = (
        "every partial-pair eliminant vanishes identically"
        if not found
        else "only one partial pair has a nonzero eliminant"
    )
    for x0, y0 in _SCAN_FIBERS:
        witness = _fiber_singularity_witness(partials, x0, y0)
        if witness is not None:
            return SmoothnessCertificate(
                status="fail",
                detail=f"{shortfall}; singular point exhibited on a scanned fiber",
                witness=witness,
            )
    return SmoothnessCertificate(
        status="inconclusive",
        detail=f"{shortfall} and no witness was found on the scanned fibers",
    )


def _certify_with_eliminants(partials, pair1, pair2, g1: BinaryForm, g2: BinaryForm):
    pairs_used = (pair1, pair2)
    if g1.degree == 0 or g2.degree == 0:
        # a nonzero constant eliminant already excludes common roots everywhere
        return SmoothnessCertificate(
            status="smooth",
            detail="an eliminant is a nonzero constant",
            pairs_used=pairs_used,
        )
    resultant = sylvester_resultant(g1, g2).constant_value()
    if not resultant:
        witness = None
        for x0, y0 in _SCAN_FIBERS:
            witness = _fiber_singularity_witness(partials, x0, y0)
            if witness is not None:
                break
        return SmoothnessCertificate(
            status="fail",
            detail="the eliminants share a root: a common zero of all four partials "
            "is not excluded",
            pairs_used=pairs_used,
            witness=witness,
        )

    # explicit check of fibers where the leading (u, v)-coefficients of a used
    # pair both vanish; nonrational fibers are already excluded by the nonzero
    # resultant (a singular point forces both eliminants to vanish there)
    checked = 0
    unresolved_total = 0
    for n1, n2 in pairs_used:
        lead1 = BinaryForm(partials[n1], ("u", "v")).coefficient_polys()[0]
        lead2 = BinaryForm(partials[n2], ("u", "v")).coefficient_polys()[0]
        f1 = BinaryForm(lead1, ("x", "y")) if lead1 else None
        f2 = BinaryForm(lead2, ("x", "y")) if lead2 else None
        if f1 is None and f2 is None:
            continue
        if f1 is None or f2 is None:
            locus = f1 or f2
        else:
            locus = binform.binary_gcd(f1, f2)
        if locus.degree <= 0:
            continue
        roots, unresolved = _rational_projective_roots(locus)
        unresolved_total += unresolved
        for x0, y0 in roots:
            checked += 1
            witness = _fiber_singularity_witness(partials, x0, y0)
            if witness is not None:
                return SmoothnessCertificate(
                    status="fail",
                    detail="singular point found on a degenerate fiber",
                    pairs_used=pairs_used,
                    witness=witness,
                )
    return SmoothnessCertificate(
        status="smooth",
        detail="nonzero eliminant resultant; degenerate fibers verified",
        pairs_used=pairs_used,
        resultant_value_digits=len(str(abs(resultant.numerator))),
        degenerate_fibers_checked=checked,
        nonrational_degenerate_factors=unresolved_total,
    )


def p0_smoothness_certificate() -> SmoothnessCertificate:
    return smoothness_certificate(p0_polynomial())


def control_nonreduced() -> MultiPoly:
    """(u y - v x)^2: a non-reduced (2,2)-divisor, singular along its support."""
    x, y, u, v = MultiPoly.gens(QQ, SURFACE_VARS)
    return (u * y - v * x) ** 2


def control_reducible_singular() -> MultiPoly:
    """A reducible (3,4)-form with a double point at ([1:1], [0:1]).

    u times a product of three (1,1)-forms; the first factor is arranged to
    vanish at the same point as the component u = 0.
    """
    x, y, u, v = MultiPoly.gens(QQ, SURFACE_VARS)
    g1 = x * u + (x - y) * v
    g2 = y * u + (x + y) * v
    g3 = (x + y) * u + x * v
    return u * g1 * g2 * g3
