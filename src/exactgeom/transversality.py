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
  member with alpha outside a finite set has a vertical bitangent.  The
  family is the pencil P_0 + alpha Q over ZZ, so R is the pencil eliminant
  of :mod:`exactgeom.pencil24`, sampled without a modulus;
* the seminvariant along the marked section, which equals
  -16 alpha^2 - 32 alpha with nonzero linear term (reducedness);
* a resultant-based certificate that the alpha = 0 member is a smooth
  surface divisor, with singular control inputs rejected.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .binform import BinaryForm, sylvester_resultant
from . import binform, zpoly
from .errors import VerificationError
from .multipoly import MultiPoly
from .pencil24 import FAMILY_P0, FAMILY_Q, _member_forms, family_pencil, raw_resultant
from .quartic import QuarticCoeffs, sem_d

FAMILY_VARS = ("x", "y", "alpha")
SURFACE_VARS = ("x", "y", "u", "v")


@functools.cache
def family_coeffs() -> QuarticCoeffs:
    """Fiber-quartic coefficients of the family, polynomials in (x, y, alpha)."""
    x, y, alpha = MultiPoly.gens(FAMILY_VARS)
    coeffs = [MultiPoly.zero(FAMILY_VARS)] * 5
    for table, scale in ((FAMILY_P0, 1), (FAMILY_Q, alpha)):
        for (i, j), c in table.items():
            coeffs[j] = coeffs[j] + c * scale * x ** (3 - i) * y**i
    return QuarticCoeffs(*coeffs)


@functools.cache
def p0_polynomial() -> MultiPoly:
    """The alpha = 0 member as a polynomial in (x, y, u, v)."""
    terms = {(3 - i, i, 4 - j, j): Fraction(c) for (i, j), c in FAMILY_P0.items()}
    return MultiPoly(SURFACE_VARS, terms)


@dataclass(frozen=True)
class ResultantDiagnostics:
    """The eliminant R(alpha) of the two bitangent conditions, with findings.

    The degree and the order of vanishing at alpha = 0 are reported as
    computed values, not asserted against externally chosen numbers.
    """

    polynomial: tuple[int, ...]
    degree: int
    order_at_zero: int
    value_at_zero: int
    identically_zero: bool

    def summary(self) -> dict:
        return {
            "degree": self.degree,
            "order_at_zero": self.order_at_zero,
            "value_at_zero": str(self.value_at_zero),
            "identically_zero": self.identically_zero,
        }


@functools.cache
def resultant_R() -> ResultantDiagnostics:
    """R(alpha) = Res_(x,y)(Delta_alpha, d_alpha) over ZZ: the eliminant of
    the family pencil (:func:`exactgeom.pencil24.raw_resultant`), by exact
    interpolation."""
    r = raw_resultant(*family_pencil(None))
    return ResultantDiagnostics(
        polynomial=r,
        degree=len(r) - 1,
        order_at_zero=next((e for e, c in enumerate(r) if c), -1),
        value_at_zero=r[0] if r else 0,
        identically_zero=not r,
    )


def resultant_spot_check(alpha0: int) -> bool:
    """R(alpha0) equals the resultant of Delta and d of the member alpha0.

    The member's Delta(x, 1) and d(x, 1) are interpolated in x from its own
    fiber quartics (:func:`exactgeom.pencil24._member_forms`) and eliminated
    at that one point, so specialize-then-eliminate is a path apart from the
    interpolation in alpha that gives R.  Both sides are Sylvester
    determinants at the formal degrees (18, 12): the member's lists are
    padded to them, also where leading coefficients vanish (at alpha = -2
    both do), so the two agree at every alpha0.
    """
    delta, d = itertools.islice(_member_forms(*family_pencil(None), alpha0), 2)
    (direct,) = zpoly.sampled_resultant([[c] for c in delta], [[c] for c in d]) or [0]
    return direct == zpoly.int_eval(resultant_R().polynomial, alpha0)


@dataclass(frozen=True)
class SectionReport:
    """The seminvariant along the marked section [x:y] = [1:0]."""

    polynomial: MultiPoly
    linear_coefficient: Fraction
    constant_term: Fraction
    reduced: bool


def section_coefficients() -> QuarticCoeffs:
    """Fiber-quartic coefficients along the section [x:y] = [1:0], the x^3 row
    of P_0 + alpha Q: (1, -2, 1-alpha, 2 alpha, -alpha)."""
    return QuarticCoeffs(*(c.specialize({"x": 1, "y": 0}) for c in family_coeffs()))


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
    fam = family_coeffs()
    return QuarticCoeffs(*(c.evaluate(point) for c in fam))


# --- smoothness certificate ---------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Outcome of the resultant-based smoothness check of a surface divisor.

    ``status`` is "smooth" only when an eliminant is a nonzero constant or
    the resultant of the two eliminants is nonzero; "fail" when a singular
    point was exhibited or the certificate could not exclude one;
    "inconclusive" when fewer than two partial pairs have a nonzero
    eliminant and no witness was found.  A "smooth" verdict is never
    emitted spuriously.
    """

    status: str
    detail: str
    pairs_used: tuple[tuple[str, str], ...] = ()
    resultant_value_digits: Optional[int] = None
    witness: Optional[dict] = None

    def summary(self) -> dict:
        out = {
            "status": self.status,
            "detail": self.detail,
            "pairs_used": ["/".join(pair) for pair in self.pairs_used],
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


def _uv_eliminant(f: MultiPoly, g: MultiPoly) -> Optional[BinaryForm]:
    """Res_(u,v)(f, g) of two bihomogeneous partials as an (x, y)-form, or None
    when f, g or the resultant is zero.  The resultant has degree
    deg_uv(g) deg_xy(f) + deg_uv(f) deg_xy(g) in (x, y), so it is taken at
    y = 1, in the one parameter x, and homogenized to that degree."""
    if f.is_zero() or g.is_zero():
        return None
    (xy_f, uv_f), (xy_g, uv_g) = _bidegree(f), _bidegree(g)
    degree = uv_g * xy_f + uv_f * xy_g
    result = sylvester_resultant(*(BinaryForm(h.substitute("y", 1), ("u", "v")) for h in (f, g)))
    terms = {(i, degree - i): c for (i, _), c in result.terms.items()}
    return BinaryForm(MultiPoly(result.variables, terms), ("x", "y")) if terms else None


_SCAN_FIBERS = [(1, 1), (1, 0), (0, 1), (1, -1), (2, 1), (1, 2), (3, 1), (1, 3), (2, -1), (-1, 2)]


def _scanned_witness(partials: dict[str, MultiPoly]) -> Optional[dict]:
    """The singular-point witness on the first of the scanned fibers that has one, or None."""
    witnesses = (_fiber_singularity_witness(partials, x0, y0) for x0, y0 in _SCAN_FIBERS)
    return next((w for w in witnesses if w is not None), None)


def smoothness_certificate(P: MultiPoly) -> SmoothnessCertificate:
    """Certify that the divisor P = 0 in P^1 x P^1 is smooth, or fail.

    Strategy: eliminate (u, v) from two pairs of partial derivatives by
    resultants, then eliminate (x, y) from the two eliminants.  A nonzero
    final resultant excludes any common zero of all four partials, and the
    Euler relations (deg_x P = x P_x + y P_y, deg_u P = u P_u + v P_v, in
    characteristic 0) make the four partials sufficient: the divisor is
    smooth.  If an eliminant pair is unavailable (identically zero
    eliminants), a direct fiber scan looks for a singular witness; with a
    witness the status is "fail", otherwise "inconclusive".
    """
    if P.is_zero():
        raise ValueError("zero polynomial does not define a divisor")
    if P.variables != SURFACE_VARS:
        raise ValueError(f"expected variables {SURFACE_VARS}")
    deg_xy, deg_uv = _bidegree(P)
    if deg_xy < 1 or deg_uv < 2:
        raise ValueError(
            "certificate needs (x, y)-degree at least 1 and (u, v)-degree at least 2: "
            "the partials P_u and P_v are eliminated as forms in (u, v)"
        )

    partials = {
        "Pu": P.partial_derivative("u"),
        "Pv": P.partial_derivative("v"),
        "Px": P.partial_derivative("x"),
        "Py": P.partial_derivative("y"),
    }

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
        g = _uv_eliminant(*(partials[name] for name in pair))
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
    witness = _scanned_witness(partials)
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
        return SmoothnessCertificate(
            status="fail",
            detail="the eliminants share a root: a common zero of all four partials "
            "is not excluded",
            pairs_used=pairs_used,
            witness=_scanned_witness(partials),
        )

    # g_i at a fiber [x0 : y0] is the resultant of the specialized pair at its
    # formal (u, v)-degrees (see _uv_eliminant), so a singular point makes
    # g1 = g2 = 0 at its fiber, even where both leading coefficients vanish
    return SmoothnessCertificate(
        status="smooth",
        detail="nonzero eliminant resultant",
        pairs_used=pairs_used,
        resultant_value_digits=len(str(abs(resultant.numerator))),
    )


def p0_smoothness_certificate() -> SmoothnessCertificate:
    return smoothness_certificate(p0_polynomial())


def control_nonreduced() -> MultiPoly:
    """(u y - v x)^2: a non-reduced (2,2)-divisor, singular along its support."""
    x, y, u, v = MultiPoly.gens(SURFACE_VARS)
    return (u * y - v * x) ** 2


def control_reducible_singular() -> MultiPoly:
    """A reducible (3,4)-form with a double point at ([1:1], [0:1]).

    u times a product of three (1,1)-forms; the first factor is arranged to
    vanish at the same point as the component u = 0.
    """
    x, y, u, v = MultiPoly.gens(SURFACE_VARS)
    g1 = x * u + (x - y) * v
    g2 = y * u + (x + y) * v
    g3 = (x + y) * u + x * v
    return u * g1 * g2 * g3
