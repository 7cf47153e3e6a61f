"""Counting members of a (3,4)-curve pencil with a vertical bitangent.

A curve of bidegree (3,4) on P^1 x P^1 over GF(p) is stored through its 20
coefficients c[i][j] of x^(3-i) y^i u^(4-j) v^j.  For the pencil F0 + t F1
the fiber-quartic coefficients A..E become polynomials in (x, y, t); the
discriminant and seminvariant conditions give forms Delta (degree 18) and d
(degree 12) in (x, y), and eliminating (x, y) yields R(t), whose roots are
the pencil members for which the two conditions share a fiber.

The raw eliminant is heavily non-reduced and contains extraneous factors
(leading-coefficient collapse, fibers where A and B both vanish, and the
non-square branch of the joint discriminant/seminvariant locus), so the
degree of its squarefree part overcounts.  Every irreducible factor m(t) is
therefore validated in the exact field GF(p)[t]/(m): the specialized forms
must have a nonconstant gcd, and at a root of that gcd (constructed in a
further extension when necessary) the fiber quartic must admit a
perfect-square witness, which is re-verified by squaring.  The validated
count is the sum of deg(m) over validated factors; for a generic pencil it
equals the degree 24 of the vertical-bitangent hypersurface.  The member at
t = infinity (F1 itself) is checked separately and never added to the count.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional

from . import univar, zpoly
from .binform import BinaryForm, binary_gcd, dehomogenize, sylvester_resultant
from .domains import ExtensionField, FieldElement, FiniteField, PrimeField
from .errors import VerificationError
from .multipoly import MultiPoly
from .quartic import (
    QuarticCoeffs,
    closure_square_conditions,
    closure_square_witness,
    disc_delta,
    sem_d,
)

PENCIL_VARS = ("x", "y", "t")
MIN_PRIME = 1000


@dataclass(frozen=True)
class Curve34:
    """A (3,4)-curve over GF(p): coefficient c[i][j] multiplies x^(3-i) y^i u^(4-j) v^j."""

    fieldp: PrimeField
    coeffs: tuple[tuple[FieldElement, ...], ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 4 or any(len(row) != 5 for row in self.coeffs):
            raise ValueError("a (3,4)-curve needs a 4 x 5 coefficient array")

    def coefficient_forms(self, variables=("x", "y")) -> list[MultiPoly]:
        """The five (x, y)-cubics A..E (A multiplies u^4, E multiplies v^4)."""
        out = []
        for j in range(5):
            terms = {}
            for i in range(4):
                c = self.coeffs[i][j]
                if c:
                    ex = [0] * len(variables)
                    ex[0] = 3 - i
                    ex[1] = i
                    terms[tuple(ex)] = c
            out.append(MultiPoly(self.fieldp, variables, terms))
        return out

    def is_proportional_to(self, other: "Curve34") -> bool:
        ratio = None
        for i in range(4):
            for j in range(5):
                a, b = self.coeffs[i][j], other.coeffs[i][j]
                if not a and not b:
                    continue
                if not a or not b:
                    return False
                r = a / b
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
        return True


def curve_from_ints(fieldp: PrimeField, entries: dict[tuple[int, int], int]) -> Curve34:
    rows = [[fieldp.zero() for _ in range(5)] for _ in range(4)]
    for (i, j), value in entries.items():
        rows[i][j] = fieldp.elem(value)
    return Curve34(fieldp, tuple(tuple(row) for row in rows))


def random_curve(fieldp: PrimeField, rng: random.Random) -> Curve34:
    rows = tuple(tuple(fieldp.rand(rng) for _ in range(5)) for _ in range(4))
    return Curve34(fieldp, rows)


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
    fieldp = PrimeField(p)
    rng = random.Random(f"pencil:{p}:{seed}")
    for _ in range(100):
        f0 = random_curve(fieldp, rng)
        f1 = random_curve(fieldp, rng)
        if not (f0.coeffs[0][0] and f0.coeffs[3][0] and f1.coeffs[0][0] and f1.coeffs[3][0]):
            continue
        if f0.is_proportional_to(f1):
            continue
        if not raw_resultant(f0, f1):
            continue
        return f0, f1
    raise RuntimeError("100 consecutive pencil rejections: genericity screens never passed")


def member_coefficient_forms(f0: Curve34, f1: Curve34) -> list[MultiPoly]:
    """A..E of F0 + t F1 as polynomials in (x, y, t)."""
    if f0.fieldp != f1.fieldp:
        raise ValueError("pencil members live over different fields")
    t = MultiPoly.variable(f0.fieldp, PENCIL_VARS, "t")
    return [
        a + t * b
        for a, b in zip(f0.coefficient_forms(PENCIL_VARS), f1.coefficient_forms(PENCIL_VARS))
    ]


@functools.lru_cache(maxsize=64)
def bitangent_conditions(f0: Curve34, f1: Curve34) -> tuple[BinaryForm, BinaryForm]:
    """(Delta, d) of the pencil: forms in (x, y) with coefficients in GF(p)[t].

    Delta has (x, y)-degree 18 and t-degree at most 6; d has degree 12 and
    t-degree at most 4.
    """
    abcde = QuarticCoeffs(*member_coefficient_forms(f0, f1))
    return (
        BinaryForm(disc_delta(abcde), ("x", "y")),
        BinaryForm(sem_d(abcde), ("x", "y")),
    )


@functools.lru_cache(maxsize=64)
def raw_resultant(f0: Curve34, f1: Curve34) -> tuple[int, ...]:
    """R(t) = Res_(x,y)(Delta, d) as a coefficient tuple over GF(p)."""
    delta, d = bitangent_conditions(f0, f1)
    r = sylvester_resultant(delta, d)
    degree = r.degree_in("t")
    coeffs = [0] * (degree + 1) if degree >= 0 else []
    for ex, c in r.terms.items():
        coeffs[ex[0]] = c.value
    return tuple(zpoly.zp_trim(coeffs))


# --- validation of a single member --------------------------------------------


def _poly_text(coeffs, name: str = "t") -> str:
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        var = "" if e == 0 else (name if e == 1 else f"{name}^{e}")
        if var and c == 1:
            parts.append(var)
        else:
            parts.append(f"{c}*{var}" if var else str(c))
    return " + ".join(parts) if parts else "0"


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
        out = {
            "factor": _poly_text(self.modulus),
            "degree": self.degree,
            "validated": self.validated,
            "detail": self.detail,
        }
        if self.root_field_degree is not None:
            out["root_field_degree"] = self.root_field_degree
        if self.witness is not None:
            out["witness"] = self.witness
        if self.distinct_double_roots is not None:
            out["distinct_double_roots"] = self.distinct_double_roots
        return out


def absolute_degree(field: FiniteField) -> int:
    degree = 1
    while isinstance(field, ExtensionField):
        degree *= field.degree
        field = field.base
    return degree


def _dehomogenized(form: MultiPoly) -> list:
    """An (x, y)-polynomial over K to a univariate list in w = x/y (y = 1)."""
    domain = form.domain
    degree = max((ex[0] for ex in form.terms), default=-1)
    out = [domain.zero()] * (degree + 1)
    for (ex_x, ex_y), c in form.terms.items():
        out[ex_x] = out[ex_x] + c
    return univar.trim(out)


def _evaluate_forms_at(forms: list[MultiPoly], x0, y0) -> QuarticCoeffs:
    return QuarticCoeffs(*(f.evaluate({"x": x0, "y": y0}) for f in forms))


@dataclass
class _PointChecker:
    """Decides whether the bitangent conditions of one member hold honestly.

    Works over an arbitrary finite field K: the two condition forms must
    share a root, and some shared root must carry a perfect-square fiber.
    The search is root-free (gcds against the closure-square condition
    polynomials, split by the A = 0 and B = 0 branches); only a validated
    member has an explicit root and witness constructed, in a tower
    extension when the root or the square root lives outside K.
    """

    delta: MultiPoly
    d: MultiPoly
    abcde: list[MultiPoly]
    field: FiniteField
    rng: random.Random
    _has_y_root: bool = False
    _has_x_root: bool = False

    def run(self) -> tuple[bool, dict]:
        gcd_form = self._condition_gcd()
        if gcd_form is not None and (
            univar.deg(gcd_form) == 0 and not self._has_y_root and not self._has_x_root
        ):
            return False, {"detail": "specialized conditions are coprime"}

        # fibers at the ends of the projective line
        for flag, point, label in (
            (self._has_y_root, (self.field.one(), self.field.zero()), "[1:0]"),
            (self._has_x_root, (self.field.zero(), self.field.one()), "[0:1]"),
        ):
            if flag:
                outcome = self._witness_at_point(*point, label=label)
                if outcome is not None:
                    return True, outcome
        if gcd_form is None:
            # both conditions vanish identically in (x, y): degenerate member;
            # probe one more fiber before giving up
            outcome = self._witness_at_point(self.field.one(), self.field.one(), label="[1:1]")
            if outcome is not None:
                return True, outcome
            return False, {"detail": "both condition forms vanish identically"}

        gbar = gcd_form
        if univar.deg(gbar) >= 1:
            gbar = univar.squarefree_part(gbar, self.field)
            quartic = QuarticCoeffs(*self.abcde)
            abar = _dehomogenized(quartic.A)
            g_a = univar.gcd(gbar, abar, self.field) if abar else gbar
            # main branch (A != 0), then the boundary branch (A = 0)
            for g, branch in (
                (univar.divmod_(gbar, g_a, self.field)[0], quartic),
                (g_a, quartic._replace(A=0)),
            ):
                if univar.deg(g) < 1:
                    continue
                for condition in closure_square_conditions(branch):
                    s = _dehomogenized(condition)
                    g = univar.gcd(g, s, self.field) if s else g
                if univar.deg(g) >= 1:
                    return True, self._witness_at_gcd_root(g)
        return False, {"detail": "conditions share roots but no fiber is a perfect square"}

    def _condition_gcd(self) -> Optional[list]:
        delta_form = None if self.delta.is_zero() else BinaryForm(self.delta, ("x", "y"))
        d_form = None if self.d.is_zero() else BinaryForm(self.d, ("x", "y"))
        if delta_form is None and d_form is None:
            self._has_y_root = self._has_x_root = True
            return None
        if delta_form is None:
            g = d_form
        elif d_form is None:
            g = delta_form
        else:
            g = binary_gcd(delta_form, d_form)
        # the [1:0] and [0:1] roots are handled separately
        x_power, y_power, core = dehomogenize(g.coefficient_list())
        self._has_y_root = y_power > 0
        self._has_x_root = x_power > 0
        return core

    def _witness_at_point(self, x0, y0, label: str, lift=None, root_field=None) -> Optional[dict]:
        root_field = root_field or self.field
        if lift is None:
            fiber = _evaluate_forms_at(self.abcde, x0, y0)
        else:
            lifted = [f.map_coefficients(root_field, lift) for f in self.abcde]
            fiber = _evaluate_forms_at(lifted, x0, y0)
        witness = closure_square_witness(fiber, root_field)
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

    def _witness_at_gcd_root(self, w: list) -> dict:
        h = w if univar.deg(w) == 1 else univar.ff_factor_squarefree(w, self.field, self.rng)[0]
        if univar.deg(h) == 1:
            root_field, lift = self.field, None
            root = -h[0] / h[1]
        else:
            root_field = ExtensionField(
                self.field, [c.value for c in h], name=f"w{absolute_degree(self.field)}", check=False
            )
            lift = root_field.from_base
            root = root_field.generator()
        one = root_field.one()
        outcome = self._witness_at_point(
            root, one, label=f"[{root!r}:1]", lift=lift, root_field=root_field
        )
        if outcome is None:
            # roots of the validated gcd satisfy the closure-square conditions
            # by construction, so a missing witness is an internal contradiction
            raise VerificationError("no square witness at a root of the validated gcd")
        return outcome


def _specialize_t(poly: MultiPoly, target: FiniteField, lift, tau) -> MultiPoly:
    """Map an (x, y, t)-polynomial over GF(p) to an (x, y)-polynomial over the
    extension, substituting t = tau."""
    powers = {0: target.one()}
    terms: dict = {}
    for (ex_x, ex_y, ex_t), c in poly.terms.items():
        power = powers.get(ex_t)
        if power is None:
            power = tau**ex_t
            powers[ex_t] = power
        value = lift(c) * power
        if not value:
            continue
        key = (ex_x, ex_y)
        acc = terms.get(key)
        terms[key] = value if acc is None else acc + value
    return MultiPoly(target, ("x", "y"), terms)


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
    infinity_detail: str

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


def validate_member(
    delta: MultiPoly, d: MultiPoly, abcde: list[MultiPoly], field: FiniteField, rng: random.Random
) -> tuple[bool, dict]:
    """Does a single (3,4)-curve, given by its condition forms and fiber
    coefficients over a finite field, carry an honest vertical bitangent?"""
    checker = _PointChecker(delta=delta, d=d, abcde=abcde, field=field, rng=rng)
    return checker.run()


def pencil_intersection_count(
    f0: Curve34, f1: Curve34, p: int, seed: Optional[int] = None
) -> PencilCountReport:
    """Validated count of pencil members with a vertical bitangent.

    The pencil must be nondegenerate (members not proportional, eliminant not
    identically zero); the leading-coefficient screens of
    :func:`random_pencil` are not required here, so structured pencils can be
    analyzed too.
    """
    fieldp = f0.fieldp
    if fieldp.p != p or f1.fieldp != fieldp:
        raise ValueError("pencil members must both live over GF(p)")
    if f0.is_proportional_to(f1):
        raise ValueError("degenerate pencil: members are proportional")
    r = list(raw_resultant(f0, f1))
    if not r:
        raise ValueError("degenerate pencil: the eliminant vanishes identically")
    rng = random.Random(f"validate:{p}:{seed}")
    squarefree = zpoly.zp_squarefree_part(r, p)
    irreducibles = zpoly.zp_factor_squarefree(squarefree, p, rng)

    delta, d = bitangent_conditions(f0, f1)
    member_forms = member_coefficient_forms(f0, f1)

    reports = []
    validated_total = 0
    for m in irreducibles:
        deg_m = zpoly.zp_deg(m)
        if deg_m == 1:
            target: FiniteField = fieldp
            lift = lambda c: c  # noqa: E731
            tau = -fieldp.wrap(m[0])
        else:
            target = ExtensionField(fieldp, m, name="t", check=False)
            lift = target.from_base
            tau = target.generator()
        delta_tau = _specialize_t(delta.poly, target, lift, tau)
        d_tau = _specialize_t(d.poly, target, lift, tau)
        abcde_tau = [_specialize_t(fm, target, lift, tau) for fm in member_forms]
        ok, info = validate_member(delta_tau, d_tau, abcde_tau, target, rng)
        reports.append(
            FactorReport(
                modulus=tuple(m),
                degree=deg_m,
                validated=ok,
                detail=info.get("detail", ""),
                root_field_degree=info.get("root_field_degree"),
                witness=info.get("witness"),
                distinct_double_roots=info.get("distinct_double_roots"),
            )
        )
        if ok:
            validated_total += deg_m

    # the t = infinity member is F1 itself; reported separately, never counted
    inf_forms = f1.coefficient_forms()
    inf_quartic = QuarticCoeffs(*inf_forms)
    inf_ok, inf_info = validate_member(
        disc_delta(inf_quartic), sem_d(inf_quartic), inf_forms, fieldp, rng
    )

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
        infinity_detail=inf_info.get("detail", ""),
    )


def family_pencil(p: int) -> tuple[Curve34, Curve34]:
    """The transversality family as a pencil mod p: P_alpha = P_0 + alpha * Q
    with Q = -x^3 v^2 (u - v)^2.  The t = 0 member has its bitangent at [1:0]."""
    fieldp = PrimeField(p)
    p0 = curve_from_ints(
        fieldp,
        {(0, 0): 1, (3, 0): 1, (0, 1): -2, (0, 2): 1, (1, 4): 1, (3, 4): 1},
    )
    q = curve_from_ints(fieldp, {(0, 2): -1, (0, 3): 2, (0, 4): -1})
    return p0, q
