"""The bitangent family: conditions, eliminant, section, smoothness."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from exactgeom import binform, zpoly
from exactgeom import pencil24 as pc
from exactgeom import transversality as tv
from exactgeom.binform import BinaryForm, binary_gcd
from exactgeom.domains import QQ
from exactgeom.multipoly import MultiPoly
from exactgeom.quartic import QuarticCoeffs, disc_delta, perfect_square_witness, sem_d

XY = ("x", "y")


@functools.cache
def _family_conditions():
    """Delta_alpha and d_alpha as MultiPoly forms in (x, y), degrees 18 and
    12, with the parameter alpha: expanded from :func:`tv.family_coeffs`,
    apart from the pencil table that gives R(alpha), as its reference."""
    fam = tv.family_coeffs()
    return BinaryForm(disc_delta(fam), XY), BinaryForm(sem_d(fam), XY)


def _specialized_pair(alpha0):
    """(Delta, d) of the reference at alpha = alpha0, as forms in (x, y) over QQ."""
    at = {"alpha": Fraction(alpha0)}
    return tuple(BinaryForm(form.poly.specialize(at), XY) for form in _family_conditions())


def test_family_coefficients():
    fam = tv.family_coeffs()
    x, y, alpha = MultiPoly.gens(tv.FAMILY_VARS)
    assert fam.A == x**3 + y**3
    assert fam.B == -2 * x**3
    assert fam.C == (1 - alpha) * x**3
    assert fam.D == 2 * alpha * x**3
    assert fam.E == -alpha * x**3 + x**2 * y + y**3
    x2, y2 = MultiPoly.gens(("x", "y"))
    assert fam.E.specialize({"alpha": 0}) == x2**2 * y2 + y2**3


def test_family_specialization_at_marked_point():
    assert tv.fiber_quartic(1, 0, 0) == QuarticCoeffs(*map(Fraction, (1, -2, 1, 0, 0)))


def test_marked_fiber_is_square_with_two_double_roots():
    coeffs = tv.fiber_quartic(1, 0, 0)
    witness = perfect_square_witness(coeffs, QQ)
    assert witness == (1, -1, 0)  # u^2 - u v: double roots at u = 0 and u = v
    q0, q1, q2 = witness
    assert q1 * q1 - 4 * q0 * q2 != 0  # the two double roots are distinct


def test_fiber_at_other_end_is_independent_of_parameter():
    for a0 in (0, 1, 7, Fraction(-3, 2)):
        assert tv.fiber_quartic(0, 1, a0) == QuarticCoeffs(*map(Fraction, (1, 0, 0, 0, 1)))


def test_fiber_scales_cubically():
    lam = Fraction(3)
    scaled = tv.fiber_quartic(lam, 0, 0)
    base = tv.fiber_quartic(1, 0, 0)
    assert scaled == QuarticCoeffs(*(lam**3 * c for c in base))


def test_fiber_rejects_origin():
    with pytest.raises(ValueError):
        tv.fiber_quartic(0, 0, 1)


def test_condition_degrees():
    delta, d = _family_conditions()
    assert delta.degree == 18
    assert d.degree == 12
    assert not delta.poly.is_zero() and not d.poly.is_zero()
    # the marked fiber (u - v)^2 (u^2 - alpha v^2) carries a double root for
    # every alpha, so the discriminant condition vanishes along the whole
    # section: y divides the degree-18 form, and its pure-x coefficient is 0
    assert not delta.coefficient_polys()[0]
    # the seminvariant does not: its pure-x coefficient is -16a^2 - 32a
    assert d.coefficient_polys()[0]


def test_condition_homogeneity_numeric():
    delta = _family_conditions()[0].poly
    point = {"x": Fraction(3), "y": Fraction(-2), "alpha": Fraction(5, 7)}
    doubled = {"x": Fraction(6), "y": Fraction(-4), "alpha": Fraction(5, 7)}
    assert delta.evaluate(doubled) == 2**18 * delta.evaluate(point)


def test_seminvariant_along_section():
    d = _family_conditions()[1].poly.specialize({"x": Fraction(1), "y": Fraction(0)})
    (alpha,) = MultiPoly.gens(("alpha",))
    assert d == -16 * alpha**2 - 32 * alpha


def test_discriminant_vanishes_at_marked_point_for_alpha_zero():
    delta = _family_conditions()[0].poly
    assert delta.evaluate({"x": 1, "y": 0, "alpha": 0}) == 0


def test_section_report():
    section = tv.section_reducedness()
    (alpha,) = MultiPoly.gens(("alpha",))
    assert section.polynomial == -16 * alpha**2 - 32 * alpha
    assert section.linear_coefficient == -32
    assert section.constant_term == 0
    assert section.reduced


def test_eliminant_diagnostics():
    diag = tv.resultant_R()
    assert not diag.identically_zero
    assert diag.value_at_zero == 0
    assert diag.order_at_zero >= 1
    assert diag.degree > diag.order_at_zero
    # frozen first-run findings, pinned for regression visibility
    assert diag.degree == 45
    assert diag.order_at_zero == 2
    # both conditions vanish at [1:0] exactly when -16a^2 - 32a = 0, so the
    # eliminant must also vanish at alpha = -2
    assert zpoly.int_eval(diag.polynomial, -2) == 0


def test_eliminant_equals_the_sylvester_resultant_of_the_expanded_conditions():
    # R from the pencil table over ZZ against binform's resultant of the
    # MultiPoly expansions of Delta and d in (x, y, alpha): two derivations
    r = binform.sylvester_resultant(*_family_conditions())
    assert r.variables == ("alpha",)
    expected = [0] * 46
    for (e,), c in r.terms.items():
        assert c.denominator == 1
        expected[e] = c.numerator
    assert list(tv.resultant_R().polynomial) == expected


def test_eliminant_matches_the_specialized_resultants_off_its_sample_grid():
    # R is interpolated at alpha = 0..84 (the degree bound of the Sylvester
    # determinant); 85 values at other points, each the resultant of the
    # forms specialized there, determine a polynomial of that degree alone
    assert all(tv.resultant_spot_check(alpha) for alpha in range(-85, 0))


def test_eliminant_spot_check():
    assert tv.resultant_spot_check(5)
    assert tv.resultant_spot_check(-7)


def test_spot_check_fails_on_a_perturbed_eliminant(monkeypatch):
    diag = tv.resultant_R()
    r = list(diag.polynomial)
    r[7] += 1
    perturbed = dataclasses.replace(diag, polynomial=tuple(r))
    monkeypatch.setattr(tv, "resultant_R", lambda: perturbed)
    assert not tv.resultant_spot_check(-7)


def test_spot_check_holds_where_both_leading_coefficients_vanish():
    # at alpha = -2 the x^18 coefficient of Delta and the x^12 coefficient of
    # d are both 0; both sides stay Sylvester determinants at the formal
    # degrees (18, 12), so they agree, and both are 0
    delta, dd = _specialized_pair(-2)
    assert (delta.degree, dd.degree) == (18, 12)
    assert delta.coefficient_polys()[0].is_zero() and dd.coefficient_polys()[0].is_zero()
    # the member's lists keep the formal degrees, with leading entries 0
    member = itertools.islice(pc._member_forms(*pc.family_pencil(None), -2), 2)
    assert [(len(cs), cs[-1]) for cs in member] == [(19, 0), (13, 0)]
    assert zpoly.int_eval(tv.resultant_R().polynomial, -2) == 0
    assert tv.resultant_spot_check(-2)


def test_specialized_conditions_coprime_off_the_eliminant():
    diag = tv.resultant_R()
    count = 0
    a0 = 0
    while count < 20:
        a0 += 1
        if zpoly.int_eval(diag.polynomial, a0) == 0:
            continue
        delta0, d0 = _specialized_pair(a0)
        assert binary_gcd(delta0, d0).degree == 0
        count += 1


def test_conditions_share_marked_root_at_alpha_zero():
    delta0, d0 = _specialized_pair(0)
    g = binary_gcd(delta0, d0)
    assert g.degree >= 1
    assert g.poly.evaluate({"x": Fraction(1), "y": Fraction(0)}) == 0  # the shared root is [1:0]


def test_family_is_marked_member_plus_parameter_times_correction():
    # P_0 is the member of the module docstring at alpha = 0
    x, y, u, v = MultiPoly.gens(tv.SURFACE_VARS)
    member = (
        (x**3 + y**3) * u**4
        - 2 * x**3 * u**3 * v
        + x**3 * u**2 * v**2
        + (x**2 * y + y**3) * v**4
    )
    assert tv.p0_polynomial() == member
    # P_alpha - P_0 = alpha * (-x^3 v^2 (u - v)^2), read per coefficient of
    # u^(4-j) v^j
    x, y, alpha = MultiPoly.gens(tv.FAMILY_VARS)
    p0_coeffs = [x**3 + y**3, -2 * x**3, x**3, 0, x**2 * y + y**3]
    correction = [0, 0, -(x**3), 2 * x**3, -(x**3)]
    assert list(tv.family_coeffs()) == [c + alpha * q for c, q in zip(p0_coeffs, correction)]


def test_smoothness_certificate_of_marked_member():
    cert = tv.p0_smoothness_certificate()
    assert cert.status == "smooth"
    assert cert.resultant_value_digits and cert.resultant_value_digits > 0


def test_smoothness_control_nonreduced_fails():
    control = tv.control_nonreduced()
    # the control really is singular: all four partials vanish at ([1:1],[1:1])
    point = {"x": Fraction(1), "y": Fraction(1), "u": Fraction(1), "v": Fraction(1)}
    for name in ("x", "y", "u", "v"):
        assert control.partial_derivative(name).evaluate(point) == 0
    cert = tv.smoothness_certificate(control)
    assert cert.status == "fail"
    assert cert.witness is not None


def test_smoothness_control_reducible_fails():
    control = tv.control_reducible_singular()
    # double point at ([1:1], [0:1])
    point = {"x": Fraction(1), "y": Fraction(1), "u": Fraction(0), "v": Fraction(1)}
    assert control.evaluate(point) == 0
    for name in ("x", "y", "u", "v"):
        assert control.partial_derivative(name).evaluate(point) == 0
    cert = tv.smoothness_certificate(control)
    assert cert.status == "fail"


def _random_form(rng, deg_xy, deg_uv):
    """A bihomogeneous form in ((x, y), (u, v)) with coefficients in [-3, 3]."""
    x, y, u, v = MultiPoly.gens(tv.SURFACE_VARS)
    out = MultiPoly.zero(tv.SURFACE_VARS)
    for i in range(deg_xy + 1):
        for j in range(deg_uv + 1):
            monomial = x ** (deg_xy - i) * y**i * u ** (deg_uv - j) * v**j
            out = out + rng.randint(-3, 3) * monomial
    return out


def _smooth_with_degenerate_fiber():
    """v^2 Q1 + y Q2, a smooth (3,4)-divisor: at [1:0] both P_u and P_v are
    divisible by v, so their leading u-coefficients vanish there."""
    rng = random.Random(1)
    _, y, _, v = MultiPoly.gens(tv.SURFACE_VARS)
    return v**2 * _random_form(rng, 3, 2) + y * _random_form(rng, 2, 4)


def _singular_in_yv_squared():
    """v^2 Q1 + y v Q2 + y^2 Q3 lies in (y, v)^2, so it is singular at
    ([1:0], [1:0]) whatever the coefficients."""
    rng = random.Random(5)
    _, y, _, v = MultiPoly.gens(tv.SURFACE_VARS)
    q1, q2, q3 = (_random_form(rng, 3 - k, 2 + k) for k in range(3))
    return v**2 * q1 + y * v * q2 + y**2 * q3


def _leading_uv_at(P, x0, y0):
    """The u-leading coefficients of P_u and P_v at the fiber [x0 : y0]."""
    at = {"x": Fraction(x0), "y": Fraction(y0)}
    partials = (P.partial_derivative(name) for name in ("u", "v"))
    return [BinaryForm(f, ("u", "v")).coefficient_polys()[0].evaluate(at) for f in partials]


def _specialized_uv_resultant(f, g, x0, y0):
    """The Bareiss determinant of the Sylvester matrix of f and g in (u, v),
    their coefficients specialized at [x0 : y0]."""
    at = {"x": Fraction(x0), "y": Fraction(y0)}
    fc = [c.evaluate(at) for c in BinaryForm(f, ("u", "v")).coefficient_polys()]
    gc = [c.evaluate(at) for c in BinaryForm(g, ("u", "v")).coefficient_polys()]
    m, n = len(fc) - 1, len(gc) - 1
    zero = Fraction(0)
    rows = [[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)]
    return binform.det_constant(rows)


def test_certificate_eliminants_are_the_specialized_resultants(monkeypatch):
    # each (u, v)-eliminant is taken at y = 1 and homogenized: it must agree
    # with the resultant of the partials specialized at any [x0 : y0],
    # including [1:0], which y = 1 never sees
    built = []
    original = tv._uv_eliminant

    def recording(f, g):
        eliminant = original(f, g)
        built.append((f, g, eliminant))
        return eliminant

    monkeypatch.setattr(tv, "_uv_eliminant", recording)
    degenerate = _smooth_with_degenerate_fiber()
    # at [1:0] the eliminant of P_u and P_v is taken at formal degrees whose
    # leading coefficients both vanish
    assert _leading_uv_at(degenerate, 1, 0) == [0, 0]
    inputs = (tv.p0_polynomial(), tv.control_nonreduced(), tv.control_reducible_singular())
    for P in inputs + (degenerate,):
        tv.smoothness_certificate(P)
    assert sum(eliminant is not None for _, _, eliminant in built) >= 4
    rng = random.Random(31)
    points = [(1, 0), (0, 1), (1, 1)] + [
        (rng.randrange(-20, 21), rng.randrange(-20, 21)) for _ in range(6)
    ]
    for f, g, eliminant in built:
        if f.is_zero() or g.is_zero():
            assert eliminant is None
            continue
        for x0, y0 in points:
            if not (x0 or y0):
                continue
            value = 0 if eliminant is None else eliminant.poly.evaluate({"x": x0, "y": y0})
            assert value == _specialized_uv_resultant(f, g, x0, y0)


def test_resultant_alone_settles_fibers_where_both_leading_coefficients_vanish():
    # smooth: a nonzero Res(g1, g2) is the whole verdict
    cert = tv.smoothness_certificate(_smooth_with_degenerate_fiber())
    assert cert.status == "smooth"
    assert cert.detail == "nonzero eliminant resultant"
    assert set(cert.summary()) == {"status", "detail", "pairs_used", "resultant_digits"}
    # singular on such a fiber: the eliminants share the root [1:0]
    P = _singular_in_yv_squared()
    assert _leading_uv_at(P, 1, 0) == [0, 0]
    point = {"x": Fraction(1), "y": Fraction(0), "u": Fraction(1), "v": Fraction(0)}
    for name in ("x", "y", "u", "v"):
        assert P.partial_derivative(name).evaluate(point) == 0
    cert = tv.smoothness_certificate(P)
    assert cert.status == "fail"
    assert cert.detail.startswith("the eliminants share a root: ")
    assert cert.witness is not None and cert.witness["fiber"] == (1, 0)


@pytest.mark.parametrize(
    "shape",
    [
        lambda x, y, u, v: x * u + y * v,
        lambda x, y, u, v: x**2 * u + y**2 * v,
        lambda x, y, u, v: x * (u + v),
    ],
    ids=["xu+yv", "x2u+y2v", "x(u+v)"],
)
def test_smoothness_refuses_uv_degree_one(shape):
    # P_u and P_v have no (u, v) left to eliminate; x (u + v) is singular at
    # ([0:1], [1:-1]), so the refusal must not turn into a "smooth" verdict
    P = shape(*MultiPoly.gens(tv.SURFACE_VARS))
    with pytest.raises(ValueError, match=r"\(u, v\)-degree at least 2"):
        tv.smoothness_certificate(P)


def test_smoothness_rejects_zero_and_wrong_shape():
    with pytest.raises(ValueError):
        tv.smoothness_certificate(MultiPoly.zero(tv.SURFACE_VARS))
    x, y, u, v = MultiPoly.gens(tv.SURFACE_VARS)
    with pytest.raises(ValueError):
        tv.smoothness_certificate(x**2 + u)  # not bihomogeneous
    with pytest.raises(ValueError):
        tv.smoothness_certificate(x * y)  # no (u, v) part
