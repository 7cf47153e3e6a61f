"""Sparse multivariate polynomials: exact arithmetic, calculus, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactgeom.errors import DomainMismatchError
from exactgeom.multipoly import MultiPoly

UV = ("u", "v")
XY = ("x", "y")


def q(value):
    return Fraction(value)


def test_addition_cancels():
    x, y = MultiPoly.gens(XY)
    assert (x + y) + (x - y) == 2 * x


def test_multiplication_by_zero():
    x, y = MultiPoly.gens(XY)
    p = 3 * x**2 - y
    assert p * MultiPoly.zero(XY) == 0
    assert (p * 0).is_zero()


def test_expansion_against_hand_computation():
    # (u - v)^2 (u^2 - a v^2) expanded by hand:
    # u^4 - 2u^3 v + (1 - a) u^2 v^2 + 2a u v^3 - a v^4
    uva = ("u", "v", "a")
    u, v, a = MultiPoly.gens(uva)
    product = (u - v) ** 2 * (u**2 - a * v**2)
    expected = {
        (4, 0, 0): q(1),
        (3, 1, 0): q(-2),
        (2, 2, 0): q(1),
        (2, 2, 1): q(-1),
        (1, 3, 1): q(2),
        (0, 4, 1): q(-1),
    }
    assert product.terms == expected


def test_partial_derivative_power_rule():
    u, v = MultiPoly.gens(UV)
    p = u**4 - 2 * u**3 * v
    assert p.partial_derivative("u") == 4 * u**3 - 6 * u**2 * v


def test_partial_derivative_of_constant():
    c = MultiPoly.constant(XY, 5)
    assert c.partial_derivative("x").is_zero()


def test_partial_derivative_chain_consistency():
    # d/du (u - v)^4 = 4 (u - v)^3, checked after expanding both sides
    u, v = MultiPoly.gens(UV)
    assert ((u - v) ** 4).partial_derivative("u") == 4 * (u - v) ** 3


def test_unknown_variable_rejected():
    p = MultiPoly.constant(XY, 1)
    with pytest.raises(ValueError):
        p.partial_derivative("z")
    with pytest.raises(ValueError):
        MultiPoly.variable(XY, "z")


def test_domain_mismatch_rejected():
    p = MultiPoly.constant(XY, 1)
    s = MultiPoly.constant(UV, 1)
    with pytest.raises(DomainMismatchError):
        p * s


def test_constant_equals_its_rational_value():
    half = MultiPoly.constant(XY, Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert half != Fraction(1, 3)
    assert MultiPoly.zero(XY) == Fraction(0)


def test_substitute_and_specialize():
    x, y = MultiPoly.gens(XY)
    p = x**2 * y + 3 * y
    partial = p.substitute("x", q(2))
    assert partial.variables == XY
    assert partial == 4 * y + 3 * y
    dropped = p.specialize({"x": q(2)})
    assert dropped.variables == ("y",)
    assert dropped.evaluate({"y": q(5)}) == 35


def test_evaluate():
    x, y = MultiPoly.gens(XY)
    p = x**3 - q(1) / 2 * y
    assert p.evaluate({"x": q(2), "y": q(4)}) == 6


def test_drop_vars_guard():
    x, y = MultiPoly.gens(XY)
    with pytest.raises(ValueError):
        (x * y).drop_vars(["x"])


def test_rendering():
    vars4 = ("x", "y", "u", "v")
    x, y, u, v = MultiPoly.gens(vars4)
    # terms listed by graded-lex order, fractions and signs rendered inline
    p = 3 * x**2 * y**2 - q(1) / 2 * u * v**3
    assert p.to_text() == "3*x^2*y^2 - 1/2*u*v^3"
    assert (3 * x**2 * y - q(1) / 2 * u).to_text() == "3*x^2*y - 1/2*u"
    assert MultiPoly.zero(vars4).to_text() == "0"
    assert (x - x).to_text() == "0"
    assert MultiPoly.constant(vars4, -7).to_text() == "-7"
    assert (x * y - x**2).to_text() == "-x^2 + x*y"  # graded-lex order


def test_power_zero_is_one():
    x, _ = MultiPoly.gens(XY)
    assert x**0 == 1


coeffs = st.integers(-9, 9)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_dicts = st.dictionaries(exponents, coeffs, max_size=5)


def _mk(d):
    return MultiPoly(XY, {e: Fraction(c) for e, c in d.items()})


@settings(max_examples=60)
@given(poly_dicts, poly_dicts, poly_dicts)
def test_ring_axioms_rationals(da, db, dc):
    a, b, c = (_mk(d) for d in (da, db, dc))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (-a) == 0


def test_no_zero_coefficients_stored():
    x, y = MultiPoly.gens(XY)
    p = (x + y) * (x - y)  # x^2 - y^2: the xy cross terms cancel
    assert all(c for c in p.terms.values())
    assert (1, 1) not in p.terms
