"""Intersection numbers on symmetric products of curves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactgeom.errors import DomainMismatchError
from exactgeom.symprod import (
    class_c14,
    class_delta2,
    eval_top,
    monomial_value,
    product_and_eval,
    xtheta,
)


def test_monomial_values_on_genus5_fourfold():
    assert eval_top(xtheta(5, 4, {(4, 0): 1})) == 1
    assert eval_top(xtheta(5, 4, {(0, 4): 1})) == 120  # 5!/1!
    assert eval_top(xtheta(5, 4, {(1, 3): 1})) == 60
    assert eval_top(xtheta(5, 4, {(2, 2): 1})) == 20
    assert eval_top(xtheta(5, 4, {(3, 1): 1})) == 5


def test_monomial_rule_against_falling_factorial_oracle():
    # independent route: the falling factorial g (g-1) ... (g-j+1), which is
    # zero on its own once j exceeds g
    for g in range(1, 7):
        for d in range(1, 5):
            for j in range(d + 1):
                expected = 1
                for k in range(j):
                    expected *= g - k
                assert monomial_value(g, d, d - j, j) == expected


def test_classical_low_degree_values():
    # theta on X^(1) integrates to g; theta^2 on X^(2) to g(g - 1)
    for g in range(2, 7):
        assert eval_top(xtheta(g, 1, {(0, 1): 1})) == g
        assert eval_top(xtheta(g, 2, {(0, 2): 1})) == g * (g - 1)


def test_class_coefficients():
    c = class_c14()
    assert c.coefficient(0, 2) == Fraction(1, 2)
    assert c.coefficient(1, 1) == -1
    assert c.coefficient(2, 0) == 0
    d = class_delta2()
    assert d.coefficient(2, 0) == 128
    assert d.coefficient(0, 2) == 4
    assert d.coefficient(1, 1) == -40


def test_product_and_evaluation():
    product, value = product_and_eval()
    assert dict(product.coeffs) == {
        (2, 2): Fraction(104),
        (0, 4): Fraction(2),
        (1, 3): Fraction(-24),
        (3, 1): Fraction(-128),
    }
    assert value == 240


def test_x_squared_times_x_squared():
    x2 = xtheta(5, 4, {(2, 0): 1})
    assert eval_top(x2 * x2) == 1


def test_theta4_vanishes_for_small_genus():
    assert eval_top(xtheta(3, 4, {(0, 4): 1})) == 0
    assert monomial_value(3, 4, 0, 4) == 0


def test_lower_degree_terms_do_not_contribute():
    c = xtheta(5, 4, {(1, 1): 7, (4, 0): 2})
    assert eval_top(c) == 2


def test_truncation_flagged():
    a = xtheta(5, 2, {(0, 2): 1})
    product = a * a  # theta^4 does not fit on X^(2)
    assert product.truncated
    assert not a.truncated
    # degree exactly d: nothing is dropped
    assert not (class_c14() * class_delta2()).truncated


def test_invalid_monomial_rejected():
    with pytest.raises(ValueError):
        xtheta(5, 2, {(2, 1): 1})


def test_mismatched_products_rejected():
    with pytest.raises(DomainMismatchError):
        xtheta(5, 4, {(1, 0): 1}) * xtheta(4, 4, {(1, 0): 1})


small = st.integers(-30, 30)


@settings(max_examples=60)
@given(small, small, small, small, small, small)
def test_bilinearity_and_commutativity(a1, a2, b1, b2, c1, c2):
    a = xtheta(5, 4, {(1, 0): a1, (0, 1): a2})
    b = xtheta(5, 4, {(1, 1): b1, (2, 0): b2})
    c = xtheta(5, 4, {(0, 2): c1, (1, 0): c2})
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert eval_top(a * (b + c)) == eval_top(a * b) + eval_top(a * c)
