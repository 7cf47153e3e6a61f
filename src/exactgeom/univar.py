"""Dense univariate polynomials over any coefficient domain.

This is one of the package's two univariate-polynomial representations:

* :mod:`exactgeom.zpoly` -- raw ints modulo p, the hot GF(p) kernel;
* this module -- field elements (Fractions or :class:`FieldElement`
  wrappers) over QQ or any finite field, extension towers included.

Nothing else in the package implements polynomial arithmetic: extension
towers in :mod:`exactgeom.domains` multiply, reduce and invert through the
functions here, and the distinct-degree plus Cantor-Zassenhaus splitter
below serves both representations.

Polynomials are lists of coefficients, low degree first, with no trailing
zeros; ``[]`` is the zero polynomial.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # domains imports this module at run time
    from .domains import FiniteField


def trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def deg(cs: list) -> int:
    return len(cs) - 1


def sub(a: list, b: list, domain) -> list:
    out = list(a) + [domain.zero()] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return trim(out)


def scale(a: list, s) -> list:
    if not s:
        return []
    return [c * s for c in a]


def mul(a: list, b: list, domain) -> list:
    if not a or not b:
        return []
    out = [domain.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return trim(out)


def divmod_(a: list, b: list, domain) -> tuple[list, list]:
    """Quotient and remainder over a field; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = deg(b)
    inv_lead = domain.one() / b[-1]
    q = [domain.zero()] * max(0, len(a) - db)
    while deg(r) >= db and r:
        factor = r[-1] * inv_lead
        shift = deg(r) - db
        q[shift] = factor
        for j in range(db + 1):
            r[shift + j] = r[shift + j] - factor * b[j]
        trim(r)
    return trim(q), r


def rem(a: list, b: list, domain) -> list:
    return divmod_(a, b, domain)[1]


def monic(a: list, domain) -> list:
    if not a:
        return []
    return scale(a, domain.one() / a[-1])


def gcd(a: list, b: list, domain) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, rem(a, b, domain)
    return monic(a, domain)


def inv_mod(a: list, m: list, domain) -> list:
    """Inverse of a modulo m (extended Euclid); a must be coprime to m."""
    r0, r1 = list(m), rem(a, m, domain)
    t0, t1 = [], [domain.one()]
    while r1:
        q, r2 = divmod_(r0, r1, domain)
        r0, r1 = r1, r2
        t0, t1 = t1, sub(t0, mul(q, t1, domain), domain)
    if deg(r0) != 0:
        raise ZeroDivisionError("element is not invertible modulo the modulus")
    return scale(t0, domain.one() / r0[0])


def derivative(cs: list) -> list:
    return trim([i * c for i, c in enumerate(cs)][1:])


def squarefree_part(cs: list, domain) -> list:
    """Product of the distinct irreducible factors (monic).

    Valid in characteristic 0 or when the characteristic exceeds the degree,
    so that gcd(f, f') captures exactly the repeated part.
    """
    char = domain.char
    if char and char <= deg(cs):
        raise ValueError("squarefree part needs characteristic 0 or > deg")
    if deg(cs) <= 0:
        return monic(cs, domain)
    g = gcd(cs, derivative(cs), domain)
    return monic(divmod_(cs, g, domain)[0], domain)


def pow_mod(base: list, exponent: int, modulus: list, domain) -> list:
    result = [domain.one()]
    acc = rem(base, modulus, domain)
    while exponent:
        if exponent & 1:
            result = rem(mul(result, acc, domain), modulus, domain)
        exponent >>= 1
        if exponent:
            acc = rem(mul(acc, acc, domain), modulus, domain)
    return result


def _x(domain) -> list:
    return [domain.zero(), domain.one()]


# --- factorization over a finite field ---------------------------------------


class SplitOps(NamedTuple):
    """The arithmetic :func:`split_squarefree` needs, bound to one finite field.

    ``order`` is the field size q, ``x`` and ``one`` are the polynomials x
    and 1, the two-argument operations act on polynomials of either
    representation, and ``draw(n)`` returns n random coefficients.
    """

    order: int
    x: list
    one: list
    sub: Callable
    divmod_: Callable
    rem: Callable
    gcd: Callable
    pow_mod: Callable
    draw: Callable


def split_squarefree(f: list, ops: SplitOps) -> list[list]:
    """Irreducible factors of a squarefree monic polynomial, unsorted.

    Distinct-degree splitting followed by Cantor-Zassenhaus equal-degree
    splitting; requires odd characteristic.  Deterministic given the
    random draws of ``ops``.
    """
    if deg(f) <= 1:
        return [f] if deg(f) == 1 else []
    groups: list[tuple[list, int]] = []
    v = f
    h = ops.x
    d = 0
    while deg(v) > 0:
        d += 1
        if 2 * d > deg(v):
            groups.append((v, deg(v)))
            break
        h = ops.pow_mod(h, ops.order, v)
        g = ops.gcd(ops.sub(h, ops.x), v)
        if deg(g) > 0:
            groups.append((g, d))
            v = ops.divmod_(v, g)[0]
            h = ops.rem(h, v)
    factors: list[list] = []
    for product, degree_each in groups:
        factors.extend(_equal_degree(product, degree_each, ops))
    return factors


def _equal_degree(f: list, d: int, ops: SplitOps) -> list[list]:
    n = deg(f)
    if n == d:
        return [f]
    exponent = (ops.order**d - 1) // 2
    while True:
        r = trim(ops.draw(n))
        if deg(r) < 1:
            continue
        g = ops.gcd(r, f)
        if 0 < deg(g) < n:
            break
        h = ops.pow_mod(r, exponent, f)
        g = ops.gcd(ops.sub(h, ops.one), f)
        if 0 < deg(g) < n:
            break
    other = ops.divmod_(f, g)[0]
    return _equal_degree(g, d, ops) + _equal_degree(other, d, ops)


def ff_factor_squarefree(cs: list, field: FiniteField, rng) -> list[list]:
    """Irreducible factors of a squarefree polynomial over a finite field.

    Monic factors sorted by (degree, coefficient reprs); deterministic given
    ``rng``.
    """
    ops = SplitOps(
        order=field.order,
        x=_x(field),
        one=[field.one()],
        sub=partial(sub, domain=field),
        divmod_=partial(divmod_, domain=field),
        rem=partial(rem, domain=field),
        gcd=partial(gcd, domain=field),
        pow_mod=partial(pow_mod, domain=field),
        draw=lambda n: [field.rand(rng) for _ in range(n)],
    )
    factors = split_squarefree(monic(cs, field), ops)
    factors.sort(key=lambda fac: (deg(fac), [repr(c) for c in fac]))
    return factors


def ff_is_irreducible(cs: list, field: FiniteField) -> bool:
    """Rabin irreducibility test over a finite field."""
    n = deg(cs)
    if n <= 0:
        return False
    if n == 1:
        return True
    f = monic(cs, field)
    q = field.order
    x = _x(field)
    probe = pow_mod(x, q**n, f, field)
    if sub(probe, x, field):
        return False
    primes = set()
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            primes.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.add(m)
    for ell in primes:
        probe = pow_mod(x, q ** (n // ell), f, field)
        if deg(gcd(sub(probe, x, field), f, field)) > 0:
            return False
    return True
