"""Dense univariate polynomials over QQ and over every finite field.

This is the package's only implementation of univariate algorithms: the
gcd, the inverse modulo a polynomial, the monic normalisation, the
derivative, the squarefree part, the Frobenius map, distinct-degree plus
Cantor-Zassenhaus splitting and the Rabin irreducibility test each exist
once, here.

A polynomial is a list of raw field values (the int, tuple or ``Fraction``
that a field element wraps), low degree first, with no trailing zeros;
``[]`` is the zero polynomial.  Every function takes the field and does its
arithmetic through the field's raw hooks (``_ris_zero``, ``_radd``,
``_rsub``, ``_rmul``, ``_rinv``, ``_rfrom_int``, ``_rrand``), so extension
towers of any height run the same code.  Over a prime field the heavy steps
(``trim``, ``mul``, ``divmod_``, the packing of the Frobenius rows and
``frobenius``) call the int kernels of :mod:`exactgeom.zpoly`, which is the
selection on the field type that makes the hot GF(p) path fast.  ``rem``
is the one reduction, by a fixed modulus or any other: ``pow_mod``,
``frobenius_rows`` and extension products all call it.  Given the
Frobenius rows of its modulus, ``pow_mod`` takes an exponent of at least
the field order through the Frobenius, digit by digit.
:mod:`exactgeom.domains` multiplies, reduces and inverts extension elements
through the functions here.
"""

from __future__ import annotations

from . import domains, zpoly


def trim(cs: list, field) -> list:
    if isinstance(field, domains.PrimeField):
        return zpoly.zp_trim(cs)
    is_zero = field._ris_zero
    while cs and is_zero(cs[-1]):
        cs.pop()
    return cs


def deg(cs: list) -> int:
    return len(cs) - 1


def sub(a: list, b: list, field) -> list:
    rsub = field._rsub
    out = list(a) + [field._rfrom_int(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = rsub(out[i], c)
    return trim(out, field)


def scale(a: list, s, field) -> list:
    if field._ris_zero(s):
        return []
    rmul = field._rmul
    return [rmul(c, s) for c in a]


def mul(a: list, b: list, field) -> list:
    if isinstance(field, domains.PrimeField):
        return zpoly.zp_mul(a, b, field.p)
    if not a or not b:
        return []
    radd, rmul, is_zero = field._radd, field._rmul, field._ris_zero
    out = [field._rfrom_int(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = radd(out[i + j], rmul(ai, bj))
    return trim(out, field)


def divmod_(a: list, b: list, field) -> tuple[list, list]:
    """Quotient and remainder over a field; b must be nonzero."""
    if isinstance(field, domains.PrimeField):
        return zpoly.zp_divmod(a, b, field.p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rsub, rmul = field._rsub, field._rmul
    r = trim(list(a), field)
    db = deg(b)
    inv_lead = field._rinv(b[-1])
    q = [field._rfrom_int(0)] * max(0, len(r) - db)
    while deg(r) >= db and r:
        factor = rmul(r[-1], inv_lead)
        shift = deg(r) - db
        q[shift] = factor
        for j in range(db + 1):
            r[shift + j] = rsub(r[shift + j], rmul(factor, b[j]))
        trim(r, field)
    return trim(q, field), r


def rem(a: list, b: list, field) -> list:
    return divmod_(a, b, field)[1]


def monic(a: list, field) -> list:
    if not a:
        return []
    return scale(a, field._rinv(a[-1]), field)


def gcd(a: list, b: list, field) -> list:
    a, b = trim(list(a), field), trim(list(b), field)
    while b:
        a, b = b, rem(a, b, field)
    return monic(a, field)


def inv_mod(a: list, m: list, field) -> list:
    """Inverse of a modulo m (extended Euclid); a must be coprime to m."""
    r0, r1 = list(m), rem(a, m, field)
    t0, t1 = [], [field._rfrom_int(1)]
    while r1:
        q, r2 = divmod_(r0, r1, field)
        r0, r1 = r1, r2
        t0, t1 = t1, sub(t0, mul(q, t1, field), field)
    if deg(r0) != 0:
        raise ZeroDivisionError("element is not invertible modulo the modulus")
    return scale(t0, field._rinv(r0[0]), field)


def derivative(cs: list, field) -> list:
    rmul, from_int = field._rmul, field._rfrom_int
    return trim([rmul(from_int(i), c) for i, c in enumerate(cs)][1:], field)


def squarefree_part(cs: list, field) -> list:
    """Product of the distinct irreducible factors (monic).

    Valid in characteristic 0 or when the characteristic exceeds the degree,
    so that gcd(f, f') captures exactly the repeated part.
    """
    char = field.char
    if char and char <= deg(cs):
        raise ValueError("squarefree part needs characteristic 0 or > deg")
    if deg(cs) <= 0:
        return monic(cs, field)
    g = gcd(cs, derivative(cs, field), field)
    return monic(divmod_(cs, g, field)[0], field)


def pow_mod(base: list, exponent: int, modulus: list, field, frobenius_rows=None) -> list:
    """base^exponent mod modulus: the package's one square-and-multiply.

    With the :func:`frobenius_rows` of the modulus over a finite field, an
    exponent of at least q = field.order is read in base q (von zur
    Gathen-Shoup 1992): b^(d_0 + d_1 q + ...) is taken by Horner's rule,
    one :func:`frobenius` product and one multiplication per digit, from
    the powers b^d of the distinct digits d, which share one chain of
    squarings.  A q-power exponent such as (q^k - 1)/2 has few distinct
    digits, so the power takes about k products instead of k log2(q).
    """
    digits = [exponent]
    if frobenius_rows is not None and exponent >= field.order:
        digits = []
        while exponent:
            exponent, digit = divmod(exponent, field.order)
            digits.append(digit)
    powers = dict.fromkeys(digits, [field._rfrom_int(1)])
    acc = rem(base, modulus, field)
    exponent, bit = max(digits), 1
    while exponent:
        for digit in powers:
            if digit & bit:
                powers[digit] = rem(mul(powers[digit], acc, field), modulus, field)
        exponent >>= 1
        bit <<= 1
        if exponent:
            acc = rem(mul(acc, acc, field), modulus, field)
    result = powers[digits[-1]]
    for digit in reversed(digits[:-1]):
        result = frobenius(result, frobenius_rows, field)
        if digit:
            result = rem(mul(result, powers[digit], field), modulus, field)
    return result


def _x(field) -> list:
    return [field._rfrom_int(0), field._rfrom_int(1)]


# --- factorization over a finite field ---------------------------------------


def frobenius_rows(f: list, field) -> list:
    """Berlekamp's Frobenius matrix of field[x]/(f), q = field.order: the rows
    x^(i q) mod f for i < deg f, from one modular power x^q mod f and
    products reduced mod f, in the form that :func:`frobenius` reads: packed
    one int per row over GF(p) (:func:`exactgeom.zpoly.zp_pack_rows`), lists
    of raw values over any other finite field.
    """
    rows = [[field._rfrom_int(1)]]
    if deg(f) >= 2:
        xq = pow_mod(_x(field), field.order, f, field)
        for _ in range(deg(f) - 1):
            rows.append(rem(mul(rows[-1], xq, field), f, field))
    if isinstance(field, domains.PrimeField):
        return zpoly.zp_pack_rows(rows, field.p)
    return rows


def frobenius(h: list, rows: list, field) -> list:
    """h^q mod f for h reduced mod f, from the :func:`frobenius_rows` of f.

    Every coefficient h_i lies in GF(q), so (sum h_i x^i)^q = sum h_i x^(i q):
    one matrix-vector product instead of a modular power.
    """
    if isinstance(field, domains.PrimeField):
        return zpoly.zp_frobenius(h, rows, field.p)
    radd, rmul, is_zero = field._radd, field._rmul, field._ris_zero
    out = [field._rfrom_int(0)] * len(rows)
    for c, row in zip(h, rows):
        if is_zero(c):
            continue
        for j, r in enumerate(row):
            out[j] = radd(out[j], rmul(c, r))
    return trim(out, field)


def split_squarefree(f: list, field, rng) -> list[list]:
    """Irreducible factors of a squarefree monic polynomial, unsorted.

    Distinct-degree splitting followed by Cantor-Zassenhaus equal-degree
    splitting; requires odd characteristic.  The distinct-degree step d
    takes h = x^(q^d) mod f by one :func:`frobenius` product with the rows
    of f, built once (the iterated Frobenius of von zur Gathen-Shoup), and
    splits off gcd(h - x, v) from the unsplit part v; v divides f, so this
    is the gcd with x^(q^d) - x mod v.  Deterministic given ``rng``, from
    which the random coefficients are drawn by ``field._rrand``.
    """
    if deg(f) <= 1:
        return [f] if deg(f) == 1 else []
    rows = frobenius_rows(f, field)
    groups: list[tuple[list, int]] = []
    v = f
    x = h = _x(field)
    d = 0
    while deg(v) > 0:
        d += 1
        if 2 * d > deg(v):
            groups.append((v, deg(v)))
            break
        h = frobenius(h, rows, field)
        g = gcd(sub(h, x, field), v, field)
        if deg(g) > 0:
            groups.append((g, d))
            v = divmod_(v, g, field)[0]
    factors: list[list] = []
    for product, degree_each in groups:
        factors.extend(_equal_degree(product, degree_each, field, rng))
    return factors


def _equal_degree(f: list, d: int, field, rng) -> list[list]:
    n = deg(f)
    if n == d:
        return [f]
    exponent = (field.order**d - 1) // 2
    one = [field._rfrom_int(1)]
    while True:
        r = trim([field._rrand(rng) for _ in range(n)], field)
        if deg(r) < 1:
            continue
        g = gcd(r, f, field)
        if 0 < deg(g) < n:
            break
        h = pow_mod(r, exponent, f, field)
        g = gcd(sub(h, one, field), f, field)
        if 0 < deg(g) < n:
            break
    other = divmod_(f, g, field)[0]
    return _equal_degree(g, d, field, rng) + _equal_degree(other, d, field, rng)


def ff_factor_squarefree(cs: list, field, rng) -> list[list]:
    """Irreducible factors of a squarefree polynomial over a finite field.

    Monic factors sorted by (degree, reprs of the wrapped coefficients);
    deterministic given ``rng``.
    """
    factors = split_squarefree(monic(cs, field), field, rng)
    factors.sort(key=lambda fac: (deg(fac), [repr(field.wrap(c)) for c in fac]))
    return factors


def ff_is_irreducible(cs: list, field) -> bool:
    """Rabin irreducibility test over a finite field: f of degree n is
    irreducible exactly when x^(q^n) = x mod f and gcd(x^(q^(n/l)) - x, f) = 1
    for every prime l dividing n.  The probes x^(q^k) mod f are the first n
    :func:`frobenius` images of x under the rows of f.
    """
    n = deg(cs)
    if n <= 0:
        return False
    if n == 1:
        return True
    f = monic(cs, field)
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
    cofactors = {n // ell for ell in primes}
    rows = frobenius_rows(f, field)
    x = h = _x(field)
    for k in range(1, n + 1):
        h = frobenius(h, rows, field)
        if k in cofactors and deg(gcd(sub(h, x, field), f, field)) > 0:
            return False
    return not sub(h, x, field)
