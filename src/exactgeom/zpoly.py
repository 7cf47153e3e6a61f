"""Raw univariate arithmetic and factorization over GF(p).

This is one of the package's two univariate-polynomial representations:
lists of ints in [0, p), low degree first, no trailing zeros (``[]`` is
zero).  The other, :mod:`exactgeom.univar`, holds field elements over any
field; this module is the speed-critical GF(p) kernel.  Multiplication
packs coefficients into one big integer (Kronecker substitution) so
CPython's integer multiply performs the convolution, and factorization
feeds these raw operations to the splitter shared with ``univar``.
"""

from __future__ import annotations

from functools import partial

from . import univar


def zp_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def zp_deg(cs: list[int]) -> int:
    return len(cs) - 1


def zp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return zp_trim(out)


_KRONECKER_THRESHOLD = 16


def zp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    if min(len(a), len(b)) >= _KRONECKER_THRESHOLD:
        return _zp_mul_kronecker(a, b, p)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return zp_trim([c % p for c in out])


def _zp_mul_kronecker(a: list[int], b: list[int], p: int) -> list[int]:
    # slot width must exceed log2(min(len) * p^2) so packed sums cannot overlap
    bits = (min(len(a), len(b)) * p * p).bit_length() + 1
    mask = (1 << bits) - 1
    pa = sum(c << (bits * i) for i, c in enumerate(a))
    pb = sum(c << (bits * i) for i, c in enumerate(b))
    prod = pa * pb
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append((prod & mask) % p)
        prod >>= bits
    return zp_trim(out)


def zp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = zp_trim(list(a))
    db = zp_deg(b)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(r) - db)
    while zp_deg(r) >= db and r:
        factor = r[-1] * inv_lead % p
        shift = zp_deg(r) - db
        q[shift] = factor
        for j in range(db + 1):
            r[shift + j] = (r[shift + j] - factor * b[j]) % p
        zp_trim(r)
    return zp_trim(q), r


def zp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    return zp_divmod(a, b, p)[1]


def zp_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def zp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = zp_trim(list(a)), zp_trim(list(b))
    while b:
        a, b = b, zp_rem(a, b, p)
    return zp_monic(a, p)


def zp_inv_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Inverse of a modulo m (extended Euclid); a must be coprime to m."""
    r0, r1 = zp_trim(list(m)), zp_rem(a, m, p)
    t0, t1 = [], [1]
    while r1:
        q, r2 = zp_divmod(r0, r1, p)
        r0, r1 = r1, r2
        t0, t1 = t1, zp_sub(t0, zp_mul(q, t1, p), p)
    if zp_deg(r0) != 0:
        raise ZeroDivisionError("element is not invertible modulo the modulus")
    scale = pow(r0[0], p - 2, p)
    return [c * scale % p for c in t0]


def zp_derivative(cs: list[int], p: int) -> list[int]:
    return zp_trim([i * c % p for i, c in enumerate(cs)][1:])


def zp_squarefree_part(cs: list[int], p: int) -> list[int]:
    if p <= zp_deg(cs):
        raise ValueError("squarefree part needs characteristic > deg")
    if zp_deg(cs) <= 0:
        return zp_monic(cs, p)
    g = zp_gcd(cs, zp_derivative(cs, p), p)
    return zp_monic(zp_divmod(cs, g, p)[0], p)


def zp_pow_mod(base: list[int], exponent: int, modulus: list[int], p: int) -> list[int]:
    result = [1]
    acc = zp_rem(base, modulus, p)
    while exponent:
        if exponent & 1:
            result = zp_rem(zp_mul(result, acc, p), modulus, p)
        exponent >>= 1
        if exponent:
            acc = zp_rem(zp_mul(acc, acc, p), modulus, p)
    return result


def zp_factor_squarefree(cs: list[int], p: int, rng) -> list[list[int]]:
    """Irreducible factors of a squarefree polynomial over GF(p), p odd.

    Runs the shared splitter :func:`exactgeom.univar.split_squarefree` on
    raw-int operations; output sorted by (degree, coefficients) so it is
    deterministic for a seeded rng.
    """
    ops = univar.SplitOps(
        order=p,
        x=[0, 1],
        one=[1],
        sub=partial(zp_sub, p=p),
        divmod_=partial(zp_divmod, p=p),
        rem=partial(zp_rem, p=p),
        gcd=partial(zp_gcd, p=p),
        pow_mod=partial(zp_pow_mod, p=p),
        draw=lambda n: [rng.randrange(p) for _ in range(n)],
    )
    factors = univar.split_squarefree(zp_monic(cs, p), ops)
    factors.sort(key=lambda fac: (zp_deg(fac), fac))
    return factors
