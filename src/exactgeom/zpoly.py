"""Raw int kernels for univariate polynomials over GF(p).

Polynomials are lists of ints in [0, p), low degree first, no trailing
zeros (``[]`` is zero).  This module holds only the GF(p) kernels that
:mod:`exactgeom.univar` calls for a prime field, plus the eliminant
helpers; every univariate algorithm (gcd, inverse, squarefree part,
splitting, the Rabin test) lives in ``univar``, and
:func:`zp_squarefree_part` and :func:`zp_factor_squarefree` are its GF(p)
entry points.  Multiplication is Kronecker substitution at every size: the
coefficients are packed into one big integer so CPython's integer multiply
performs the convolution.  A packed slot is one or two 64-bit words, so
packing and unpacking are one ``int.from_bytes`` or ``int.to_bytes`` on an
``array`` of words.  :func:`zp_divmod` is the package's only reduction
of a polynomial over GF(p), by a fixed modulus or any other: it keeps its
remainder packed and unpacks it once.  Distinct-degree factorization
applies the Frobenius map h -> h^p mod f with the rows x^(i p) mod f of
Berlekamp's matrix, packed one int per row by :func:`zp_pack_rows`: n
small-int times big-int multiply-adds and one unpack per step, in place of
a modular power.
:func:`int_resultant` is the package's only resultant kernel: it takes the
Sylvester determinant at the formal degrees by the subresultant remainder
sequence over ZZ, or over GF(p) when given p, whose one loop also yields
the first subresultant S1 when the sequence is normal.  The Newton
interpolator is the package's only one:
:func:`int_interpolate` takes forward differences on ints at the points
0..N-1, and :func:`interpolate` divides out its factorial scale, mod p or
exactly over ZZ.  :func:`int_eval` (Horner's rule) is the package's only
evaluator of a polynomial at a point.
:func:`sampled_resultant` is the package's only resultant in a parameter,
from these three: the resultants of :mod:`exactgeom.binform` over QQ, the
pencil eliminant over GF(p) or ZZ (the family's R(alpha)), R(alpha) at one
member for its spot check, and the pencil's condition resultant Rc with its
S1 in t are each one call to it.
"""

from __future__ import annotations

import math
from array import array

from . import domains, univar
from .errors import InterpolationError


def zp_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def zp_deg(cs: list[int]) -> int:
    return len(cs) - 1


def zp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b over GF(p) by Kronecker substitution: both factors packed into
    ints, one integer multiply, and the product's slots unpacked mod p.

    Packing needs nonnegative coefficients, so a and b must be residues in
    [0, p); the one caller, :func:`exactgeom.univar.mul` over a prime
    field, passes them.
    """
    if not a or not b:
        return []
    words = _slot_words(min(len(a), len(b)), p)
    return _unpack(_pack(a, words) * _pack(b, words), len(a) + len(b) - 1, words, p)


def _slot_words(n: int, p: int) -> int:
    """The 64-bit words of a slot that sums at most n products of two
    residues, each below p^2: one, or two since n p^2 < 2^128."""
    return 1 if n * p * p < 1 << 64 else 2


# a packed int is read from and written to its 64-bit words in little-endian
# order, so the native words are swapped on a big-endian machine
_BIG_ENDIAN = array("Q", [1]).tobytes()[0] == 0


def _pack(cs: list[int], words: int) -> int:
    """The residues as one int, cs[i] in slot i of ``words`` 64-bit words."""
    if words == 1:
        slots = array("Q", cs)
    else:
        slots = array("Q", bytes(16 * len(cs)))
        slots[::2] = array("Q", cs)
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(packed: int, count: int, words: int, p: int) -> list[int]:
    """The first ``count`` slots of a packed int, each reduced mod p, trimmed;
    ``packed`` must fit in them."""
    slots = array("Q", packed.to_bytes(8 * words * count, "little"))
    if _BIG_ENDIAN:
        slots.byteswap()
    if words == 2:
        return zp_trim([(high << 64 | low) % p for low, high in zip(slots[::2], slots[1::2])])
    return zp_trim([c % p for c in slots])


def zp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over GF(p), for residues a and b, b nonzero.

    The remainder stays packed (:func:`_pack`): a step reads its top slot
    and adds (p - factor) times the packed b, shifted, which cancels that
    slot mod p, so no slot goes negative; the low deg b slots are unpacked
    once at the end.
    """
    if not b or not b[-1]:
        raise ZeroDivisionError("polynomial division by zero or by an untrimmed divisor")
    a = zp_trim(list(a))
    db = zp_deg(b)
    steps = len(a) - db
    if steps <= 0:
        return [], a
    # a slot holds a residue of a plus at most ``steps`` products below p^2
    words = _slot_words(steps + 1, p)
    bits = 64 * words
    mask = (1 << bits) - 1
    r, divisor = _pack(a, words), _pack(b, words)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * steps
    for shift in range(steps - 1, -1, -1):
        factor = ((r >> (bits * (shift + db))) & mask) * inv_lead % p
        if factor:
            q[shift] = factor
            r += ((p - factor) * divisor) << (bits * shift)
    return zp_trim(q), _unpack(r & ((1 << (bits * db)) - 1), db, words, p)


def zp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    return zp_divmod(a, b, p)[1]


def zp_pack_rows(rows: list[list[int]], p: int) -> list[int]:
    """Frobenius rows packed one int each, in the slots of :func:`zp_frobenius`."""
    words = _slot_words(len(rows), p)
    return [_pack(row, words) for row in rows]


def zp_frobenius(h: list[int], rows: list[int], p: int) -> list[int]:
    """h^p mod the modulus of ``rows`` (:func:`zp_pack_rows`), for h
    reduced mod that modulus: (sum h_i x^i)^p = sum h_i x^(i p) over GF(p),
    so the image is the sum of h_i times row i, n multiply-adds on packed
    ints and one unpack."""
    n = len(rows)
    packed = 0
    for c, row in zip(h, rows):
        if c:
            packed += c * row
    return _unpack(packed, n, _slot_words(n, p), p)


def _expand_first_column(f: list, g: list) -> tuple[int, list, list]:
    """Expand the Sylvester determinant of f and g (low degree first, at the
    formal degrees M = len(f) - 1 and N = len(g) - 1, f's rows first) along
    its first column while a leading coefficient vanishes.

    The first column holds only lc(f), in f's first row, and lc(g), in g's
    first row, at sign (-1)^N; when one of them vanishes the determinant is
    the other one times the Sylvester determinant with that formal degree
    lowered by one.  Returns (scale, f, g) with the determinant equal to
    scale times the Sylvester determinant of the returned pair; there a
    formal degree is 0 or no leading coefficient vanishes, unless both do,
    which leaves scale 0.
    """
    scale = 1
    while len(f) > 1 and len(g) > 1 and not (f[-1] and g[-1]):
        if not (f[-1] or g[-1]):
            return 0, f, g
        if f[-1]:
            scale *= f[-1]
            g = g[:-1]
        else:
            scale *= -g[-1] if len(g) % 2 == 0 else g[-1]
            f = f[:-1]
    return scale, f, g


def int_resultant(
    f: list[int], g: list[int], first_subresultant: bool = False, p: int | None = None
):
    """The determinant of the Sylvester matrix of f and g over ZZ: ints low
    degree first, at the formal degrees M = len(f) - 1 and N = len(g) - 1
    with f's rows first (coefficients highest degree first), for M, N >= 0.
    A constant f = [c] gives c^N and a constant g = [c] gives c^M, also for
    a zero polynomial on the other side.  With a prime p, f and g are
    residues and the determinant over GF(p) is returned in [0, p).
    Subresultants are minors of the Sylvester matrix, so reducing mod p
    commutes with them: ``int_resultant(f, g) % p`` is
    ``int_resultant(f, g, p=p)``.

    After :func:`_expand_first_column` both leading coefficients are
    nonzero, and the subresultant polynomial remainder sequence of Collins
    and Brown-Traub (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 3.3.7) takes the resultant in O(M N) operations:
    each pseudo-remainder is divided exactly by the previous leading
    coefficient times h^delta, which keeps the coefficients over ZZ the size
    of the subresultants.  The sequence is valid over any integral domain,
    so mod p the same loop reduces every pseudo-remainder and divides
    through an inverse.

    With ``first_subresultant`` the result is a pair (resultant, s1).  s1 is
    [s10, s11], the coefficients of the first subresultant S1 = s11 x + s10
    of f and g, for M, N >= 2: the minors of the M + N - 2 rows x^k f
    (k < N - 1), then x^k g (k < M - 1), on the columns of x^(M+N-2) .. x^2
    and one of x^1 and x^0.  The same remainder sequence yields it, as the
    remainder over the divisor of degree 2, but only when the sequence is
    normal: both formal leading coefficients are nonzero and every
    remainder lies one degree below its divisor, down to a nonzero
    constant.  Otherwise s1 is None; a sequence normal over ZZ may be
    abnormal mod p.  In a normal sequence that remainder is S1 with g's
    rows first when M >= N, and with f's rows first when M < N; the two
    orders differ by the sign (-1)^((M-1)(N-1)), which s1 undoes.
    """
    normal = bool(f[-1] and g[-1])
    scale, f, g = _expand_first_column(f, g)
    if len(f) == 1 or len(g) == 1 or not scale:
        (resultant,) = _divide([scale * f[0] ** (len(g) - 1) * g[0] ** (len(f) - 1)], 1, p)
        return (resultant, None) if first_subresultant else resultant
    s1_sign = -1 if len(f) >= len(g) and len(f) % 2 and len(g) % 2 else 1
    if len(f) < len(g):
        f, g = g, f
        if len(f) % 2 == 0 and len(g) % 2 == 0:
            scale = -scale
    # every step lowers the degree, so the sequence ends with a constant g
    # within n0 steps, and takes all n0 when it is normal
    n0 = len(g) - 1
    lead = h = 1
    for step in range(1, n0 + 1):
        m, n = len(f) - 1, len(g) - 1
        delta = m - n
        if m % 2 and n % 2:
            scale = -scale
        r = _int_pseudo_remainder(f, g, p)
        if not r:
            return (0, None) if first_subresultant else 0
        f, g = g, _divide(r, lead * h**delta, p)
        lead = f[-1]
        # h <- lead^delta / h^(delta - 1)
        if delta == 1:
            h = lead
        elif delta:
            (h,) = _divide([lead**delta], h ** (delta - 1), p)
        if len(g) == 1:
            break
    m = len(f) - 1
    (resultant,) = _divide([scale * g[0] ** m], h ** (m - 1), p)
    if not first_subresultant:
        return resultant
    # a normal sequence ends with f, the remainder over the divisor of degree 2
    if normal and step == n0 >= 2:
        return resultant, _divide([s1_sign * c for c in f], 1, p)
    return resultant, None


def _divide(values: list[int], divisor: int, p: int | None) -> list[int]:
    """The values divided exactly by a nonzero divisor over ZZ, or mod p in
    [0, p) through its inverse."""
    if p is None:
        return [c // divisor for c in values]
    inverse = pow(divisor, -1, p)
    return [c * inverse % p for c in values]


def _int_pseudo_remainder(a: list[int], b: list[int], p: int | None = None) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b over ZZ, trimmed, reduced mod p when
    p is given; deg a >= deg b."""
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    for k in range(len(a) - 1 - n, -1, -1):
        top = r.pop()
        r = [lead * c for c in r]
        if top:
            for j in range(n):
                r[k + j] -= top * b[j]
    return zp_trim(r if p is None else [c % p for c in r])


def int_eval(cs: list, x):
    """cs(x) by Horner's rule, for coefficients low degree first (``[]`` is
    0), in any ring: ints, or a ``Fraction`` x."""
    value = 0
    for c in reversed(cs):
        value = value * x + c
    return value


def int_interpolate(ys: list[int]) -> list[int]:
    """(N-1)! times the polynomial of degree < N through (i, ys[i]),
    low degree first, for N integer values ys at the points 0..N-1.

    Newton's forward differences d_k of integer values are integers, and
    the Newton coefficients are d_k / k!; scaling by (N-1)! keeps the whole
    computation in ints.
    """
    n = len(ys)
    ds = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            ds[i] -= ds[i - 1]
    result = [ds[-1]]
    weight = 1  # (N-1)! / k!
    for k in range(n - 2, -1, -1):
        weight *= k + 1
        # result <- result * (x - k) + weight * ds[k]
        shifted = [0] + result
        for i, c in enumerate(result):
            shifted[i] -= k * c
        shifted[0] += weight * ds[k]
        result = shifted
    return result


def interpolate(values: list[int], p: int | None = None) -> list[int]:
    """The polynomial of degree < N through (i, values[i]) at the points
    0..N-1, trimmed: :func:`int_interpolate` divided by (N-1)!, over GF(p)
    by one inverse mod p when p is given, which needs N <= p, else exactly
    over ZZ, for the values of a polynomial with integer coefficients."""
    n = len(values)
    if p is None:
        scale = math.factorial(n - 1)
        return zp_trim([c // scale for c in int_interpolate(values)])
    if n > p:
        raise InterpolationError(f"need {n} sample points but the field has only {p} elements")
    scale = pow(math.factorial(n - 1), -1, p)
    return zp_trim([c * scale % p for c in int_interpolate([v % p for v in values])])


def sampled_resultant(
    fs: list[list[int]], gs: list[list[int]], p: int | None = None, first_subresultant: bool = False
):
    """The resultant in x of f = sum fs[i] x^i and g = sum gs[i] x^i, whose
    coefficients are int polynomials in t, at the formal degrees
    M = len(fs) - 1 and N = len(gs) - 1: an int polynomial in t, trimmed,
    reduced mod p when p is given.

    Its t-degree is at most bound = N deg_t fs + M deg_t gs, so it is read
    from integer evaluations (Collins 1971): at each point t = 0..bound the
    coefficients are evaluated by :func:`int_eval` (and reduced mod p), the
    Sylvester determinant is taken by :func:`int_resultant`, over GF(p)
    when p is given, and the values are interpolated by :func:`interpolate`,
    mod p or over ZZ, where the factor bound! divides the integer resultant
    exactly.

    With ``first_subresultant`` the result is a pair (resultant, s1): s1 is
    [s10, s11], the coefficients in t of the first subresultant of f and g,
    interpolated from the same points (their t-degrees are at most the
    bound), or None unless :func:`int_resultant` reads S1 at every point.
    Mod p, a point whose sequence over GF(p) is not normal reads S1 from
    the sequence of the residues over ZZ, which is normal at least as
    often; S1, a minor, reduces mod p whatever the degrees of either.
    """
    deg_f, deg_g = (max(1, *map(len, cs)) - 1 for cs in (fs, gs))
    bound = (len(gs) - 1) * deg_f + (len(fs) - 1) * deg_g
    points = []
    for t in range(bound + 1):
        f, g = ([int_eval(c, t) for c in cs] for cs in (fs, gs))
        if p is not None:
            f, g = [c % p for c in f], [c % p for c in g]
        if not first_subresultant:
            points.append((int_resultant(f, g, False, p), None))
            continue
        resultant, s1 = int_resultant(f, g, True, p)
        if s1 is None and p is not None:
            # the sequence of the residues may be normal over ZZ only
            s1 = int_resultant(f, g, True)[1]
        points.append((resultant, s1))
    values, s1s = zip(*points)
    resultant = interpolate(list(values), p)
    if not first_subresultant:
        return resultant
    return resultant, None if None in s1s else [interpolate(list(cs), p) for cs in zip(*s1s)]


def zp_squarefree_part(cs: list[int], p: int) -> list[int]:
    """:func:`exactgeom.univar.squarefree_part` over GF(p)."""
    return univar.squarefree_part(cs, domains.PrimeField(p))


def zp_factor_squarefree(cs: list[int], p: int, rng) -> list[list[int]]:
    """Irreducible factors of a squarefree polynomial over GF(p), p odd.

    Runs :func:`exactgeom.univar.split_squarefree` over GF(p) on the monic
    input; output sorted by (degree, coefficients) so it is deterministic for
    a seeded rng.
    """
    field = domains.PrimeField(p)
    factors = univar.split_squarefree(univar.monic(cs, field), field, rng)
    factors.sort(key=lambda fac: (zp_deg(fac), fac))
    return factors
