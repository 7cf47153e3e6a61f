"""Square criteria for binary quartics A u^4 + B u^3 v + C u^2 v^2 + D u v^3 + E v^4.

Two classical covariant conditions are implemented exactly:

* ``disc_delta`` -- the degree-6 discriminant, vanishing iff the quartic has
  a repeated root.  It equals Res(f, df/du) / A for A != 0.
* ``sem_d`` -- the degree-4 seminvariant 64A^3E - 16A^2C^2 + 16AB^2C
  - 16A^2BD - 3B^4.

Their joint vanishing characterizes perfect squares only generically: the
boundary (A, B) = (0, 0) forces both to vanish while e.g. (0,0,1,0,1) is not
a square, and there is a second non-square branch with A != 0 (for instance
(1,0,6,16,9)).  For this reason the ground-truth predicate everywhere is the
perfect-square *witness*: an explicit quadratic whose square reproduces the
quartic.  The matching (``_match_square``) runs in the base field alone, on
raw values through the field's raw hooks (``_rmul``, ``_rinv`` and so on; a
rational is its own raw value): it writes the quartic as s k^2 with k in the
field, and the witness is r k for a square root r of s.  The callers take
that one root: ``perfect_square_witness`` in the field itself, on the raw
value (the field's ``_rsqrt``, the Tonelli-Shanks that ``FiniteField.sqrt``
boxes), and the closure variant through ``adjoin_sqrt``, which builds the
quadratic extension when the base field lacks it.

Both condition polynomials are evaluated with plain ring arithmetic, so the
coefficients may be rationals, finite-field elements, or multivariate
polynomials; each formula shares its products of two coefficients instead
of raising powers term by term.  They may also be plain ints whose values
are then reduced mod p: the formulas have integer coefficients, so that
gives the value over GF(p).  ``fuzz_square_criterion`` runs in one pass per
quartic on raw values: over GF(p) on ints tested ``% p``; over QQ on
(numerator, denominator) int pairs, reduced by ``math.gcd`` and cleared by
the lcm of the denominators (the conditions are homogeneous), with a
``Fraction`` built only to print a failure.  It calls
``perfect_square_witness`` on the same ints, and checks a rational witness
in ints too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from .domains import FieldElement, FiniteField, Rationals, adjoin_sqrt


class QuarticCoeffs(NamedTuple):
    """Coefficients of A u^4 + B u^3 v + C u^2 v^2 + D u v^3 + E v^4."""

    A: object
    B: object
    C: object
    D: object
    E: object


def disc_delta(c: QuarticCoeffs):
    """The discriminant of the quartic, zero iff a repeated projective root exists.

    The sixteen terms of the classical expansion, gathered with P = AE,
    Q = BD, K = C^2 and S = AD^2 + B^2E: the terms in A^2D^4 and B^4E^2 are
    -27 S^2 + 54 P Q^2, and the six terms in AD^2 or B^2E are S C (144 P +
    18 Q - 4 K); the rest is a polynomial in P, Q and K.
    """
    A, B, C, D, E = c
    P, Q, K = A * E, B * D, C * C
    S = A * D * D + B * B * E
    return (
        16 * P * (P * (16 * P - 12 * Q - 8 * K) + Q * (3 * Q - 5 * K) + K * K)
        - Q * Q * (4 * Q - K)
        + S * (C * (144 * P + 18 * Q - 4 * K) - 27 * S)
    )


def sem_d(c: QuarticCoeffs):
    """The degree-4 seminvariant companion of the discriminant,
    64A^3E - 16A^2C^2 + 16AB^2C - 16A^2BD - 3B^4, with A and B^2 factored out."""
    A, B, C, D, E = c
    BB = B * B
    return 16 * A * (A * (4 * A * E - C * C - B * D) + BB * C) - 3 * BB * BB


def square_coefficients(q0, q1, q2) -> QuarticCoeffs:
    """Coefficients of (q0 u^2 + q1 u v + q2 v^2)^2."""
    return QuarticCoeffs(
        q0 * q0,
        2 * (q0 * q1),
        q1 * q1 + 2 * (q0 * q2),
        2 * (q1 * q2),
        q2 * q2,
    )


def _check_char(field) -> None:
    if field.char == 2:
        raise ValueError("square detection is not supported in characteristic 2")


def _raw(x):
    """The raw value of a field element; a rational is its own raw value."""
    return x.value if isinstance(x, FieldElement) else x


def perfect_square_witness(c: tuple, field) -> Optional[tuple]:
    """A quadratic (q0, q1, q2) with square equal to the quartic, if one exists
    with coordinates in the given field, on raw values of the field.

    Coefficient matching in the field gives quartic = s k^2, and the witness
    is q = r k with r the raw square root ``field._rsqrt(s)``; returns None
    when the quartic is not a square or s has no square root in the field.
    """
    found = _match_square(c, field)
    if found is None:
        return None
    s, k0, k1, k2 = found
    r = field._rsqrt(s)
    if r is None:
        return None
    mul = field._rmul
    return mul(r, k0), mul(r, k1), mul(r, k2)


@dataclass(frozen=True)
class ClosureWitness:
    """A perfect-square witness, possibly living in a quadratic extension.

    ``lift`` embeds elements of the original field into ``field``, so the
    witness can be re-verified against the lifted quartic coefficients.
    """

    field: object
    lift: Callable
    q0: object
    q1: object
    q2: object

    def reproduces(self, c: QuarticCoeffs) -> bool:
        lifted = QuarticCoeffs(*(self.lift(x) for x in c))
        return square_coefficients(self.q0, self.q1, self.q2) == lifted


def closure_square_witness(c: QuarticCoeffs, field: FiniteField) -> Optional[ClosureWitness]:
    """Witness search over the algebraic closure of a finite field.

    Only the square root of s in quartic = s k^2 can be missing from the
    base field; :func:`exactgeom.domains.adjoin_sqrt` takes it, in the
    quadratic extension adjoining it when it is missing, and the witness is
    returned there.
    """
    found = _match_square(tuple(map(_raw, c)), field)
    if found is None:
        return None
    s, *k = found
    field2, root, lift = adjoin_sqrt(field, field.wrap(s))
    return ClosureWitness(field2, lift, *(root * lift(field.wrap(x)) for x in k))


def _match_square(c: tuple, field) -> Optional[tuple]:
    """Coefficient matching for quartic = s (k0 u^2 + k1 u v + k2 v^2)^2, on
    raw values, with no square root.

    ``c`` holds raw values of ``field`` and the arithmetic runs through the
    field's raw hooks.  A witness q with q^2 = quartic is q = r k, where
    r^2 = s and s is the first nonzero of A, C, E; so k lies in ``field`` and
    every condition is checked there.  Returns raw ``(s, k0, k1, k2)``, or
    None when the quartic is not a square over the algebraic closure.
    """
    _check_char(field)
    A, B, C, D, E = c
    mul, inv = field._rmul, field._rinv
    zero, one, two = field._rfrom_int(0), field._rfrom_int(1), field._rfrom_int(2)
    if not field._ris_zero(A):
        half = inv(mul(two, A))
        k1 = mul(B, half)
        k2 = mul(field._rsub(C, mul(A, mul(k1, k1))), half)
        if mul(B, k2) == D and mul(A, mul(k2, k2)) == E:
            return A, one, k1, k2
        return None
    if not field._ris_zero(B):
        return None
    if not field._ris_zero(C):
        k2 = mul(D, inv(mul(two, C)))
        return (C, zero, one, k2) if mul(C, mul(k2, k2)) == E else None
    if not field._ris_zero(D):
        return None
    return E, zero, zero, one


def closure_conditions_a_nonzero(c: QuarticCoeffs) -> Iterator:
    """The closure-square conditions for A != 0: with h = 4AC - B^2, they
    are B h - 8 A^2 D and h^2 - 64 A^3 E."""
    A, B, C, D, E = c
    AA = A * A
    h = 4 * A * C - B * B
    yield B * h - 8 * AA * D
    yield h * h - 64 * AA * A * E


def closure_conditions_a_zero(c: QuarticCoeffs) -> Iterator:
    """The closure-square conditions for A = 0: B and D^2 - 4 C E."""
    _, B, C, D, E = c
    yield B
    yield D * D - 4 * C * E


def closure_square_conditions(c: QuarticCoeffs) -> Iterator:
    """Values that all vanish exactly when the quartic is a square over the closure.

    Lazy and division-free, so the coefficients may be rationals, field
    elements or polynomials (characteristic != 2), and a caller that only
    needs the verdict stops at the first nonzero value.  The value of A
    picks the branch; each branch is a polynomial in A..E on its own.
    """
    return (closure_conditions_a_nonzero if c.A else closure_conditions_a_zero)(c)


def is_square_over_closure(c: QuarticCoeffs, field) -> bool:
    """Whether the quartic is a perfect square over the algebraic closure.

    Division-free criterion, valid over any field of characteristic != 2;
    also usable over the rationals.  This predicate is authoritative: the
    joint vanishing of the discriminant and the seminvariant is necessary but
    not sufficient.
    """
    _check_char(field)
    return not any(closure_square_conditions(c))


#: joint vanishing of disc_delta and sem_d without being a square: the
#: documented boundary case with (A, B) = (0, 0) ...
BOUNDARY_NON_SQUARE = QuarticCoeffs(0, 0, 1, 0, 1)
#: ... and a point of the non-square branch with A != 0 (see module docstring)
SPURIOUS_NON_SQUARE = QuarticCoeffs(1, 0, 6, 16, 9)


def _verdicts(c: QuarticCoeffs, p: Optional[int]) -> tuple:
    """Both sides of the fuzz's equivalence for one quartic.

    Returns (disc_delta and sem_d both vanish, square over the closure).
    The formulas have integer coefficients, so integer coefficients and a
    prime ``p`` give the verdicts over GF(p), each value tested ``% p``;
    ``c.A`` must already be reduced, because it picks the branch of
    ``closure_square_conditions``.  With ``p = None`` each value is tested
    as it is.
    """
    # both forms are pure, so the cheaper sem_d goes first: a random quartic
    # has sem_d != 0 and skips the discriminant
    if p is None:
        return not sem_d(c) and not disc_delta(c), not any(closure_square_conditions(c))
    both_vanish = not sem_d(c) % p and not disc_delta(c) % p
    for value in closure_square_conditions(c):
        if value % p:
            return both_vanish, False
    return both_vanish, True


def _reduced(c: QuarticCoeffs, p: int) -> QuarticCoeffs:
    """The coefficients mod p."""
    A, B, C, D, E = c
    return QuarticCoeffs(A % p, B % p, C % p, D % p, E % p)


def _rational_draw(randrange) -> tuple:
    """A rational drawn as numerator in [-60, 60], then denominator in [1, 7],
    returned as a reduced (numerator, denominator) pair."""
    n, d = randrange(-60, 61), randrange(1, 8)
    g = math.gcd(n, d)
    return n // g, d // g


def _cleared(pairs) -> tuple:
    """Reduced (numerator, denominator) pairs times the lcm of the denominators, as ints."""
    scale = math.lcm(*(d for _, d in pairs))
    return tuple(n * (scale // d) for n, d in pairs)


def _squares_to_in_ints(q: tuple, c: QuarticCoeffs) -> bool:
    """Whether the rational quadratic q squares to the int quartic c, tested
    in ints as square(scale q) = scale^2 c for the lcm of q's denominators."""
    scale = math.lcm(*(x.denominator for x in q))
    scaled = (x.numerator * (scale // x.denominator) for x in q)
    return square_coefficients(*scaled) == tuple(scale * scale * x for x in c)


def _fractions(pairs) -> tuple:
    """The rationals of (numerator, denominator) pairs, built to print a failure."""
    return tuple(Fraction(n, d) for n, d in pairs)


def fuzz_square_criterion(field, count: int, rng, square_count: Optional[int] = None) -> dict:
    """Randomized check that the two-condition criterion matches the witness.

    Draws ``count`` random quartics with A != 0 and verifies
    (disc_delta = 0 and sem_d = 0) <-> square-over-closure for each; draws
    ``square_count`` random perfect squares and verifies both sides hold,
    with an explicit witness that reproduces the quartic.  Any discrepancy
    is collected, never averaged away.

    ``field`` is QQ or a prime field GF(p), and both run in one pass per
    quartic on plain ints.  Over GF(p) the coefficients are drawn as ints
    in [0, p) and every value is tested ``% p``.  Over QQ each coefficient
    is drawn as a numerator, then a denominator, and kept as a reduced int
    pair; each quartic (or each quadratic, before squaring) is multiplied
    by the lcm of its denominators: every condition is homogeneous and the
    scaling keeps A != 0, so the verdicts are those of the drawn quartic,
    and a squared quadratic stays a square.  The witness search runs on the
    same ints, as raw values of the field, and a rational witness is
    checked in ints too (``_squares_to_in_ints``).  Reported coefficients
    are the drawn ones; a ``Fraction`` is built only to print a failure.
    """
    if square_count is None:
        square_count = count
    randrange = rng.randrange
    discrepancies = []
    square_failures = []
    if isinstance(field, Rationals):
        p = None
        for _ in range(count):
            a = _rational_draw(randrange)
            while not a[0]:
                a = _rational_draw(randrange)
            drawn = (a, *(_rational_draw(randrange) for _ in range(4)))
            both_vanish, square = _verdicts(QuarticCoeffs(*_cleared(drawn)), None)
            if both_vanish != square:
                discrepancies.append(tuple(map(str, _fractions(drawn))))

        for _ in range(square_count):
            q = (_rational_draw(randrange), _rational_draw(randrange), _rational_draw(randrange))
            if not any(n for n, _ in q):
                q = ((1, 1), *q[1:])
            coeffs = QuarticCoeffs(*square_coefficients(*_cleared(q)))
            ok = all(_verdicts(coeffs, None))
            if ok:
                found = perfect_square_witness(coeffs, field)
                ok = found is not None and _squares_to_in_ints(found, coeffs)
            if not ok:
                square_failures.append(tuple(map(str, square_coefficients(*_fractions(q)))))
    else:
        p = field.p
        for _ in range(count):
            a = randrange(p)
            while not a:
                a = randrange(p)
            c = QuarticCoeffs(a, randrange(p), randrange(p), randrange(p), randrange(p))
            both_vanish, square = _verdicts(c, p)
            if both_vanish != square:
                discrepancies.append(tuple(map(str, c)))

        for _ in range(square_count):
            q = (randrange(p), randrange(p), randrange(p))
            if not any(q):
                q = (1, 0, 0)
            coeffs = _reduced(square_coefficients(*q), p)
            ok = all(_verdicts(coeffs, p))
            if ok:
                found = perfect_square_witness(coeffs, field)
                ok = found is not None and _reduced(square_coefficients(*found), p) == coeffs
            if not ok:
                square_failures.append(tuple(map(str, coeffs)))

    both_vanish, square = _verdicts(BOUNDARY_NON_SQUARE, p)
    return {
        "random_cases": count,
        "square_cases": square_count,
        "equivalence_discrepancies": discrepancies,
        "square_failures": square_failures,
        "boundary_case": "(0,0,1,0,1)",
        "boundary_joint_vanishing_without_square": both_vanish and not square,
    }
