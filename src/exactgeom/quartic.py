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
quartic, searched by coefficient matching with exact square roots.  A closure
variant adjoins the single missing square root when the base field lacks it.
The matching itself (``_match_square``) runs on raw field values through the
field's raw hooks (``_rmul``, ``_rinv`` and so on; a rational is its own raw
value), and the public searches wrap only the witness they return.

Both condition polynomials are evaluated with plain ring arithmetic, so the
coefficients may be rationals, finite-field elements, or multivariate
polynomials.  They may also be plain ints whose values are then reduced
mod p: the formulas have integer coefficients, so that gives the value over
GF(p).  ``fuzz_square_criterion`` runs on ints end to end: over GF(p) it
works this way, over QQ it clears the denominators of each draw (the
conditions are homogeneous), and it calls the raw witness search on the
same ints.
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
    """The discriminant of the quartic, zero iff a repeated projective root exists."""
    A, B, C, D, E = c
    return (
        256 * A**3 * E**3
        - 192 * A**2 * B * D * E**2
        - 128 * A**2 * C**2 * E**2
        + 144 * A**2 * C * D**2 * E
        - 27 * A**2 * D**4
        + 144 * A * B**2 * C * E**2
        - 6 * A * B**2 * D**2 * E
        - 80 * A * B * C**2 * D * E
        + 18 * A * B * C * D**3
        + 16 * A * C**4 * E
        - 4 * A * C**3 * D**2
        - 27 * B**4 * E**2
        + 18 * B**3 * C * D * E
        - 4 * B**3 * D**3
        - 4 * B**2 * C**3 * E
        + B**2 * C**2 * D**2
    )


def sem_d(c: QuarticCoeffs):
    """The degree-4 seminvariant companion of the discriminant."""
    A, B, C, D, E = c
    return 64 * A**3 * E - 16 * A**2 * C**2 + 16 * A * B**2 * C - 16 * A**2 * B * D - 3 * B**4


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


def _identity(x):
    return x


def _raw(x):
    """The raw value of a field element; a rational is its own raw value."""
    return x.value if isinstance(x, FieldElement) else x


def _field_root(field):
    """A ``root`` for :func:`_match_square` that stays in ``field`` itself."""

    def root(a):
        r = field.sqrt(field.wrap(a))
        return None if r is None else (field, _raw(r), _identity)

    return root


def perfect_square_witness(c: QuarticCoeffs, field) -> Optional[tuple]:
    """A quadratic (q0, q1, q2) with square equal to the quartic, if one exists
    with coordinates in the given field.

    Found by coefficient matching: q0^2 = A, 2 q0 q1 = B, and so on, taking
    exact square roots in the field; returns None when the quartic is not a
    square or the required square roots do not exist in the field.
    """
    found = _match_square(tuple(map(_raw, c)), field, _field_root(field))
    return None if found is None else tuple(map(field.wrap, found[1:]))


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

    At most one square root is ever missing from the base field; when it is,
    the quadratic extension adjoining it is constructed and the witness is
    returned there.
    """

    def root(a):
        field2, r, lift = adjoin_sqrt(field, field.wrap(a))
        if field2 is field:
            return field, r.value, _identity
        return field2, r.value, lambda x: lift(field.wrap(x)).value

    found = _match_square(tuple(map(_raw, c)), field, root)
    if found is None:
        return None
    field2, *q = found
    lift = _identity if field2 is field else field2.from_base
    return ClosureWitness(field2, lift, *map(field2.wrap, q))


def _match_square(c: tuple, field, root) -> Optional[tuple]:
    """Coefficient matching q0^2 = A, 2 q0 q1 = B, and so on, on raw values.

    ``c`` holds raw values of ``field`` and the arithmetic runs through the
    field's raw hooks.  Only the first nonzero of A, C, E needs a square
    root; ``root(a)`` returns ``(field2, raw sqrt of a in field2, raw lift
    from field into field2)``, or None when no root is available.  Returns
    ``(field2, q0, q1, q2)`` with raw values of field2, or None.
    """
    _check_char(field)
    A, B, C, D, E = c
    if not field._ris_zero(A):
        found = root(A)
        if found is None:
            return None
        field2, q0, lift = found
        mul, two = field2._rmul, field2._rfrom_int(2)
        inv = field2._rinv(mul(two, q0))
        q1 = mul(lift(B), inv)
        q2 = mul(field2._rsub(lift(C), mul(q1, q1)), inv)
        if mul(two, mul(q1, q2)) == lift(D) and mul(q2, q2) == lift(E):
            return field2, q0, q1, q2
        return None
    if not field._ris_zero(B):
        return None
    if not field._ris_zero(C):
        found = root(C)
        if found is None:
            return None
        field2, q1, lift = found
        mul = field2._rmul
        q2 = mul(lift(D), field2._rinv(mul(field2._rfrom_int(2), q1)))
        if mul(q2, q2) == lift(E):
            return field2, field2._rfrom_int(0), q1, q2
        return None
    if not field._ris_zero(D):
        return None
    found = root(E)
    if found is None:
        return None
    field2, q2, _ = found
    zero = field2._rfrom_int(0)
    return field2, zero, zero, q2


def closure_conditions_a_nonzero(c: QuarticCoeffs) -> Iterator:
    """The closure-square conditions for A != 0: with h = 4AC - B^2, they
    are B h - 8 A^2 D and h^2 - 64 A^3 E."""
    A, B, C, D, E = c
    h = 4 * A * C - B * B
    yield B * h - 8 * A * A * D
    yield h * h - 64 * A**3 * E


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


def _verdicts(c: QuarticCoeffs, reduce) -> tuple:
    """Both sides of the fuzz's equivalence for one quartic.

    Returns (disc_delta and sem_d both vanish, square over the closure), each
    value tested after ``reduce``.  The formulas have integer coefficients,
    so integer coefficients with ``reduce = lambda v: v % p`` give the
    verdicts over GF(p); ``c.A`` must already be reduced, because it picks
    the branch of ``closure_square_conditions``.
    """
    both_vanish = not reduce(disc_delta(c)) and not reduce(sem_d(c))
    square = not any(map(reduce, closure_square_conditions(c)))
    return both_vanish, square


def _cleared(values) -> tuple:
    """Rationals times the lcm of their denominators, as ints."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def fuzz_square_criterion(field, count: int, rng, square_count: Optional[int] = None) -> dict:
    """Randomized check that the two-condition criterion matches the witness.

    Draws ``count`` random quartics with A != 0 and verifies
    (disc_delta = 0 and sem_d = 0) <-> square-over-closure for each; draws
    ``square_count`` random perfect squares and verifies both sides hold,
    with an explicit witness that reproduces the quartic.  Any discrepancy
    is collected, never averaged away.

    ``field`` is QQ or a prime field GF(p), and both run on plain ints.
    Over GF(p) the coefficients are drawn as ints in [0, p) and the
    conditions are tested mod p.  Over QQ they are drawn as ``Fraction``
    values and each quartic (or each quadratic, before squaring) is
    multiplied by the lcm of its denominators: every condition is
    homogeneous and the scaling keeps A != 0, so the verdicts are those of
    the drawn quartic, and a squared quadratic stays a square.  The witness
    search runs on the same ints, as raw values of the field.  Reported
    coefficients are the drawn ones.
    """
    if square_count is None:
        square_count = count
    if isinstance(field, Rationals):

        def draw():
            return Fraction(rng.randrange(-60, 61), rng.randrange(1, 8))

        cleared, reduce = _cleared, _identity

    else:
        p = field.p

        def draw():
            return rng.randrange(p)

        def reduce(value):
            return value % p

        cleared = _identity

    root = _field_root(field)

    def witnessed(c):
        found = _match_square(c, field, root)
        return found is not None and tuple(map(reduce, square_coefficients(*found[1:]))) == c

    discrepancies = []
    for _ in range(count):
        while True:
            a = draw()
            if a:
                break
        drawn = (a, draw(), draw(), draw(), draw())
        both_vanish, square = _verdicts(QuarticCoeffs(*cleared(drawn)), reduce)
        if both_vanish != square:
            discrepancies.append(tuple(map(str, drawn)))

    square_failures = []
    for _ in range(square_count):
        q = (draw(), draw(), draw())
        if not any(q):
            q = (1, *q[1:])
        coeffs = QuarticCoeffs(*map(reduce, square_coefficients(*cleared(q))))
        ok = all(_verdicts(coeffs, reduce)) and witnessed(coeffs)
        if not ok:
            square_failures.append(tuple(map(str, map(reduce, square_coefficients(*q)))))

    both_vanish, square = _verdicts(BOUNDARY_NON_SQUARE, reduce)
    return {
        "random_cases": count,
        "square_cases": square_count,
        "equivalence_discrepancies": discrepancies,
        "square_failures": square_failures,
        "boundary_case": "(0,0,1,0,1)",
        "boundary_joint_vanishing_without_square": both_vanish and not square,
    }
