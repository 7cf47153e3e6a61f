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

Both condition polynomials are evaluated with plain ring arithmetic, so the
coefficients may be rationals, finite-field elements, or multivariate
polynomials.  They may also be plain ints whose values are then reduced
mod p: the formulas have integer coefficients, so that gives the value over
GF(p).  ``fuzz_square_criterion`` works this way over GF(p), and wraps the
coefficients as field elements only for the witness search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from .domains import FiniteField, Rationals, adjoin_sqrt

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


def perfect_square_witness(c: QuarticCoeffs, field) -> Optional[tuple]:
    """A quadratic (q0, q1, q2) with square equal to the quartic, if one exists
    with coordinates in the given field.

    Found by coefficient matching: q0^2 = A, 2 q0 q1 = B, and so on, taking
    exact square roots in the field; returns None when the quartic is not a
    square or the required square roots do not exist in the field.
    """

    def root(a):
        r = field.sqrt(a)
        return None if r is None else (field, r, lambda x: x)

    witness = _match_square(c, field, root)
    return None if witness is None else (witness.q0, witness.q1, witness.q2)


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
    return _match_square(c, field, lambda a: adjoin_sqrt(field, a))


def _match_square(c: QuarticCoeffs, field, root) -> Optional[ClosureWitness]:
    """Coefficient matching q0^2 = A, 2 q0 q1 = B, and so on.

    Only the first nonzero of A, C, E needs a square root; ``root(a)``
    returns ``(field2, sqrt of a in field2, lift into field2)``, or None when
    no root is available.
    """
    _check_char(field)
    A, B, C, D, E = c
    if A:
        found = root(A)
        if found is None:
            return None
        field2, q0, lift = found
        two = field2.elem(2)
        q1 = lift(B) / (two * q0)
        q2 = (lift(C) - q1 * q1) / (two * q0)
        if two * q1 * q2 == lift(D) and q2 * q2 == lift(E):
            return ClosureWitness(field2, lift, q0, q1, q2)
        return None
    if B:
        return None
    if C:
        found = root(C)
        if found is None:
            return None
        field2, q1, lift = found
        q2 = lift(D) / (field2.elem(2) * q1)
        if q2 * q2 == lift(E):
            return ClosureWitness(field2, lift, field2.zero(), q1, q2)
        return None
    if D:
        return None
    found = root(E)
    if found is None:
        return None
    field2, q2, lift = found
    return ClosureWitness(field2, lift, field2.zero(), field2.zero(), q2)


def closure_square_conditions(c: QuarticCoeffs) -> Iterator:
    """Values that all vanish exactly when the quartic is a square over the closure.

    Lazy and division-free, so the coefficients may be rationals, field
    elements or polynomials (characteristic != 2), and a caller that only
    needs the verdict stops at the first nonzero value.  With
    h = 4AC - B^2 they are B h - 8 A^2 D and h^2 - 64 A^3 E when A != 0, and
    B and D^2 - 4 C E when A = 0 (``c._replace(A=0)`` selects that branch).
    """
    A, B, C, D, E = c
    if A:
        h = 4 * A * C - B * B
        yield B * h - 8 * A * A * D
        yield h * h - 64 * A**3 * E
    else:
        yield B
        yield D * D - 4 * C * E


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


def fuzz_square_criterion(field, count: int, rng, square_count: Optional[int] = None) -> dict:
    """Randomized check that the two-condition criterion matches the witness.

    Draws ``count`` random quartics with A != 0 and verifies
    (disc_delta = 0 and sem_d = 0) <-> square-over-closure for each; draws
    ``square_count`` random perfect squares and verifies both sides hold,
    with an explicit witness that reproduces the quartic.  Any discrepancy
    is collected, never averaged away.

    ``field`` is QQ or a prime field GF(p).  Over GF(p) the coefficients are
    drawn as ints in [0, p), and the conditions run on plain ints and are
    tested mod p; only the witness search wraps them as field elements.
    Over QQ the same loop runs on ``Fraction`` values, unreduced.
    """
    if square_count is None:
        square_count = count
    if isinstance(field, Rationals):

        def draw():
            return Fraction(rng.randrange(-60, 61), rng.randrange(1, 8))

        def reduce(value):
            return value

        def witnessed(c):
            witness = perfect_square_witness(c, field)
            return witness is not None and square_coefficients(*witness) == c

    else:
        p = field.p

        def draw():
            return rng.randrange(p)

        def reduce(value):
            return value % p

        def witnessed(c):
            c = QuarticCoeffs(*map(field.wrap, c))
            witness = closure_square_witness(c, field)
            return witness is not None and witness.reproduces(c)

    discrepancies = []
    for _ in range(count):
        while True:
            a = draw()
            if a:
                break
        coeffs = QuarticCoeffs(a, draw(), draw(), draw(), draw())
        both_vanish, square = _verdicts(coeffs, reduce)
        if both_vanish != square:
            discrepancies.append(tuple(map(str, coeffs)))

    square_failures = []
    for _ in range(square_count):
        q0, q1, q2 = draw(), draw(), draw()
        if not (q0 or q1 or q2):
            q0 = 1
        coeffs = QuarticCoeffs(*map(reduce, square_coefficients(q0, q1, q2)))
        ok = all(_verdicts(coeffs, reduce)) and witnessed(coeffs)
        if not ok:
            square_failures.append(tuple(map(str, coeffs)))

    both_vanish, square = _verdicts(BOUNDARY_NON_SQUARE, reduce)
    return {
        "random_cases": count,
        "square_cases": square_count,
        "equivalence_discrepancies": discrepancies,
        "square_failures": square_failures,
        "boundary_case": "(0,0,1,0,1)",
        "boundary_joint_vanishing_without_square": both_vanish and not square,
    }
