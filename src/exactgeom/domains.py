"""Exact coefficient domains: the rationals, prime fields, and extension towers.

Three kinds of domain are supported:

* ``Rationals`` -- elements are plain :class:`fractions.Fraction` values.
* ``PrimeField(p)`` -- the field with p elements, p an odd prime below 2**31.
  Elements are :class:`FieldElement` wrappers around ints in ``[0, p)``.
* ``ExtensionField(base, modulus)`` -- ``base[t]/(m(t))`` for a monic
  irreducible ``m`` over ``base``.  The base may itself be an extension,
  so towers (needed for "adjoin a square root" constructions) come for free.
  Elements wrap a tuple of base raw values, low degree first.

No polynomial arithmetic is implemented here.  Extension elements are
multiplied, reduced and inverted through the package's two univariate
representations: :mod:`exactgeom.zpoly` (raw ints) for towers of height one,
the hot path, and :mod:`exactgeom.univar` (field elements) above that.

All elements support ``+ - * / **`` and compare exactly; there is no floating
point anywhere.  Domains and elements are immutable and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional

from . import univar, zpoly
from .errors import DomainMismatchError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3_215_031_751."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers.  Elements are ``Fraction`` values."""

    char = 0
    order = None

    _instance: Optional["Rationals"] = None

    def __new__(cls) -> "Rationals":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def elem(self, value) -> Fraction:
        return Fraction(value)

    def coeff_str(self, value: Fraction) -> str:
        return str(value)

    def sqrt(self, value: Fraction) -> Optional[Fraction]:
        """Exact rational square root, or None if no rational root exists."""
        if value < 0:
            return None
        n, d = value.numerator, value.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def rand(self, rng, span: int = 100) -> Fraction:
        return Fraction(rng.randrange(-span, span + 1))

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Rationals")


QQ = Rationals()


class FieldElement:
    """An element of a finite field, wrapping the field and its raw value."""

    __slots__ = ("field", "value")

    def __init__(self, field: "FiniteField", value) -> None:
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise DomainMismatchError(
                    f"elements of {self.field!r} and {other.field!r} cannot be combined"
                )
            return other.value
        if isinstance(other, int):
            return self.field._rfrom_int(other)
        return NotImplemented

    def __add__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._radd(self.value, raw))

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._rsub(self.value, raw))

    def __rsub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._rsub(raw, self.value))

    def __mul__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._rmul(self.value, raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._rmul(self.value, self.field._rinv(raw)))

    def __rtruediv__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._rmul(raw, self.field._rinv(self.value)))

    def __neg__(self):
        return FieldElement(self.field, self.field._rneg(self.value))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = FieldElement(self.field, self.field._rinv(self.value))
            exponent = -exponent
        result = self.field.one()
        acc = base
        while exponent:
            if exponent & 1:
                result = result * acc
            exponent >>= 1
            if exponent:
                acc = acc * acc
        return result

    def __bool__(self) -> bool:
        return not self.field._ris_zero(self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field._rfrom_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return self.field.coeff_str(self)


class FiniteField:
    """Common behaviour for prime fields and extension towers.

    Subclasses provide raw-value arithmetic (``_radd`` and friends); public
    operations work on :class:`FieldElement` wrappers.
    """

    char: int
    order: int

    def zero(self) -> FieldElement:
        return FieldElement(self, self._rzero())

    def one(self) -> FieldElement:
        return FieldElement(self, self._rfrom_int(1))

    def elem(self, value: int) -> FieldElement:
        return FieldElement(self, self._rfrom_int(value))

    def wrap(self, raw) -> FieldElement:
        return FieldElement(self, raw)

    def rand(self, rng) -> FieldElement:
        return FieldElement(self, self._rrand(rng))

    def _element_iter(self) -> Iterator[FieldElement]:
        """Deterministic enumeration of all field elements."""
        for n in range(self.order):
            yield FieldElement(self, self._rfrom_index(n))

    def _nonresidue(self) -> FieldElement:
        """Smallest (in enumeration order) quadratic non-residue."""
        half = (self.order - 1) // 2
        one = self.one()
        for candidate in self._element_iter():
            if candidate and candidate**half != one:
                return candidate
        raise ArithmeticError("no quadratic non-residue found")  # unreachable for odd order

    def sqrt(self, a: FieldElement) -> Optional[FieldElement]:
        """A square root of ``a`` in this field, or None if ``a`` is a non-square.

        Uses the exponentiation shortcut when the order is 3 mod 4 and
        Tonelli-Shanks otherwise.  Deterministic.
        """
        if a.field != self:
            raise DomainMismatchError("sqrt of an element from a different field")
        if not a:
            return self.zero()
        q = self.order
        if q % 2 == 0:
            raise ValueError("square roots unsupported in characteristic 2")
        one = self.one()
        if a ** ((q - 1) // 2) != one:
            return None
        if q % 4 == 3:
            return a ** ((q + 1) // 4)
        # Tonelli-Shanks
        exp, two_power = q - 1, 0
        while exp % 2 == 0:
            exp //= 2
            two_power += 1
        z = self._nonresidue()
        m = two_power
        c = z**exp
        t = a**exp
        r = a ** ((exp + 1) // 2)
        while t != one:
            i, probe = 0, t
            while probe != one:
                probe = probe * probe
                i += 1
            b = c ** (1 << (m - i - 1))
            m = i
            c = b * b
            t = t * c
            r = r * b
        return r

    def coeff_str(self, a: FieldElement) -> str:
        raise NotImplementedError


class PrimeField(FiniteField):
    """The field of integers modulo an odd prime p, 2 < p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not (2 < p < 2**31):
            raise ValueError(f"prime field characteristic must satisfy 2 < p < 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    def _rzero(self) -> int:
        return 0

    def _ris_zero(self, a: int) -> bool:
        return a == 0

    def _rfrom_int(self, n: int) -> int:
        return n % self.p

    def _rfrom_index(self, n: int) -> int:
        return n % self.p

    def _radd(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def _rsub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def _rmul(self, a: int, b: int) -> int:
        return a * b % self.p

    def _rneg(self, a: int) -> int:
        return -a % self.p

    def _rinv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def _rrand(self, rng) -> int:
        return rng.randrange(self.p)

    def coeff_str(self, a: FieldElement) -> str:
        return str(a.value)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))


class ExtensionField(FiniteField):
    """``base[t]/(m(t))`` for a monic irreducible modulus m over ``base``.

    Raw values are tuples of ``degree`` base raw values, low degree first.
    ``base`` may itself be an ExtensionField, giving towers; ``order`` and
    ``char`` are computed through the tower.
    """

    __slots__ = ("base", "modulus", "degree", "name", "_order")

    def __init__(self, base: FiniteField, modulus, name: str = "t", *, check: bool = True) -> None:
        mod = tuple(c.value if isinstance(c, FieldElement) else base._rfrom_int(c) for c in modulus)
        while mod and base._ris_zero(mod[-1]):
            mod = mod[:-1]
        if len(mod) < 3:
            raise ValueError("extension modulus must have degree at least 2")
        if mod[-1] != base._rfrom_int(1):
            raise ValueError("extension modulus must be monic")
        self.base = base
        self.modulus = mod
        self.degree = len(mod) - 1
        self.name = name
        self._order = base.order**self.degree
        if check and not univar.ff_is_irreducible(self._poly(mod), base):
            raise ValueError("extension modulus is reducible over the base field")

    @property
    def char(self) -> int:
        return self.base.char

    @property
    def order(self) -> int:
        return self._order

    def generator(self) -> FieldElement:
        """The class of the adjoined variable t."""
        raw = [self.base._rzero()] * self.degree
        raw[1] = self.base._rfrom_int(1)
        return FieldElement(self, tuple(raw))

    def from_base(self, a: FieldElement) -> FieldElement:
        """Embed an element of the base field."""
        if a.field != self.base:
            raise DomainMismatchError("from_base expects an element of the base field")
        raw = [self.base._rzero()] * self.degree
        raw[0] = a.value
        return FieldElement(self, tuple(raw))

    def _rzero(self):
        return (self.base._rzero(),) * self.degree

    def _ris_zero(self, a) -> bool:
        return all(self.base._ris_zero(c) for c in a)

    def _rfrom_int(self, n: int):
        raw = [self.base._rzero()] * self.degree
        raw[0] = self.base._rfrom_int(n)
        return tuple(raw)

    def _rfrom_index(self, n: int):
        q = self.base.order
        raw = []
        for _ in range(self.degree):
            raw.append(self.base._rfrom_index(n % q))
            n //= q
        return tuple(raw)

    def _radd(self, a, b):
        add = self.base._radd
        return tuple(add(x, y) for x, y in zip(a, b))

    def _rsub(self, a, b):
        sub = self.base._rsub
        return tuple(sub(x, y) for x, y in zip(a, b))

    def _rneg(self, a):
        neg = self.base._rneg
        return tuple(neg(x) for x in a)

    def _rmul(self, a, b):
        base = self.base
        if isinstance(base, PrimeField):
            # raw-int kernel (Kronecker multiply) for towers of height one
            prod = zpoly.zp_mul(zpoly.zp_trim(list(a)), zpoly.zp_trim(list(b)), base.p)
            rem = zpoly.zp_rem(prod, list(self.modulus), base.p)
            return tuple(rem + [0] * (self.degree - len(rem)))
        prod = univar.mul(self._poly(a), self._poly(b), base)
        return self._raw(univar.rem(prod, self._poly(self.modulus), base))

    def _rinv(self, a):
        if self._ris_zero(a):
            raise ZeroDivisionError("inverse of zero")
        base = self.base
        if isinstance(base, PrimeField):
            inv = zpoly.zp_inv_mod(zpoly.zp_trim(list(a)), list(self.modulus), base.p)
            return tuple(inv + [0] * (self.degree - len(inv)))
        return self._raw(univar.inv_mod(self._poly(a), self._poly(self.modulus), base))

    def _poly(self, raw) -> list:
        """A raw value (or the modulus) as a univar polynomial over the base."""
        return univar.trim([FieldElement(self.base, c) for c in raw])

    def _raw(self, poly: list) -> tuple:
        """A univar polynomial of degree below ``degree`` as a raw value."""
        pad = (self.base._rzero(),) * (self.degree - len(poly))
        return tuple(c.value for c in poly) + pad

    def _rrand(self, rng):
        return tuple(self.base._rrand(rng) for _ in range(self.degree))

    def coeff_str(self, a: FieldElement) -> str:
        parts = []
        for i in range(self.degree - 1, -1, -1):
            c = a.value[i]
            if self.base._ris_zero(c):
                continue
            cs = self.base.coeff_str(FieldElement(self.base, c))
            if i == 0:
                parts.append(cs)
            else:
                var = self.name if i == 1 else f"{self.name}^{i}"
                parts.append(var if cs == "1" else f"{cs}*{var}")
        if not parts:
            return "0"
        body = " + ".join(parts)
        needs_parens = len(parts) > 1 or self.name in body
        return f"({body})" if needs_parens else body

    def __repr__(self) -> str:
        return f"{self.base!r}[{self.name}]/(deg {self.degree})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.base, self.modulus))


def adjoin_sqrt(field: FiniteField, a: FieldElement, name: str = "s"):
    """Return ``(field2, root, lift)`` with ``root**2 == lift(a)`` in ``field2``.

    If ``a`` is already a square, ``field2`` is ``field`` itself and ``lift``
    is the identity.  Otherwise ``field2`` is the quadratic extension
    ``field[s]/(s^2 - a)``, which is a field exactly because ``a`` is a
    non-square.
    """
    root = field.sqrt(a)
    if root is not None:
        return field, root, lambda x: x
    modulus = (-a, field.zero(), field.one())
    bigger = ExtensionField(field, modulus, name=name, check=False)
    return bigger, bigger.generator(), bigger.from_base
