"""Exact coefficient domains: the rationals, prime fields, and extension towers.

Three kinds of domain are supported:

* ``Rationals`` -- elements are plain :class:`fractions.Fraction` values.
* ``PrimeField(p)`` -- the field with p elements, p an odd prime below 2**31.
  Elements are :class:`FieldElement` wrappers around ints in ``[0, p)``.
* ``ExtensionField(base, modulus)`` -- ``base[t]/(m(t))`` for a monic
  irreducible ``m`` over ``base``.  The base may itself be an extension,
  so towers (needed for "adjoin a square root" constructions) come for free.
  Elements wrap a tuple of base raw values, low degree first.

No polynomial arithmetic is implemented here.  At every tower height an
extension element is multiplied, reduced (by :func:`exactgeom.univar.rem`)
and inverted by :mod:`exactgeom.univar` on the raw values of its base field;
over a prime base that module calls the int kernels of :mod:`exactgeom.zpoly`.

All elements support ``+ - * / **`` and compare exactly; there is no floating
point anywhere.  ``a ** e`` works on raw values through the field's
``_rpow`` hook: a prime field calls the built-in three-argument ``pow``, an
extension calls :func:`exactgeom.univar.pow_mod` on its modulus, and a
negative exponent inverts first, so ``0 ** -1`` raises ``ZeroDivisionError``.
An extension passes the Frobenius rows of its modulus, built once per field
on the first exponent of at least the base order q, so a power takes about
one product per base-q digit of the exponent.
Domains and elements are immutable and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional

from . import univar
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

    def sqrt(self, value: Fraction) -> Optional[Fraction]:
        """Exact rational square root, or None if no rational root exists."""
        if value < 0:
            return None
        n, d = value.numerator, value.denominator
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    # the raw-value hooks of FiniteField; a rational is its own raw value
    _rsqrt = sqrt

    def wrap(self, raw) -> Fraction:
        return raw

    def _ris_zero(self, a) -> bool:
        return a == 0

    def _rfrom_int(self, n: int) -> Fraction:
        return Fraction(n)

    def _radd(self, a, b):
        return a + b

    def _rsub(self, a, b):
        return a - b

    def _rmul(self, a, b):
        return a * b

    def _rinv(self, a) -> Fraction:
        return Fraction(1, a)

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
        return FieldElement(self.field, self.field._rsub(self.field._rfrom_int(0), self.value))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        field, raw = self.field, self.value
        if exponent < 0:
            raw = field._rinv(raw)
            exponent = -exponent
        return FieldElement(field, field._rpow(raw, exponent))

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
        return FieldElement(self, self._rfrom_int(0))

    def one(self) -> FieldElement:
        return FieldElement(self, self._rfrom_int(1))

    def elem(self, value: int) -> FieldElement:
        return FieldElement(self, self._rfrom_int(value))

    def wrap(self, raw) -> FieldElement:
        return FieldElement(self, raw)

    def rand(self, rng) -> FieldElement:
        return FieldElement(self, self._rrand(rng))

    def _element_iter(self, start: int = 0) -> Iterator[FieldElement]:
        """Deterministic enumeration of the field elements from index ``start`` on."""
        for n in range(start, self.order):
            yield FieldElement(self, self._rfrom_index(n))

    def _nonresidue(self) -> FieldElement:
        """Smallest (in enumeration order) quadratic non-residue.

        The search starts at index ``F.order``, where F is the largest field
        of the tower with [K:F] even (index 0 if there is none).  Indices
        below ``F.order`` enumerate exactly the elements of F, and each of
        them is a square in K: for a in F*, a^((|K| - 1)/2) is a power of
        a^(|F| - 1) = 1, because (|K| - 1)/(|F| - 1) = 1 + |F| + ... is a
        sum of [K:F] odd terms, hence even.  So skipping that prefix returns
        the same element as the full enumeration.
        """
        start, degree, field = 0, 1, self
        while isinstance(field, ExtensionField):
            degree *= field.degree
            field = field.base
            if degree % 2 == 0:
                start = field.order
                break
        half = (self.order - 1) // 2
        one = self.one()
        for candidate in self._element_iter(start):
            if candidate and candidate**half != one:
                return candidate
        raise ArithmeticError("no quadratic non-residue found")  # unreachable for odd order

    def sqrt(self, a: FieldElement) -> Optional[FieldElement]:
        """A square root of ``a`` in this field, or None if ``a`` is a non-square.

        The root of :meth:`_rsqrt`, boxed.
        """
        if a.field != self:
            raise DomainMismatchError("sqrt of an element from a different field")
        r = self._rsqrt(a.value)
        return None if r is None else FieldElement(self, r)

    def _rsqrt(self, a):
        """The raw square root of the raw value ``a``, or None for a non-square.

        One Tonelli-Shanks on raw values, deterministic.  With q - 1 = 2^m e,
        e odd, one power b = a^((e - 1)/2) gives r = a b and t = r b = a^e,
        so r^2 = a t.  Each step finds the least i with t^(2^i) = 1 and
        multiplies t by an element of order 2^i; i = m means a^((q - 1)/2) =
        -1, a non-square.  The non-residue z (c = z^e) is looked up at the
        first step only.  For q = 3 mod 4, m = 1 and a square takes no step,
        so r = a^((q + 1)/4).
        """
        if self._ris_zero(a):
            return self._rfrom_int(0)
        q = self.order
        if q % 2 == 0:
            raise ValueError("square roots unsupported in characteristic 2")
        e, m = q - 1, 0
        while e % 2 == 0:
            e //= 2
            m += 1
        mul, one = self._rmul, self._rfrom_int(1)
        b = self._rpow(a, (e - 1) // 2)
        r = mul(a, b)
        t = mul(r, b)
        c = None
        while t != one:
            i, probe = 0, t
            while probe != one:
                probe = mul(probe, probe)
                i += 1
            if i == m:
                return None
            if c is None:
                c = self._rpow(self._nonresidue().value, e)
            b = self._rpow(c, 1 << (m - i - 1))
            m = i
            c = mul(b, b)
            t = mul(t, c)
            r = mul(r, b)
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

    def _rinv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def _rpow(self, a: int, exponent: int) -> int:
        return pow(a, exponent, self.p)

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
    ``char`` are computed through the tower.  Products are reduced modulo
    the modulus by :func:`exactgeom.univar.rem`; powers read the
    :func:`exactgeom.univar.frobenius_rows` of the modulus, built on the
    first power that needs them.
    """

    __slots__ = ("base", "modulus", "degree", "name", "_order", "_frobenius_rows")

    def __init__(self, base: FiniteField, modulus, name: str = "t", *, check: bool = True) -> None:
        if any(isinstance(c, FieldElement) and c.field != base for c in modulus):
            raise DomainMismatchError(f"modulus coefficients must lie in {base!r}")
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
        self._frobenius_rows = None
        if check and not univar.ff_is_irreducible(list(mod), base):
            raise ValueError("extension modulus is reducible over the base field")

    @property
    def char(self) -> int:
        return self.base.char

    @property
    def order(self) -> int:
        return self._order

    def generator(self) -> FieldElement:
        """The class of the adjoined variable t."""
        raw = [self.base._rfrom_int(0)] * self.degree
        raw[1] = self.base._rfrom_int(1)
        return FieldElement(self, tuple(raw))

    def from_base(self, a: FieldElement) -> FieldElement:
        """Embed an element of the base field."""
        if a.field != self.base:
            raise DomainMismatchError("from_base expects an element of the base field")
        raw = [self.base._rfrom_int(0)] * self.degree
        raw[0] = a.value
        return FieldElement(self, tuple(raw))

    def _ris_zero(self, a) -> bool:
        return all(self.base._ris_zero(c) for c in a)

    def _rfrom_int(self, n: int):
        raw = [self.base._rfrom_int(0)] * self.degree
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

    def _rmul(self, a, b):
        base = self.base
        # trimmed factors pack into fewer slots of zp_mul's integers
        prod = univar.mul(univar.trim(list(a), base), univar.trim(list(b), base), base)
        return self._padded(univar.rem(prod, self.modulus, base))

    def _rinv(self, a):
        if self._ris_zero(a):
            raise ZeroDivisionError("inverse of zero")
        base = self.base
        return self._padded(univar.inv_mod(univar.trim(list(a), base), list(self.modulus), base))

    def _rpow(self, a, exponent: int):
        base = self.base
        modulus = list(self.modulus)
        rows = None
        if exponent >= base.order:
            # built on the first power that reads them, once per field
            if self._frobenius_rows is None:
                self._frobenius_rows = univar.frobenius_rows(modulus, base)
            rows = self._frobenius_rows
        power = univar.pow_mod(univar.trim(list(a), base), exponent, modulus, base, rows)
        return self._padded(power)

    def _padded(self, poly: list) -> tuple:
        """A polynomial over the base of degree below ``degree`` as a raw value."""
        return tuple(poly) + (self.base._rfrom_int(0),) * (self.degree - len(poly))

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
