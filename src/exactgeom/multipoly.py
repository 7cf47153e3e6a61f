"""Sparse exact multivariate polynomials over QQ.

A :class:`MultiPoly` stores a map from exponent tuples to nonzero
``Fraction`` coefficients.  Work over finite fields runs on raw coefficient
lists instead (:mod:`exactgeom.univar`, :mod:`exactgeom.zpoly`).
Arithmetic is exact, values are immutable after construction, and the text
rendering lists terms in graded-lexicographic order, e.g.
``3*x^2*y - 1/2*u*v^3``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DomainMismatchError


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms: Mapping[tuple, object]) -> None:
        variables = tuple(variables)
        width = len(variables)
        clean = {}
        for expts, coeff in terms.items():
            if len(expts) != width:
                raise ValueError(f"exponent tuple {expts} does not match variables {variables}")
            if coeff:
                clean[tuple(expts)] = coeff
        self.variables = variables
        self.terms = clean

    # --- constructors ---

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        return cls(variables, {(0,) * len(tuple(variables)): Fraction(value)})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        expts = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {expts: Fraction(1)})

    @classmethod
    def gens(cls, variables) -> tuple["MultiPoly", ...]:
        return tuple(cls.variable(variables, v) for v in variables)

    # --- predicates and views ---

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in ex) for ex in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(ex) for ex in self.terms)

    def coefficient(self, expts: tuple):
        return self.terms.get(tuple(expts), Fraction(0))

    def _var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # --- ring arithmetic ---

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise DomainMismatchError(
                f"cannot combine polynomials in {self.variables} and {other.variables}"
            )

    @staticmethod
    def _coerce_scalar(value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        return None

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = self._coerce_scalar(other)
            if scalar is None:
                return NotImplemented
            other = MultiPoly.constant(self.variables, scalar)
        self._check_compatible(other)
        out = dict(self.terms)
        for ex, c in other.terms.items():
            acc = out.get(ex)
            out[ex] = c if acc is None else acc + c
        return MultiPoly(self.variables, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = self._coerce_scalar(other)
            if scalar is None:
                return NotImplemented
            other = MultiPoly.constant(self.variables, scalar)
        self._check_compatible(other)
        out = dict(self.terms)
        for ex, c in other.terms.items():
            acc = out.get(ex)
            out[ex] = -c if acc is None else acc - c
        return MultiPoly(self.variables, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return MultiPoly(self.variables, {ex: -c for ex, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = self._coerce_scalar(other)
            if scalar is None:
                return NotImplemented
            if not scalar:
                return MultiPoly.zero(self.variables)
            return MultiPoly(self.variables, {ex: c * scalar for ex, c in self.terms.items()})
        self._check_compatible(other)
        out: dict = {}
        for ex1, c1 in self.terms.items():
            for ex2, c2 in other.terms.items():
                ex = tuple(a + b for a, b in zip(ex1, ex2))
                prod = c1 * c2
                acc = out.get(ex)
                out[ex] = prod if acc is None else acc + prod
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        coeff = self._coerce_scalar(scalar)
        if coeff is None:
            return NotImplemented
        if not coeff:
            raise ZeroDivisionError("division of a polynomial by zero scalar")
        return self * (1 / coeff)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = MultiPoly.constant(self.variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        scalar = self._coerce_scalar(other)
        if scalar is None:
            return NotImplemented
        if not scalar:
            return not self.terms
        return self.is_constant() and self.constant_value() == scalar

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    # --- calculus and substitution ---

    def partial_derivative(self, name: str) -> "MultiPoly":
        idx = self._var_index(name)
        out: dict = {}
        for ex, c in self.terms.items():
            e = ex[idx]
            if e == 0:
                continue
            new_ex = ex[:idx] + (e - 1,) + ex[idx + 1 :]
            derived = e * c
            acc = out.get(new_ex)
            out[new_ex] = derived if acc is None else acc + derived
        return MultiPoly(self.variables, out)

    def substitute(self, name: str, value) -> "MultiPoly":
        """Replace a variable by a rational value; the variable stays in the list."""
        idx = self._var_index(name)
        coeff = self._coerce_scalar(value)
        if coeff is None:
            raise TypeError(f"cannot substitute value of type {type(value).__name__}")
        powers: dict = {}
        out: dict = {}
        for ex, c in self.terms.items():
            e = ex[idx]
            if e:
                power = powers.get(e)
                if power is None:
                    power = coeff**e
                    powers[e] = power
                c = c * power
                if not c:
                    continue
            new_ex = ex[:idx] + (0,) + ex[idx + 1 :]
            acc = out.get(new_ex)
            out[new_ex] = c if acc is None else acc + c
        return MultiPoly(self.variables, out)

    def drop_vars(self, names) -> "MultiPoly":
        """Remove variables that no term uses."""
        names = set(names)
        indices = [i for i, v in enumerate(self.variables) if v in names]
        for ex in self.terms:
            if any(ex[i] for i in indices):
                raise ValueError("cannot drop a variable with positive degree")
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        new_vars = tuple(self.variables[i] for i in keep)
        new_terms = {tuple(ex[i] for i in keep): c for ex, c in self.terms.items()}
        return MultiPoly(new_vars, new_terms)

    def specialize(self, assignments: Mapping[str, object]) -> "MultiPoly":
        """Substitute and remove the given variables."""
        out = self
        for name, value in assignments.items():
            out = out.substitute(name, value)
        return out.drop_vars(assignments.keys())

    def evaluate(self, assignments: Mapping[str, object]):
        """Full evaluation; every variable of positive degree must be assigned."""
        out = self
        for name in self.variables:
            if name in assignments:
                out = out.substitute(name, assignments[name])
        return out.constant_value()

    # --- rendering ---

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda ex: (sum(ex), ex), reverse=True)
        pieces = []
        for ex in ordered:
            coeff = self.terms[ex]
            monomial = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, ex) if e
            )
            negative = coeff < 0
            text = str(-coeff if negative else coeff)
            if monomial:
                body = monomial if text == "1" else f"{text}*{monomial}"
            else:
                body = text
            pieces.append(("-" if negative else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = to_text

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()!r})"
