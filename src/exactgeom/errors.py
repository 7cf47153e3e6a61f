"""Exceptions shared across the toolkit."""


class DomainMismatchError(TypeError):
    """Raised when operands cannot be combined: elements of different fields,
    polynomials in different variable lists, binary forms with different
    designated pairs, or classes on different symmetric products."""


class InterpolationError(RuntimeError):
    """Raised when an interpolation over GF(p) needs more points than the field has.

    Only ``zpoly.interpolate`` raises it, when it is given a prime p and
    more than p values: their sample points would not be distinct mod p.
    It is raised instead of returning a silently wrong polynomial.
    """


class VerificationError(AssertionError):
    """Raised when an internally re-checked identity fails to hold."""
