"""Exact-arithmetic verification toolkit.

Library + CLI that re-derives, with exact rational and finite-field
arithmetic, a collection of enumerative facts: the discriminant/seminvariant
square criteria for binary quartics, the transversality of a one-parameter
family of (3,4)-curves with a vertical bitangent, the degree-24 count of
bitangent members in a random pencil over a finite field, the 27-line
configuration with its Weyl-group orbit structure 1 + 10 + 16, and the
intersection number 240 on the fourth symmetric product of a genus-5 curve.
"""

__version__ = "0.1.0"
