"""Canonical byte keys for exact colour values.

Every colouring's evaluator returns colour keys, and every pass of
``hypergraph`` groups and compares them: an integer-valued colour keys as
the plain int, any other as its ``canonical_key`` bytes, which hash once and
cache it.  ``canonical_key`` serializes exact values (int, Fraction, str,
bytes, or tuples of these) so that two are equal exactly when their keys
are, and refuses a float or a bool; ``ratio_key`` keys a ratio of integers
with no Fraction built, and ``require_keys`` refuses any colour key that is
not a plain int or bytes.  The sunflower audit scans its classes in the order
of these bytes, reading an int key n as ``b"%d" % n``, and names the worst
one's colour by them.  Numbers are keyed by value, so an ``int`` or
``Fraction`` subclass shares the key of the equal plain number.
"""

import math
from fractions import Fraction


def canonical_key(value) -> bytes:
    """Serialize an exact colour value to canonical bytes.

    Numeric values share one encoding, so ``3`` and ``Fraction(3, 1)`` map to
    the same key; Fraction's lowest-terms normal form keeps it canonical.
    Strings and bytes are length-prefixed, tuples are bracketed, so distinct
    structured values never collide.
    """
    if isinstance(value, Fraction):
        ratio = value.as_integer_ratio()
        return b"%d" % ratio[0] if ratio[1] == 1 else b"%d/%d" % ratio
    if isinstance(value, bool):
        raise TypeError("booleans are not colour values")
    if isinstance(value, int):
        return b"%d" % value
    if isinstance(value, str):
        data = value.encode("utf-8")
        return b"s%d:%s" % (len(data), data)
    if isinstance(value, bytes):
        return b"b%d:%s" % (len(value), value)
    if isinstance(value, tuple):
        return b"(%s)" % b",".join(map(canonical_key, value))
    raise TypeError(f"no canonical key for {type(value).__name__}")


def ratio_key(numerator: int, denominator: int) -> int | bytes:
    """The key of numerator / denominator, denominator > 0: an int, else b"n/d" in lowest terms."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return numerator // g
    return b"%d/%d" % (numerator // g, denominator // g)


def require_keys(keys):
    """``keys``, once each is a colour key: a plain int or bytes, else TypeError."""
    if not {int, bytes}.issuperset(map(type, keys)):
        raise TypeError("colour keys must be plain ints or bytes; see Colouring.from_values")
    return keys
