"""Canonical byte keys for exact colour values.

Colour evaluators return exact Python values (int, Fraction, str, bytes, or
tuples of these); ``canonical_key`` serializes them so that two values are
equal exactly when their keys are byte-identical, and refuses a float or a
bool.  Every pass of ``hypergraph`` groups and compares colour keys: an
integer-valued number keys as the plain int, whose hash is cheap, and any
other colour as these bytes, which compute their hash once and cache it, so
no pass hashes a Fraction.  The sunflower audit scans its classes in the
order of these bytes, reading an int key n as ``b"%d" % n``, and names the
worst one's colour by them.  Numbers are keyed by value, so an ``int`` or
``Fraction`` subclass shares the key of the equal plain number whatever its
``str`` says.
"""

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
