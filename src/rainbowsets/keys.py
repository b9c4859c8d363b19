"""Canonical byte keys for exact colour values.

Colour evaluators return exact Python values (int, Fraction, str, bytes, or
tuples of these); ``canonical_key`` serializes them so that two values are
equal exactly when their keys are byte-identical.  Reports and files carry
keys; in-memory algorithms may compare the raw values directly, which is
equivalent because the encoding is injective.  Numbers are keyed by
value, so an ``int`` or ``Fraction`` subclass (an ``IntEnum`` member, say)
shares the key of the equal plain number whatever its ``str`` says.
"""

from fractions import Fraction


def canonical_key(value) -> bytes:
    """Serialize an exact colour value to canonical bytes.

    Numeric values share one encoding, so ``3`` and ``Fraction(3, 1)`` map to
    the same key; Fraction's lowest-terms normal form keeps it canonical.
    Strings and bytes are length-prefixed, tuples are bracketed, so distinct
    structured values never collide.
    """
    if type(value) is int:  # the common case, ahead of the bool test
        return b"%d" % value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return b"%d" % value.numerator
        return b"%d/%d" % (value.numerator, value.denominator)
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
        return b"(" + b",".join(canonical_key(v) for v in value) + b")"
    raise TypeError(f"no canonical key for {type(value).__name__}")
