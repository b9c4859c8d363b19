"""Colour keys: a plain int, or bytes that name an exact value.

Every colouring's evaluator returns colour keys, and every pass of
``hypergraph`` groups and compares them: an integer-valued colour keys as
the plain int, any other as bytes, which hash once and cache it.  The
kernels key their colours from integers: ``ratio_key`` keys a ratio of
integers with no Fraction built, and a similarity type is the bracketed,
comma-joined keys of its ratios.  ``require_keys`` refuses any colour key
that is not a plain int or bytes; ``Colouring.colours`` runs it on every
key an evaluator returns.  The sunflower audit scans its classes in
the order of these bytes, reading an int key n as ``b"%d" % n``, and names
the worst one's colour by them.
"""

import math


def ratio_key(numerator: int, denominator: int) -> int | bytes:
    """The key of numerator / denominator, denominator > 0: an int, else b"n/d" in lowest terms."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return numerator // g
    return b"%d/%d" % (numerator // g, denominator // g)


def require_keys(keys):
    """``keys``, once each is a colour key: a plain int or bytes, else TypeError."""
    if not {int, bytes}.issuperset(map(type, keys)):
        raise TypeError("colour keys must be plain ints or bytes, such as keys.ratio_key gives")
    return keys
