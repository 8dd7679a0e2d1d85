"""Polynomial division and gcd over Q (`Fraction`s): the oracle that the
integer-only kernel in `isolab._arith` is checked against."""

from fractions import Fraction

from isolab._arith import poly_trim


def q_divmod(a, b):
    """(quotient, remainder) of a by a nonzero trimmed b over Q."""
    a = list(a)
    db = len(b) - 1
    inv = 1 / Fraction(b[-1])
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv
        if c:
            q[i - db] = c
            for j, bj in enumerate(b, i - db):
                a[j] -= c * bj
    del a[db:]
    return poly_trim(q), poly_trim(a)


def q_gcd(a, b):
    """Monic gcd over Q; empty when a and b are both zero."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, q_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]
