"""Polynomial division and gcd over Q (`Fraction`s): the oracle that the
integer-only kernel in `isolab._arith` is checked against.  Also
`field_stable_under_power`, a rank over Q that only the Weil tests use."""

from fractions import Fraction

from isolab._arith import poly_mulmod, poly_powmod, poly_trim, rank


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


def _power_vectors(x, f):
    """Coordinates of x^0, ..., x^e in Z[T]/(f), e = deg f, for a monic
    integer f, each padded to length e."""
    e = len(f) - 1
    cur, vecs = [1], [[1] + [0] * (e - 1)]
    for _ in range(e):
        cur = poly_mulmod(cur, x, f)
        vecs.append(cur + [0] * (e - len(cur)))
    return vecs


def field_stable_under_power(w, k):
    """Whether Q(pi^k) = Q(pi) for a `WeilNumber` w: the field does not
    shrink under pi -> pi^k."""
    asc = list(reversed(w.minpoly))
    if w.e == 1:
        return True
    vecs = _power_vectors(poly_powmod([0, 1], k, asc), asc)
    return rank([[Fraction(c) for c in v] for v in vecs[: w.e]]) == w.e
