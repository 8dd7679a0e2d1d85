"""Polynomial division and gcd over Q (`Fraction`s): the oracle that the
integer-only kernel in `isolab._arith` is checked against.  Also
`field_stable_under_power`, a rank over Q that only the Weil tests use,
`weil_transform`, the inverse that `weil._real_weil_polynomial` and the
functional-equation test of q-symmetry are checked against, and frozen
copies of earlier versions of the irreducibility kernel that
the faster ones are checked against: the distinct-degree factorization by
one `poly_powmod` per step, the rational roots by the divisors of f(0),
and `is_irreducible_q` by rational roots, that sieve and the Kronecker
search alone."""

from fractions import Fraction
from math import comb, isqrt

from isolab import weil
from isolab._arith import (
    divisors,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mulmod,
    poly_powmod,
    poly_rem,
    poly_sub,
    poly_trim,
    rank,
)


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


def weil_transform(h, q):
    """T^g h(T + q/T), ascending, for an ascending h of degree g: b_j T^j
    becomes b_j T^(g-j) (T^2 + q)^j."""
    g = len(h) - 1
    f = [0] * (2 * g + 1)
    for j, b in enumerate(h):
        for i in range(j + 1):
            f[g - j + 2 * i] += b * comb(j, i) * q ** (j - i)
    return f


def factor_degrees_by_powmod(coeffs, p):
    """`factor_degrees` with each distinct-degree step a full `poly_powmod`."""
    f = poly_trim([c % p for c in coeffs])
    if len(f) != len(coeffs):
        return None
    if len(poly_gcd(f, poly_deriv(f, p), p)) != 1:
        return None
    degrees = []
    k = 0
    w = [0, 1]
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        w = poly_powmod(w, p, f, p)  # x^(p^k) mod f
        g = poly_gcd(poly_sub(w, [0, 1], p), f, p)
        if len(g) > 1:
            degrees.extend([k] * ((len(g) - 1) // k))
            f = poly_divmod(f, g, p)[0]
            w = poly_rem(w, f, p)
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def rational_roots_by_divisors(coeffs):
    """The rational roots of a monic integer f among +-d for the divisors
    d of f(0), in that order; [0] alone when f(0) = 0."""
    c0 = coeffs[0]
    if c0 == 0:
        return [0]
    roots = []
    for d in divisors(c0):
        for r in (d, -d):
            if poly_eval(coeffs, r) == 0:
                roots.append(r)
    return roots


def irreducible_by_backstop(coeffs):
    """Irreducibility over Q of a monic integer f with no real-Weil step: a
    quadratic by its discriminant, then rational roots, the powmod sieve
    over degrees 1..e-1 modulo up to six primes, and the Kronecker search
    at each degree in [2, e/2] the sieve leaves open."""
    coeffs = [int(c) for c in coeffs]
    e = len(coeffs) - 1
    if e == 1:
        return True
    if e == 2:
        disc = coeffs[1] ** 2 - 4 * coeffs[0]
        return disc < 0 or isqrt(disc) ** 2 != disc
    if rational_roots_by_divisors(coeffs):
        return False
    if e == 3:
        return True
    plausible = set(range(1, e))
    used = 0
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        degs = factor_degrees_by_powmod(coeffs, ell)
        if degs is None:
            continue
        sums = {0}
        for dd in degs:
            sums |= {s + dd for s in sums}
        plausible &= sums
        used += 1
        if not plausible:
            return True
        if used >= 6:
            break
    return not any(weil._kronecker_has_factor(coeffs, g) for g in sorted(d for d in plausible if 2 <= d <= e // 2))
