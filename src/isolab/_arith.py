"""Exact integer, polynomial and linear arithmetic shared by the whole package.

Integers: deterministic primality (one sieve read below 2^16, Miller-Rabin
above), factorization, divisors, Euler's phi and p-adic valuations.  Ring
and field elements: `power`, the one square-and-multiply, and `rank`, the
one Gaussian elimination.  Integer matrices: `charpoly`, the
characteristic polynomial mod n with no division.
Polynomials are dense coefficient lists, lowest degree first; every
routine that returns a polynomial returns a fresh trimmed list.  A
modulus `p` may be a prime, with a divisor of any lead, or any modulus
with a monic divisor, as p^N in the lift ring; without one they compute
over Z and divide only exactly.  `poly_rem` is the one remainder loop:
reduction in every quotient ring goes through it.  `poly_primitive` and
`poly_prem`, the pseudo-remainder of Sturm chains, compute in Z[x].
The algorithms are the classical ones of von zur Gathen and Gerhard,
*Modern Computer Algebra*, Ch. 14.
"""

from math import gcd, isqrt

from .errors import InputError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the 13 prime bases up to 41 is proven to decide every n
# below this bound, the least strong pseudoprime to all of them (Sorenson
# and Webster, Math. Comp. 86, 2017)
MAX_PRIME = 3_317_044_064_679_887_385_961_981

# ---------------------------------------------------------------------------
# integers


def _sieve(n):
    s = bytearray(2) + bytearray([1]) * (n - 2)
    for i in range(2, isqrt(n - 1) + 1):
        if s[i]:
            s[i * i :: i] = bytes(len(range(i * i, n, i)))
    return s


_SIEVE = _sieve(1 << 16)  # byte n is 1 when n is prime: Eratosthenes, 64 KiB


def is_prime(n):
    """A sieve read for an int n < 2^16, else trial division by the primes up
    to 41 and Miller-Rabin on those bases, proven for n < MAX_PRIME."""
    if type(n) is int and n < 1 << 16:
        return n >= 0 and _SIEVE[n] == 1
    return _miller_rabin(n)


def _miller_rabin(n):
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 1369:
        return True  # a composite below 37^2 has a prime factor <= 37
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # the bases 2 and 3 alone decide every n < 1,373,653 (Pomerance, Selfridge
    # and Wagstaff, Math. Comp. 35, 1980)
    for a in (2, 3) if n < 1_373_653 else _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    """Raise InputError unless p is a prime int below MAX_PRIME, where
    `is_prime` is proven."""
    if not isinstance(p, int):
        raise InputError("p = %r is not an int" % (p,))
    if not is_prime(p):
        raise InputError("p = %r is not prime" % (p,))
    if p >= MAX_PRIME:
        raise InputError("p = %d is not below the cap of %d, up to which primality is proven" % (p, MAX_PRIME))


def factor_int(n):
    """{prime: exponent} of |n| for n != 0."""
    n = abs(n)
    out = {}
    for q in (2, 3, 5, 7, 11, 13):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 17
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        for q in _factor_large(n):
            out[q] = out.get(q, 0) + 1
    return out


def _factor_large(n):
    if n == 1:
        return []
    if is_prime(n):
        return [n]
    d = _pollard_rho(n)
    return sorted(_factor_large(d) + _factor_large(n // d))


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise InputError("integer too hard to factor: %d" % n)


def divisors(n):
    """Positive divisors of n != 0, ascending."""
    out = [1]
    for q, k in factor_int(n).items():
        out = [d * q**i for d in out for i in range(k + 1)]
    return sorted(out)


def euler_phi(n):
    out = n
    for q in factor_int(n):
        out -= out // q
    return out


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    if not n:
        raise InputError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def base_p_digits(n, p):
    """Number of base-p digits of n >= 0 (0 for n = 0)."""
    d = 0
    while n:
        n //= p
        d += 1
    return d


# ---------------------------------------------------------------------------
# elements of an exact ring or field


def power(x, k, one):
    """x^k by square-and-multiply, for any ring element x; `one` for k = 0."""
    if k < 0:
        raise InputError("exponent must be >= 0, got %d" % k)
    out = one
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


def rank(rows):
    """Rank of a matrix over an exact field by Gaussian elimination.

    Entries need ==, *, - and pow(x, -1): `Fraction`s or finite-field
    elements, never bare ints (pow(1, -1) is a float).
    """
    rows = [list(r) for r in rows]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(done, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[done], rows[piv] = rows[piv], rows[done]
        inv = pow(rows[done][col], -1)
        for r in range(done + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[done])]
        done += 1
    return done


def charpoly(M, modulus):
    """[1, c_1, ..., c_h] mod `modulus`, where det(T - M) = T^h + c_1 T^(h-1)
    + ... + c_h, for a square matrix M of ints.

    Berkowitz's recursion (Inf. Process. Lett. 18, 1984) adds one row and
    column at a time and never divides, so it holds over any Z/n, also
    mod p^N with p <= h, where Faddeev-LeVerrier would divide by p.  Each
    step's lower-triangular Toeplitz product is one `_product` convolution
    cut to k + 2 terms.  Zero entries are skipped: a matrix with one
    nonzero per row costs O(h^3).
    """
    nonzero = [[(t, x) for t, x in enumerate(row) if x] for row in M]
    coeffs = [1]
    for k, row in enumerate(M):
        # with A = M[:k][:k], C = M[:k][k] and R = M[k][:k], the step's
        # Toeplitz matrix has first column 1, -M[k][k], -RC, -RAC, ..., -RA^(k-1)C
        A = [[(t, x) for t, x in nonzero[i] if t < k] for i in range(k)]
        R = [(t, x) for t, x in nonzero[k] if t < k]
        col = [M[i][k] for i in range(k)]
        first = [1, -row[k]]
        for _ in range(k):
            first.append(-sum(x * col[t] for t, x in R) % modulus)
            col = [sum(x * col[t] for t, x in r) % modulus for r in A]
        # coeffs <- T coeffs with T[i][j] = first[i - j]: the first k + 2
        # terms of the convolution of first and coeffs
        coeffs = [c % modulus for c in _product(first, coeffs)[: k + 2]]
    return coeffs


# ---------------------------------------------------------------------------
# polynomials over Z (p None), F_p or Z/p^N


def poly_trim(a):
    """Copy of a without trailing zero coefficients."""
    return _trim(list(a))


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_eval(a, x):
    """Horner evaluation at x (an int, a Fraction or a ring element)."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_deriv(a, p=None):
    d = [i * c for i, c in enumerate(a)][1:]
    return _trim(d if p is None else [c % p for c in d])


def poly_add(a, b, p=None):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out if p is None else [c % p for c in out])


def poly_sub(a, b, p=None):
    return poly_add(a, [-c for c in b], p)


def poly_mul(a, b, p=None):
    out = _product(a, b)
    return _trim(out if p is None else [c % p for c in out])


def _product(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def poly_divmod(a, b, p=None):
    """(quotient, remainder) of a by a nonzero trimmed b.  Over Z (p None)
    every quotient coefficient must be an integer: InputError otherwise.
    So a b that divides a over Z leaves (a / b, []); by Gauss's lemma any
    primitive b that divides a over Q is one."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p) if p is not None else None
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p if p is not None else a[i] // b[-1]
        if c:
            q[i - db] = c
            for j, bj in enumerate(b, i - db):
                a[j] -= c * bj
    if p is None and any(a[db:]):
        raise InputError("the lead %d of the divisor leaves a quotient outside Z[x]" % b[-1])
    del a[db:]
    return _trim(q), _trim(a if p is None else [c % p for c in a])


def poly_rem(a, f, p=None):
    """Remainder of a by a nonzero trimmed f, with no quotient built.  The
    lead of f is inverted once, and not at all when f is monic; then any
    modulus p serves (p^N in the lift ring).  Over Z (p None) f must be
    monic: InputError otherwise."""
    a = list(a)
    df = len(f) - 1
    low = f[:-1]
    if p is None and f[-1] != 1:
        raise InputError("a remainder over Z needs a monic divisor, not lead %d" % f[-1])
    inv = None if f[-1] == 1 else pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a.pop()
        if inv is not None:
            c *= inv
        if p is not None:
            c %= p
        if c:
            for j, fj in enumerate(low, i - df):
                a[j] -= c * fj
    return _trim(a if p is None else [c % p for c in a])


def poly_gcd(a, b, p):
    """Monic gcd mod a prime p; empty when a and b are both zero."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_rem(a, b, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def poly_primitive(a):
    """a over its content: the primitive positive multiple of an integer a."""
    c = gcd(*a)
    return [x // c for x in a] if c > 1 else list(a)


def poly_prem(a, b):
    """Primitive pseudo-remainder of integer polynomials: the remainder of
    |lead b|^(deg a - deg b + 1) a by a nonzero trimmed b over Z, over its
    content.  It is the primitive positive multiple of the remainder over
    Q, so it has the same signs; each step scales by only the positive
    factor it needs to cancel the top coefficient in Z."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    low = b[:-1]
    for i in range(len(a) - 1, db - 1, -1):
        top = a.pop()
        if top:
            # s a - c x^(i - db) b cancels top x^i for s = |lead| / g > 0
            g = gcd(top, lead)
            s, c = abs(lead) // g, top // g if lead > 0 else -top // g
            if s != 1:
                a = [x * s for x in a]
            for j, bj in enumerate(low, i - db):
                a[j] -= c * bj
    return poly_primitive(_trim(a))


def poly_mulmod(a, b, f, p=None):
    return poly_rem(_product(a, b), f, p)


def poly_powmod(a, e, f, p=None):
    """a^e mod f by square-and-multiply; [1] for e <= 0."""
    out = [1]
    while e > 0:
        if e & 1:
            out = poly_mulmod(out, a, f, p)
        a = poly_mulmod(a, a, f, p)
        e >>= 1
    return out


def factor_degrees(coeffs, p):
    """Degrees (with multiplicity) of the irreducible factors of an integer
    polynomial mod p, by distinct-degree factorization; None when the
    reduction loses degree or is not squarefree.

    Step k takes w = x^(p^(k-1)) mod f to x^(p^k) mod f.  The p-th power
    is F_p-linear on F_p[x]/(f): for w = sum w_i x^i it is sum w_i R_i with
    the rows R_i = x^(ip) mod f, so after the first step (one `poly_powmod`)
    each step is a combination of the rows, which are built when the second
    step needs them and reduced with f when a factor is split off."""
    f = poly_trim([c % p for c in coeffs])
    if len(f) != len(coeffs):
        return None
    if len(poly_gcd(f, poly_deriv(f, p), p)) != 1:
        return None
    degrees = []
    k = 0
    w = [0, 1]
    rows = None
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        if k == 1:
            w = poly_powmod(w, p, f, p)
        else:
            if rows is None:
                rows = [[1], w]  # w = x^p mod f at step 2
                while len(rows) < len(f) - 1:
                    rows.append(poly_mulmod(rows[-1], w, f, p))
            out = [0] * (len(f) - 1)
            for c, row in zip(w, rows):
                if c:
                    for j, r in enumerate(row):
                        out[j] += c * r
            w = _trim([c % p for c in out])  # x^(p^k) mod f
        g = poly_gcd(poly_sub(w, [0, 1], p), f, p)
        if len(g) > 1:
            degrees.extend([k] * ((len(g) - 1) // k))
            f = poly_divmod(f, g, p)[0]
            w = poly_rem(w, f, p)
            if rows is not None:
                rows = [poly_rem(r, f, p) for r in rows[: len(f) - 1]]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees
