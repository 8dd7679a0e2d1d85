"""q-Weil numbers: verification, construction, Honda-Tate invariants.

A q-Weil number is handed over as its monic integer minimal polynomial
together with (p, n), q = p^n.  Verification is fully exact:

* irreducibility over Q: a quadratic by its discriminant.  A q-symmetric
  f of degree 2g >= 4 is decided first through its real Weil polynomial h
  (h reducible, or h irreducible with all roots strictly inside
  (-2 sqrt(q), 2 sqrt(q))); when h is irreducible and that leaves f open,
  a rational factor can only have degree g.  Any other f from degree 3 on
  has its integer roots sought by bisection over a Sturm chain.  Factor
  degrees read mod small primes then bound the degrees left, and a
  Kronecker search decides the rest,
* the functional equation T^e f(q/T) = f(0) f(T) coefficient by
  coefficient,
* the root-modulus condition via Sturm sequences over Z, by primitive
  pseudo-remainders, on the real Weil polynomial h, f(T) = T^g h(T + q/T),
  read off f by integer subtraction; h is the minimal polynomial of the
  totally real element pi + q/pi, so no floating point is ever consulted.
  From degree 4 on the irreducibility test has already bounded h's roots,
  and that one pass of Sturm chains serves both checks; a quadratic's h,
  x + c1, is bounded by c1^2 <= 4q.

Classification follows the three-way case split (rational sqrt(q) /
irrational real sqrt(q) / CM) and computes the division-algebra index as
the lcm of the orders of the local invariants in Q/Z.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import comb, gcd, isqrt, lcm

from ._arith import (
    divisors,
    factor_degrees,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_prem,
    poly_primitive,
    poly_rem,
    poly_sub,
    poly_trim,
    require_prime,
)
from .errors import InputError, PlaceResolutionError
from .newton import _segments, np_of_polynomial

__all__ = [
    "WeilNumber",
    "WeilRejection",
    "HondaTateData",
    "weil_verify",
    "weil_from_real_trace",
    "honda_tate",
    "albert_classify",
    "is_irreducible_q",
    "count_real_roots",
]


# Largest bit length of q = p^n served.  Such a q has at most 3,011 decimal
# digits, so it prints under CPython's default 4,300-digit limit on int to
# str conversion; q = 2^(10^9) took 4.7 s to form and then failed to print.
MAX_Q_BITS = 10_000


def _weil_q(p, n):
    """q = p^n for prime p and n >= 1, refused before it is formed when it
    would have more than MAX_Q_BITS bits."""
    require_prime(p)
    if n < 1:
        raise InputError("n must be >= 1")
    # q >= 2^(n(b - 1)) for p of bit length b: the first test refuses most
    # oversized q unformed, and the second forms none above 2^(2 MAX_Q_BITS)
    if n * (p.bit_length() - 1) > MAX_Q_BITS or (q := p**n).bit_length() > MAX_Q_BITS:
        raise InputError("q = %d^%d exceeds the cap of %d bits" % (p, n, MAX_Q_BITS))
    return q


class WeilRejection(InputError):
    """Structured rejection naming the failed check."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__("not a Weil number (%s)%s" % (reason, ": " + detail if detail else ""))


class WeilNumber(namedtuple("WeilNumber", "minpoly p n")):
    """Validated q-Weil number. `minpoly` is descending, leading 1 first."""

    __slots__ = ()

    @property
    def e(self):
        return len(self.minpoly) - 1

    @property
    def q(self):
        return self.p**self.n

    def to_json(self):
        return {"minpoly": list(self.minpoly), "p": self.p, "n": self.n}


class HondaTateData(namedtuple("HondaTateData", "case slopes e0 e d g albert local_invariants")):
    """`case` is "Re", "Ro" or "C"; `slopes` holds v(pi)/v(q), one entry per
    unit of the hull; `local_invariants` is ((place tag, Fraction mod 1), ...)."""

    __slots__ = ()

    def to_json(self):
        return {
            "case": self.case,
            "slopes": [str(s) for s in self.slopes],
            "e0": self.e0,
            "e": self.e,
            "d": self.d,
            "g": self.g,
            "albert": self.albert,
            "local_invariants": [[tag, str(v)] for tag, v in self.local_invariants],
        }


# -- irreducibility over Q (monic integer polynomials, degree <= 16) --------


def _rational_roots(coeffs, chain=None):
    """The distinct rational roots of a monic integer f, ascending; each
    is an integer in (-B, B) for the Cauchy bound B = 1 + max |c_i|
    (i < deg f).  (-B, B] is bisected on integer points over the one Sturm
    `chain` of f's squarefree part (built unless given): a half over which
    the sign variations do not drop holds no root, and a unit interval
    (r - 1, r] that holds one is kept when f(r) = 0.  No integer is factored."""
    chain = chain or _squarefree_chain(coeffs)
    bound = 1 + max(abs(c) for c in coeffs[:-1])
    roots = []
    todo = [(-bound, _sign_variations(chain, -bound, -1), bound, _sign_variations(chain, bound, 1))]
    while todo:
        lo, vlo, hi, vhi = todo.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if poly_eval(coeffs, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = _sign_variations(chain, mid, 1)
        todo += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
    return roots


def is_irreducible_q(coeffs_ascending, chain=None):
    """Irreducibility over Q of a monic integer polynomial f (degree <= 16);
    `chain`, when the caller has built it, is the Sturm chain of f's
    squarefree part (`_rational_roots`).

    A quadratic by its discriminant.  From degree 3 on, each step runs only
    when the ones before leave the answer open:

    1. a q-symmetric f of degree 2g >= 4 is T^g h(T + q/T) for its integer
       real Weil polynomial h of degree g (`_real_weil_step`), and
       f = N(T^2 - beta T + q), the norm to Q from Q(beta) for a root beta
       of h.  (A) If h = h1 h2, then f = T^g1 h1(T + q/T) * T^g2 h2(T + q/T)
       is reducible.  (B) If h is irreducible with all its roots beta real
       and beta^2 < 4q, then beta^2 - 4q is negative at every real place of
       the totally real field Q(beta), so it is not a square there:
       T^2 - beta T + q stays irreducible over Q(beta), and f, its norm,
       is irreducible.  When h is irreducible and (B) does not hold, f is
       irreducible or N(T - pi1) N(T - pi2) for the roots pi1, pi2 of
       T^2 - beta T + q in Q(beta), whose minimal polynomials both have
       degree g since beta = pi + q/pi.  So g is the only degree a rational
       factor can have, and f has no rational root: r + q/r would be a
       rational root of h.  Steps 2 and 3 are skipped, and 4 and 5 look
       at degree g alone;
    2. any other f: a rational root means reducible (`_rational_roots`);
    3. a cubic without one is irreducible;
    4. the factor degrees modulo up to six primes bound the degrees a
       rational factor can have; when none is left, f is irreducible;
    5. otherwise a bounded Kronecker search for a factor of each degree
       the sieve left open decides f.
    """
    return _irreducible([int(c) for c in coeffs_ascending], chain)[0]


def _irreducible(coeffs, chain=None):
    """(`is_irreducible_q` of an int list f, bounded), where bounded is the
    root bound of h that step 1 tested, in its non-strict form (see
    `_roots_all_real_and_bounded`), and None when the step did not test it:
    `weil_verify` reuses it as its root-modulus check."""
    e = len(coeffs) - 1
    if e > 16:
        raise InputError("irreducibility test capped at degree 16")
    if e <= 0:
        raise InputError("constant polynomial")
    if e == 1:
        return True, None
    if e == 2:
        # monic x^2 + c1 x + c0 splits over Q exactly when its discriminant
        # is a square s^2, and then over Z: s has the parity of c1
        disc = coeffs[1] ** 2 - 4 * coeffs[0]
        return disc < 0 or isqrt(disc) ** 2 != disc, None
    bounded = None
    if (step := _real_weil_step(coeffs)) is not None:
        verdict, bounded = step
        if verdict is not None:
            return verdict, bounded
        plausible = {e // 2}
    else:
        if _rational_roots(coeffs, chain):
            return False, None
        if e == 3:
            return True, None
        plausible = set(range(1, e))
    used = 0
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        degs = factor_degrees(coeffs, ell)
        if degs is None:
            continue
        sums = {0}
        for dd in degs:
            sums |= {s + dd for s in sums}
        plausible &= sums
        used += 1
        if not plausible:
            return True, bounded
        if used >= 6:
            break
    # there is no rational root; any proper factorization leaves a factor
    # of degree in [2, e/2]
    for g in sorted(d for d in plausible if 2 <= d <= e // 2):
        if _kronecker_has_factor(coeffs, g):
            return False, bounded
    return True, bounded


def _int_root(n, k):
    """The k-th root of an int n >= 1, rounded down: Newton's iteration
    from 2^ceil(bits / k), which is above the root, downwards."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _real_weil_step(coeffs):
    """Step 1 of `is_irreducible_q` on a monic f of degree e = 2g >= 4: None
    when f is not q-symmetric, else (verdict, bounded).  verdict is False
    when h is reducible (bounded is then None, untested), True when h is
    irreducible with every root strictly inside (-2 sqrt(q), 2 sqrt(q)),
    and None when it leaves f open; bounded is the non-strict bound.  f is
    q-symmetric when it satisfies the functional equation for the q with
    f(0) = q^g, which holds exactly when f = T^g h(T + q/T); f(0) fixes q,
    and for another q the equation fails at k = e."""
    e = len(coeffs) - 1
    if e < 4 or e % 2 or coeffs[0] < 1:
        return None
    q = _int_root(coeffs[0], e // 2)
    if not _functional_equation(coeffs, q):
        return None
    h = _real_weil_polynomial(coeffs, q)
    # one Sturm chain of h serves its rational roots and its real roots; a
    # quadratic h is tested by its discriminant, so the root bound builds it
    chain = _squarefree_chain(h) if len(h) > 3 else None
    if not is_irreducible_q(h, chain):
        return False, None
    # roots strictly inside: a root beta = +-2 sqrt(q) makes T^2 - beta T + q
    # a square over Q(beta)
    bounded, strictly = _roots_all_real_and_bounded(h, q, chain)
    return (True if strictly else None), bounded


def _kronecker_has_factor(coeffs, g):
    """Search for a monic integer factor of degree g by interpolation."""
    xs = []
    k = 0
    while len(xs) < g + 1:
        xs.append(k)
        k = -k if k > 0 else -k + 1
    vals = [poly_eval(coeffs, x) for x in xs]
    if any(v == 0 for v in vals):
        return True  # rational root (caught earlier, defensive)
    choices = []
    for v in vals:
        ds = divisors(v)
        choices.append([d for d in ds] + [-d for d in ds])
    for combo in product(*choices):
        cand = _lagrange_integer(xs, combo, g)
        if cand is None:
            continue
        if not poly_rem(coeffs, cand):
            return True
    return False


def _lagrange_integer(xs, ys, g):
    """Monic integer polynomial of degree g through the points, or None."""
    coeffs = [Fraction(0)] * (g + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, bk in enumerate(basis):
                new[k + 1] += bk
                new[k] -= xj * bk
            basis = new
            denom *= xi - xj
        for k, bk in enumerate(basis):
            coeffs[k] += yi * bk / denom
    if coeffs[g] != 1:
        return None
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


# -- Sturm machinery ---------------------------------------------------------


def _sturm_chain(f):
    """Sturm sequence of a primitive integer f by primitive pseudo-remainders.

    Each entry is a positive multiple of the classical entry over Q, so the
    sign variations agree at every point.  The last entry is gcd(f, f') up
    to a constant, primitive, so it divides f over Z.
    """
    chain = [f, poly_primitive(poly_deriv(f))]
    while len(chain[-1]) > 1:
        r = poly_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _squarefree_chain(f):
    """Sturm chain of the squarefree part of a primitive integer f: f's own
    chain, or, when it ends in a nonconstant gcd(f, f'), the chain of
    f / gcd(f, f'), which has the same distinct roots."""
    chain = _sturm_chain(f)
    if len(chain[-1]) > 1:
        chain = _sturm_chain(poly_divmod(f, chain[-1])[0])
    return chain


def _sign_variations(chain, x, infinity):
    """Sign changes along the chain at x, or at the infinity of sign
    `infinity` when x is None."""
    signs = []
    for g in chain:
        v = g[-1] * infinity ** (len(g) - 1) if x is None else poly_eval(g, x)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(f, lower=None, upper=None):
    """Distinct real roots of a nonzero f in (lower, upper]; a None endpoint
    is infinite.  f has int or `Fraction` coefficients; it is scaled once to
    a primitive integer polynomial, which has the same roots.  An endpoint
    that is no int is read exactly as a `Fraction`, as the coefficients are."""
    lower, upper = (x if x is None or isinstance(x, int) else Fraction(x) for x in (lower, upper))
    f = poly_trim(f)
    if not all(isinstance(c, int) for c in f):
        f = [Fraction(c) for c in f]
        den = lcm(*(c.denominator for c in f))
        f = [int(c * den) for c in f]
    if not f:
        raise InputError("every real number is a root of the zero polynomial")
    if lower is not None and upper is not None and lower > upper:
        raise InputError("empty interval: lower %s > upper %s" % (lower, upper))
    chain = _squarefree_chain(poly_primitive(f))
    return _sign_variations(chain, lower, -1) - _sign_variations(chain, upper, 1)


# ---------------------------------------------------------------------------


def _functional_equation(f, q):
    """T^e f(q/T) = f(0) f(T) for an ascending f of degree e: c_k q^k =
    c_0 c_(e-k) for every k."""
    qk = 1
    for ck, cek in zip(f, reversed(f)):
        if ck * qk != f[0] * cek:
            return False
        qk *= q
    return True


def _real_weil_polynomial(f, q):
    """The integer h, ascending, with f(T) = T^g h(T + q/T) for an
    ascending f of degree 2g with f(0) = q^g that satisfies the functional
    equation: b_j is read off T^(g+j), then b_j T^(g-j) (T^2 + q)^j is
    subtracted."""
    f = list(f)
    g = (len(f) - 1) // 2
    h = [0] * (g + 1)
    for j in range(g, -1, -1):
        b = h[j] = f[g + j]
        for i in range(j + 1):
            f[g - j + 2 * i] -= b * comb(j, i) * q ** (j - i)
    return h


def _roots_all_real_and_bounded(h, q, chain=None):
    """(bounded, strictly) for a monic irreducible h: bounded when all roots
    of h are real and every root beta satisfies beta^2 <= 4q, strictly when
    moreover beta^2 < 4q for every root.  One pass of Sturm chains serves
    both: the chain of h (`chain`, when the caller has built it) and, when
    its roots are all real, that of C."""
    # h is irreducible (see `_real_weil_step`), so squarefree: its roots
    # are all real when it has deg h distinct real roots
    h = poly_trim(h)
    chain = chain or _squarefree_chain(h)
    if _sign_variations(chain, None, -1) - _sign_variations(chain, None, 1) != len(h) - 1:
        return False, False
    # polynomial with roots beta_i^2: C(t) = A(t)^2 - t B(t)^2 where
    # h(x) = A(x^2) + x B(x^2)
    A, B = h[0::2], h[1::2]
    C = poly_sub(poly_mul(A, A), [0] + poly_mul(B, B))
    # none of them may exceed 4q; a boundary root beta^2 = 4q is a root of C
    # at 4q, which the count over (4q, oo) leaves out
    if count_real_roots(C, lower=4 * q):
        return False, False
    return True, poly_eval(C, 4 * q) != 0


# ---------------------------------------------------------------------------


def weil_verify(minpoly, p, n):
    """Validate a q-Weil number; raises WeilRejection naming the check.

    `minpoly` is descending, leading coefficient first.
    """
    coeffs_desc = [int(c) for c in minpoly]
    if any(int(c) != c for c in minpoly):
        raise WeilRejection("non-integral", "coefficients must be integers")
    if not coeffs_desc or coeffs_desc[0] != 1:
        raise WeilRejection("non-integral", "polynomial must be monic")
    q = _weil_q(p, n)
    asc = list(reversed(coeffs_desc))
    e = len(asc) - 1
    irreducible, bounded = _irreducible(asc)
    if not irreducible:
        raise WeilRejection("reducible")
    if not _functional_equation(asc, q):
        raise WeilRejection("functional-equation")
    # f irreducible of degree 2g with f(0) = q^g: the real Weil polynomial h
    # is irreducible of degree g with root pi + q/pi, so it is that root's
    # minimal polynomial.  Otherwise f(0) = -q^(e/2) or e is odd, since
    # f(0)^2 = q^e; the functional equation at T = +-sqrt(q) then gives f a
    # root +-sqrt(q) or the factor T^2 - q, and irreducibility leaves only
    # f = T -+ sqrt(q) or f = T^2 - q, whose roots lie on |pi| = sqrt(q).
    # From degree 4 on f is then q-symmetric for this q, and the
    # irreducibility test has already bounded the roots of h; a quadratic
    # T^2 + c1 T + q has h = x + c1.
    if e % 2 == 0 and asc[0] == q ** (e // 2):
        if not (bounded if e > 2 else asc[1] ** 2 <= 4 * q):
            raise WeilRejection("root-modulus")
    return WeilNumber(tuple(coeffs_desc), p, n)


def weil_from_real_trace(beta, p, n):
    """The quadratic (or degree-one) Weil number with real trace beta.

    beta^2 < 4q gives the non-real quadratic T^2 - beta T + q; equality
    beta = +-2 sqrt(q) needs q square and gives the rational pi = beta/2.
    """
    beta = int(beta)
    q = _weil_q(p, n)
    if beta * beta > 4 * q:
        raise InputError("beta^2 > 4q: trace too large for a Weil number")
    if beta * beta == 4 * q:
        r = isqrt(q)
        if r * r != q:
            raise InputError("beta = +-2 sqrt(q) needs q to be a square")
        return WeilNumber((1, -beta // 2), p, n)
    return WeilNumber((1, -beta, q), p, n)


def _certified_places(vertices):
    """Split the p-adic hull into certified places, as (rise, span) edges.

    A hull edge whose slope rise/span is in lowest terms is a single
    place; hiding several places with one slope behind a longer edge is
    refused rather than guessed.
    """
    places = _segments(vertices)
    for rise, span in places:
        if gcd(rise, span) != 1:
            raise PlaceResolutionError(
                "place-resolution unsupported: hull segment of slope %s spans %d > %d"
                % (Fraction(rise, span), span, span // gcd(rise, span))
            )
    return places


def honda_tate(w):
    """Honda-Tate invariants of a validated Weil number."""
    e = w.e
    q = w.q
    if e == 1:
        # pi = +-p^(n/2)
        inv = [("p", Fraction(1, 2)), ("infinity", Fraction(1, 2))]
        return HondaTateData(
            case="Re",
            slopes=(Fraction(1, 2),),
            e0=1,
            e=1,
            d=2,
            g=1,
            albert="III(1)",
            local_invariants=tuple(inv),
        )
    if e == 2 and w.minpoly == (1, 0, -q):
        inv = [("infinity", Fraction(1, 2)), ("infinity'", Fraction(1, 2)), ("p", Fraction(0))]
        return HondaTateData(
            case="Ro",
            slopes=(Fraction(1, 2), Fraction(1, 2)),
            e0=2,
            e=2,
            d=2,
            g=2,
            albert="III(2)",
            local_invariants=tuple(inv),
        )
    if e % 2 != 0:
        raise InputError("CM case needs even degree; input was not verified")
    places = _certified_places(np_of_polynomial(w.minpoly, w.p).vertices)
    # a place of rise r over span s has slope r/(s n) and invariant r/n mod 1
    n = w.n
    d = lcm(*(n // gcd(rise, n) for rise, _ in places))
    if (e * d) % 2 != 0:
        raise InputError("parity failure in 2g = e*d (unexpected)")
    g = e * d // 2
    # the hull's slopes are distinct: {t} = {1 - t} pairs place i with -1-i
    if any(s1 != s2 or r1 + r2 != s1 * n for (r1, s1), (r2, s2) in zip(places, reversed(places))):
        raise InputError("slope multiset not symmetric (unexpected for a Weil number)")
    return HondaTateData(
        case="C",
        slopes=tuple(t for rise, span in places for t in [Fraction(rise, span * n)] * span),
        e0=e // 2,
        e=e,
        d=d,
        g=g,
        albert="IV(%d,%d)" % (e // 2, d),
        local_invariants=tuple(
            ("p|%d:deg=%d" % (idx, span), Fraction(rise % n, n)) for idx, (rise, span) in enumerate(places)
        ),
    )


def albert_classify(e0, e, d, is_totally_real, is_definite=None):
    """Name the Albert type from the basic invariants."""
    if e0 < 1 or d < 1:
        raise InputError("e0 and d must be positive")
    if e == 2 * e0:
        return "IV(%d,%d)" % (e0, d)
    if e != e0:
        raise InputError("inconsistent (e, e0): e must be e0 or 2*e0")
    if not is_totally_real:
        raise InputError("e = e0 forces a totally real centre")
    if d == 1:
        return "I(%d)" % e0
    if d == 2:
        if is_definite is None:
            raise InputError("definiteness needed to split types II and III")
        return ("III(%d)" if is_definite else "II(%d)") % e0
    raise InputError("no Albert type with d = %d over a totally real field" % d)

