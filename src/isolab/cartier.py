"""The local Cartier ring over F_{p^m}, in canonical form.

Elements are finite sums  sum V^a <c_ab> F^b  with coefficients in the
(perfect) base field, rows a capped by an explicit V-adic precision A.
Grouping a sum by the diagonal i = a-b identifies it with a two-sided
series  sum_i w_i V^i  with w_i in W(F_{p^m}).  Where two terms of a
diagonal share a position, addition is carried out there, digit by digit,
because Witt addition carries: <1> + <1> is V<1>F over F_2, not <2>.  A
diagonal whose terms sit at distinct positions is already canonical.

Multiplication reduces monomial pairs with the commutation rules
F<a> = <a^p>F, <a>V = V<a^p>, FV = VF = p (characteristic p), which
collapse to the single rule

    V^a <c> F^b * V^a' <c'> F^b' = V^(a+a') <c^(p^a') c'^(p^b)> F^(b+b').
"""

from fractions import Fraction

from ._arith import base_p_digits, poly_mulmod, power, require_prime
from .errors import InputError, PrecisionError
from .unramified import FFElement, UElement, finite_field, parse_ff, render_ff

__all__ = [
    "CartierContext",
    "CartierElement",
    "cartier_normalize",
    "artin_hasse",
]

# Largest Artin-Hasse degree served.  It was set to 500 when the recursion
# was a dense convolution taking about 1.3 s there on a 2-vCPU Xeon, and is
# kept so the requests served and refused stay the same.  The sparse
# recurrence takes about 0.02 s at 500; any higher cap stays below the
# degree (between 1000 and 2000) where the coefficients outgrow Python's
# int-to-str limit.
MAX_ARTIN_HASSE_DEGREE = 500
# Largest working precision of a diagonal that carries (V-cap plus guard
# digits that grow with euler_phi(p^m - 1)).  On a 2-vCPU Xeon `cartier mul`
# of two 6-term elements takes 0.9 s over F_{5^4} (precision up to 1159) and
# 2.2 s over F_{3^6} (up to 1735); over F_{31^3} at vcap 2 the first carrying
# diagonal of a product needs 23764.
MAX_WORKING_PRECISION = 1024


class CartierContext:
    """Fixes the base field F_{p^m} and the V-adic working cap A."""

    def __init__(self, p, m=1, vcap=8):
        if vcap < 1:
            raise InputError("V-cap must be >= 1")
        self.p, self.m, self.vcap = p, m, vcap
        self.field = finite_field(p, m)

    def element(self, terms, truncated=False):
        return cartier_normalize(self, terms, truncated=truncated)

    def monomial(self, a, b, c=1):
        """V^a <c> F^b."""
        return self.element([(a, b, c)])

    def zero(self):
        return CartierElement(self, {}, False)

    def one(self):
        return self.monomial(0, 0, 1)

    def diag(self, c):
        """<c>, the Teichmuller multiplier."""
        return self.monomial(0, 0, c)

    def V(self):
        return self.monomial(1, 0, 1)

    def F(self):
        return self.monomial(0, 1, 1)

    def p_element(self):
        """p = VF = FV in canonical form: V<1>F."""
        return self.monomial(1, 1, 1)

    def from_int(self, k):
        return _from_int(self, k)

    def __repr__(self):
        return "CartierContext(p=%d, m=%d, vcap=%d)" % (self.p, self.m, self.vcap)


class CartierElement:
    """Canonical finite table {(a,b): c} of nonzero coefficients, a < vcap.

    `truncated` records whether any operation on the way to this value
    dropped rows at or beyond the V-cap.
    """

    __slots__ = ("context", "terms", "truncated")

    def __init__(self, context, terms, truncated):
        self.context = context
        self.terms = dict(terms)
        self.truncated = truncated

    @classmethod
    def _of(cls, context, table, truncated):
        """The element of a canonical table that nothing else holds: kept,
        not copied."""
        e = cls.__new__(cls)
        e.context, e.terms, e.truncated = context, table, truncated
        return e

    def _same(self, other):
        if isinstance(other, int):
            return _from_int(self.context, other)
        if not isinstance(other, CartierElement) or other.context is not self.context:
            raise InputError("context mismatch")
        return other

    def __add__(self, other):
        other = self._same(other)
        raw = [(a, b, c) for (a, b), c in self.terms.items()]
        raw += [(a, b, c) for (a, b), c in other.terms.items()]
        return cartier_normalize(self.context, raw, truncated=self.truncated or other.truncated)

    def __neg__(self):
        return _from_int(self.context, -1) * self

    def __sub__(self, other):
        return self + (-self._same(other))

    def __mul__(self, other):
        """Monomial by monomial, V^a <c> F^b * V^a' <c'> F^b' =
        V^(a+a') <c^(p^a') c'^(p^b)> F^(b+b'): both twists and the product
        act on coefficient tuples, one field element per term pair."""
        other = self._same(other)
        field = self.context.field
        f, p, twist = field.modulus, field.p, field._twist
        raw = []
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                cc = poly_mulmod(twist(c.coeffs, a2), twist(c2.coeffs, b), f, p)
                raw.append((a + a2, b + b2, FFElement._reduced(field, cc)))
        return cartier_normalize(self.context, raw, truncated=self.truncated or other.truncated)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, self.context.one())

    def act(self, w):
        """Action on a Witt vector, an element of W_N(F_{p^m}): V, F, <c>
        act as Verschiebung, Frobenius and Teichmuller multiplication."""
        if not isinstance(w, UElement):
            raise InputError("action target must be a WittElement")
        ring = w.ring
        if ring.field is not self.context.field:
            raise InputError("field mismatch between Cartier element and Witt vector")
        acc = ring.zero()
        for (a, b), c in self.terms.items():
            if a >= ring.N:
                raise PrecisionError("V^%d shift exceeds Witt precision N=%d" % (a, ring.N))
            acc = acc + self.context.p**a * ring.teichmuller(c.frobenius_inv(a)) * ring.sigma(w, b - a)
        return acc

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = _from_int(self.context, other)
        return (
            isinstance(other, CartierElement)
            and other.context is self.context
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((id(self.context), tuple(sorted((k, v.coeffs) for k, v in self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "Cartier(0)"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            s = ""
            if a:
                s += "V^%d " % a if a > 1 else "V "
            s += "<%s>" % render_ff(c)
            if b:
                s += " F^%d" % b if b > 1 else " F"
            bits.append(s)
        return "Cartier(%s)" % " + ".join(bits)

    def to_json(self):
        return {
            "p": self.context.p,
            "m": self.context.m,
            "vcap": self.context.vcap,
            "terms": [
                {"v": a, "f": b, "c": render_ff(c)}
                for (a, b), c in sorted(self.terms.items())
            ],
        }


def _working_ring(ctx, N):
    """The lift ring W_N(F_{p^m}) over the context's field that a normalization works in."""
    if N > MAX_WORKING_PRECISION:
        raise InputError("Cartier working precision %d exceeds the cap of %d" % (N, MAX_WORKING_PRECISION))
    return ctx.field.lift(N)


def _from_int(ctx, k):
    """The integer k inside the W(F_{p^m}) subring: Teichmuller digits of
    k on the main diagonal, rows (b, b), already in canonical form."""
    guard = ctx.field.phi * (base_p_digits(abs(k), ctx.p) + 1) + 2
    ring = _working_ring(ctx, ctx.vcap + guard)
    field = ctx.field
    keys, rest = ring.digit_keys(ring.from_int(k).coeffs, ctx.vcap)
    table = {(b, b): field.twist(r, b) for b, r in enumerate(keys) if any(r)}
    return CartierElement._of(ctx, table, any(c % ctx.p**guard for c in rest))


def cartier_normalize(context, raw_terms, truncated=False):
    """Canonical form of a raw sum of monomials (a, b, c).

    Terms are grouped by diagonal i = a-b; rows at or beyond the V-cap are
    dropped.  A diagonal whose positions b are pairwise distinct is already
    canonical: its terms V^a <c> F^b stand for the Witt vector
    sum_j p^(b_j) [c_j^(p^(-a_j))], which is a Teichmuller expansion, one
    digit per position, and every position b < A - i lies inside any
    working precision.  Every element of W(F_{p^m}) has exactly one such
    expansion (Serre, Local Fields, II 5), so reading digits back would
    return these digits and a zero remainder: the table is the terms
    themselves and `truncated` does not change.  So a sum left with one
    monomial is returned as it stands.  Only a diagonal with a repeated
    position carries; its terms are converted to Witt elements of the
    unramified lift at certified precision, summed there by
    `UnramifiedRing.teichmuller_sum`, and read back as Teichmuller digits.
    The sum and its digits are plain coefficient lists: the only ring
    elements met are the table's lifts, and a field element is built only
    for a nonzero digit, twisted on its residue tuple.  A coefficient is
    coerced only when it is not already an element of the field.

    The `truncated` flag is exact: the residual past the cap is an integer
    combination of roots of unity, so its norm bounds how deep a nonzero
    tail can hide; checking that many extra digits decides tail-vanishing.
    """
    field = context.field
    A = context.vcap
    p = context.p
    kept = []
    for a, b, c in raw_terms:
        if a < 0 or b < 0:
            raise InputError("negative V or F exponent")
        if c.__class__ is not FFElement or c.field is not field:
            c = field.coerce(c)
        if c.is_zero():
            continue
        if a >= A:
            truncated = True
            continue
        kept.append((a, b, c))
    if len(kept) == 1:
        a, b, c = kept[0]
        return CartierElement._of(context, {(a, b): c}, truncated)
    diagonals = {}
    for a, b, c in kept:
        diagonals.setdefault(a - b, []).append((a, b, c))
    table = {}
    for i, terms in diagonals.items():
        if len({b for _, b, _ in terms}) == len(terms):
            for a, b, c in terms:
                table[(a, b)] = c
            continue
        digits = A - i  # positions b = 0..A-i-1 cover all rows a < A
        if digits > MAX_WORKING_PRECISION:  # checked before p**digits is formed
            raise InputError("Cartier working precision over %d exceeds the cap of %d" % (digits, MAX_WORKING_PRECISION))
        weight = sum(p**b for _, b, _ in terms) + p**digits  # bound on sum|n_j|
        guard = field.phi * base_p_digits(weight, p) + 2
        ring = _working_ring(context, digits + guard)
        keys, v = ring.digit_keys(ring.teichmuller_sum(terms), digits)
        for b, r in enumerate(keys):
            if not any(r):
                continue
            a = i + b
            if a < 0:
                raise PrecisionError("digit below the F-side floor (internal)")
            table[(a, b)] = field.twist(r, a)
        # after `digits` exact divisions only `guard` digits of v are still
        # certified (the top digits are mod-p^P wraparound noise).  The true
        # residual is sum n_j tau_j with sum|n_j| <= weight, so if nonzero
        # its valuation is under phi*log_p(weight) < guard: vanishing of the
        # certified part decides tail-vanishing exactly.
        pg = p**guard
        if any(c % pg for c in v):
            truncated = True
    return CartierElement._of(context, table, truncated)


def artin_hasse(p, degree):
    """Coefficients 0..degree of exp(-sum_{n>=0} X^(p^n)/p^n), as exact
    rationals.  Every coefficient is checked to be p-integral."""
    require_prime(p)
    if degree < 1:
        raise InputError("degree must be >= 1")
    if degree > MAX_ARTIN_HASSE_DEGREE:
        raise InputError("degree %d exceeds the cap of %d" % (degree, MAX_ARTIN_HASSE_DEGREE))
    # a = exp(g) solves a' = g' a with g' = -sum_n x^(p^n - 1), so
    # k a_k = -sum_{q = p^n <= k} a_(k - q), O(log_p k) terms each.  On the
    # integers b_k = k! a_k it reads b_k = -sum b_(k - q) (k - 1)! / (k - q)!.
    powers = [1]
    while powers[-1] * p <= degree:
        powers.append(powers[-1] * p)
    factorials, b = [1], [1]
    for k in range(1, degree + 1):
        factorials.append(factorials[-1] * k)
        b.append(-sum(b[k - q] * (factorials[k - 1] // factorials[k - q]) for q in powers if q <= k))
    coeffs = [Fraction(n, d) for n, d in zip(b, factorials)]
    for i, c in enumerate(coeffs):
        if c.denominator % p == 0:
            raise PrecisionError("coefficient %d is not p-integral (impossible)" % i)
    return coeffs


def cartier_from_json(obj, context=None):
    p, m, vcap = int(obj["p"]), int(obj.get("m", 1)), int(obj.get("vcap", 8))
    if context is None:
        context = CartierContext(p, m, vcap)
    elif (context.p, context.m, context.vcap) != (p, m, vcap):
        raise InputError("element parameters do not match the given context")
    raw = []
    for t in obj.get("terms", []):
        c = t["c"]
        c = parse_ff(context.field, c) if isinstance(c, str) else context.field(int(c))
        raw.append((int(t["v"]), int(t["f"]), c))
    return context, cartier_normalize(context, raw)
