"""The local Cartier ring over F_{p^m}, in canonical form.

Elements are finite sums  sum V^a <c_ab> F^b  with coefficients in the
(perfect) base field, rows a capped by an explicit V-adic precision A.
Grouping a sum by the diagonal i = a-b identifies it with a two-sided
series  sum_i w_i V^i  with w_i in W(F_{p^m}); addition is carried out
there, digit by digit, because Witt addition carries: <1> + <1> is V<1>F
over F_2, not <2>.

Multiplication reduces monomial pairs with the commutation rules
F<a> = <a^p>F, <a>V = V<a^p>, FV = VF = p (characteristic p), which
collapse to the single rule

    V^a <c> F^b * V^a' <c'> F^b' = V^(a+a') <c^(p^a') c'^(p^b)> F^(b+b').
"""

from fractions import Fraction

from ._arith import base_p_digits, euler_phi, power, require_prime
from .errors import InputError, PrecisionError
from .unramified import parse_ff, render_ff, unramified_ring
from .witt import WittElement

__all__ = [
    "CartierContext",
    "CartierElement",
    "cartier_normalize",
    "artin_hasse",
]

# Largest Artin-Hasse degree served: on a 2-vCPU Xeon the recursion takes
# about 1.3 s at degree 500 and 6 s at 1000, and near degree 2000 its
# coefficients outgrow Python's int-to-str limit.
MAX_ARTIN_HASSE_DEGREE = 500
# Largest working precision of a normalization (V-cap plus guard digits that
# grow with euler_phi(p^m - 1)).  On a 2-vCPU Xeon `cartier mul` of two 6-term
# elements takes 0.9 s over F_{5^4} (precision up to 1159) and 2.2 s over
# F_{3^6} (up to 1735); over F_{31^3} at vcap 2 it needs 31685 and hangs.
MAX_WORKING_PRECISION = 1024


class CartierContext:
    """Fixes the base field F_{p^m} and the V-adic working cap A; `phi` =
    euler_phi(p^m - 1) scales the guard digits of every normalization."""

    def __init__(self, p, m=1, vcap=8):
        if vcap < 1:
            raise InputError("V-cap must be >= 1")
        self.p, self.m, self.vcap = p, m, vcap
        self.field = unramified_ring(p, m, 1).field
        self.phi = euler_phi(p**m - 1)

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
        other = self._same(other)
        raw = []
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                raw.append((a + a2, b + b2, c.frobenius(a2) * c2.frobenius(b)))
        return cartier_normalize(self.context, raw, truncated=self.truncated or other.truncated)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, self.context.one())

    def act(self, w):
        """Action on a Witt vector: V, F, <c> act as Verschiebung,
        Frobenius and Teichmuller multiplication."""
        if not isinstance(w, WittElement):
            raise InputError("action target must be a WittElement")
        ring = w.context.ring
        if (ring.p, w.context.m) != (self.context.p, self.context.m):
            raise InputError("field mismatch between Cartier element and Witt vector")
        acc = ring.zero()
        for (a, b), c in self.terms.items():
            if a >= w.context.N:
                raise PrecisionError(
                    "V^%d shift exceeds Witt precision N=%d" % (a, w.context.N)
                )
            acc = acc + self.context.p**a * ring.teichmuller(c.frobenius_inv(a)) * ring.sigma(w.value, b - a)
        return WittElement(w.context, acc)

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
    """The lift ring W_N(F_{p^m}) that a normalization works in."""
    if N > MAX_WORKING_PRECISION:
        raise InputError("Cartier working precision %d exceeds the cap of %d" % (N, MAX_WORKING_PRECISION))
    return unramified_ring(ctx.p, ctx.m, N)


def _from_int(ctx, k):
    """The integer k inside the W(F_{p^m}) subring: Teichmuller digits of
    k on the main diagonal, rows (b, b)."""
    guard = ctx.phi * (base_p_digits(abs(k), ctx.p) + 1) + 2
    ring = _working_ring(ctx, ctx.vcap + guard)
    digits, rest = ring.teichmuller_digits(ring.from_int(k), ctx.vcap)
    raw = [(b, b, r.frobenius(b)) for b, r in enumerate(digits) if not r.is_zero()]
    pg = ctx.p**guard
    return cartier_normalize(ctx, raw, truncated=any(c % pg for c in rest.coeffs))


def cartier_normalize(context, raw_terms, truncated=False):
    """Canonical form of a raw sum of monomials (a, b, c).

    Terms are grouped by diagonal i = a-b, converted to Witt elements of
    the unramified lift at certified precision, summed there, and read
    back as Teichmuller digits.  Rows at or beyond the V-cap are dropped.

    The `truncated` flag is exact: the residual past the cap is an integer
    combination of roots of unity, so its norm bounds how deep a nonzero
    tail can hide; checking that many extra digits decides tail-vanishing.
    """
    field = context.field
    A = context.vcap
    p = context.p
    diagonals = {}
    for a, b, c in raw_terms:
        if a < 0 or b < 0:
            raise InputError("negative V or F exponent")
        c = field.coerce(c)
        if c.is_zero():
            continue
        if a >= A:
            truncated = True
            continue
        diagonals.setdefault(a - b, []).append((a, b, c))
    table = {}
    for i, terms in diagonals.items():
        digits = A - i  # positions b = 0..A-i-1 cover all rows a < A
        if digits > MAX_WORKING_PRECISION:  # checked before p**digits is formed
            raise InputError("Cartier working precision over %d exceeds the cap of %d" % (digits, MAX_WORKING_PRECISION))
        weight = sum(p**b for _, b, _ in terms) + p**digits  # bound on sum|n_j|
        guard = context.phi * base_p_digits(weight, p) + 2
        ring = _working_ring(context, digits + guard)
        acc = sum((p**b * ring.teichmuller(c.frobenius_inv(a)) for a, b, c in terms), ring.zero())
        residues, v = ring.teichmuller_digits(acc, digits)
        for b, r in enumerate(residues):
            if r.is_zero():
                continue
            a = i + b
            if a < 0:
                raise PrecisionError("digit below the F-side floor (internal)")
            table[(a, b)] = r.frobenius(a)
        # after `digits` exact divisions only `guard` digits of v are still
        # certified (the top digits are mod-p^P wraparound noise).  The true
        # residual is sum n_j tau_j with sum|n_j| <= weight, so if nonzero
        # its valuation is under phi*log_p(weight) < guard: vanishing of the
        # certified part decides tail-vanishing exactly.
        pg = p**guard
        if any(c % pg for c in v.coeffs):
            truncated = True
    return CartierElement(context, table, truncated)


def artin_hasse(p, degree):
    """Coefficients 0..degree of exp(-sum_{n>=0} X^(p^n)/p^n), as exact
    rationals.  Every coefficient is checked to be p-integral."""
    require_prime(p)
    if degree < 1:
        raise InputError("degree must be >= 1")
    if degree > MAX_ARTIN_HASSE_DEGREE:
        raise InputError("degree %d exceeds the cap of %d" % (degree, MAX_ARTIN_HASSE_DEGREE))
    # derivative of the exponent: -sum x^(p^n - 1)
    gprime = [Fraction(0)] * degree
    q = 1
    while q - 1 < degree:
        gprime[q - 1] = Fraction(-1)
        q *= p
    coeffs = [Fraction(1)]
    for k in range(degree):
        acc = sum((gprime[i] * coeffs[k - i] for i in range(k + 1)), Fraction(0))
        coeffs.append(acc / (k + 1))
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
