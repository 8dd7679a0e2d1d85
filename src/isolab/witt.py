"""Truncated p-typical Witt vectors over F_{p^m}.

Elements live in the unramified lift W_N(F_{p^m}); Witt coordinates are a
derived view.  The ghost map is kept as an exact integer computation so it
can serve as an oracle for the ring structure: Witt sums and products of
integer-lift coordinate vectors are recovered by inverting the ghost map
over Z, which succeeds in exact integers precisely because the universal
Witt polynomials are integral.
"""

from operator import mul

from ._arith import require_prime
from .errors import InputError
from .unramified import FFElement, UElement, unramified_ring

__all__ = [
    "WittContext",
    "WittElement",
    "ghost_components",
    "ghost_inverse",
]


# Largest bit length of a ghost component.  Such a component has at most
# 3,011 decimal digits, so it prints under CPython's default 4,300-digit
# limit on int to str conversion; 19 coordinates 2 at p = 3 took 5.0 s and
# then failed to print.
MAX_GHOST_BITS = 10_000
# Largest coordinate count.  On a 2-vCPU Xeon the components of 1,000 / 2,000
# / 3,000 coordinates 1 at p = 2 take 0.16 / 0.84 / 1.7 s, and a CLI `witt
# ghost` with 1,000 takes 0.34 s.
MAX_GHOST_COORDINATES = 1000


def _raise_powers(powers, weights, p, last=0):
    """The running powers x -> x^p of the next ghost component
    w_n = sum_{i<n} p^i x_i^p + p^n last, once w_n is bounded under
    MAX_GHOST_BITS: bits(x^p) <= p bits(x) for |x| > 1, and its n + 1 terms
    add at most n.bit_length() bits.  `weights` holds p^0..p^n."""
    n = len(powers)
    sizes = [x.bit_length() * (p if abs(x) > 1 else 1) for x in powers] + [last.bit_length()]
    bits = max(w.bit_length() + s for w, s in zip(weights, sizes)) + n.bit_length()
    if bits > MAX_GHOST_BITS:
        raise InputError("ghost component w_%d of up to %d bits exceeds the cap of %d bits" % (n, bits, MAX_GHOST_BITS))
    return [x**p for x in powers]


def _check_length(n):
    if n > MAX_GHOST_COORDINATES:
        raise InputError("%d ghost coordinates exceed the cap of %d" % (n, MAX_GHOST_COORDINATES))


def ghost_components(coords, p):
    """w_n = sum_{i<=n} p^i c_i^(p^(n-i)) for integer-lift coordinates.

    Each coordinate keeps one running power, raised to the p-th power for
    each further component.  A component's bit length is bounded before
    it is formed and refused over MAX_GHOST_BITS; so is a coordinate count
    over MAX_GHOST_COORDINATES.
    """
    require_prime(p)
    coords = [int(c) for c in coords]
    _check_length(len(coords))
    out, weights, powers = [], [], []
    for n, c in enumerate(coords):
        weights.append(p**n)
        powers = _raise_powers(powers, weights, p, c) + [c]
        out.append(sum(map(mul, weights, powers)))
    return out


def ghost_inverse(ghosts, p):
    """Integer coordinates with the given ghost vector; raises InputError
    if no integral preimage exists.

    c_n = (w_n - sum_{i<n} p^i c_i^(p^(n-i))) / p^n, with the running powers
    and caps of `ghost_components`; a ghost component over MAX_GHOST_BITS
    is refused before anything is formed.
    """
    require_prime(p)
    _check_length(len(ghosts))
    for n, w in enumerate(ghosts):
        if w.bit_length() > MAX_GHOST_BITS:
            raise InputError("ghost component w_%d of up to %d bits exceeds the cap of %d bits" % (n, w.bit_length(), MAX_GHOST_BITS))
    coords, weights, powers = [], [], []
    for n, w in enumerate(ghosts):
        weights.append(p**n)
        powers = _raise_powers(powers, weights, p)
        num = w - sum(map(mul, weights, powers))
        if num % weights[-1]:
            raise InputError("ghost vector has no integral Witt preimage")
        coords.append(num // weights[-1])
        powers.append(coords[-1])
    return coords


class WittContext:
    """Fixes (p, m, N): the ring W_N(F_{p^m}) plus its residue field."""

    def __init__(self, p, m=1, N=2):
        self.ring = unramified_ring(p, m, N)
        self.p, self.m, self.N = p, m, N
        self.field = self.ring.field

    def element(self, value):
        if isinstance(value, UElement):
            if value.ring is not self.ring:
                raise InputError("context mismatch")
            return WittElement(self, value)
        return WittElement(self, self.ring.from_int(int(value)))

    def from_coordinates(self, coords):
        """Witt coordinates (c_0,...,c_{N-1}), c_i in F_{p^m} (or ints): the
        element sum p^i [c_i^(p^-i)], summed by `UnramifiedRing.teichmuller_sum`."""
        coords = [self.field.coerce(c) for c in coords]
        if len(coords) > self.N:
            raise InputError("more coordinates than the precision carries")
        acc = self.ring.teichmuller_sum((i, i, c) for i, c in enumerate(coords))
        return WittElement(self, UElement._reduced(self.ring, acc))

    def teichmuller(self, c):
        return WittElement(self, self.ring.teichmuller(self.field.coerce(c)))

    def zero(self):
        return WittElement(self, self.ring.zero())

    def one(self):
        return WittElement(self, self.ring.one())

    def __repr__(self):
        return "WittContext(p=%d, m=%d, N=%d)" % (self.p, self.m, self.N)


class WittElement:
    """Element of W_N(F_{p^m}); immutable."""

    __slots__ = ("context", "value")

    def __init__(self, context, value):
        self.context = context
        self.value = value

    def _same(self, other):
        if isinstance(other, int):
            return self.context.element(other)
        if not isinstance(other, WittElement) or other.context is not self.context:
            raise InputError("context mismatch")
        return other

    def __add__(self, other):
        return WittElement(self.context, self.value + self._same(other).value)

    def __sub__(self, other):
        return WittElement(self.context, self.value - self._same(other).value)

    def __neg__(self):
        return WittElement(self.context, -self.value)

    def __mul__(self, other):
        return WittElement(self.context, self.value * self._same(other).value)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k):
        return WittElement(self.context, self.value**k)

    def frobenius(self):
        """sigma; over F_p this is the identity."""
        return WittElement(self.context, self.value.sigma())

    def frobenius_inv(self):
        return WittElement(self.context, self.value.sigma(-1))

    def verschiebung(self):
        """V = p * sigma^(-1)."""
        ctx = self.context
        return WittElement(ctx, ctx.p * self.value.sigma(-1))

    def valuation(self):
        """Exact p-adic valuation, or None when the element cannot be told
        from 0 at precision N (reported as ">= N", never a number)."""
        return self.value.valuation()

    def coordinates(self):
        """The Witt coordinate view (c_0,...,c_{N-1}), c_i in F_{p^m}: the
        Teichmuller digits r_i of the value, twisted to c_i = r_i^(p^i) on
        their residue tuples, one field element per coordinate."""
        field = self.context.field
        keys, _ = self.context.ring.digit_keys(self.value.coeffs, self.context.N)
        return [FFElement._reduced(field, field._twist(r, i)) for i, r in enumerate(keys)]

    def is_zero(self):
        return self.value.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, WittElement)
            and other.context is self.context
            and other.value == self.value
        )

    def __hash__(self):
        return hash((id(self.context), self.value))

    def __repr__(self):
        return "WittElement(%s)" % (list(self.value.coeffs),)
