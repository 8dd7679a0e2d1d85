"""Truncated p-typical Witt vectors over F_{p^m}.

Elements live in the unramified lift W_N(F_{p^m}); Witt coordinates are a
derived view.  The ghost map is kept as an exact integer computation so it
can serve as an oracle for the ring structure: Witt sums and products of
integer-lift coordinate vectors are recovered by inverting the ghost map
over Z, which succeeds in exact integers precisely because the universal
Witt polynomials are integral.
"""

from ._arith import require_prime
from .errors import InputError
from .unramified import UElement, unramified_ring

__all__ = [
    "WittContext",
    "WittElement",
    "ghost_components",
    "ghost_inverse",
    "witt_coordinate_sum",
    "witt_coordinate_product",
]


def ghost_components(coords, p):
    """w_n = sum_{i<=n} p^i c_i^(p^(n-i)) for integer-lift coordinates."""
    require_prime(p)
    coords = [int(c) for c in coords]
    out = []
    for n in range(len(coords)):
        out.append(sum(p**i * coords[i] ** (p ** (n - i)) for i in range(n + 1)))
    return out


def ghost_inverse(ghosts, p):
    """Integer coordinates with the given ghost vector; raises InputError
    if no integral preimage exists."""
    require_prime(p)
    coords = []
    for n, w in enumerate(ghosts):
        acc = sum(p**i * coords[i] ** (p ** (n - i)) for i in range(n))
        num = w - acc
        if num % (p**n):
            raise InputError("ghost vector has no integral Witt preimage")
        coords.append(num // (p**n))
    return coords


def witt_coordinate_sum(a, b, p):
    """Coordinates of the Witt sum of two integer-lift coordinate vectors,
    as exact integers (values of the universal sum polynomials)."""
    ga, gb = ghost_components(a, p), ghost_components(b, p)
    return ghost_inverse([x + y for x, y in zip(ga, gb)], p)


def witt_coordinate_product(a, b, p):
    ga, gb = ghost_components(a, p), ghost_components(b, p)
    return ghost_inverse([x * y for x, y in zip(ga, gb)], p)


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
        """Witt coordinates (c_0,...,c_{N-1}), c_i in F_{p^m} (or ints)."""
        coords = [self.field.coerce(c) for c in coords]
        if len(coords) > self.N:
            raise InputError("more coordinates than the precision carries")
        lifts = (self.p**i * self.ring.teichmuller(c.frobenius_inv(i)) for i, c in enumerate(coords))
        return WittElement(self, sum(lifts, self.ring.zero()))

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
        """The Witt coordinate view (c_0,...,c_{N-1}), c_i in F_{p^m}."""
        digits, _ = self.context.ring.teichmuller_digits(self.value, self.context.N)
        return [r.frobenius(i) for i, r in enumerate(digits)]

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
