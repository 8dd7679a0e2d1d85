"""Object-level versions of the coefficient-tuple kernels in isolab, every
intermediate a field or ring element: the oracles that the tuple paths of
`cartier`, `witt`, `unramified` and `_arith` are checked against."""

from isolab._arith import power
from isolab.cartier import cartier_normalize
from isolab.unramified import FFElement, UElement


def cartier_product(x, y):
    """x * y, each coefficient twisted by `FFElement.frobenius` and the
    twists multiplied by `FFElement.__mul__`."""
    raw = [
        (a + a2, b + b2, c.frobenius(a2) * c2.frobenius(b))
        for (a, b), c in x.terms.items()
        for (a2, b2), c2 in y.terms.items()
    ]
    return cartier_normalize(x.context, raw, truncated=x.truncated or y.truncated)


def teichmuller_digits(ring, v, k):
    """The first k Teichmuller digits r_0..r_{k-1} of v, as residues
    (v = sum p^i [r_i] + p^k w), and the remainder w."""
    keys, rest = ring.digit_keys(v.coeffs, k)
    return [FFElement(ring.field, r) for r in keys], UElement(ring, rest)


def from_coordinates(ctx, coords):
    """`WittContext.from_coordinates` as a sum of `UElement`s."""
    coords = [ctx.field.coerce(c) for c in coords]
    lifts = (ctx.p**i * ctx.ring.teichmuller(c.frobenius_inv(i)) for i, c in enumerate(coords))
    return sum(lifts, ctx.ring.zero())


def coordinates(w):
    """`WittElement.coordinates` through `teichmuller_digits`."""
    digits, _ = teichmuller_digits(w.ring, w, w.ring.N)
    return [r.frobenius(i) for i, r in enumerate(digits)]


def ring_power(u, k):
    """u^k by the generic square-and-multiply, for any m."""
    return power(u, k, u.ring.one())


def charpoly(M, modulus):
    """`_arith.charpoly` with each Berkowitz step's Toeplitz product summed
    row by row over slices."""
    nonzero = [[(t, x) for t, x in enumerate(row) if x] for row in M]
    coeffs = [1]
    for k, row in enumerate(M):
        A = [[(t, x) for t, x in nonzero[i] if t < k] for i in range(k)]
        R = [(t, x) for t, x in nonzero[k] if t < k]
        col = [M[i][k] for i in range(k)]
        first = [1, -row[k]]
        for _ in range(k):
            first.append(-sum(x * col[t] for t, x in R) % modulus)
            col = [sum(x * col[t] for t, x in r) % modulus for r in A]
        coeffs = [sum(f * c for f, c in zip(first[i::-1], coeffs)) % modulus for i in range(k + 2)]
    return coeffs
