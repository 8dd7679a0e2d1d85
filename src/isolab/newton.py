"""Newton polygons over exact rationals.

A Newton polygon here is the lower-convex lattice polygon running from
(0,0) to (h,d) with all slopes in [0,1], encoded by its slope multiset.
It is the basic invariant everything else in this package produces or
consumes.  Slopes are `fractions.Fraction`s; comparison and the lattice
regions run on each polygon's integer height vector.  There is no
floating point in this module.
"""

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from ._arith import require_prime, vp
from .errors import InputError

__all__ = [
    "NewtonPolygon",
    "ValuationPolygon",
    "Comparison",
    "np_from_pairs",
    "np_from_slopes",
    "np_from_json",
    "np_of_polynomial",
    "np_dual",
    "np_is_symmetric",
    "np_compare",
    "np_precedes",
    "np_diamond",
    "np_dim",
    "np_triangle",
    "np_sdim",
    "p_rank",
    "render_pairs",
    "lower_convex_hull",
]


class Comparison(Enum):
    EQUAL = "equal"
    A_BELOW_B = "a-below-b"
    A_ABOVE_B = "a-above-b"
    INCOMPARABLE = "incomparable"
    DIFFERENT_ENDPOINTS = "different-endpoints"


def lower_convex_hull(points):
    """Lower convex hull of a finite point set, as a list of vertices.

    Vertices come out sorted by x; collinear interior points are dropped.
    Coordinates may be ints or Fractions.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return list(pts)
    hull = []
    for q in pts:
        # keep only leftmost point for each x
        if hull and hull[-1][0] == q[0]:
            continue
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop (x2,y2) unless it lies strictly below the chord to q
            if (y2 - y1) * (q[0] - x1) >= (q[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


class NewtonPolygon:
    """Immutable Newton polygon, identified by its slope multiset.

    `runs` is the canonical decomposition: a tuple of (slope, span) pairs
    with strictly increasing slopes in [0,1] and integer spans whose rises
    are integral, so breakpoints land on lattice points.
    """

    __slots__ = ("runs", "h", "d", "_heights")

    def __init__(self, runs):
        runs = tuple((Fraction(s), int(k)) for s, k in runs)
        if not runs:
            raise InputError("empty Newton polygon")
        last = None
        for s, k in runs:
            if not (0 <= s <= 1):
                raise InputError("slope %s outside [0,1]" % s)
            if k <= 0:
                raise InputError("non-positive slope multiplicity")
            if (s * k).denominator != 1:
                raise InputError("segment of slope %s and span %d misses the lattice" % (s, k))
            if last is not None and s <= last:
                raise InputError("slopes must strictly increase across segments")
            last = s
        self.runs = runs
        self.h = sum(k for _, k in runs)
        self.d = int(sum(s * k for s, k in runs))
        self._heights = None

    @property
    def c(self):
        return self.h - self.d

    def slopes(self):
        """Non-decreasing list of all h slopes, with multiplicity."""
        out = []
        for s, k in self.runs:
            out.extend([s] * k)
        return out

    def breakpoints(self):
        pts = [(0, 0)]
        x, y = 0, Fraction(0)
        for s, k in self.runs:
            x += k
            y += s * k
            pts.append((x, int(y)))
        return pts

    def value(self, x):
        """Exact height of the polygon above abscissa x, 0 <= x <= h."""
        x = Fraction(x)
        if not (0 <= x <= self.h):
            raise InputError("abscissa %s outside [0, %d]" % (x, self.h))
        y = Fraction(0)
        pos = Fraction(0)
        for s, k in self.runs:
            if x <= pos + k:
                return y + s * (x - pos)
            y += s * k
            pos += k
        return y

    def heights(self):
        """Integer height vector (L, ys), computed once: ys[x] = L*value(x)
        for x = 0..h, with L the lcm of the slope denominators."""
        if self._heights is None:
            L = lcm(*(s.denominator for s, _ in self.runs))
            ys = [0]
            for s, k in self.runs:
                step = s.numerator * (L // s.denominator)
                for _ in range(k):
                    ys.append(ys[-1] + step)
            self._heights = (L, ys)
        return self._heights

    def pairs(self):
        """Coprime-pair decomposition, sorted by descending slope.

        A run of slope a/b over span k*b contributes k copies of the pair
        (a, b-a).
        """
        out = []
        for s, k in sorted(self.runs, key=lambda r: (-r[0],)):
            m, b = s.numerator, s.denominator
            out.extend([(m, b - m)] * (k // b))
        return out

    def p_rank(self):
        return self.runs[0][1] if self.runs[0][0] == 0 else 0

    def is_symmetric(self):
        return np_dual(self).runs == self.runs

    def __eq__(self, other):
        return isinstance(other, NewtonPolygon) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        return "NewtonPolygon(%s)" % render_pairs(self.pairs())

    def to_json(self):
        return {"pairs": [[m, n] for m, n in self.pairs()]}


def render_pairs(pairs):
    """Text form like "2*(1,0)+(2,1)+(1,5)" (descending slope)."""
    groups = []
    for m, n in pairs:
        if groups and groups[-1][0] == (m, n):
            groups[-1][1] += 1
        else:
            groups.append([(m, n), 1])
    parts = []
    for (m, n), k in groups:
        body = "(%d,%d)" % (m, n)
        parts.append(body if k == 1 else "%d*%s" % (k, body))
    return "+".join(parts)


def np_from_pairs(pairs):
    """Polygon with slope m/(m+n), multiplicity m+n, for each pair (m,n).

    Each pair must consist of non-negative coprime integers, not both zero.
    """
    pairs = list(pairs)
    if not pairs:
        raise InputError("at least one (m,n) pair required")
    counts = {}
    for m, n in pairs:
        m, n = int(m), int(n)
        if m < 0 or n < 0 or (m == 0 and n == 0):
            raise InputError("invalid pair (%d,%d)" % (m, n))
        if gcd(m, n) != 1:
            raise InputError("pair (%d,%d) is not coprime" % (m, n))
        s = Fraction(m, m + n)
        counts[s] = counts.get(s, 0) + m + n
    return NewtonPolygon(sorted(counts.items()))


def np_from_slopes(slopes):
    """Polygon from an explicit slope multiset (must glue to lattice breakpoints)."""
    slopes = sorted(Fraction(s) for s in slopes)
    if not slopes:
        raise InputError("empty slope list")
    runs = []
    for s in slopes:
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return NewtonPolygon(runs)


def np_dual(np):
    """Slope multiset {1 - beta}; an involution swapping d and h-d."""
    return np_from_slopes([1 - s for s in np.slopes()])


def np_is_symmetric(np):
    return np.is_symmetric()


def np_compare(a, b):
    """Exact pointwise comparison of two polygons with common endpoints.

    A_BELOW_B means no point of `a` is strictly above `b` (so a != b and
    a succeeds b in the specialization order: a's stratum is the larger one).
    Checking at integer abscissas suffices because every breakpoint of
    either polygon has integer x; there a's height ya[x]/La is compared
    with b's yb[x]/Lb by cross-multiplying.
    """
    if (a.h, a.d) != (b.h, b.d):
        return Comparison.DIFFERENT_ENDPOINTS
    (La, ya), (Lb, yb) = a.heights(), b.heights()
    below = above = False
    for u, v in zip(ya, yb):
        u, v = u * Lb, v * La
        if u < v:
            below = True
        elif u > v:
            above = True
    if not below and not above:
        return Comparison.EQUAL
    if not above:
        return Comparison.A_BELOW_B
    if not below:
        return Comparison.A_ABOVE_B
    return Comparison.INCOMPARABLE


def np_precedes(a, b, strict=False):
    """a < b in the stratification order: a lies on-or-above b pointwise."""
    cmp = np_compare(a, b)
    if strict:
        return cmp is Comparison.A_ABOVE_B
    return cmp in (Comparison.A_ABOVE_B, Comparison.EQUAL)


def np_diamond(np):
    """Lattice points (x,y) with y < d, y < x, lying on or above the polygon."""
    L, ys = np.heights()
    pts = set()
    for x in range(1, np.h + 1):
        for y in range(-(-ys[x] // L), min(np.d, x)):
            pts.add((x, y))
    return pts


def np_dim(np):
    """Dimension of the (unpolarized) stratum attached to the polygon."""
    return len(np_diamond(np))


def np_triangle(np):
    """Like the diamond region but clipped to x <= g for symmetric polygons."""
    if np.h != 2 * np.d:
        raise InputError("triangle region needs a symmetric polygon (h = 2d)")
    if not np.is_symmetric():
        raise InputError("polygon is not symmetric")
    g = np.d
    return {(x, y) for (x, y) in np_diamond(np) if x <= g}


def np_sdim(np):
    """Dimension of the principally polarized stratum of a symmetric polygon."""
    return len(np_triangle(np))


def p_rank(np):
    """Multiplicity of slope 0."""
    return np.p_rank()


class ValuationPolygon:
    """Lower convex hull of (j, v_p(coefficient_j)) for a monic polynomial.

    Unlike NewtonPolygon the slopes are unconstrained; they are the p-adic
    valuations of the roots in non-decreasing order.  Coefficients with
    valuation +infinity (zeros) never enter the hull, so a polynomial
    divisible by T contributes `infinite_multiplicity` missing slopes.
    """

    __slots__ = ("degree", "points", "vertices", "infinite_multiplicity")

    def __init__(self, degree, points):
        self.degree = degree
        self.points = tuple(sorted(points))
        if not self.points or self.points[0][0] != 0:
            raise InputError("valuation polygon needs the point at j=0")
        self.vertices = tuple(lower_convex_hull(self.points))
        self.infinite_multiplicity = degree - self.vertices[-1][0]

    def slopes(self):
        """Finite root valuations, one per unit x-span, non-decreasing."""
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            s = Fraction(y2 - y1, x2 - x1)
            out.extend([s] * (x2 - x1))
        return out

    def scaled(self, denom):
        """Slope multiset divided by `denom` (e.g. v(q) normalization)."""
        return [s / denom for s in self.slopes()]

    def to_newton_polygon(self):
        slopes = self.slopes()
        if self.infinite_multiplicity:
            raise InputError("polygon has infinite slopes")
        if any(s < 0 or s > 1 for s in slopes):
            raise InputError("slopes leave [0,1]; not a group polygon")
        return np_from_slopes(slopes)

    def __eq__(self, other):
        return (
            isinstance(other, ValuationPolygon)
            and self.degree == other.degree
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.degree, self.vertices))

    def __repr__(self):
        return "ValuationPolygon(deg=%d, vertices=%s)" % (self.degree, list(self.vertices))


def np_of_polynomial(coefficients, p):
    """Valuation polygon of a monic polynomial, leading coefficient first.

    `coefficients` lists gamma_0 .. gamma_h for g = sum gamma_j T^(h-j);
    gamma_0 must be 1.  The hull's slopes are the p-adic valuations of the
    roots of g in non-decreasing order.
    """
    coeffs = [Fraction(c) for c in coefficients]
    if not coeffs or coeffs[0] != 1:
        raise InputError("polynomial must be monic (leading coefficient 1 first)")
    require_prime(p)
    h = len(coeffs) - 1
    if h < 1:
        raise InputError("degree must be at least 1")
    points = [(j, vp(c.numerator, p) - vp(c.denominator, p)) for j, c in enumerate(coeffs) if c != 0]
    return ValuationPolygon(h, points)


def np_from_json(obj):
    """Accepts {"pairs": [[m,n],...]} or {"slopes": ["a/b",...]}."""
    if "pairs" in obj:
        return np_from_pairs([tuple(p) for p in obj["pairs"]])
    if "slopes" in obj:
        return np_from_slopes([Fraction(s) for s in obj["slopes"]])
    raise InputError("polygon JSON needs a 'pairs' or 'slopes' key")
