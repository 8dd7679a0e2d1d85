"""Newton polygons as integer vertex paths.

A Newton polygon here is the lower-convex lattice polygon running from
(0,0) to (h,d) with all slopes in [0,1], stored as its integer vertex
path; parsers, duals, hulls and the poset enumeration all hand over
vertices.  It is the basic invariant everything else in this package
produces or consumes.  `fractions.Fraction` appears only where slopes are
parsed or returned for printing, and there is no floating point.
"""

from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
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
    return _lower_hull(sorted(set(points)))


def _lower_hull(pts):  # sorted points; of a repeated x the first is kept
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


def _segments(vertices):
    """(rise, span) of each edge of a vertex path."""
    return [(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(vertices, vertices[1:])]


def _slopes(vertices):
    """Slope of each unit x-step along a vertex path, with multiplicity."""
    return [s for rise, span in _segments(vertices) for s in [Fraction(rise, span)] * span]


class NewtonPolygon:
    """Immutable Newton polygon, identified by its integer vertex path.

    `vertices` runs from (0,0) to (h,d) through the breakpoints: every
    span is positive, every rise lies in 0..span, and the slopes rise/span
    strictly increase (checked by cross-multiplying), so each vertex is a
    genuine corner.  Everything else is read off the path.
    """

    __slots__ = ("vertices", "h", "d", "_heights")

    def __init__(self, vertices):
        vertices = tuple(map(tuple, vertices))
        if len(vertices) < 2 or vertices[0] != (0, 0):
            raise InputError("a Newton polygon's vertex path runs from (0,0) to (h,d), h > 0")
        last = None
        for rise, span in _segments(vertices):
            if span <= 0:
                raise InputError("non-positive slope multiplicity")
            if not 0 <= rise <= span:
                raise InputError("slope %s outside [0,1]" % Fraction(rise, span))
            if last is not None and rise * last[1] <= last[0] * span:
                raise InputError("slopes must strictly increase across segments")
            last = rise, span
        self.vertices = vertices
        self.h, self.d = vertices[-1]
        self._heights = None

    @classmethod
    def _from_path(cls, vertices, L, ys):
        """The polygon on a tuple of int vertices already known valid, with
        its height column ys at the scale L; nothing is checked."""
        z = object.__new__(cls)
        z.vertices = vertices
        z.h, z.d = vertices[-1]
        z._heights = (L, ys)
        return z

    @property
    def c(self):
        return self.h - self.d

    def slopes(self):
        """Non-decreasing list of all h slopes, with multiplicity."""
        return _slopes(self.vertices)

    def breakpoints(self):
        return list(self.vertices)

    def value(self, x):
        """Exact height of the polygon above abscissa x, 0 <= x <= h."""
        x = Fraction(x)
        if not (0 <= x <= self.h):
            raise InputError("abscissa %s outside [0, %d]" % (x, self.h))
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            if x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)

    def heights(self):
        """Integer height vector (L, ys), computed once: ys[x] = L*value(x)
        for x = 0..h, with L a common multiple of the slope denominators:
        the least one for a polygon built from its vertices, lcm(1..h) for
        a polygon returned by `poset.enumerate_polygons`."""
        if self._heights is None:
            segments = _segments(self.vertices)
            L = lcm(*(span // gcd(rise, span) for rise, span in segments))
            ys = [0]
            for rise, span in segments:
                step = rise * L // span
                for _ in range(span):
                    ys.append(ys[-1] + step)
            self._heights = (L, ys)
        return self._heights

    def pairs(self):
        """Coprime-pair decomposition, sorted by descending slope.

        An edge of rise g*a over span g*b (a, b coprime) contributes g
        copies of the pair (a, b-a).
        """
        out = []
        for rise, span in reversed(_segments(self.vertices)):
            g = gcd(rise, span)
            out.extend([(rise // g, (span - rise) // g)] * g)
        return out

    def p_rank(self):
        x, y = self.vertices[1]
        return x if y == 0 else 0

    def is_symmetric(self):
        return np_dual(self) == self

    def __eq__(self, other):
        return isinstance(other, NewtonPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

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


def _from_segments(segments):
    """The polygon through (rise, span) edges of distinct slopes, given in
    any order: they are laid end to end by increasing slope."""
    vertices = [(0, 0)]
    for rise, span in sorted(segments, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])):
        x, y = vertices[-1]
        vertices.append((x + span, y + rise))
    return NewtonPolygon(vertices)


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
        counts[m, n] = counts.get((m, n), 0) + 1
    return _from_segments((k * m, k * (m + n)) for (m, n), k in counts.items())


def np_from_slopes(slopes):
    """Polygon from an explicit slope multiset (must glue to lattice breakpoints)."""
    slopes = sorted(Fraction(s) for s in slopes)
    if not slopes:
        raise InputError("empty slope list")
    segments = []
    for s, run in groupby(slopes):
        k = len(list(run))
        if not (0 <= s <= 1):
            raise InputError("slope %s outside [0,1]" % s)
        if (s * k).denominator != 1:
            raise InputError("segment of slope %s and span %d misses the lattice" % (s, k))
        segments.append((int(s * k), k))
    return _from_segments(segments)


def np_dual(np):
    """Slope multiset {1 - beta}, by reflecting each vertex (x, y) to
    (h-x, h-x-d+y); an involution swapping d and h-d."""
    return NewtonPolygon([(np.h - x, np.c - x + y) for x, y in reversed(np.vertices)])


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


def _diamond_columns(np, last):
    """The columns x = 1..last of the diamond region, as ranges of y: from
    ceil(ys[x]/L) = -(-ys[x] // L) up to min(d, x) - 1, empty when none."""
    L, ys = np.heights()
    return [range(-(-ys[x] // L), min(np.d, x)) for x in range(1, last + 1)]


def np_diamond(np):
    """Lattice points (x,y) with y < d, y < x, lying on or above the polygon."""
    return {(x, y) for x, col in enumerate(_diamond_columns(np, np.h), 1) for y in col}


def _diamond_size(np, last):
    """How many points of the diamond region lie at x <= last."""
    return sum(map(len, _diamond_columns(np, last)))


def np_dim(np):
    """Dimension of the (unpolarized) stratum attached to the polygon: the
    size of `np_diamond`, counted from the height column."""
    return _diamond_size(np, np.h)


def _check_triangle(np):
    if np.h != 2 * np.d:
        raise InputError("triangle region needs a symmetric polygon (h = 2d)")
    if not np.is_symmetric():
        raise InputError("polygon is not symmetric")


def np_triangle(np):
    """Like the diamond region but clipped to x <= g for symmetric polygons."""
    _check_triangle(np)
    return {(x, y) for x, col in enumerate(_diamond_columns(np, np.d), 1) for y in col}


def np_sdim(np):
    """Dimension of the principally polarized stratum of a symmetric
    polygon: the size of `np_triangle`, counted from the height column."""
    _check_triangle(np)
    return _diamond_size(np, np.d)


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
        self.vertices = tuple(_lower_hull(self.points))
        self.infinite_multiplicity = degree - self.vertices[-1][0]

    def slopes(self):
        """Finite root valuations, one per unit x-span, non-decreasing."""
        return _slopes(self.vertices)

    def scaled(self, denom):
        """Slope multiset divided by `denom` (e.g. v(q) normalization)."""
        return [s / denom for s in self.slopes()]

    def to_newton_polygon(self):
        if self.infinite_multiplicity:
            raise InputError("polygon has infinite slopes")
        if any(not 0 <= rise <= span for rise, span in _segments(self.vertices)):
            raise InputError("slopes leave [0,1]; not a group polygon")
        return NewtonPolygon(self.vertices)

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
    roots of g in non-decreasing order.  Int coefficients stay ints; any
    other coefficient is read as a `Fraction`.
    """
    coeffs = [c if isinstance(c, int) else Fraction(c) for c in coefficients]
    if not coeffs or coeffs[0] != 1:
        raise InputError("polynomial must be monic (leading coefficient 1 first)")
    require_prime(p)
    h = len(coeffs) - 1
    if h < 1:
        raise InputError("degree must be at least 1")
    points = [(j, vp(c, p) if isinstance(c, int) else vp(c.numerator, p) - vp(c.denominator, p)) for j, c in enumerate(coeffs) if c]
    return ValuationPolygon(h, points)


def np_from_json(obj):
    """Accepts {"pairs": [[m,n],...]} or {"slopes": ["a/b",...]}."""
    if "pairs" in obj:
        return np_from_pairs(obj["pairs"])
    if "slopes" in obj:
        return np_from_slopes(obj["slopes"])
    raise InputError("polygon JSON needs a 'pairs' or 'slopes' key")
