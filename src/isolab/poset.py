"""The poset of Newton polygons with fixed endpoints.

Elements are enumerated as integer vertex paths (strictly increasing
segment slopes in [0,1], integral breakpoints), the polygons' own format,
in slope-list order and with no `Fraction` anywhere; the order is the
exact pointwise comparison, with the isoclinic polygon at the bottom and
the ordinary polygon on top.  The walk steps through a move table that
lists, per remaining width, the edges that fit, so it visits no edge it
cannot take; a symmetric poset walks half-paths and mirrors them.  Each
path carries its heights on one scale, L = lcm(1..h), as the polygon's
`heights()`; each element's strict up-set is a Python-int bitset, built
per abscissa from one mask per height and a prefix OR; covers are the
transitive reduction (Aho, Garey and Ullman, SIAM J. Comput. 1972).  The
poset is ranked (checked, not assumed) and the rank offsets reproduce the
lattice-point dimension formulas.  Chains and witnesses build no poset:
they enumerate the interval between their ends and walk its height
columns, since a specialization runs along any saturated chain of that
interval (Oort, Ann. of Math. 152, 2000).
"""

from bisect import bisect_left, bisect_right
from functools import cache
from math import lcm
from operator import ge, le

from .errors import InputError
from .newton import (
    NewtonPolygon,
    np_from_pairs,
    np_precedes,
    render_pairs,
)

__all__ = [
    "MAX_POSET_HEIGHT",
    "NPPoset",
    "poset_build",
    "check_endpoints",
    "enumerate_polygons",
    "isoclinic_polygon",
    "ordinary_polygon",
    "longest_chain",
    "interval_chain",
    "specialization_witness",
    "dot_export",
]

# The number of polygons grows exponentially with h, about doubling with
# each step of 2, and d = h/2 has the most.  On a 2-vCPU Xeon, in a fresh
# process, `poset build` and `dot` at (h, h/2) each take 0.14-0.24 s and
# 19-21 MiB at h = 18 (1,882 elements), 0.22-0.40 s and 24-28 MiB at 20,
# 0.43-0.69 s and 37-47 MiB at 22 (8,179 elements), 0.55-1.1 s and
# 50-66 MiB at 23, and 1.1-1.8 s and 77-93 MiB at 24 (16,636 elements);
# three runs each.  `chain` and `witness` from iso to ord build no poset:
# 0.12-0.16 s and 18 MiB at 18, 0.13-0.16 s and 20 MiB at 20, 0.17-0.18 s
# and 24 MiB at 22; median of five runs.
MAX_POSET_HEIGHT = 22


def check_endpoints(h, d, symmetric=False):
    """Refuse endpoints (h,d) that name no poset, or too large a one."""
    if not (0 <= d <= h):
        raise InputError("need 0 <= d <= h")
    if symmetric and h != 2 * d:
        raise InputError("symmetric flag needs h = 2d")
    if h == 0:
        raise InputError("height must be positive")
    if h > MAX_POSET_HEIGHT:
        raise InputError("poset height %d exceeds the cap of %d" % (h, MAX_POSET_HEIGHT))


@cache
def _edges(h, d):
    """Every edge (rise, span, step, after) that a polygon to (h,d) can
    have, by increasing slope rise/span, the longer edge first among equal
    slopes: step = rise * (L // span) is L = lcm(1..h) times the slope and
    `after` the index of the first steeper edge; and the move table, which
    `_moves` fills for each remaining width the walk reaches.  Endpoints
    are checked first, so there are at most 23 * 23 keys."""
    L = lcm(*range(1, h + 1))
    edges = [(rise, span, rise * (L // span)) for span in range(1, h + 1) for rise in range(min(span, d) + 1) if span - rise <= h - d]
    edges.sort(key=lambda e: (e[2], -e[1]))
    slopes = [step for _, _, step in edges]
    return L, tuple(e + (bisect_right(slopes, e[2]),) for e in edges), {}


def _moves(edges, dx, dy):
    """The edges that fit the remaining width (dx, dy), in slope order,
    with their indices: not steeper than the chord, span <= dx and
    span - rise <= dx - dy, and on the chord only to its end, so the last
    move closes the path and every other leaves a steeper edge that can."""
    indices, moves = [], []
    for k, (rise, span, _, _) in enumerate(edges):
        if rise * dx > dy * span:
            break
        if span <= dx and span - rise <= dx - dy and (span == dx or rise * dx < dy * span):
            indices.append(k)
            moves.append(edges[k])
    return indices, moves


def enumerate_polygons(h, d, symmetric=False, band=None):
    """All Newton polygons from (0,0) to (h,d), in increasing slope-list
    order.  With `band` = (lower, upper), two polygons with these
    endpoints, only the polygons on or above `lower` and on or below
    `upper` at every abscissa.

    The slope lists compare at their first difference, so a depth-first
    walk over first edges by increasing slope, the longer of two equal
    slopes first, meets the polygons in order.  Each step takes the moves
    of `_edges`' table at the remaining width, from the first edge steeper
    than the last, so without a band every branch ends in a polygon, valid
    by construction.  The walk extends and truncates one height column ys
    at L = lcm(1..h), copied into each polygon's `heights()`; the band
    test reads it (the moves above the upper bound one step on end the
    list, and the convex lower bound is met along an edge if at its end).
    A symmetric polygon mirrors its edges of slope below 1/2, which end at
    x <= g = d: ys[h-u] = ys[u] + L*(d-u).  Its walk takes the moves of
    width (2(g-x), g-x) that stop at g, closes with the last, the edge of
    slope 1/2, and tests the band on the half and on the mirrored column.
    """
    check_endpoints(h, d, symmetric)
    L, edges, table = _edges(h, d)
    if band is not None:
        # a bound's own scale divides L: every span is at most h
        lo, hi = ([y * (L // Lz) for y in ys] for Lz, ys in (z.heights() for z in band))
    out = []
    path, ys = [(0, 0)], [0]

    def mirror():
        col = ys + [ys[u] + L * (d - u) for u in range(h - len(ys), -1, -1)]
        if band is None or all(map(le, lo, col)) and all(map(le, col, hi)):
            out.append(NewtonPolygon._from_path((*path, *((h - u, d - u + v) for u, v in reversed(path) if 2 * u < h)), L, col))

    def extend(x, y, start):
        dx, dy = (h - 2 * x, d - x) if symmetric else (h - x, d - y)
        if not dx:
            return mirror()
        entry = table.get((dx, dy))
        if entry is None:
            entry = table[dx, dy] = _moves(edges, dx, dy)
        indices, moves = entry
        base = ys[-1]
        for rise, span, step, after in moves[bisect_left(indices, start):]:
            if symmetric and dy < span < dx:
                continue  # it would cross x = g
            if band is not None:
                if base + step > hi[x + 1]:
                    break
                if base + step * span < lo[x + span]:
                    continue
            ys.extend([base + step * t for t in range(1, span + 1)])
            if band is None or all(map(le, ys[x + 2:], hi[x + 2:])):
                if span < dx:
                    path.append((x + span, y + rise))
                    extend(x + span, y + rise, after)
                    path.pop()
                elif symmetric:
                    mirror()
                else:
                    out.append(NewtonPolygon._from_path((*path, (h, d)), L, ys[:]))
            del ys[x + 1:]

    extend(0, 0, 0)
    return out


def isoclinic_polygon(h, d):
    """The isoclinic polygon (straight line) from (0,0) to (h,d)."""
    return NewtonPolygon([(0, 0), (h, d)])


def ordinary_polygon(h, d):
    """The ordinary polygon d*(1,0) + (h-d)*(0,1)."""
    return np_from_pairs([(1, 0)] * d + [(0, 1)] * (h - d))


def _up_sets(polygons):
    """Bit j of up[i] is set when polygon i lies on or above polygon j at
    every abscissa and i != j (for distinct polygons: i < j).

    The height columns share one scale, as `enumerate_polygons` gives
    them; at each abscissa a polygon keeps the polygons at most as high,
    the OR of the masks of the heights up to its own.
    """
    n = len(polygons)
    up = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    # every polygon has height 0 at x = 0 and L*d at x = h
    for col in zip(*(z.heights()[1][1:-1] for z in polygons)):
        masks = {}
        for i, y in enumerate(col):
            masks[y] = masks.get(y, 0) | 1 << i
        lower = 0
        for y in sorted(masks):
            lower = masks[y] = lower | masks[y]
        for i, y in enumerate(col):
            up[i] &= masks[y]
    return up


def _not_in_poset(np):
    return InputError("polygon %s not in this poset" % render_pairs(np.pairs()))


_INCOMPARABLE = "endpoints are incomparable (or given in the wrong order)"


class NPPoset:
    """Poset of all polygons with endpoints (h,d); optionally the
    symmetric sub-poset.  `covers[i]` lists, increasing, the indices
    covering element i."""

    def __init__(self, h, d, symmetric=False):
        self.h, self.d, self.symmetric = h, d, symmetric
        self.elements = enumerate_polygons(h, d, symmetric)
        self._index = {z: i for i, z in enumerate(self.elements)}
        self._up = up = _up_sets(self.elements)
        # j covers i when nothing above i lies below j.  A polygon lying
        # higher has the larger index, so the largest index left in up[i]
        # is minimal there, a cover; no other cover lies above it, so its
        # up-set leaves the mask with it.
        covers = []
        for rest in up:
            found = []
            while rest:
                k = rest.bit_length() - 1
                found.append(k)
                rest &= ~(up[k] | 1 << k)
            covers.append(found[::-1])
        self.covers = covers
        self.ranks = self._compute_ranks()

    def less(self, i, j):
        """Element i strictly precedes element j."""
        return bool(self._up[i] >> j & 1)

    def _compute_ranks(self):
        """Longest cover paths up from the minimal elements.  A polygon on
        or above another has the larger slope list and index, so one pass
        over descending indices meets each element after all below it."""
        ranks = [0] * len(self.elements)
        for i in reversed(range(len(ranks))):
            for j in self.covers[i]:
                ranks[j] = max(ranks[j], ranks[i] + 1)
        return ranks

    def is_ranked(self):
        """Every cover steps the rank by exactly one; with ranks taken as
        longest paths from the bottom this is equivalent to all maximal
        chains between two comparable elements having equal length."""
        return all(
            self.ranks[j] == self.ranks[i] + 1
            for i in range(len(self.elements))
            for j in self.covers[i]
        )

    def index_of(self, np):
        i = self._index.get(np)
        if i is None:
            raise _not_in_poset(np)
        return i

    def bottom(self):
        """The unique minimum, the isoclinic polygon: it lies highest, so
        its slope list comes last."""
        return self.elements[-1]

    def top(self):
        """The unique maximum, the ordinary polygon."""
        return self.elements[0]


def poset_build(h, d, symmetric=False):
    return NPPoset(h, d, symmetric)


def longest_chain(poset, frm, to):
    """A maximal chain from `frm` up to `to`; in a ranked poset its length
    is rank(to) - rank(frm).  Raises on incomparable endpoints."""
    i, j = poset.index_of(frm), poset.index_of(to)
    if i == j:
        return [poset.elements[i]]
    if not poset.less(i, j):
        raise InputError(_INCOMPARABLE)
    # a walk down from `to`: each step takes the lower cover inside [frm, to]
    # with the least index.  A polygon lying higher has the larger index, so
    # the least index m > k below k and inside is a cover of k (an element
    # between them would have a smaller index), and frm, lying highest, has
    # the largest index i.  In a ranked poset this is the chain a
    # longest-path relaxation in (rank, index) order keeps.
    chain = [j]
    while chain[-1] != i:
        k = chain[-1]
        chain.append(next(m for m in range(k + 1, i + 1) if poset.less(m, k) and (m == i or poset.less(i, m))))
    return [poset.elements[k] for k in reversed(chain)]


def interval_chain(h, d, frm, to, symmetric=False):
    """`longest_chain(NPPoset(h, d, symmetric), frm, to)` with no poset
    built: the ends are checked first, then the interval [frm, to] alone is
    enumerated, `to` first and `frm` last, and walked as `longest_chain`
    walks it, each step testing height columns in place of covers."""
    for z in (frm, to):
        if (z.h, z.d) != (h, d) or symmetric and not z.is_symmetric():
            raise _not_in_poset(z)
    if not np_precedes(frm, to):
        raise InputError(_INCOMPARABLE)
    return _walk_interval(h, d, frm, to, symmetric)


def _walk_interval(h, d, frm, to, symmetric):  # `interval_chain` on checked ends
    interval = enumerate_polygons(h, d, symmetric, band=(to, frm))
    columns = [z.heights()[1] for z in interval]
    chain = [0]
    while chain[-1] != len(interval) - 1:
        k = chain[-1]
        chain.append(next(m for m in range(k + 1, len(interval)) if all(map(ge, columns[m], columns[k]))))
    return [interval[k] for k in reversed(chain)]


def specialization_witness(beta, gamma, symmetric=False):
    """A saturated chain from gamma down to beta in the full poset of
    their common endpoints (with `symmetric`, the symmetric poset): the
    combinatorial shadow of specializing a generic fiber of polygon gamma
    to a special fiber of polygon beta.  Only the interval [beta, gamma]
    is walked; a saturated chain between its ends runs inside it.

    Requires beta < gamma (beta on-or-above gamma).
    """
    if (beta.h, beta.d) != (gamma.h, gamma.d):
        raise InputError("polygons must share endpoints")
    if not np_precedes(beta, gamma):
        raise InputError("need beta preceding gamma (beta on-or-above gamma)")
    for z in (beta, gamma) if symmetric else ():
        if not z.is_symmetric():
            raise _not_in_poset(z)
    return _walk_interval(beta.h, beta.d, beta, gamma, symmetric)[::-1]


def dot_export(poset):
    """Deterministic DOT digraph: nodes labeled by canonical decomposition
    and rank, edges the covering relations, bottom-up emission order."""
    names = [render_pairs(z.pairs()) for z in poset.elements]
    order = sorted(range(len(names)), key=lambda i: (poset.ranks[i], names[i]))
    lines = ["digraph newton_poset {"]
    lines.append('  rankdir="BT";')
    for i in order:
        lines.append('  "%s" [label="%s\\nrank=%d"];' % (names[i], names[i], poset.ranks[i]))
    for i in order:
        for j in sorted(poset.covers[i], key=lambda j: names[j]):
            lines.append('  "%s" -> "%s";' % (names[i], names[j]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset):
    return {
        "h": poset.h,
        "d": poset.d,
        "symmetric": poset.symmetric,
        "elements": [[list(p) for p in z.pairs()] for z in poset.elements],
        "covers": [[i, j] for i in range(len(poset.elements)) for j in poset.covers[i]],
        "ranks": list(poset.ranks),
    }
