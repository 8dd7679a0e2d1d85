"""The poset of Newton polygons with fixed endpoints.

Elements are enumerated as integer vertex paths (strictly increasing
segment slopes in [0,1], integral breakpoints), the polygons' own format,
with no `Fraction` anywhere; the order is the exact pointwise comparison,
with the isoclinic polygon at the bottom and the ordinary polygon on top.
Each element's strict up-set is a Python-int bitset, read off the
polygons' integer height vectors; covers are the transitive reduction
(Aho, Garey and Ullman, SIAM J. Comput. 1972).  The poset is ranked
(checked, not assumed) and the rank offsets reproduce the lattice-point
dimension formulas.
"""

from itertools import groupby
from math import lcm

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
    "specialization_witness",
    "dot_export",
]

# The number of polygons grows exponentially with h.  On a 2-vCPU Xeon a
# CLI call at (18, 9), 1,882 elements, takes about 1 s; (20, 10), 3,959
# elements, takes 2.5 s and (22, 11) 14 s.
MAX_POSET_HEIGHT = 18


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


def enumerate_polygons(h, d, symmetric=False):
    """All Newton polygons from (0,0) to (h,d), by breakpoint recursion,
    sorted by slope list."""
    check_endpoints(h, d, symmetric)
    out = []

    def extend(path, last_rise, last_span):
        # slopes compare by cross-multiplying (rise, span) pairs
        x, y = path[-1]
        if x == h:
            if y == d:
                out.append(NewtonPolygon(path))
            return
        for x2 in range(x + 1, h + 1):
            span = x2 - x
            for y2 in range(y, min(d, y + span) + 1):
                rise = y2 - y
                # strict increase keeps breakpoints genuine: a polygon with
                # a long constant-slope stretch is produced in one step only
                if rise * last_span <= last_rise * span:
                    continue
                extend(path + [(x2, y2)], rise, span)

    extend([(0, 0)], -1, 1)
    polys = [z for z in out if not symmetric or z.is_symmetric()]
    # slope lists compare as the height vectors at one denominator: both
    # are decided at the first unit step where the slopes differ
    L = lcm(*range(1, h + 1))
    return sorted(polys, key=lambda z: [y * (L // z.heights()[0]) for y in z.heights()[1]])


def isoclinic_polygon(h, d):
    """The isoclinic polygon (straight line) from (0,0) to (h,d)."""
    return NewtonPolygon([(0, 0), (h, d)])


def ordinary_polygon(h, d):
    """The ordinary polygon d*(1,0) + (h-d)*(0,1)."""
    return np_from_pairs([(1, 0)] * d + [(0, 1)] * (h - d))


def _bits(mask):
    """Indices of the set bits of `mask`, increasing."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_sets(polygons):
    """Bit j of up[i] is set when polygon i lies on or above polygon j at
    every abscissa and i != j (for distinct polygons: i < j).

    The height vectors are brought to one denominator; then, abscissa by
    abscissa, each polygon keeps only the polygons at most as high there.
    """
    n = len(polygons)
    L = lcm(*(z.heights()[0] for z in polygons))
    columns = zip(*([y * (L // Lz) for y in ys] for Lz, ys in (z.heights() for z in polygons)))
    up = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    for col in columns:
        lower = 0
        for _, group in groupby(sorted(range(n), key=col.__getitem__), key=col.__getitem__):
            group = list(group)
            for i in group:
                lower |= 1 << i
            for i in group:
                up[i] &= lower
    return up


class NPPoset:
    """Poset of all polygons with endpoints (h,d); optionally the
    symmetric sub-poset.  `covers[i]` lists, increasing, the indices
    covering element i."""

    def __init__(self, h, d, symmetric=False):
        self.h, self.d, self.symmetric = h, d, symmetric
        self.elements = enumerate_polygons(h, d, symmetric)
        self._index = {z: i for i, z in enumerate(self.elements)}
        self._up = up = _up_sets(self.elements)
        # j covers i when nothing above i lies below j
        covers = []
        for mask in up:
            above = 0
            for k in _bits(mask):
                above |= up[k]
            covers.append(list(_bits(mask & ~above)))
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
            raise InputError("polygon %s not in this poset" % render_pairs(np.pairs()))
        return i

    def bottom(self):
        """The isoclinic polygon, the unique minimum."""
        return isoclinic_polygon(self.h, self.d)

    def top(self):
        """The ordinary polygon, the unique maximum."""
        return ordinary_polygon(self.h, self.d)


def poset_build(h, d, symmetric=False):
    return NPPoset(h, d, symmetric)


def longest_chain(poset, frm, to):
    """A maximal chain from `frm` up to `to`; in a ranked poset its length
    is rank(to) - rank(frm).  Raises on incomparable endpoints."""
    i, j = poset.index_of(frm), poset.index_of(to)
    if i == j:
        return [poset.elements[i]]
    if not poset.less(i, j):
        raise InputError("endpoints are incomparable (or given in the wrong order)")
    # longest path in the cover DAG restricted to the interval [frm, to]
    best = {i: [i]}
    order = sorted(range(len(poset.elements)), key=lambda k: poset.ranks[k])
    for k in order:
        if k not in best:
            continue
        for nxt in poset.covers[k]:
            if nxt == j or poset.less(nxt, j):
                cand = best[k] + [nxt]
                if nxt not in best or len(cand) > len(best[nxt]):
                    best[nxt] = cand
    return [poset.elements[k] for k in best[j]]


def specialization_witness(beta, gamma):
    """A saturated chain from gamma down to beta in the full poset of
    their common endpoints: the combinatorial shadow of specializing a
    generic fiber of polygon gamma to a special fiber of polygon beta.

    Requires beta < gamma (beta on-or-above gamma).
    """
    if (beta.h, beta.d) != (gamma.h, gamma.d):
        raise InputError("polygons must share endpoints")
    if not np_precedes(beta, gamma):
        raise InputError("need beta preceding gamma (beta on-or-above gamma)")
    poset = poset_build(beta.h, beta.d, symmetric=False)
    chain = longest_chain(poset, beta, gamma)
    return list(reversed(chain))


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
