"""The poset of Newton polygons with fixed endpoints.

Elements are enumerated by breakpoint lattice paths (strictly increasing
segment slopes in [0,1], integral breakpoints); the order is the exact
pointwise comparison, with the isoclinic polygon at the bottom and the
ordinary polygon on top.  Covers are the transitive reduction; the poset
is ranked (checked, not assumed) and the rank offsets reproduce the
lattice-point dimension formulas.
"""

from fractions import Fraction
from math import gcd

from .errors import InputError
from .newton import (
    NewtonPolygon,
    np_from_pairs,
    np_precedes,
    render_pairs,
)

__all__ = [
    "NPPoset",
    "poset_build",
    "enumerate_polygons",
    "longest_chain",
    "specialization_witness",
    "dot_export",
]


def enumerate_polygons(h, d, symmetric=False):
    """All Newton polygons from (0,0) to (h,d), by breakpoint recursion."""
    if not (0 <= d <= h):
        raise InputError("need 0 <= d <= h")
    if symmetric and h != 2 * d:
        raise InputError("symmetric flag needs h = 2d")
    out = []

    def extend(x, y, last_slope, runs):
        if x == h:
            if y == d:
                out.append(NewtonPolygon(runs))
            return
        for x2 in range(x + 1, h + 1):
            span = x2 - x
            for y2 in range(y, d + 1):
                rise = y2 - y
                slope = Fraction(rise, span)
                # strict increase keeps breakpoints genuine: a polygon with
                # a long constant-slope stretch is produced in one step only
                if slope > 1 or (last_slope is not None and slope <= last_slope):
                    continue
                extend(x2, y2, slope, runs + [(slope, span)])

    if h == 0:
        raise InputError("height must be positive")
    extend(0, 0, None, [])
    polys = [z for z in out if not symmetric or z.is_symmetric()]
    return sorted(polys, key=lambda z: z.slopes())


class NPPoset:
    """Poset of all polygons with endpoints (h,d); optionally the
    symmetric sub-poset.  `covers[i]` lists indices covering element i."""

    def __init__(self, h, d, symmetric=False):
        self.h, self.d, self.symmetric = h, d, symmetric
        self.elements = enumerate_polygons(h, d, symmetric)
        n = len(self.elements)
        less = [[False] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if i != j and np_precedes(a, b, strict=True):
                    less[i][j] = True
        self._less = less
        covers = [[] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                    covers[i].append(j)
        self.covers = covers
        self.ranks = self._compute_ranks()

    def _compute_ranks(self):
        n = len(self.elements)
        indeg = [0] * n
        for i in range(n):
            for j in self.covers[i]:
                indeg[j] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        ranks = [0] * n
        idx = 0
        while idx < len(order):
            i = order[idx]
            idx += 1
            for j in self.covers[i]:
                ranks[j] = max(ranks[j], ranks[i] + 1)
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
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
        for i, z in enumerate(self.elements):
            if z == np:
                return i
        raise InputError("polygon %s not in this poset" % render_pairs(np.pairs()))

    def bottom(self):
        """The isoclinic polygon (straight line), the unique minimum."""
        g = gcd(self.h, self.d)
        m, n = self.d // g, (self.h - self.d) // g
        return np_from_pairs([(m, n)] * g)

    def top(self):
        """The ordinary polygon d*(1,0) + c*(0,1), the unique maximum."""
        return np_from_pairs([(1, 0)] * self.d + [(0, 1)] * (self.h - self.d))


def poset_build(h, d, symmetric=False):
    return NPPoset(h, d, symmetric)


def longest_chain(poset, frm, to):
    """A maximal chain from `frm` up to `to`; in a ranked poset its length
    is rank(to) - rank(frm).  Raises on incomparable endpoints."""
    i, j = poset.index_of(frm), poset.index_of(to)
    if i == j:
        return [poset.elements[i]]
    if not poset._less[i][j]:
        raise InputError("endpoints are incomparable (or given in the wrong order)")
    # longest path in the cover DAG restricted to the interval [frm, to]
    best = {i: [i]}
    order = sorted(range(len(poset.elements)), key=lambda k: poset.ranks[k])
    for k in order:
        if k not in best:
            continue
        for nxt in poset.covers[k]:
            if nxt == j or poset._less[nxt][j]:
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
