"""Newton polygon posets: enumeration, covers, rank, chains, export."""

import fractions
import hashlib
import json
import re
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import lcm

import pytest

from isolab import poset
from isolab.errors import InputError
from isolab.newton import (
    Comparison,
    NewtonPolygon,
    np_compare,
    np_dim,
    np_dual,
    np_from_pairs,
    np_precedes,
    np_sdim,
    render_pairs,
)
from isolab.poset import (
    MAX_POSET_HEIGHT,
    NPPoset,
    check_endpoints,
    dot_export,
    enumerate_polygons,
    isoclinic_polygon,
    longest_chain,
    ordinary_polygon,
    poset_build,
    poset_to_json,
    specialization_witness,
)


def oracle_elements(h, d, symmetric):
    polys = [z for z in oracle_enumerate(h, d) if not symmetric or z.is_symmetric()]
    return sorted(polys, key=lambda z: z.slopes())


def oracle_breakpoint_dfs(h, d, symmetric):
    """Every path of strictly steeper edges from (0,0), by breakpoint
    recursion, kept when it ends at (h,d); then sorted by height vector at
    one denominator, which orders slope lists."""
    out = []

    def extend(path, last_rise, last_span):
        x, y = path[-1]
        if x == h:
            if y == d:
                out.append(NewtonPolygon(path))
            return
        for x2 in range(x + 1, h + 1):
            span = x2 - x
            for y2 in range(y, min(d, y + span) + 1):
                rise = y2 - y
                if rise * last_span > last_rise * span:
                    extend(path + [(x2, y2)], rise, span)

    extend([(0, 0)], -1, 1)
    polys = [z for z in out if not symmetric or z.is_symmetric()]
    L = lcm(*range(1, h + 1))
    return sorted(polys, key=lambda z: [y * (L // z.heights()[0]) for y in z.heights()[1]])


def oracle_enumerate_polygons(h, d, symmetric=False, band=None):
    """The slope-order walk over vertex paths alone: each polygon's heights
    are its own, at the least common denominator, the band is brought to
    one denominator per call, and symmetry is tested on each candidate."""
    check_endpoints(h, d, symmetric)
    if band is not None:
        (L1, lo), (L2, hi) = (z.heights() for z in band)
        L = lcm(L1, L2)
        lo, hi = [y * (L // L1) for y in lo], [y * (L // L2) for y in hi]
    M = lcm(*range(1, h + 1))
    edges = [(rise, span) for span in range(1, h + 1) for rise in range(min(span, d) + 1) if span - rise <= h - d]
    edges.sort(key=lambda e: (e[0] * (M // e[1]), -e[1]))
    slopes = [rise * (M // span) for rise, span in edges]
    after = [bisect_right(slopes, s) for s in slopes]
    out = []

    def extend(path, start):
        x, y = path[-1]
        dx, dy = h - x, d - y
        for k in range(start, len(edges)):
            rise, span = edges[k]
            if rise * dx > dy * span:
                break
            if span > dx or span - rise > dx - dy:
                continue
            if band is not None and not all(
                span * lo[x + t] <= L * (span * y + rise * t) <= span * hi[x + t] for t in range(1, span + 1)
            ):
                continue
            if rise * dx < dy * span:
                extend(path + [(x + span, y + rise)], after[k])
            elif span == dx:
                z = NewtonPolygon(path + [(h, d)])
                if not symmetric or z.is_symmetric():
                    out.append(z)

    extend([(0, 0)], 0)
    return out


def oracle_up_sets(polygons):
    """Up-sets from height vectors rescaled to one denominator, each column
    sorted and grouped by height."""
    n = len(polygons)
    L = lcm(*(z.heights()[0] for z in polygons))
    columns = zip(*([y * (L // Lz) for y in ys[1:-1]] for Lz, ys in (z.heights() for z in polygons)))
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


def oracle_longest_chain(P, i, j):
    """Longest cover path from element i to element j over the whole poset,
    relaxed in (rank, index) order: the chain every interval must reproduce."""
    best = {i: [i]}
    for k in sorted(range(len(P.elements)), key=lambda k: P.ranks[k]):
        if k not in best:
            continue
        for nxt in P.covers[k]:
            if nxt == j or P.less(nxt, j):
                cand = best[k] + [nxt]
                if nxt not in best or len(cand) > len(best[nxt]):
                    best[nxt] = cand
    return [P.elements[k] for k in best[j]]


def oracle_compare(a, b):
    """Pointwise comparison by `Fraction` heights at the integer abscissas."""
    if (a.h, a.d) != (b.h, b.d):
        return Comparison.DIFFERENT_ENDPOINTS
    below = above = False
    for x in range(a.h + 1):
        va, vb = a.value(x), b.value(x)
        if va < vb:
            below = True
        elif va > vb:
            above = True
    if not below and not above:
        return Comparison.EQUAL
    if not above:
        return Comparison.A_BELOW_B
    if not below:
        return Comparison.A_ABOVE_B
    return Comparison.INCOMPARABLE


def oracle_order_and_covers(elements):
    """Strict order by `Fraction` heights at the integer abscissas (a < b:
    a on or above b, a != b), covers by the triple loop."""
    n = len(elements)
    rows = [[z.value(x) for x in range(z.h + 1)] for z in elements]
    less = [[ra != rb and all(u >= v for u, v in zip(ra, rb)) for rb in rows] for ra in rows]
    covers = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                covers[i].append(j)
    return less, covers


def oracle_ranks(covers):
    """Longest path from a minimal element, by relaxing until nothing moves."""
    ranks = [0] * len(covers)
    moved = True
    while moved:
        moved = False
        for i, above in enumerate(covers):
            for j in above:
                if ranks[j] < ranks[i] + 1:
                    ranks[j], moved = ranks[i] + 1, True
    return ranks


def oracle_enumerate(h, d):
    """Independent enumeration: multisets of coprime pairs with multiplicity,
    chosen in strictly increasing slope order."""
    from math import gcd as _gcd

    pairs = sorted(
        {
            (m, n)
            for m in range(h + 1)
            for n in range(h + 1)
            if (m or n) and _gcd(m, n) == 1 and m + n <= h
        },
        key=lambda mn: Fraction(mn[0], mn[0] + mn[1]),
    )

    found = set()

    def rec(idx, left_h, left_d, acc):
        if left_h == 0:
            if left_d == 0:
                found.add(tuple(sorted(acc)))
            return
        if idx == len(pairs):
            return
        m, n = pairs[idx]
        span = m + n
        k = 0
        while k * span <= left_h and k * m <= left_d:
            rec(idx + 1, left_h - k * span, left_d - k * m, acc + [(m, n)] * k)
            k += 1

    rec(0, h, d, [])
    return {np_from_pairs(list(c)) for c in found if c}


class TestEnumeration:
    def test_h2_d1(self):
        polys = enumerate_polygons(2, 1)
        assert len(polys) == 2

    def test_matches_pair_multiset_oracle(self):
        for h in range(1, 8):
            for d in range(h + 1):
                assert set(enumerate_polygons(h, d)) == oracle_enumerate(h, d)

    def test_slope_order_matches_breakpoint_dfs(self):
        shapes = [(h, d, False) for h in range(1, 15) for d in range(h + 1)] + [(2 * g, g, True) for g in range(1, 8)]
        for h, d, symmetric in shapes:
            assert enumerate_polygons(h, d, symmetric) == oracle_breakpoint_dfs(h, d, symmetric), (h, d, symmetric)

    def test_height6_exercise(self):
        # all polygons of height 6 and the symmetric ones among them
        total = sum(len(enumerate_polygons(6, d)) for d in range(7))
        assert total == len({z for d in range(7) for z in enumerate_polygons(6, d)})
        sym = enumerate_polygons(6, 3, symmetric=True)
        assert all(z.is_symmetric() for z in sym)
        assert {render_pairs(z.pairs()) for z in sym} == {
            "3*(1,0)+3*(0,1)",
            "2*(1,0)+(1,1)+2*(0,1)",
            "(1,0)+2*(1,1)+(0,1)",
            "(2,1)+(1,2)",
            "3*(1,1)",
        }

    def test_symmetric_flag_validation(self):
        with pytest.raises(InputError):
            enumerate_polygons(5, 2, symmetric=True)

    def test_every_move_but_the_last_leaves_a_closing_edge(self):
        # no branch of the walk dies: the last move at a width closes the
        # path, every other stays strictly below the chord and short of x = h
        for h in range(1, 11):
            for d in range(h + 1):
                enumerate_polygons(h, d)
                _, edges, table = poset._edges(h, d)
                assert table
                for (dx, dy), (indices, moves) in table.items():
                    assert indices == sorted(indices) and moves == [edges[k] for k in indices]
                    assert moves[-1][:2] == (dy, dx)
                    for rise, span, _, _ in moves[:-1]:
                        assert rise * dx < dy * span and span < dx and span - rise <= dx - dy


class TestPosetStructure:
    def test_h2d1_hasse(self):
        P = poset_build(2, 1)
        assert len(P.elements) == 2
        assert sum(len(c) for c in P.covers) == 1

    def test_bottom_top(self):
        P = poset_build(7, 3)
        assert P.bottom() == np_from_pairs([(3, 4)])
        assert P.top() == np_from_pairs([(1, 0)] * 3 + [(0, 1)] * 4)
        bi, ti = P.index_of(P.bottom()), P.index_of(P.top())
        assert P.ranks[bi] == 0
        assert P.ranks[ti] == max(P.ranks)

    def test_transitive_reduction(self):
        P = poset_build(6, 3)
        n = len(P.elements)
        for i in range(n):
            for j in P.covers[i]:
                assert np_precedes(P.elements[i], P.elements[j], strict=True)
                # no intermediate element
                for k in range(n):
                    if k in (i, j):
                        continue
                    assert not (
                        np_precedes(P.elements[i], P.elements[k], strict=True)
                        and np_precedes(P.elements[k], P.elements[j], strict=True)
                    )

    def test_ranked_exhaustive(self):
        for h in range(1, 9):
            for d in range(h + 1):
                assert poset_build(h, d).is_ranked()
        for g in range(1, 6):
            assert poset_build(2 * g, g, symmetric=True).is_ranked()

    def test_rank_is_diamond_offset(self):
        for h in range(1, 9):
            for d in range(h + 1):
                P = poset_build(h, d)
                base = np_dim(P.bottom())
                broot = P.ranks[P.index_of(P.bottom())]
                for i, z in enumerate(P.elements):
                    assert P.ranks[i] - broot == np_dim(z) - base

    def test_rank_is_triangle_offset_symmetric(self):
        for g in range(1, 6):
            P = poset_build(2 * g, g, symmetric=True)
            base = np_sdim(P.bottom())
            for i, z in enumerate(P.elements):
                assert P.ranks[i] == np_sdim(z) - base

    def test_all_maximal_chains_equal_length(self):
        # brute-force chain enumeration oracle on (6,3)
        P = poset_build(6, 3)
        n = len(P.elements)

        def chains(i, j):
            if i == j:
                return [[i]]
            out = []
            for k in P.covers[i]:
                if k == j or P.less(k, j):
                    out.extend([[i] + c for c in chains(k, j)])
            return out

        for i in range(n):
            for j in range(n):
                if P.less(i, j):
                    lengths = {len(c) for c in chains(i, j)}
                    assert len(lengths) == 1

    def test_dual_gives_order_isomorphism(self):
        for (h, d) in ((5, 2), (6, 2), (7, 3)):
            P = poset_build(h, d)
            Q = poset_build(h, h - d)
            assert len(P.elements) == len(Q.elements)
            for a in P.elements:
                for b in P.elements:
                    assert np_precedes(a, b) == np_precedes(np_dual(a), np_dual(b))

    def test_symmetric_g3_example(self):
        P = poset_build(6, 3, symmetric=True)
        sigma = np_from_pairs([(1, 1)] * 3)
        xi2 = np_from_pairs([(2, 1), (1, 2)])
        assert np_precedes(sigma, xi2, strict=True)
        assert {render_pairs(z.pairs()) for z in P.elements} >= {"3*(1,1)", "(2,1)+(1,2)"}


class TestOracles:
    @pytest.mark.parametrize(
        "h, d, symmetric",
        [(h, d, False) for h in range(1, 11) for d in range(h + 1)] + [(2 * g, g, True) for g in range(1, 6)],
    )
    def test_order_covers_ranks_match_oracle(self, h, d, symmetric):
        P = poset_build(h, d, symmetric)
        assert P.elements == oracle_elements(h, d, symmetric)
        less, covers = oracle_order_and_covers(P.elements)
        n = len(P.elements)
        assert [[P.less(i, j) for j in range(n)] for i in range(n)] == less
        assert P.covers == covers
        assert P.ranks == oracle_ranks(covers)

    def test_builds_make_no_fraction(self, monkeypatch):
        # polygons travel from enumeration to covers and chains as integer
        # vertex paths; a Fraction made on the way means a format slipped back
        made = []
        original = fractions.Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counting)
        Fraction(1, 2)
        assert made == [(1, 2)]  # the patch sees every construction
        made.clear()
        poset_build(8, 4)
        poset_build(8, 4, symmetric=True)
        specialization_witness(isoclinic_polygon(8, 4), ordinary_polygon(8, 4))
        assert made == []

    @pytest.mark.parametrize("h", range(1, 8))
    def test_compare_matches_oracle(self, h):
        polys = [z for d in range(h + 1) for z in enumerate_polygons(h, d)]
        polys.append(np_from_pairs([(1, 0)] * (h + 1)))  # another height
        for a in polys:
            for b in polys:
                assert np_compare(a, b) is oracle_compare(a, b)


@cache
def exact_heights(vertices):
    """L * value(x) for x = 0..h, L = lcm(1..h), by `Fraction` heights."""
    z = NewtonPolygon(vertices)
    L = lcm(*range(1, z.h + 1))
    return [L * z.value(x) for x in range(z.h + 1)]


class TestHeightColumns:
    """The enumerator's height columns against the walk that reads each
    polygon's own heights, and the mask up-sets against sort and group."""

    @staticmethod
    def assert_matches_oracle(monkeypatch, h, d, symmetric=False, interval=None):
        P = NPPoset(h, d, symmetric, interval=interval)
        with monkeypatch.context() as patched:
            patched.setattr(poset, "enumerate_polygons", oracle_enumerate_polygons)
            patched.setattr(poset, "_up_sets", oracle_up_sets)
            Q = NPPoset(h, d, symmetric, interval=interval)
        assert P.elements == Q.elements
        assert (P._up, P.covers, P.ranks) == (Q._up, Q.covers, Q.ranks)
        for z in P.elements:
            L, ys = z.heights()
            assert L == lcm(*range(1, h + 1)) and all(type(y) is int for y in ys)
            assert ys == exact_heights(z.vertices)
            # built unchecked: the validated constructor is the oracle
            assert type(z.vertices) is tuple
            assert all(type(v) is tuple and len(v) == 2 and all(type(c) is int for c in v) for v in z.vertices)
            assert NewtonPolygon(z.vertices) == z
        return P

    @pytest.mark.parametrize("h", range(1, 13))
    def test_full_posets(self, monkeypatch, h):
        for d in range(h + 1):
            self.assert_matches_oracle(monkeypatch, h, d)

    @pytest.mark.parametrize("g", range(1, MAX_POSET_HEIGHT // 2 + 1))
    def test_symmetric_posets(self, monkeypatch, g):
        self.assert_matches_oracle(monkeypatch, 2 * g, g, symmetric=True)

    def test_after_the_move_tables_are_dropped(self, monkeypatch):
        # as in a fresh process: every width's moves are found anew
        poset._edges.cache_clear()
        for h, d in [(1, 0), (4, 2), (7, 3), (8, 4)]:
            self.assert_matches_oracle(monkeypatch, h, d)
        poset._edges.cache_clear()
        self.assert_matches_oracle(monkeypatch, 8, 4, symmetric=True)

    def test_after_bands_fill_part_of_the_move_table(self, monkeypatch):
        poset._edges.cache_clear()
        self.assert_matches_oracle(monkeypatch, 7, 4)
        full = oracle_enumerate_polygons(8, 4)
        for i, j in [(10, 8), (10, 9), (11, 5), (14, 8)]:
            self.assert_matches_oracle(monkeypatch, 8, 4, interval=(full[i], full[j]))
        table = poset._edges(8, 4)[2]
        banded = len(table)
        self.assert_matches_oracle(monkeypatch, 8, 4)
        assert 0 < banded < len(table)
        self.assert_matches_oracle(monkeypatch, 8, 4, symmetric=True)
        self.assert_matches_oracle(monkeypatch, 8, 3)

    @pytest.mark.parametrize(
        "h, d, symmetric",
        [(h, d, False) for h in range(1, 9) for d in range(h + 1)] + [(2 * g, g, True) for g in range(1, 5)],
    )
    def test_every_interval(self, monkeypatch, h, d, symmetric):
        P = NPPoset(h, d, symmetric)
        for i, a in enumerate(P.elements):
            for j, b in enumerate(P.elements):
                if i == j or P.less(i, j):
                    self.assert_matches_oracle(monkeypatch, h, d, symmetric, interval=(a, b))


class TestChains:
    def test_mn_minus_r(self):
        # (m,n) = (3,4): pure 3/7 to ordinary has length mn - r = 9
        P = poset_build(7, 3)
        chain = longest_chain(P, P.bottom(), P.top())
        assert len(chain) - 1 == 9
        for a, b in zip(chain, chain[1:]):
            assert np_precedes(a, b, strict=True)

    def test_trivial_chain(self):
        P = poset_build(4, 2)
        z = P.elements[0]
        assert longest_chain(P, z, z) == [z]

    def test_incomparable_rejected(self):
        P = poset_build(5, 2)
        a = np_from_pairs([(0, 1), (1, 1), (1, 1)])
        b = np_from_pairs([(1, 3), (1, 0)])
        with pytest.raises(InputError):
            longest_chain(P, a, b)

    def test_chain_length_is_rank_difference(self):
        P = poset_build(6, 3)
        for i, a in enumerate(P.elements):
            for j, b in enumerate(P.elements):
                if P.less(i, j):
                    chain = longest_chain(P, a, b)
                    assert len(chain) - 1 == P.ranks[j] - P.ranks[i]


class TestIntervals:
    @pytest.mark.parametrize(
        "h, d, symmetric",
        [(h, d, False) for h in range(1, 9) for d in range(h + 1)] + [(2 * g, g, True) for g in range(1, 7)],
    )
    def test_interval_matches_full_poset(self, h, d, symmetric):
        # every comparable pair: the interval's elements, its chain and the
        # witness equal what the full poset gives
        P = poset_build(h, d, symmetric)
        full = P if not symmetric else poset_build(h, d)
        n = len(P.elements)
        for i, a in enumerate(P.elements):
            for j, b in enumerate(P.elements):
                if i != j and not P.less(i, j):
                    continue
                Q = NPPoset(h, d, symmetric, interval=(a, b))
                assert Q.elements == [P.elements[k] for k in range(n) if k in (i, j) or P.less(i, k) and P.less(k, j)]
                assert (Q.bottom(), Q.top()) == (a, b)
                chain = oracle_longest_chain(P, i, j)
                assert longest_chain(Q, a, b) == longest_chain(P, a, b) == chain
                witness = oracle_longest_chain(full, full.index_of(a), full.index_of(b))[::-1]
                assert specialization_witness(a, b) == witness

    @pytest.mark.parametrize(
        "h, d, symmetric, frm, to, message",
        [
            (4, 2, False, ordinary_polygon(4, 2), isoclinic_polygon(4, 2), "endpoints are incomparable"),
            (6, 3, True, np_from_pairs([(1, 0), (1, 0), (1, 2), (0, 1)]), ordinary_polygon(6, 3), "polygon 2*(1,0)+(1,2)+(0,1) not in"),
            (4, 2, False, isoclinic_polygon(4, 2), np_from_pairs([(1, 1)]), "polygon (1,1) not in"),
        ],
    )
    def test_interval_ends_checked_before_building(self, monkeypatch, h, d, symmetric, frm, to, message):
        def refuse(*args):
            raise AssertionError("enumerated before the ends were checked")

        monkeypatch.setattr(poset, "enumerate_polygons", refuse)
        with pytest.raises(InputError, match=re.escape(message)):
            NPPoset(h, d, symmetric, interval=(frm, to))


class TestWitness:
    def test_ordinary_to_supersingular_g2(self):
        ss = np_from_pairs([(1, 1)] * 2)
        ordn = np_from_pairs([(1, 0), (1, 0), (0, 1), (0, 1)])
        chain = specialization_witness(ss, ordn)
        assert chain[0] == ordn and chain[-1] == ss
        assert len(chain) - 1 == 3  # diamond-count difference in (4,2)
        assert np_dim(ordn) - np_dim(ss) == 3

    def test_singleton(self):
        z = np_from_pairs([(1, 1)])
        assert specialization_witness(z, z) == [z]

    def test_chain_length_equals_diamond_difference(self):
        zeta = np_from_pairs([(1, 0), (1, 0), (2, 1), (1, 5)])
        iso = np_from_pairs([(5, 6)])
        assert (iso.h, iso.d) == (zeta.h, zeta.d)
        chain = specialization_witness(iso, zeta)
        assert len(chain) - 1 == np_dim(zeta) - np_dim(iso)

    def test_wrong_direction_rejected(self):
        ss = np_from_pairs([(1, 1)] * 2)
        ordn = np_from_pairs([(1, 0), (1, 0), (0, 1), (0, 1)])
        with pytest.raises(InputError):
            specialization_witness(ordn, ss)

    @pytest.mark.parametrize("g", range(1, 6))
    def test_symmetric_chain_length_is_triangle_difference(self, g):
        ss, ordn = isoclinic_polygon(2 * g, g), ordinary_polygon(2 * g, g)
        chain = specialization_witness(ss, ordn, symmetric=True)
        assert chain[0] == ordn and chain[-1] == ss
        assert all(z.is_symmetric() for z in chain)
        assert len(chain) - 1 == np_sdim(ordn) - np_sdim(ss) == g * (g + 1) // 2 - g * g // 4
        assert chain == longest_chain(poset_build(2 * g, g, symmetric=True), ss, ordn)[::-1]

    def test_symmetric_rejects_a_non_symmetric_end(self):
        beta = np_from_pairs([(2, 1), (0, 1)])
        assert specialization_witness(beta, ordinary_polygon(4, 2))
        with pytest.raises(InputError, match="not in this poset"):
            specialization_witness(beta, ordinary_polygon(4, 2), symmetric=True)


class TestExport:
    def test_h2d1_dot(self):
        P = poset_build(2, 1)
        dot = dot_export(P)
        assert dot.count("->") == 1
        assert '"(1,1)"' in dot and '"(1,0)+(0,1)"' in dot

    def test_byte_identical(self):
        a = dot_export(poset_build(6, 3, symmetric=True))
        b = dot_export(poset_build(6, 3, symmetric=True))
        assert a == b

    def test_symmetric_g2_golden(self):
        dot = dot_export(poset_build(4, 2, symmetric=True))
        assert dot == (
            "digraph newton_poset {\n"
            '  rankdir="BT";\n'
            '  "2*(1,1)" [label="2*(1,1)\\nrank=0"];\n'
            '  "(1,0)+(1,1)+(0,1)" [label="(1,0)+(1,1)+(0,1)\\nrank=1"];\n'
            '  "2*(1,0)+2*(0,1)" [label="2*(1,0)+2*(0,1)\\nrank=2"];\n'
            '  "2*(1,1)" -> "(1,0)+(1,1)+(0,1)";\n'
            '  "(1,0)+(1,1)+(0,1)" -> "2*(1,0)+2*(0,1)";\n'
            "}\n"
        )

    def test_no_duplicate_ids_h6(self):
        for d in range(7):
            dot = dot_export(poset_build(6, d))
            labels = [ln.split(" [")[0] for ln in dot.splitlines() if "[label=" in ln]
            assert len(labels) == len(set(labels))

    def test_pinned_digest(self):
        # JSON and DOT of every poset with h <= 10, then the symmetric ones
        digest = hashlib.sha256()
        shapes = [(h, d, False) for h in range(1, 11) for d in range(h + 1)]
        for h, d, symmetric in shapes + [(h, h // 2, True) for h in range(2, 11, 2)]:
            P = poset_build(h, d, symmetric)
            digest.update((json.dumps(poset_to_json(P), sort_keys=True) + dot_export(P)).encode())
        assert digest.hexdigest() == "fd114e762b2f8f6a1b76645404876927b8034245d1475054a3e86bba2377fe5e"

    def test_json_dump(self):
        P = poset_build(4, 2)
        data = poset_to_json(P)
        assert len(data["elements"]) == len(P.elements)
        assert all(i != j for i, j in data["covers"])
