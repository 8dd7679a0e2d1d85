"""Newton polygon core: construction, duality, order, regions, hulls."""

import random
from fractions import Fraction
from itertools import accumulate, groupby
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab.errors import InputError
from isolab.newton import (
    Comparison,
    NewtonPolygon,
    lower_convex_hull,
    np_compare,
    np_diamond,
    np_dim,
    np_dual,
    np_from_pairs,
    np_from_slopes,
    np_is_symmetric,
    np_of_polynomial,
    np_precedes,
    np_sdim,
    np_triangle,
    p_rank,
    render_pairs,
)
from isolab.poset import enumerate_polygons


def brute_hull(points):
    """Definition-chasing lower hull oracle: an input point is a vertex
    iff it is not on-or-above the chord of some pair flanking it."""
    pts = sorted(points)
    keep = []
    for i, q in enumerate(pts):
        strictly_above = False
        for a in pts:
            for b in pts:
                if a[0] < q[0] < b[0]:
                    # q strictly above chord a-b?
                    lhs = (q[1] - a[1]) * (b[0] - a[0])
                    rhs = (b[1] - a[1]) * (q[0] - a[0])
                    if lhs > rhs:
                        strictly_above = True
        if not strictly_above:
            keep.append(q)
    # drop higher duplicates per x and interior collinear points
    byx = {}
    for x, y in keep:
        if x not in byx or y < byx[x]:
            byx[x] = y
    verts = sorted(byx.items())
    out = []
    for v in verts:
        while len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            if (y2 - y1) * (v[0] - x1) >= (v[1] - y1) * (x2 - x1):
                out.pop()
            else:
                break
        out.append(v)
    return out


pair_st = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
    lambda mn: (mn != (0, 0)) and __import__("math").gcd(*mn) == 1
)
pairs_st = st.lists(pair_st, min_size=1, max_size=5)


class TestConstruction:
    def test_ordinary_elliptic(self):
        z = np_from_pairs([(1, 0), (0, 1)])
        assert z.slopes() == [0, 1]
        assert (z.h, z.d) == (2, 1)

    def test_supersingular_elliptic(self):
        z = np_from_pairs([(1, 1)])
        assert z.slopes() == [Fraction(1, 2), Fraction(1, 2)]
        assert (z.h, z.d) == (2, 1)

    def test_multiplicative(self):
        z = np_from_pairs([(1, 0)])
        assert z.slopes() == [1]
        assert (z.h, z.d) == (1, 1)

    def test_noncoprime_rejected(self):
        with pytest.raises(InputError):
            np_from_pairs([(2, 2)])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            np_from_pairs([])

    def test_zero_pair_rejected(self):
        with pytest.raises(InputError):
            np_from_pairs([(0, 0)])

    def test_breakpoints_are_lattice(self):
        z = np_from_pairs([(1, 0), (1, 0), (2, 1), (1, 5)])
        assert z.breakpoints() == [(0, 0), (6, 1), (9, 3), (11, 5)]

    def test_render_matches_worked_example(self):
        z = np_from_pairs([(1, 5), (2, 1), (1, 0), (1, 0)])
        assert render_pairs(z.pairs()) == "2*(1,0)+(2,1)+(1,5)"

    @given(pairs_st)
    def test_pairs_round_trip(self, pairs):
        z = np_from_pairs(pairs)
        again = np_from_pairs(z.pairs())
        assert again == z
        assert again.slopes() == z.slopes()

    @given(pairs_st)
    def test_slopes_round_trip(self, pairs):
        z = np_from_pairs(pairs)
        assert np_from_slopes(z.slopes()) == z


def pair_multisets(h):
    """Every multiset of coprime pairs (m,n) with the m+n summing to h."""
    pairs = [(m, k - m) for k in range(1, h + 1) for m in range(k + 1) if gcd(m, k - m) == 1]

    def rec(start, left):
        if left == 0:
            yield []
        for i in range(start, len(pairs)):
            m, n = pairs[i]
            if m + n <= left:
                for rest in rec(i, left - m - n):
                    yield [(m, n)] + rest

    return list(rec(0, h))


def check_against_slope_multiset(z, slopes):
    """Read every invariant off the bare slope multiset and compare."""
    slopes = sorted(slopes)
    h = len(slopes)
    prefix = [Fraction(0)]
    for s in slopes:
        prefix.append(prefix[-1] + s)
    assert (z.h, z.d) == (h, prefix[-1])
    assert z.slopes() == slopes

    def height(x):
        i = min(int(x), h - 1)
        return prefix[i] + slopes[i] * (x - i)

    runs = [(s, len(list(group))) for s, group in groupby(slopes)]
    ends = list(accumulate(k for _, k in runs))
    midpoints = [Fraction(a + b, 2) for a, b in zip([0] + ends, ends)]
    for x in list(range(h + 1)) + midpoints:
        assert z.value(x) == height(x)
    L = lcm(*(s.denominator for s in slopes))
    assert z.heights() == (L, [int(L * y) for y in prefix])
    assert z.pairs() == [
        (s.numerator, s.denominator - s.numerator) for s, k in reversed(runs) for _ in range(k // s.denominator)
    ]
    dual = np_dual(z)
    assert (dual.h, dual.d) == (h, h - z.d)
    assert dual.slopes() == sorted(1 - s for s in slopes)


class TestSlopeMultisetReference:
    def test_every_polygon_up_to_h8(self):
        for h in range(1, 9):
            multisets = pair_multisets(h)
            polygons = [np_from_pairs(pairs) for pairs in multisets]
            assert set(polygons) == {z for d in range(h + 1) for z in enumerate_polygons(h, d)}
            assert len(set(polygons)) == len(polygons)
            for z, pairs in zip(polygons, multisets):
                check_against_slope_multiset(z, [Fraction(m, m + n) for m, n in pairs for _ in range(m + n)])

    @given(pairs_st)
    def test_random_pairs(self, pairs):
        check_against_slope_multiset(np_from_pairs(pairs), [Fraction(m, m + n) for m, n in pairs for _ in range(m + n)])


class TestDuality:
    def test_dual_multiplicative_is_etale(self):
        assert np_dual(np_from_pairs([(1, 0)])) == np_from_pairs([(0, 1)])

    def test_half_slope_self_dual(self):
        z = np_from_pairs([(1, 1)])
        assert np_dual(z) == z

    def test_dual_swaps_d(self):
        z = np_from_pairs([(2, 1), (1, 2)])
        assert np_dual(z) == z
        assert np_dual(z).d == z.h - z.d

    @given(pairs_st)
    def test_involution(self, pairs):
        z = np_from_pairs(pairs)
        assert np_dual(np_dual(z)) == z

    def test_involution_exhaustive_h12(self):
        for d in range(13):
            for z in enumerate_polygons(12, d):
                assert np_dual(np_dual(z)) == z

    @given(pairs_st)
    def test_symmetric_iff_self_dual(self, pairs):
        z = np_from_pairs(pairs)
        assert np_is_symmetric(z) == (sorted(np_dual(z).slopes()) == sorted(z.slopes()))

    def test_symmetric_examples(self):
        assert np_is_symmetric(np_from_pairs([(1, 1), (1, 1)]))
        assert np_is_symmetric(np_from_pairs([(1, 0), (0, 1)]))
        assert not np_is_symmetric(np_from_pairs([(2, 1)]))

    def test_symmetric_forces_h_eq_2d(self):
        for h in range(1, 9):
            for d in range(h + 1):
                for z in enumerate_polygons(h, d):
                    if np_is_symmetric(z):
                        assert z.h == 2 * z.d


class TestCompare:
    def test_supersingular_below_ordinary(self):
        ss = np_from_pairs([(1, 1)] * 2)
        ordn = np_from_pairs([(1, 0), (1, 0), (0, 1), (0, 1)])
        # ordinary lies below: no point of ordinary above ss
        assert np_compare(ordn, ss) is Comparison.A_BELOW_B
        assert np_compare(ss, ordn) is Comparison.A_ABOVE_B
        assert np_precedes(ss, ordn, strict=True)

    def test_equal(self):
        z = np_from_pairs([(2, 1)])
        assert np_compare(z, np_from_pairs([(2, 1)])) is Comparison.EQUAL

    def test_h6_example(self):
        a = np_from_pairs([(2, 1), (1, 2)])
        b = np_from_pairs([(1, 1)] * 3)
        assert np_compare(a, b) is Comparison.A_BELOW_B
        assert np_compare(b, a) is Comparison.A_ABOVE_B

    def test_different_endpoints(self):
        a = np_from_pairs([(1, 0)])
        b = np_from_pairs([(0, 1)])
        assert np_compare(a, b) is Comparison.DIFFERENT_ENDPOINTS

    def test_incomparable(self):
        # genuinely crossing pair with endpoints (5,2):
        # {0,1/2,1/2,1/2,1/2} starts lower but overtakes {1/4 x4, 1}
        a = np_from_pairs([(0, 1), (1, 1), (1, 1)])
        b = np_from_pairs([(1, 3), (1, 0)])
        assert a.value(1) < b.value(1) and a.value(3) > b.value(3)
        assert np_compare(a, b) is Comparison.INCOMPARABLE

    def test_dense_sampling_oracle_h6(self):
        from math import lcm

        denom = lcm(*range(1, 7))
        for d in range(7):
            polys = enumerate_polygons(6, d)
            for a in polys:
                for b in polys:
                    below = above = False
                    for j in range(6 * denom + 1):
                        x = Fraction(j, denom)
                        va, vb = a.value(x), b.value(x)
                        below |= va < vb
                        above |= va > vb
                    want = (
                        Comparison.EQUAL
                        if not below and not above
                        else Comparison.A_BELOW_B
                        if not above
                        else Comparison.A_ABOVE_B
                        if not below
                        else Comparison.INCOMPARABLE
                    )
                    assert np_compare(a, b) is want


class TestRegions:
    def test_worked_example_dim_22(self):
        z = np_from_pairs([(1, 0), (1, 0), (2, 1), (1, 5)])
        assert np_dim(z) == 22

    def test_ordinary_rectangle(self):
        rho = np_from_pairs([(1, 0)] * 3 + [(0, 1)] * 4)
        assert np_dim(rho) == 12

    def test_pure_half_slope_zero(self):
        assert np_dim(np_from_pairs([(1, 1)])) == 0

    def test_worked_example_sdim_48(self):
        xi = np_from_pairs([(5, 1), (2, 1), (1, 1), (1, 1), (1, 2), (1, 5)])
        assert np_sdim(xi) == 48

    def test_supersingular_g1_sdim_zero(self):
        assert np_sdim(np_from_pairs([(1, 1)])) == 0

    def test_ordinary_g2_sdim(self):
        z = np_from_pairs([(1, 0), (1, 0), (0, 1), (0, 1)])
        assert np_sdim(z) == 3  # g(g+1)/2

    def test_triangle_requires_symmetric(self):
        with pytest.raises(InputError):
            np_triangle(np_from_pairs([(2, 1)]))

    @pytest.mark.parametrize(
        "pairs, message",
        [([(2, 1)], "needs a symmetric polygon"), ([(2, 1), (0, 1)], "not symmetric"), ([(1, 0), (1, 2)], "not symmetric")],
    )
    def test_sdim_errors(self, pairs, message):
        # h != 2d, then h = 2d but not symmetric: the same errors as the triangle
        z = np_from_pairs(pairs)
        for region in (np_triangle, np_sdim):
            with pytest.raises(InputError, match=message):
                region(z)

    def test_dim_counts_the_diamond(self):
        # on the enumerator's scale lcm(1..h) and on each polygon's own
        for h in range(1, 13):
            for d in range(h + 1):
                for z in enumerate_polygons(h, d):
                    assert np_dim(z) == np_dim(NewtonPolygon(z.vertices)) == len(np_diamond(z))

    def test_sdim_counts_the_triangle(self):
        for g in range(1, 9):
            for z in enumerate_polygons(2 * g, g, symmetric=True):
                assert np_sdim(z) == np_sdim(NewtonPolygon(z.vertices)) == len(np_triangle(z))

    def test_diamond_constraints(self):
        z = np_from_pairs([(1, 0), (1, 0), (2, 1), (1, 5)])
        for x, y in np_diamond(z):
            assert y < z.d and y < x
            assert Fraction(y) >= z.value(x)

    def test_order_iff_region_containment_h6(self):
        for d in range(7):
            polys = enumerate_polygons(6, d)
            regions = {z: np_diamond(z) for z in polys}
            for a in polys:
                for b in polys:
                    assert np_precedes(a, b) == (regions[a] <= regions[b])

    def test_dim_strictly_monotone_h8(self):
        for h in range(1, 9):
            for d in range(h + 1):
                polys = enumerate_polygons(h, d)
                dims = {z: np_dim(z) for z in polys}
                for a in polys:
                    for b in polys:
                        if np_precedes(a, b, strict=True):
                            assert dims[a] < dims[b]


class TestPRank:
    def test_ordinary_full_rank(self):
        for g in range(1, 5):
            z = np_from_pairs([(1, 0)] * g + [(0, 1)] * g)
            assert p_rank(z) == g

    def test_supersingular_zero(self):
        assert p_rank(np_from_pairs([(1, 1)] * 3)) == 0

    def test_zero_without_supersingular(self):
        z = np_from_pairs([(2, 1), (1, 2)])
        assert p_rank(z) == 0
        assert z.slopes() != [Fraction(1, 2)] * 6


class TestPolynomialPolygon:
    def test_manin_quadratic(self):
        # T^2 + p^n T + p^g with (m, n) = (2, 1), p = 2
        vp = np_of_polynomial([1, 2, 8], 2)
        assert vp.slopes() == [1, 2]

    def test_unit_root(self):
        for p in (2, 3, 5):
            vp = np_of_polynomial([1, -1], p)
            assert vp.slopes() == [0]

    def test_cubic_example(self):
        vp = np_of_polynomial([1, 0, -5, -125], 5)
        assert vp.vertices == ((0, 0), (2, 1), (3, 3))
        assert vp.slopes() == [Fraction(1, 2), Fraction(1, 2), 2]

    def test_nonmonic_rejected(self):
        with pytest.raises(InputError):
            np_of_polynomial([2, 1], 3)

    def test_nonprime_rejected(self):
        with pytest.raises(InputError):
            np_of_polynomial([1, 1], 4)

    def test_rational_coefficients_negative_slope(self):
        # valuation polygons are unconstrained: v_2(1/2) = -1
        vp = np_of_polynomial([1, Fraction(1, 2)], 2)
        assert vp.slopes() == [-1]

    def test_zero_coefficient_skipped(self):
        # T^3 - p T: root 0 never enters the hull
        vp = np_of_polynomial([1, 0, -3, 0], 3)
        assert vp.infinite_multiplicity == 1
        assert vp.slopes() == [Fraction(1, 2), Fraction(1, 2)]

    def test_int_and_fraction_input_agree(self):
        rng = random.Random(5)
        for _ in range(300):
            p = rng.choice((2, 3, 5, 7))
            tail = [rng.choice((0, 1, -1)) * rng.randint(1, 6) * p ** rng.randint(0, 4) for _ in range(rng.randrange(1, 7))]
            coeffs = [1] + tail
            ints, fracs = np_of_polynomial(coeffs, p), np_of_polynomial([Fraction(c) for c in coeffs], p)
            assert ints == fracs
            assert ints.infinite_multiplicity == fracs.infinite_multiplicity
            assert ints.slopes() == fracs.slopes()

    def test_root_valuation_soundness(self):
        # products of linear factors T - u*p^k: slopes are the k's
        for p in (2, 5):
            coeffs = [1]
            for root in (1, p, p**3):
                coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            vp = np_of_polynomial(coeffs, p)
            assert vp.slopes() == [0, 1, 3]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(-6, 6).filter(lambda v: v != 0)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60)
    def test_hull_against_brute_oracle(self, spec):
        p = 3
        coeffs = [1]
        for k, u in spec:
            root = u * p**k
            coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        vp = np_of_polynomial(coeffs, p)
        assert list(vp.vertices) == brute_hull(vp.points)


class TestHullOracle:
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 12)), min_size=2, max_size=9
        )
    )
    @settings(max_examples=120)
    def test_lower_convex_hull_matches_brute(self, pts):
        pts = [(0, 0)] + pts
        assert lower_convex_hull(pts) == brute_hull(pts)


class TestJson:
    def test_round_trip(self):
        from isolab.newton import np_from_json

        z = np_from_pairs([(1, 0), (2, 1), (1, 5), (1, 0)])
        assert np_from_json(z.to_json()) == z
        assert np_from_json({"slopes": [str(s) for s in z.slopes()]}) == z
