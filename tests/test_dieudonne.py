"""Presentations, displays, slope polygons, torsion profiles."""

import fractions
import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from isolab._arith import charpoly
from isolab.dieudonne import (
    MAX_TORSION_BITS,
    MAX_TORSION_G,
    DieudonnePresentation,
    DisplayNormalForm,
    _matmul,
    _np_of_display_general,
    a_number,
    display_matrix,
    dualize,
    gmn_module,
    gmn_normal_form,
    np_of_display,
    np_sigma_trivial,
    serre_tate_torsion,
)
from isolab.errors import InputError, PrecisionError
from isolab.newton import np_from_pairs
from isolab.snf import elementary_divisors, smith_normal_form
from isolab.unramified import unramified_ring
from isolab.witt import WittContext

from integer_oracles import serre_tate_relation_matrix


def coprime_pairs(max_h, minimum=0):
    from math import gcd

    out = []
    for m in range(minimum, max_h + 1):
        for n in range(minimum, max_h + 1):
            if (m or n) and m + n <= max_h and gcd(m, n) == 1:
                out.append((m, n))
    return out


def faddeev_leverrier(A):
    """char(T) = T^h + c_1 T^(h-1) + ... + c_h of an int matrix, exactly, by
    the Faddeev-LeVerrier recursion over rationals: the oracle of
    `_arith.charpoly` (it divides by 1..h, so it cannot run mod p^N)."""
    h = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    Mk = [row[:] for row in A]
    coeffs = [Fraction(1)]
    for k in range(1, h + 1):
        ck = -sum(Mk[i][i] for i in range(h)) / k
        coeffs.append(ck)
        if k == h:
            break
        for i in range(h):
            Mk[i][i] += ck
        Mk = [
            [sum(A[i][t] * Mk[t][j] for t in range(h)) for j in range(h)]
            for i in range(h)
        ]
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out


class TestGmn:
    def test_invariants(self):
        for m, n in coprime_pairs(8):
            ctx = WittContext(2, 1, m + n + 2)
            pres = gmn_module(m, n, ctx)
            assert pres.ht == m + n
            assert pres.dim == m

    def test_etale_f_bijective(self):
        ctx = WittContext(3, 1, 4)
        etale = gmn_module(0, 1, ctx)
        # single basis vector, F acts by a unit
        assert etale.F[0][0].is_unit()
        mult = gmn_module(1, 0, ctx)
        assert mult.F[0][0] == ctx.ring.from_int(3)

    def test_f_to_h_is_p_to_m(self):
        # going around the cycle: det valuation of F equals m
        for m, n in coprime_pairs(6, minimum=0):
            ctx = WittContext(2, 1, m + n + 3)
            pres = gmn_module(m, n, ctx)
            assert pres.det_valuation() == m

    def test_noncoprime_rejected(self):
        with pytest.raises(InputError):
            gmn_module(2, 4, WittContext(2, 1, 8))

    def test_low_precision_rejected(self):
        with pytest.raises(InputError):
            gmn_module(3, 2, WittContext(2, 1, 4))

    def test_fv_consistency_checked(self):
        ctx = WittContext(2, 1, 5)
        good = gmn_module(1, 1, ctx)
        bad_v = [[ctx.ring.one(), ctx.ring.zero()], [ctx.ring.zero(), ctx.ring.one()]]
        with pytest.raises(InputError):
            DieudonnePresentation(ctx, good.F, bad_v)

    def test_v_of_another_size_than_f_rejected(self):
        # once a-number read only V's top-left corner, and F.sigma(V) ran
        # past the shorter matrix
        ctx = WittContext(2, 1, 5)
        one, two = ctx.ring.one(), ctx.ring.from_int(2)
        for F, V in (([[one]], [[two, 0], [0, two]]), ([[one, 0], [0, one]], [[two]]), ([], [[one]])):
            with pytest.raises(InputError, match="V must have the size of F"):
                DieudonnePresentation(ctx, F, V)


class TestANumber:
    def test_gmn_min(self):
        for m, n in coprime_pairs(10):
            ctx = WittContext(2, 1, m + n + 2)
            assert a_number(gmn_module(m, n, ctx)) == min(m, n)

    def test_gmn_min_larger_field(self):
        for m, n in ((2, 1), (3, 2)):
            ctx = WittContext(2, 2, m + n + 2)
            assert a_number(gmn_module(m, n, ctx)) == min(m, n)

    def test_rank_against_span_oracle_f2(self):
        # independent oracle over F_2: materialize the span of the column
        # vectors as a set; its size is 2^rank
        from isolab._arith import rank as gauss_rank

        rng = random.Random(5)
        ctx = WittContext(2, 1, 4)
        for _ in range(40):
            h = rng.randrange(2, 6)
            ncols = rng.randrange(1, 2 * h)
            cols = [tuple(rng.randrange(2) for _ in range(h)) for _ in range(ncols)]
            span = {tuple([0] * h)}
            for c in cols:
                span |= {tuple((x + y) % 2 for x, y in zip(c, s)) for s in span}
            rank = len(span).bit_length() - 1
            got = gauss_rank([[ctx.field(v) for v in col] for col in cols])
            assert got == rank

    def test_missing_v(self):
        ctx = WittContext(2, 1, 5)
        pres = DieudonnePresentation(ctx, gmn_module(1, 1, ctx).F)
        with pytest.raises(InputError):
            a_number(pres)


class TestDual:
    def test_gmn_dual_is_swapped(self):
        for m, n in coprime_pairs(8):
            ctx = WittContext(2, 1, m + n + 2)
            d = dualize(gmn_module(m, n, ctx))
            assert (d.ht, d.dim) == (m + n, n)
            assert a_number(d) == min(m, n)

    def test_etale_multiplicative_swap(self):
        ctx = WittContext(3, 1, 4)
        d = dualize(gmn_module(0, 1, ctx))
        assert d.dim == 1 and d.F[0][0] == ctx.ring.from_int(3)

    def test_double_dual_entrywise(self):
        rng = random.Random(7)
        ctx = WittContext(2, 1, 4)
        ring = ctx.ring
        for _ in range(20):
            # build a valid (F, V) pair: F = diag-ish unit matrix times
            # shifts won't satisfy FV = p in general, so reuse gmn blocks
            m, n = rng.choice([(1, 1), (2, 1), (1, 2), (3, 2)])
            ctx2 = WittContext(2, 1, m + n + 2)
            pres = gmn_module(m, n, ctx2)
            dd = dualize(dualize(pres))
            assert dd.F == pres.F and dd.V == pres.V

    def test_dual_slopes_complementary(self):
        for m, n in coprime_pairs(6, minimum=1):
            ctx = WittContext(2, 1, m + n + 2)
            pres = gmn_module(m, n, ctx)
            vp = np_sigma_trivial(pres)
            vpd = np_sigma_trivial(dualize(pres))
            assert sorted(1 - s for s in vp.slopes()) == vpd.slopes()


class TestDisplay:
    def test_gmn_normal_form_pure_slope(self):
        for m, n in coprime_pairs(8, minimum=1):
            ctx = WittContext(3, 1, m + n + 2)
            z = np_of_display(gmn_normal_form(m, n, ctx))
            assert z == np_from_pairs([(m, n)])

    def test_two_point_hull(self):
        # only a_{1,h} set: the isoclinic polygon of (h, h-s)
        ctx = WittContext(2, 1, 8)
        dnf = DisplayNormalForm(ctx, 6, 2, {(1, 6): 1})
        assert np_of_display(dnf) == np_from_pairs([(2, 1)] * 2)

    def test_unit_top_required(self):
        ctx = WittContext(2, 1, 8)
        with pytest.raises(InputError):
            DisplayNormalForm(ctx, 4, 2, {(1, 4): 2})
        with pytest.raises(InputError):
            DisplayNormalForm(ctx, 4, 2, {(2, 3): 1})

    def test_window_validated(self):
        ctx = WittContext(2, 1, 8)
        with pytest.raises(InputError):
            DisplayNormalForm(ctx, 4, 2, {(3, 4): 1, (1, 4): 1})

    def test_fast_equals_general_zero_unit(self):
        ctx = WittContext(2, 1, 9)
        rng = random.Random(3)
        for _ in range(40):
            h = rng.randrange(2, 7)
            s = rng.randrange(1, h)
            positions = [(i, j) for i in range(1, s + 1) for j in range(s, h + 1)]
            extra = rng.sample(positions, k=min(len(positions), rng.randrange(0, 3)))
            entries = {(1, h): 1}
            for pos in extra:
                entries[pos] = 1
            dnf = DisplayNormalForm(ctx, h, s, entries)
            assert np_of_display(dnf) == _np_of_display_general(dnf)

    def test_general_path_with_divisible_entries(self):
        # a_{i,j} = p * unit shifts the point up by one; both routes agree
        ctx = WittContext(2, 1, 9)
        dnf = DisplayNormalForm(ctx, 4, 2, {(1, 4): 1, (2, 2): ctx.ring.from_int(2)})
        z = _np_of_display_general(dnf)
        vp = np_sigma_trivial(display_matrix(dnf), ctx)
        assert z.slopes() == vp.slopes()

    def test_sigma_twists_enter_coefficients(self):
        # over F_4 the twisted sum may cancel mod p where the untwisted
        # sum would not; just check the polygon is still produced and pure
        ctx = WittContext(2, 2, 9)
        g = ctx.ring.from_coeffs([0, 1])
        dnf = DisplayNormalForm(ctx, 3, 1, {(1, 3): g})
        z = np_of_display(dnf)
        assert z == np_from_pairs([(2, 1)])

    def test_cancellation_aborts(self):
        # entries (1,2) and (2,3) share the anti-diagonal t = 2 with
        # weights p^0 and p^1; choosing a + 2b = 64 = p^N makes the
        # coefficient vanish at precision and the polygon must refuse
        ctx = WittContext(2, 1, 6)
        dnf = DisplayNormalForm(ctx, 4, 2, {(1, 4): 1, (1, 2): 2, (2, 3): 31})
        with pytest.raises(PrecisionError):
            _np_of_display_general(dnf)


class TestSigmaTrivial:
    def test_diag_one_p(self):
        ctx = WittContext(5, 1, 6)
        vp = np_sigma_trivial([[1, 0], [0, 5]], ctx)
        assert vp.slopes() == [0, 1]

    def test_companion_example(self):
        ctx = WittContext(5, 1, 6)
        vp = np_sigma_trivial([[0, -125], [1, -5]], ctx)
        assert vp.slopes() == [1, 2]

    def test_g11_half_slopes(self):
        ctx = WittContext(5, 1, 6)
        vp = np_sigma_trivial(gmn_module(1, 1, ctx))
        assert vp.slopes() == [Fraction(1, 2), Fraction(1, 2)]

    def test_zero_det_aborts(self):
        ctx = WittContext(2, 1, 4)
        with pytest.raises(PrecisionError):
            np_sigma_trivial([[16, 0], [0, 1]], ctx)

    def test_char_poly_against_evaluation_oracle(self):
        # independent oracle: char(t) = det(t I - M) evaluated at h+1
        # integer points via fraction-exact Gaussian elimination
        def det_int(mat):
            n = len(mat)
            mat = [[Fraction(x) for x in row] for row in mat]
            det = Fraction(1)
            for col in range(n):
                piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
                if piv is None:
                    return 0
                if piv != col:
                    mat[col], mat[piv] = mat[piv], mat[col]
                    det = -det
                det *= mat[col][col]
                inv = 1 / mat[col][col]
                for r in range(col + 1, n):
                    f = mat[r][col] * inv
                    if f:
                        mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
            return det

        rng = random.Random(9)
        ctx = WittContext(3, 1, 5)
        for _ in range(15):
            h = rng.randrange(1, 5)
            M = [[ctx.ring.from_int(rng.randrange(-10, 10)) for _ in range(h)] for _ in range(h)]
            got = faddeev_leverrier([[e.coeffs[0] for e in row] for row in M])
            arr = [[e.coeffs[0] for e in row] for row in M]
            for t in range(h + 1):
                tim = [[(t if i == j else 0) - arr[i][j] for j in range(h)] for i in range(h)]
                val = sum(got[k] * t ** (h - k) for k in range(h + 1))
                assert det_int(tim) == val


class TestCharpoly:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_berkowitz_matches_faddeev_leverrier(self, p):
        # p <= h is included: the residues agree although FL divides by p
        rng = random.Random(p)
        for h in range(1, 9):
            for N in (1, 2, 3, 5, 10):
                q = p**N
                for density in (1, 3):
                    M = [[rng.randrange(-q, q) if rng.randrange(density) == 0 else 0 for _ in range(h)] for _ in range(h)]
                    assert charpoly(M, q) == [c % q for c in faddeev_leverrier(M)], (h, N, M)

    def test_empty_and_scalar(self):
        assert charpoly([], 8) == [1]
        assert charpoly([[5]], 8) == [1, 3]

    def test_sigma_trivial_route_makes_no_fraction(self, monkeypatch):
        made = []
        original = fractions.Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        ctx = WittContext(2, 1, 9)
        pres = gmn_module(2, 5, ctx)
        dnf = DisplayNormalForm(ctx, 5, 2, {(1, 5): 1, (2, 3): 3})
        monkeypatch.setattr(fractions.Fraction, "__new__", counting)
        Fraction(1, 2)
        assert made == [(1, 2)]  # the patch sees every construction
        made.clear()
        np_sigma_trivial(pres)
        np_sigma_trivial(display_matrix(dnf), ctx)
        pres.det_valuation()
        assert made == []


class TestCayleyHamiltonCrossValidation:
    def test_random_entries_agree_with_char_poly(self):
        # not just zero/unit patterns: arbitrary entries, including
        # p-divisible ones, must give the same polygon through the cyclic
        # vector polynomial and through det(T - F)
        rng = random.Random(99)
        for _ in range(150):
            p = rng.choice([2, 3])
            h = rng.randrange(2, 6)
            s = rng.randrange(1, h)
            ctx = WittContext(p, 1, h + 3)
            entries = {}
            for i in range(1, s + 1):
                for j in range(s, h + 1):
                    v = rng.randrange(0, p**3)
                    if v:
                        entries[(i, j)] = ctx.ring.from_int(v)
            u = rng.randrange(1, p**2)
            while u % p == 0:
                u = rng.randrange(1, p**2)
            entries[(1, h)] = ctx.ring.from_int(u)
            dnf = DisplayNormalForm(ctx, h, s, entries)
            try:
                za = _np_of_display_general(dnf)
            except PrecisionError:
                continue
            vp = np_sigma_trivial(display_matrix(dnf), ctx)
            assert za.slopes() == vp.slopes()

    def test_exhaustive_small(self):
        ctx = WittContext(2, 1, 9)
        for h in range(2, 6):
            for s in range(1, h):
                positions = [
                    (i, j)
                    for i in range(1, s + 1)
                    for j in range(s, h + 1)
                    if (i, j) != (1, h)
                ]
                for k in range(0, min(2, len(positions)) + 1):
                    for extra in combinations(positions, k):
                        entries = {(1, h): 1}
                        for pos in extra:
                            entries[pos] = 1
                        dnf = DisplayNormalForm(ctx, h, s, entries)
                        za = np_of_display(dnf)
                        vp = np_sigma_trivial(display_matrix(dnf), ctx)
                        assert za.slopes() == vp.slopes()


class TestSerreTate:
    def test_g1_trivial(self):
        assert serre_tate_torsion((2,), 3).orders == ()

    def test_g2_example(self):
        assert serre_tate_torsion((1, 3), 2).orders == (2,)

    def test_g3_example(self):
        assert serre_tate_torsion((1, 2, 2), 3).orders == (3, 3, 9)

    def test_profile_record(self):
        # the record was a frozen dataclass: repr, equality within the class,
        # hash (of the field tuple) and JSON are as they were
        prof = serre_tate_torsion((1, 2, 2), 3)
        assert repr(prof) == "TorsionProfile(p=3, exponents=(1, 2, 2), orders=(3, 3, 9))"
        assert prof == serre_tate_torsion([1, 2, 2], 3) and prof != serre_tate_torsion((1, 2, 3), 3)
        assert hash(prof) == hash((3, (1, 2, 2), (3, 3, 9)))
        assert prof.to_json() == {"p": 3, "exponents": [1, 2, 2], "orders": ["3", "3", "9"]}
        with pytest.raises(AttributeError):
            prof.orders = ()

    def test_matches_closed_form(self):
        for p in (2, 3):
            for g in range(1, 6):
                for exps in combinations_with_replacement(range(5), g):
                    prof = serre_tate_torsion(exps, p)
                    want = sorted(
                        p ** exps[i]
                        for i in range(g)
                        for j in range(i + 1, g)
                        if exps[i] > 0
                    )
                    assert list(prof.orders) == want
                    assert want == elementary_divisors(serre_tate_relation_matrix(exps, p))

    def test_caps(self):
        assert serre_tate_torsion((0, 10**9), 2).orders == ()
        assert serre_tate_torsion(tuple(range(32)), 2).orders[-1] == 2**30
        # 2^(MAX_TORSION_BITS - 1) has MAX_TORSION_BITS bits
        assert serre_tate_torsion((MAX_TORSION_BITS - 1,) * 2, 2).orders == (2 ** (MAX_TORSION_BITS - 1),)
        with pytest.raises(InputError, match=re.escape("2^%d exceeds the cap of %d bits" % (MAX_TORSION_BITS, MAX_TORSION_BITS))):
            serre_tate_torsion((MAX_TORSION_BITS,) * 2, 2)
        assert len(serre_tate_torsion((0,) * (MAX_TORSION_G - 1) + (1,), 3).orders) == 0
        with pytest.raises(InputError, match="g = %d exceeds the cap of %d" % (MAX_TORSION_G + 1, MAX_TORSION_G)):
            serre_tate_torsion((0,) * (MAX_TORSION_G + 1), 3)

    def test_relation_matrix_shape(self):
        mat = serre_tate_relation_matrix((1, 2, 2), 3)
        assert len(mat) == 9 and len(mat[0]) == 3

    def test_unsorted_rejected(self):
        with pytest.raises(InputError):
            serre_tate_torsion((3, 1), 2)


class TestMatmul:
    @pytest.mark.parametrize("p, m, N", [(2, 1, 4), (3, 2, 3), (5, 1, 5)])
    def test_matches_dense_schoolbook_product(self, p, m, N):
        # every product summed from zero, zero entries included
        rng = random.Random(p * 100 + m * 10 + N)
        ring = unramified_ring(p, m, N)

        def entry():
            if rng.random() < 0.4:
                return ring.zero()
            return ring.from_coeffs([rng.randrange(ring.pN) for _ in range(m)])

        for _ in range(60):
            n = rng.randrange(1, 6)
            A = [[entry() for _ in range(n)] for _ in range(n)]
            B = [[entry() for _ in range(n)] for _ in range(n)]
            want = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = ring.zero()
                    for k in range(n):
                        acc = acc + A[i][k] * B[k][j]
                    row.append(acc)
                want.append(tuple(row))
            assert _matmul(A, B) == tuple(want), (A, B)


class TestSnf:
    def test_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_known_matrix(self):
        # 2x2 with invariants 1, 6
        assert smith_normal_form([[2, 4], [4, 2]]) == [2, 6]

    def test_rectangular(self):
        assert smith_normal_form([[2, 0, 0], [0, 4, 0]]) == [2, 4]

    def test_zero_block(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]

    def test_divisibility_chain_random(self):
        rng = random.Random(31)
        for _ in range(40):
            n, m = rng.randrange(1, 5), rng.randrange(1, 5)
            mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
            d = smith_normal_form(mat)
            for a, b in zip(d, d[1:]):
                if a and b:
                    assert b % a == 0
                if a == 0:
                    assert b == 0

    def test_determinant_preserved(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randrange(1, 4)
            mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]

            def det(m):
                if len(m) == 1:
                    return m[0][0]
                return sum(
                    (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
                    for j in range(len(m))
                )

            d = smith_normal_form(mat)
            prod = 1
            for x in d:
                prod *= x
            assert prod == abs(det(mat))

    def test_elementary_divisors_drops_units(self):
        assert elementary_divisors([[1, 0], [0, 4]]) == [4]
