"""Acceptance suite: every shipped guarantee, at its full stated scope.

Each test prints one PASS line; all assertions are exact (integer or
rational equality), nothing is checked to a floating tolerance.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, isqrt

from isolab.cartier import CartierContext, artin_hasse
from isolab.dieudonne import (
    DisplayNormalForm,
    a_number,
    display_matrix,
    dualize,
    gmn_module,
    gmn_normal_form,
    np_of_display,
    np_sigma_trivial,
    serre_tate_torsion,
)
from isolab.errors import PlaceResolutionError
from isolab.newton import (
    np_diamond,
    np_dim,
    np_from_pairs,
    np_of_polynomial,
    np_precedes,
    np_sdim,
)
from isolab.poset import longest_chain, poset_build
from isolab.semimodule import sm_dual, sm_enumerate, sm_principal
from isolab.snf import elementary_divisors
from isolab.weil import honda_tate, weil_from_real_trace, weil_verify
from isolab.witt import WittContext, ghost_components, ghost_inverse

from integer_oracles import serre_tate_relation_matrix


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def test_criterion_01_worked_dim_22():
    zeta = np_from_pairs([(1, 0), (1, 0), (2, 1), (1, 5)])
    assert np_dim(zeta) == 22
    print("criterion 1 PASS: dim(2*(1,0)+(2,1)+(1,5)) = 22")


def test_criterion_02_worked_sdim_48():
    xi = np_from_pairs([(5, 1), (2, 1), (1, 1), (1, 1), (1, 2), (1, 5)])
    assert np_sdim(xi) == 48
    print("criterion 2 PASS: sdim((5,1)+(2,1)+2*(1,1)+(1,2)+(1,5)) = 48")


def test_criterion_03_rectangle_formula():
    for d in range(1, 11):
        for c in range(1, 11):
            rho = np_from_pairs([(1, 0)] * d + [(0, 1)] * c)
            assert np_dim(rho) == d * c
    print("criterion 3 PASS: dim(rho) = d*c for all 1 <= d, c <= 10")


def test_criterion_04_chain_length_and_rankedness():
    poset = poset_build(7, 3)
    chain = longest_chain(poset, np_from_pairs([(3, 4)]), poset.top())
    assert len(chain) - 1 == 9  # mn - r for (m,n) = (3,4), r = 3
    for h in range(1, 9):
        for d in range(h + 1):
            assert poset_build(h, d).is_ranked()
    print("criterion 4 PASS: (7,3) chain length 9 = mn-r; all posets h <= 8 ranked")


def test_criterion_05_manin_family_valuations():
    for (m, n) in ((2, 1), (3, 2), (4, 3), (5, 2)):
        g = m + n
        for p in (2, 3, 5):
            vp = np_of_polynomial([1, p**n, p**g], p)
            assert vp.slopes() == [n, m]
            assert vp.scaled(g) == [Fraction(n, g), Fraction(m, g)]
    print("criterion 5 PASS: T^2 + p^n T + p^g has valuations {n, m}, slopes {n/g, m/g}")


def test_criterion_06_honda_tate_cases():
    # real cases
    for p, n in ((2, 2), (3, 2), (5, 4)):
        for sign in (1, -1):
            ht = honda_tate(weil_verify([1, -sign * p ** (n // 2)], p, n))
            assert (ht.albert, ht.g) == ("III(1)", 1)
    for p, n in ((2, 1), (3, 3), (5, 1)):
        ht = honda_tate(weil_verify([1, 0, -(p**n)], p, n))
        assert (ht.albert, ht.g) == ("III(2)", 2)
    # exhaustive quadratic sweep over q <= 10^4
    checked = 0
    qs = []
    for p in _primes_upto(10**4):
        q, n = p, 1
        while q <= 10**4:
            qs.append((p, n, q))
            q *= p
            n += 1
    for p, n, q in qs:
        top = isqrt(4 * q - 1)
        for beta in range(-top, top + 1):
            w = weil_from_real_trace(beta, p, n)
            try:
                ht = honda_tate(w)
            except PlaceResolutionError:
                assert beta % p == 0  # only supersingular traces are refused
                continue
            assert 2 * ht.g == ht.e * ht.d
            ordinary = ht.slopes == (Fraction(0), Fraction(1))
            assert ordinary == (beta % p != 0)
            if ordinary:
                assert ht.albert == "IV(1,1)" and ht.g == 1
            checked += 1
    assert checked > 250_000
    print(
        "criterion 6 PASS: Honda-Tate cases and 2g = e*d on %d classified quadratics, q <= 10^4"
        % checked
    )


def test_criterion_07_ghost_ring_homomorphism():
    rng = random.Random(20260808)
    for p in (2, 3, 5):
        for _ in range(500):
            N = rng.randrange(1, 6)
            a = [rng.randrange(p) for _ in range(N)]
            b = [rng.randrange(p) for _ in range(N)]
            ga, gb = ghost_components(a, p), ghost_components(b, p)
            s = ghost_inverse([x + y for x, y in zip(ga, gb)], p)
            m = ghost_inverse([x * y for x, y in zip(ga, gb)], p)
            assert ghost_components(s, p) == [x + y for x, y in zip(ga, gb)]
            assert ghost_components(m, p) == [x * y for x, y in zip(ga, gb)]
            # and the truncated ring agrees coordinatewise mod p
            ctx = WittContext(p, 1, N)
            xa, xb = ctx.from_coordinates(a), ctx.from_coordinates(b)
            assert xa + xb == ctx.from_coordinates([c % p for c in s])
            assert xa * xb == ctx.from_coordinates([c % p for c in m])
    print("criterion 7 PASS: ghost map is a ring homomorphism (500 pairs x {2,3,5})")


def test_criterion_08_cartier_relations():
    for p, m in ((2, 2), (3, 2)):
        ctx = CartierContext(p, m, vcap=6)
        rng = random.Random(100 + p)
        nonzero = [e for e in ctx.field.elements() if not e.is_zero()]
        assert ctx.F() * ctx.V() == ctx.p_element()
        assert ctx.V() * ctx.F() == ctx.p_element()
        for _ in range(200):
            a, b = rng.choice(nonzero), rng.choice(nonzero)
            assert ctx.diag(a) * ctx.diag(b) == ctx.diag(a * b)
            assert ctx.F() * ctx.diag(a) == ctx.monomial(0, 1, a.frobenius())
            mm, nn = rng.randrange(3), rng.randrange(3)
            r = min(mm, nn)
            lhs = ctx.monomial(mm, mm, a) * ctx.monomial(nn, nn, b)
            rhs = ctx.p_element() ** r * ctx.monomial(
                mm + nn - r, mm + nn - r, a.frobenius(nn - r) * b.frobenius(mm - r)
            )
            assert lhs == rhs
        for _ in range(100):
            xs = [
                ctx.monomial(rng.randrange(4), rng.randrange(4), rng.choice(nonzero))
                for _ in range(3)
            ]
            assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])
    print("criterion 8 PASS: Cartier relations and associativity over F_4 and F_9")


def test_criterion_09_artin_hasse_integrality():
    for p in (2, 3, 5):
        coeffs = artin_hasse(p, 50)
        assert coeffs[0] == 1
        assert coeffs[1] == -1
        assert all(c.denominator % p != 0 for c in coeffs)
    print("criterion 9 PASS: Artin-Hasse series p-integral to degree 50, E(0)=1, E'(0)=-1")


def test_criterion_10_gmn_invariants():
    for m in range(0, 9):
        for n in range(0, 9):
            if not (m or n) or m + n > 8 or gcd(m, n) != 1:
                continue
            ctx = WittContext(2, 1, m + n + 2)
            pres = gmn_module(m, n, ctx)
            assert pres.ht == m + n
            assert pres.dim == m
            assert a_number(pres) == min(m, n)
            dual = dualize(pres)
            assert (dual.ht, dual.dim) == (m + n, n)
            assert a_number(dual) == min(m, n)
            if m >= 1 and n >= 1:
                z = np_of_display(gmn_normal_form(m, n, ctx))
                assert z == np_from_pairs([(m, n)])
                assert np_sigma_trivial(pres).slopes() == [Fraction(m, m + n)] * (m + n)
            else:
                assert np_sigma_trivial(pres).slopes() == [m]
    print("criterion 10 PASS: G_{m,n} invariants for all coprime pairs, m+n <= 8")


def test_criterion_11_cayley_hamilton_cross_validation():
    ctx = WittContext(2, 1, 9)
    count = 0
    for h in range(2, 7):
        for s in range(1, h):
            positions = [
                (i, j)
                for i in range(1, s + 1)
                for j in range(s, h + 1)
                if (i, j) != (1, h)
            ]
            for k in range(0, 3):
                for extra in combinations(positions, k):
                    entries = {(1, h): 1}
                    for pos in extra:
                        entries[pos] = 1
                    dnf = DisplayNormalForm(ctx, h, s, entries)
                    display_np = np_of_display(dnf)
                    char_np = np_sigma_trivial(display_matrix(dnf), ctx)
                    assert display_np.slopes() == char_np.slopes()
                    count += 1
    print(
        "criterion 11 PASS: np_of_display = np_sigma_trivial on %d zero/unit normal forms"
        % count
    )


def test_criterion_12_semimodule_suite():
    pairs = [
        (m, n)
        for m in range(1, 12)
        for n in range(m + 1, 13 - m)
        if gcd(m, n) == 1
    ]
    for m, n in pairs:
        mods = sm_enumerate(m, n)
        principal = sm_principal(m, n)
        r = (m - 1) * (n - 1) // 2
        for A in mods:
            assert sm_dual(sm_dual(A)) == A
            is_z = A == principal
            assert is_z == A.contains(0)
            if r > 0:
                assert is_z == (not A.contains(2 * r - 1))
        if m + n <= 9:
            brute = 0
            if r == 0:
                brute = 1
            else:
                for heads in combinations(range(2 * r), r):
                    hs = set(heads)
                    if all(
                        (a + s in hs or a + s >= 2 * r) for a in heads for s in (m, n)
                    ):
                        brute += 1
            assert len(mods) == brute
    print("criterion 12 PASS: duality involution and <0>-criterion (m+n <= 12), counts (m+n <= 9)")


def test_criterion_13_serre_tate_torsion():
    def minor_gcd_divisors(mat):
        # independent oracle: d_k = gcd(k-minors)/gcd((k-1)-minors)
        n, m = len(mat), len(mat[0])

        def det(rows, cols):
            sub = [[mat[r][c] for c in cols] for r in rows]
            if len(sub) == 1:
                return sub[0][0]
            out = 0
            for j in range(len(sub)):
                minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
                out += (-1) ** j * sub[0][j] * _det(minor)
            return out

        def _det(mm):
            if len(mm) == 1:
                return mm[0][0]
            return sum(
                (-1) ** j * mm[0][j] * _det([row[:j] + row[j + 1 :] for row in mm[1:]])
                for j in range(len(mm))
            )

        out = []
        prev = 1
        for k in range(1, min(n, m) + 1):
            g = 0
            for rows in combinations(range(n), k):
                for cols in combinations(range(m), k):
                    g = gcd(g, det(rows, cols))
            if g == 0:
                break
            out.append(g // prev)
            prev = g
        return [d for d in out if d > 1]

    for p in (2, 3):
        for g in range(1, 6):
            for exps in combinations_with_replacement(range(5), g):
                prof = serre_tate_torsion(exps, p)
                closed = sorted(
                    p ** exps[i] for i in range(g) for j in range(i + 1, g) if exps[i]
                )
                assert list(prof.orders) == closed == elementary_divisors(serre_tate_relation_matrix(exps, p))
                if g <= 3:
                    mat = serre_tate_relation_matrix(exps, p)
                    assert minor_gcd_divisors(mat) == closed
    print("criterion 13 PASS: torsion = {p^e_i : i<j} = SNF, g <= 5, exponents <= 4, p in {2,3}")


def test_criterion_14_order_iff_region_containment():
    for h in range(1, 9):
        for d in range(h + 1):
            poset = poset_build(h, d)
            regions = {z: np_diamond(z) for z in poset.elements}
            for a in poset.elements:
                for b in poset.elements:
                    assert np_precedes(a, b) == (regions[a] <= regions[b])
    print("criterion 14 PASS: a < b iff diamond(a) subset of diamond(b), exhaustive h <= 8")
