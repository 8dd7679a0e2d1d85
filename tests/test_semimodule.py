"""Semimodule normalization, duality, enumeration, jump sets."""

from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab.errors import InputError
from isolab.semimodule import (
    MAX_SEMIMODULES,
    SemiModule,
    sm_dual,
    sm_enumerate,
    sm_from_jumps,
    sm_normalize,
    sm_principal,
)


def coprime_mn(max_sum):
    return [
        (m, n)
        for m in range(1, max_sum)
        for n in range(m + 1, max_sum + 1 - m)
        if gcd(m, n) == 1
    ]


def brute_enumerate(m, n):
    """Subset oracle: all r-element head sets in [0, 2r) closed under
    +m, +n into heads-or-tail."""
    r = (m - 1) * (n - 1) // 2
    if r == 0:
        return 1
    count = 0
    for heads in combinations(range(2 * r), r):
        hs = set(heads)
        if all((a + s in hs or a + s >= 2 * r) for a in heads for s in (m, n)):
            count += 1
    return count


def dfs_heads(m, n):
    """The former enumeration, kept as an oracle: gap sets of size r in
    [0, 2r), walked from high to low positions, forcing g-m and g-n
    whenever g is taken."""
    r = (m - 1) * (n - 1) // 2
    out = []

    def dfs(pos, chosen, required):
        if len(chosen) == r:
            if not required:
                out.append(tuple(x for x in range(2 * r) if x not in chosen))
            return
        if pos < 0 or len(chosen) + pos + 1 < r:
            return
        forced = {pos - s for s in (m, n) if pos - s >= 0}
        dfs(pos - 1, chosen | {pos}, (required - {pos}) | forced)
        if pos not in required:
            dfs(pos - 1, chosen, required)

    dfs(2 * r - 1, set(), set())
    return sorted(out)


def principal_by_closure(m, n):
    """<0> by breadth-first closure of {0} under +m and +n up to 2r + m + n."""
    r = (m - 1) * (n - 1) // 2
    members = {0}
    frontier = [0]
    bound = 2 * r + m + n
    while frontier:
        x = frontier.pop()
        for step in (m, n):
            y = x + step
            if y <= bound and y not in members:
                members.add(y)
                frontier.append(y)
    return SemiModule(m, n, sorted(x for x in range(2 * r) if x in members))


class TestPrincipal:
    def test_heads_match_the_closure(self):
        for m in range(1, 16):
            for n in range(1, 16):
                if gcd(m, n) == 1:
                    assert sm_principal(m, n).heads == principal_by_closure(m, n).heads, (m, n)

    @pytest.mark.parametrize("m, n", [(-1, 2), (2, -1), (0, 1), (1, 0), (0, 0), (2, 4)])
    def test_bad_pair_rejected(self, m, n):
        # (-1, 2) once closed downwards without bound
        with pytest.raises(InputError, match="coprime positive integers"):
            sm_principal(m, n)


class TestNormalize:
    def test_principal_23(self):
        z = sm_principal(2, 3)
        assert z.heads == (0,)
        assert z.text() == "{0} u [2,oo)"
        assert z.is_principal()

    def test_translates_normalize_back(self):
        z = sm_principal(3, 4)
        for t in range(0, 6):
            shifted = {h + t for h in z.heads}
            got = sm_normalize(shifted, 2 * z.r + t, 3, 4)
            assert got == z

    @given(st.integers(0, 8))
    @settings(max_examples=20)
    def test_translate_invariance_hypothesis(self, t):
        for A in sm_enumerate(3, 5):
            shifted = {h + t for h in A.heads}
            assert sm_normalize(shifted, 2 * A.r + t, 3, 5) == A

    def test_idempotent(self):
        for A in sm_enumerate(3, 4):
            assert sm_normalize(set(A.heads), 2 * A.r, 3, 4) == A

    def test_closure_violation_rejected(self):
        with pytest.raises(InputError):
            sm_normalize({0, 1}, 9, 2, 3)  # 0+2 = 2 missing

    def test_full_line_normalizes(self):
        # the full module [t, oo): gap-r translate is [r, oo)
        got = sm_normalize(set(), 7, 3, 4)
        assert got.heads == (3, 4, 5)

    def test_head_count_always_r(self):
        for m, n in coprime_mn(10):
            for A in sm_enumerate(m, n):
                assert len(A.heads) == A.r
                assert all(h < 2 * A.r for h in A.heads)

    def test_noncoprime_rejected(self):
        with pytest.raises(InputError):
            sm_normalize(set(), 4, 2, 4)


class TestDual:
    def test_principal_23_self_dual(self):
        z = sm_principal(2, 3)
        assert sm_dual(z) == z

    def test_involution_exhaustive(self):
        for m, n in coprime_mn(12):
            for A in sm_enumerate(m, n):
                assert sm_dual(sm_dual(A)) == A

    def test_dual_closed(self):
        # the dual is again a semimodule (constructor re-validates closure)
        for A in sm_enumerate(4, 5):
            sm_dual(A)

    def test_top_gap_criterion(self):
        # 2r-1 not in <0>, for every coprime pair with m+n <= 12
        for m, n in coprime_mn(12):
            z = sm_principal(m, n)
            if z.r > 0:
                assert not z.contains(2 * z.r - 1)

    def test_principal_criterion_exhaustive(self):
        # A = <0>  <=>  0 in A  <=>  2r-1 not in A
        for m, n in coprime_mn(12):
            z = sm_principal(m, n)
            for A in sm_enumerate(m, n):
                is_z = A == z
                assert is_z == A.contains(0)
                if A.r > 0:
                    assert is_z == (not A.contains(2 * A.r - 1))


class TestEnumerate:
    def test_cardinality_against_subset_oracle(self):
        for m, n in coprime_mn(9):
            assert len(sm_enumerate(m, n)) == brute_enumerate(m, n)

    def test_cardinality_catalan(self):
        # the count matches binom(m+n, m)/(m+n); recorded as a sanity
        # cross-check, the subset oracle above is the real referee
        for m, n in coprime_mn(11):
            assert len(sm_enumerate(m, n)) == comb(m + n, m) // (m + n)

    def test_unique_and_contains_principal(self):
        for m, n in coprime_mn(10):
            mods = sm_enumerate(m, n)
            assert len(set(mods)) == len(mods)
            assert sm_principal(m, n) in mods

    def test_closed_under_dual(self):
        for m, n in coprime_mn(10):
            mods = set(sm_enumerate(m, n))
            assert {sm_dual(A) for A in mods} == mods

    def test_heads_match_subset_oracle(self):
        for m, n in coprime_mn(9):
            r = (m - 1) * (n - 1) // 2
            heads = [
                hs
                for hs in combinations(range(2 * r), r)
                if all(a + s in hs or a + s >= 2 * r for a in hs for s in (m, n))
            ]
            assert [A.heads for A in sm_enumerate(m, n)] == heads
            assert [A.heads for A in sm_enumerate(n, m)] == heads

    def test_heads_match_former_dfs(self):
        for m, n in coprime_mn(14):
            assert [A.heads for A in sm_enumerate(m, n)] == dfs_heads(m, n)

    def test_long_gap_runs(self):
        # (2, n): one type per gap count in the odd class, with r deep gaps
        for n in (101, 1001):
            mods = sm_enumerate(2, n)
            assert len(mods) == (n + 1) // 2
            assert len(set(mods)) == len(mods) and sm_principal(2, n) in mods
        assert len(sm_enumerate(3, 70)) == comb(73, 3) // 73

    def test_cap_refused_up_front(self):
        for m, n in ((11, 12), (2, 2 * MAX_SEMIMODULES + 1), (10**9 + 7, 10**9 + 9)):
            with pytest.raises(InputError, match="cap of %d" % MAX_SEMIMODULES):
                sm_enumerate(m, n)
        assert len(sm_enumerate(2, 2 * MAX_SEMIMODULES - 1)) == MAX_SEMIMODULES

    def test_trivial_for_m1(self):
        mods = sm_enumerate(1, 7)
        assert len(mods) == 1 and mods[0].heads == ()
        assert mods[0] == sm_principal(1, 7)


class TestFromJumps:
    def test_full_module_min_case(self):
        # r = 0: the full jump set is the principal type
        for k in (2, 5):
            assert sm_from_jumps([3], 1, k) == sm_principal(1, k)

    def test_full_module_general(self):
        # for r > 0 the full module normalizes to {r..2r-1}+tail, which is
        # principal exactly when r = 0
        got = sm_from_jumps([0], 2, 3)
        assert got.heads == (1,)
        assert not got.is_principal()

    def test_translated_principal(self):
        z = sm_principal(2, 3)
        assert sm_from_jumps([5, 7], 2, 3) == z

    def test_hand_built_nonprincipal_34(self):
        # {1, 4, 5} u [6, oo) is closed for (3,4); verify its type appears
        # in the exhaustive enumeration and is not principal
        t = sm_from_jumps([1, 4, 5, 6], 3, 4)
        assert t.heads == (1, 4, 5)
        assert t in sm_enumerate(3, 4)
        assert not t.is_principal()

    def test_not_increasing_rejected(self):
        with pytest.raises(InputError):
            sm_from_jumps([3, 3], 2, 3)

    def test_closure_violation_rejected(self):
        with pytest.raises(InputError):
            sm_from_jumps([0, 9], 2, 3)


class TestRepresentation:
    def test_json_round_trip(self):
        A = sm_from_jumps([1, 4, 5, 6], 3, 4)
        data = A.to_json()
        again = SemiModule(data["m"], data["n"], data["heads"])
        assert again == A

    def test_invalid_heads_rejected(self):
        with pytest.raises(InputError):
            SemiModule(3, 4, (0, 1, 99))
        with pytest.raises(InputError):
            SemiModule(3, 4, (0, 1))  # wrong head count
