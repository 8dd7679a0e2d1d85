"""Witt vectors: ghost oracle, coordinate views, ring structure."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolab.cartier import CartierContext, artin_hasse
from isolab.dieudonne import serre_tate_torsion
from isolab.errors import InputError
from isolab.unramified import FiniteField, UElement, unramified_ring
from isolab.witt import (
    MAX_GHOST_BITS,
    MAX_GHOST_COORDINATES,
    WittContext,
    WittElement,
    ghost_components,
    ghost_inverse,
)

from integer_oracles import witt_coordinate_product, witt_coordinate_sum


class TestGhost:
    def test_formula_p3(self):
        assert ghost_components([2, 1, 1], 3) == [2, 11, 524]

    def test_formula_p2(self):
        assert ghost_components([1, 1], 2) == [1, 3]

    def test_teichmuller_ghost(self):
        c = 5
        assert ghost_components([c, 0, 0, 0], 3) == [c, c**3, c**9, c**27]

    def test_running_powers_are_the_formula(self):
        # each power formed from the last against w_n summed afresh
        rng = random.Random(41)
        for p in (2, 3, 5, 7):
            for _ in range(200):
                coords = [rng.randint(-6, 6) for _ in range(rng.randrange(0, 6 if p < 7 else 5))]
                want = [sum(p**i * coords[i] ** (p ** (n - i)) for i in range(n + 1)) for n in range(len(coords))]
                assert ghost_components(coords, p) == want, (coords, p)

    def test_caps(self):
        # the largest component the benchmark's checks send, 6^(7^3) at 887
        # bits, and the most coordinates, both served
        assert ghost_components([6, 6, 6, 6], 7)[-1] == sum(7**i * 6 ** (7 ** (3 - i)) for i in range(4))
        assert ghost_components([1] * MAX_GHOST_COORDINATES, 2)[-1] == 2**MAX_GHOST_COORDINATES - 1
        with pytest.raises(InputError, match="%d ghost coordinates exceed the cap of %d" % (MAX_GHOST_COORDINATES + 1, MAX_GHOST_COORDINATES)):
            ghost_components([0] * (MAX_GHOST_COORDINATES + 1), 2)
        # 2^(3^9) has 19,684 bits; the 19 coordinates once took 5 s to fail
        with pytest.raises(InputError, match="w_9 of up to 19691 bits exceeds the cap of %d bits" % MAX_GHOST_BITS):
            ghost_components([2] * 19, 3)
        # the bound on w_0 = c is one bit over c: c of MAX_GHOST_BITS - 1
        # bits is served, one bit more is refused
        ghost_components([2 ** (MAX_GHOST_BITS - 2)], 2)
        with pytest.raises(InputError, match="cap of %d bits" % MAX_GHOST_BITS):
            ghost_components([2 ** (MAX_GHOST_BITS - 1)], 2)

    def test_inverse_round_trip(self):
        coords = [3, -2, 7, 1]
        assert ghost_inverse(ghost_components(coords, 5), 5) == coords

    def test_inverse_rejects_non_integral(self):
        with pytest.raises(InputError):
            ghost_inverse([0, 1], 2)  # w_1 = 2 c_1 + c_0^2 forces c_1 = 1/2

    @staticmethod
    def formula_inverse(ghosts, p):
        # every c_i^(p^(n-i)) formed afresh for each n
        coords = []
        for n, w in enumerate(ghosts):
            num = w - sum(p**i * coords[i] ** (p ** (n - i)) for i in range(n))
            if num % (p**n):
                raise InputError("ghost vector has no integral Witt preimage")
            coords.append(num // (p**n))
        return coords

    @pytest.mark.parametrize("p", [2, 3])
    def test_inverse_is_the_formula(self, p):
        # the round trip on every coordinate vector of length <= 5 with
        # entries 0..4, and every short ghost vector, integral or not
        for length in range(6):
            for coords in product(range(5), repeat=length):
                ghosts = ghost_components(coords, p)
                assert ghost_inverse(ghosts, p) == self.formula_inverse(ghosts, p) == list(coords)
        for length in range(4):
            for ghosts in product(range(-4, 5), repeat=length):
                try:
                    want = self.formula_inverse(ghosts, p)
                except InputError as e:
                    with pytest.raises(InputError, match=str(e)):
                        ghost_inverse(ghosts, p)
                else:
                    assert ghost_inverse(ghosts, p) == want

    def test_inverse_caps(self):
        assert ghost_inverse([2**MAX_GHOST_COORDINATES - 1], 2) == [2**MAX_GHOST_COORDINATES - 1]
        with pytest.raises(InputError, match="%d ghost coordinates exceed the cap of %d" % (MAX_GHOST_COORDINATES + 1, MAX_GHOST_COORDINATES)):
            ghost_inverse([0] * (MAX_GHOST_COORDINATES + 1), 2)
        with pytest.raises(InputError, match="w_2 of up to %d bits exceeds the cap of %d bits" % (MAX_GHOST_BITS + 1, MAX_GHOST_BITS)):
            ghost_inverse([0, 0, 2**MAX_GHOST_BITS], 2)
        # c_0 = 2^9998 is served, but its square in w_1 is bounded at 20,000
        # bits and refused before it is formed
        with pytest.raises(InputError, match="w_1 of up to 20000 bits exceeds the cap of %d bits" % MAX_GHOST_BITS):
            ghost_inverse([2**9998] + [0] * 30, 2)

    @given(
        st.integers(0, 2),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    )
    @settings(max_examples=80)
    def test_sum_and_product_are_integral(self, pi, a, b):
        p = (2, 3, 5)[pi]
        k = min(len(a), len(b))
        a, b = a[:k], b[:k]
        s = witt_coordinate_sum(a, b, p)
        m = witt_coordinate_product(a, b, p)
        ga, gb = ghost_components(a, p), ghost_components(b, p)
        assert ghost_components(s, p) == [x + y for x, y in zip(ga, gb)]
        assert ghost_components(m, p) == [x * y for x, y in zip(ga, gb)]


class TestRingVsCoordinates:
    def test_one_plus_one_f2(self):
        ctx = WittContext(2, 1, 3)
        two = ctx.one() + ctx.one()
        assert [c.coeffs for c in two.coordinates()] == [(0,), (1,), (0,)]
        assert two.valuation() == 1

    def test_ring_matches_ghost_route(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            ctx = WittContext(p, 1, 4)
            for _ in range(40):
                a = [rng.randrange(p) for _ in range(4)]
                b = [rng.randrange(p) for _ in range(4)]
                xa, xb = ctx.from_coordinates(a), ctx.from_coordinates(b)
                s = witt_coordinate_sum(a, b, p)
                m = witt_coordinate_product(a, b, p)
                assert xa + xb == ctx.from_coordinates([c % p for c in s])
                assert xa * xb == ctx.from_coordinates([c % p for c in m])

    @given(st.lists(st.integers(0, 8), min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_coordinate_round_trip_f9(self, seeds):
        ctx = WittContext(3, 2, 4)
        els = ctx.field.elements()
        coords = [els[s % len(els)] for s in seeds]
        w = ctx.from_coordinates(coords)
        assert w.coordinates() == coords
        assert ctx.from_coordinates(w.coordinates()) == w


class TestOperators:
    def test_teichmuller_one_is_unit(self):
        for p, m in ((2, 1), (3, 2), (5, 1)):
            ctx = WittContext(p, m, 4)
            assert ctx.teichmuller(1) == ctx.one()

    def test_teichmuller_multiplicative(self):
        ctx = WittContext(2, 2, 5)
        a, b = ctx.field([1, 1]), ctx.field([0, 1])
        assert ctx.teichmuller(a) * ctx.teichmuller(b) == ctx.teichmuller(a * b)

    def test_sigma_identity_over_fp(self):
        ctx = WittContext(3, 1, 5)
        for k in range(20):
            w = ctx.element(k)
            assert w.frobenius() == w

    def test_sigma_automorphism_f4(self):
        ctx = WittContext(2, 2, 4)
        x = ctx.from_coordinates([ctx.field([1, 1]), ctx.field([0, 1]), 1, 0])
        y = ctx.from_coordinates([ctx.field([0, 1]), 1, ctx.field([1, 1]), 1])
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert x.frobenius().frobenius() == x  # sigma^m = id

    def test_frobenius_is_pth_power_on_coordinates(self):
        ctx = WittContext(3, 2, 3)
        x = ctx.from_coordinates([ctx.field([1, 2]), ctx.field([2, 1]), 2])
        assert x.frobenius().coordinates() == [c ** 3 for c in x.coordinates()]

    def test_verschiebung_shifts(self):
        ctx = WittContext(2, 2, 4)
        x = ctx.from_coordinates([ctx.field([1, 1]), 1, 0, 1])
        v = x.verschiebung()
        assert v.coordinates() == [ctx.field.zero()] + x.coordinates()[:-1]

    def test_fv_equals_p(self):
        ctx = WittContext(5, 1, 4)
        x = ctx.element(7)
        assert x.verschiebung().frobenius() == ctx.element(5) * x

    def test_valuation(self):
        ctx = WittContext(3, 1, 4)
        assert ctx.element(9).valuation() == 2
        assert ctx.element(0).valuation() is None  # ">= N", never a number
        assert ctx.element(81).valuation() is None  # 3^4 = 0 at N = 4

    def test_valuation_additive_when_small(self):
        ctx = WittContext(2, 1, 8)
        for a, b in ((2, 6), (4, 2), (1, 8)):
            x, y = ctx.element(a), ctx.element(b)
            vx, vy = x.valuation(), y.valuation()
            if vx is not None and vy is not None and vx + vy < 4:
                assert (x * y).valuation() == vx + vy

    def test_context_mismatch(self):
        with pytest.raises(InputError):
            WittContext(2, 1, 3).one() + WittContext(3, 1, 3).one()


class TestRingElements:
    """A Witt vector is an element of the lift ring W_N(F_{p^m})."""

    def test_witt_element_is_the_ring_element(self):
        assert WittElement is UElement
        ctx = WittContext(3, 2, 4)
        for w in (ctx.zero(), ctx.one(), ctx.element(5), ctx.teichmuller(2), ctx.from_coordinates([1, 2])):
            assert type(w) is UElement and w.ring is ctx.ring is unramified_ring(3, 2, 4)
        assert ctx.element(ctx.ring.from_int(5)) == ctx.element(5) == 5
        assert repr(ctx.element(5)) == "U([5, 0]; p=3,m=2,N=4)"

    def test_equal_contexts_mix(self):
        # contexts with equal (p, m, N) share the cached ring
        a, b = WittContext(3, 2, 4), WittContext(3, 2, 4)
        x, y = a.from_coordinates([1, a.field.generator()]), b.teichmuller(2)
        assert x + y == y + x and x * y == b.element(x) * y
        assert 3 - x == b.element(3) - x

    @pytest.mark.parametrize("other", [(2, 2, 4), (3, 1, 4), (3, 2, 3)])
    def test_other_parameters_do_not_mix(self, other):
        x, y = WittContext(3, 2, 4).one(), WittContext(*other).one()
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: WittContext(3, 2, 4).element(y)):
            with pytest.raises(InputError, match="^context mismatch$"):
                op()


@pytest.mark.parametrize(
    "make, p",
    [
        (lambda: WittContext(4), 4),
        (lambda: CartierContext(6), 6),
        (lambda: unramified_ring(9, 1, 3), 9),
        (lambda: FiniteField(0, 1), 0),
        (lambda: artin_hasse(1, 3), 1),
        (lambda: ghost_components([1, 1], 4), 4),
        (lambda: ghost_inverse([1, 1], -3), -3),
        (lambda: serre_tate_torsion((1, 2), 6), 6),
    ],
    ids=[
        "WittContext",
        "CartierContext",
        "unramified_ring",
        "FiniteField",
        "artin_hasse",
        "ghost_components",
        "ghost_inverse",
        "serre_tate_torsion",
    ],
)
def test_non_prime_p_refused(make, p):
    with pytest.raises(InputError, match="p = %d is not prime" % p):
        make()


def test_field_degree_below_one_refused():
    with pytest.raises(InputError, match="field degree"):
        FiniteField(3, 0)
