"""Coefficient-tuple kernels against their object-level versions in
`element_oracles`: Cartier products, Witt coordinates both ways, the
Berkowitz step and powers in Z/p^N."""

import random

import pytest

from isolab._arith import charpoly, euler_phi
from isolab.cartier import CartierContext, cartier_normalize
from isolab.errors import InputError
from isolab.unramified import FFElement, UnramifiedRing, unramified_ring
from isolab.witt import WittContext

import element_oracles as oracle

# F_2, F_3, F_4, F_5, F_7, F_8, F_9, F_16, F_25 and F_27
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


def _nonzero(field, rng):
    return field([rng.randrange(field.p) for _ in range(field.m - 1)] + [rng.randrange(1, field.p)])


def _random_cartier(ctx, rng):
    """A normalized sum of one to three monomials with a, b <= vcap, so
    some rows fall past the cap; a repeated position makes its diagonal
    carry, and one element in five starts out truncated."""
    raw = [(rng.randrange(ctx.vcap + 1), rng.randrange(ctx.vcap + 1), _nonzero(ctx.field, rng))]
    for _ in range(rng.randrange(3)):
        a, b = raw[0][:2] if rng.random() < 0.5 else (rng.randrange(ctx.vcap + 1), rng.randrange(ctx.vcap + 1))
        raw.append((a, b, _nonzero(ctx.field, rng)))
    return cartier_normalize(ctx, raw, truncated=rng.random() < 0.2)


def _same_cartier(got, want):
    assert got.terms == want.terms and got.truncated == want.truncated
    for c in got.terms.values():
        assert type(c) is FFElement and c.field is got.context.field and len(c.coeffs) == got.context.m


class TestCartierProduct:
    @pytest.mark.parametrize("p, m", FIELDS)
    @pytest.mark.parametrize("vcap", [1, 2, 3, 4])
    def test_products_match_the_element_product(self, p, m, vcap):
        ctx = CartierContext(p, m, vcap)
        rng = random.Random(1000 * p + 10 * m + vcap)
        for _ in range(12):
            x, y, z = (_random_cartier(ctx, rng) for _ in range(3))
            xy = x * y
            _same_cartier(xy, oracle.cartier_product(x, y))
            _same_cartier(xy * z, oracle.cartier_product(oracle.cartier_product(x, y), z))

    def test_products_cover_carries_and_truncation(self):
        # over F_4 at vcap 3, (<1> + <g>F)^2 holds <g>F twice: 2<g>F
        # carries into row 1; a row pushed to the cap sets the flag
        ctx = CartierContext(2, 2, 3)
        g = ctx.field.generator()
        x = cartier_normalize(ctx, [(0, 0, 1), (0, 1, g)])
        _same_cartier(x * x, oracle.cartier_product(x, x))
        assert (1, 2) in (x * x).terms
        w = ctx.monomial(2, 0, g)
        assert (w * ctx.V()).truncated and oracle.cartier_product(w, ctx.V()).truncated

    @pytest.mark.parametrize("p, m", FIELDS)
    def test_phi_is_euler_phi(self, p, m):
        ctx = CartierContext(p, m)
        assert ctx.monomial(1, 0) * ctx.F() == ctx.p_element()
        assert "phi" not in vars(ctx)  # no diagonal carried, so never read
        assert ctx.phi == euler_phi(p**m - 1)

    def test_single_monomial_stands_after_the_checks(self):
        ctx = CartierContext(3, 2, 2)
        g = ctx.field.generator()
        z = cartier_normalize(ctx, [(1, 4, g)])
        assert z.terms == {(1, 4): g} and z.terms[(1, 4)] is g and not z.truncated
        assert cartier_normalize(ctx, [(0, 0, 4)]).terms == {(0, 0): ctx.field(1)}  # coerced mod 3
        assert cartier_normalize(ctx, [(0, 0, 3)]).is_zero()
        assert cartier_normalize(ctx, [(2, 0, g)]).truncated
        with pytest.raises(InputError, match="negative V or F exponent"):
            cartier_normalize(ctx, [(0, -1, g)])
        with pytest.raises(InputError, match="different field"):
            cartier_normalize(ctx, [(0, 0, CartierContext(3, 1).field(1))])


class TestWittCoordinates:
    @pytest.mark.parametrize("p, m", FIELDS)
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_both_directions_match_the_element_versions(self, p, m, N):
        ctx = WittContext(p, m, N)
        rng = random.Random(100 * p + 10 * m + N)
        for _ in range(8):
            coords = [ctx.field([rng.randrange(p) for _ in range(m)]) for _ in range(rng.randrange(N + 1))]
            x = ctx.from_coordinates(coords)
            assert x == oracle.from_coordinates(ctx, coords)
            y = ctx.element(ctx.ring.from_coeffs([rng.randrange(ctx.ring.pN) for _ in range(m)]))
            for w in (x, y, x + y, x * y):
                got = w.coordinates()
                assert got == oracle.coordinates(w)
                assert all(type(c) is FFElement and len(c.coeffs) == m for c in got)
                assert ctx.from_coordinates(got) == w

    def test_int_coordinates_are_coerced(self):
        ctx = WittContext(3, 2, 3)
        assert ctx.from_coordinates([1, 5, 0]) == oracle.from_coordinates(ctx, [1, 5, 0])
        with pytest.raises(InputError, match="more coordinates than the precision carries"):
            ctx.from_coordinates([1, 1, 1, 1])

    def test_lifts_come_from_the_ring(self, monkeypatch):
        # the summed lifts are read through `UnramifiedRing.teichmuller`
        calls = []
        original = UnramifiedRing.teichmuller

        def counted(ring, c):
            calls.append(c)
            return original(ring, c)

        monkeypatch.setattr(UnramifiedRing, "teichmuller", counted)
        ctx = WittContext(2, 2, 4)
        ctx.from_coordinates([1, ctx.field.generator()])
        assert len(calls) == 2


class TestBerkowitzStep:
    def test_convolution_step_is_the_slice_sum(self):
        rng = random.Random(7)
        for modulus in (2**5, 3**4, 97, 10**9 + 7):
            for h in range(8):
                for _ in range(6):
                    M = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(h)] for _ in range(h)]
                    assert charpoly(M, modulus) == oracle.charpoly(M, modulus), (modulus, M)


class TestPowerModPN:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_builtin_pow_is_square_and_multiply(self, p, N):
        ring = unramified_ring(p, 1, N)
        rng = random.Random(p * 10 + N)
        residues = {0, 1, ring.pN - 1} | {rng.randrange(ring.pN) for _ in range(30)}
        for c in sorted(residues):
            u = ring.from_int(c)
            for k in (0, 1, 2, 3, p, p**N, 12345):
                got = u**k
                assert got == oracle.ring_power(u, k) and got.coeffs == oracle.ring_power(u, k).coeffs
            assert u**0 == ring.one()
            with pytest.raises(InputError, match="exponent must be >= 0, got -1"):
                u ** -1
