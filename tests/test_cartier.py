"""Local Cartier ring: relations, canonical form, module action, series."""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from isolab._arith import base_p_digits, is_prime
from isolab.cartier import (
    MAX_ARTIN_HASSE_DEGREE,
    MAX_WORKING_PRECISION,
    CartierContext,
    CartierElement,
    _from_int,
    _working_ring,
    artin_hasse,
    cartier_from_json,
    cartier_normalize,
)
from isolab.errors import InputError, PrecisionError
from isolab.unramified import UElement, finite_field, unramified_ring
from isolab.witt import WittContext


def random_nonzero(field, rng):
    els = [e for e in field.elements() if not e.is_zero()]
    return rng.choice(els)


# ---------------------------------------------------------------------------
# oracles: normalization on ring elements, digit by digit


def oracle_digits(ring, v, k):
    """Teichmuller digits by ring arithmetic: residue, subtract its lift,
    divide by p."""
    digits = []
    for _ in range(k):
        r = v.residue()
        digits.append(r)
        v = UElement(ring, [c // ring.p for c in (v - ring.teichmuller(r)).coeffs])
    return digits, v


def oracle_normalize(context, raw_terms, truncated=False):
    """cartier_normalize with every sum, difference and quotient a
    `UElement` and every digit a field element."""
    field, A, p = context.field, context.vcap, context.p
    diagonals = {}
    for a, b, c in raw_terms:
        c = field.coerce(c)
        if c.is_zero():
            continue
        if a >= A:
            truncated = True
            continue
        diagonals.setdefault(a - b, []).append((a, b, c))
    table = {}
    for i, terms in diagonals.items():
        digits = A - i
        assert digits <= MAX_WORKING_PRECISION
        weight = sum(p**b for _, b, _ in terms) + p**digits
        guard = context.field.phi * base_p_digits(weight, p) + 2
        ring = _working_ring(context, digits + guard)
        acc = sum((ring.from_int(p) ** b * ring.teichmuller(c.frobenius_inv(a)) for a, b, c in terms), ring.zero())
        residues, v = oracle_digits(ring, acc, digits)
        for b, r in enumerate(residues):
            if not r.is_zero():
                assert i + b >= 0
                table[(i + b, b)] = r.frobenius(i + b)
        if any(c % p**guard for c in v.coeffs):
            truncated = True
    return CartierElement(context, table, truncated)


def oracle_from_int(ctx, k):
    guard = ctx.field.phi * (base_p_digits(abs(k), ctx.p) + 1) + 2
    ring = _working_ring(ctx, ctx.vcap + guard)
    digits, rest = oracle_digits(ring, ring.from_int(k), ctx.vcap)
    raw = [(b, b, r.frobenius(b)) for b, r in enumerate(digits) if not r.is_zero()]
    return oracle_normalize(ctx, raw, truncated=any(c % ctx.p**guard for c in rest.coeffs))


def lift_ring_normalize(context, raw_terms, truncated=False):
    """cartier_normalize with no carry-free shortcut: every diagonal, even
    one whose positions are distinct, is summed in its lift ring and read
    back by `digit_keys`."""
    field, A, p = context.field, context.vcap, context.p
    diagonals = {}
    for a, b, c in raw_terms:
        c = field.coerce(c)
        if c.is_zero():
            continue
        if a >= A:
            truncated = True
            continue
        diagonals.setdefault(a - b, []).append((a, b, c))
    table = {}
    for i, terms in diagonals.items():
        digits = A - i
        weight = sum(p**b for _, b, _ in terms) + p**digits
        guard = context.field.phi * base_p_digits(weight, p) + 2
        ring = unramified_ring(p, context.m, digits + guard)
        acc = [0] * context.m
        for a, b, c in terms:
            acc = [x + p**b * y for x, y in zip(acc, ring.teichmuller(c.frobenius_inv(a)).coeffs)]
        keys, v = ring.digit_keys([x % ring.pN for x in acc], digits)
        for b, r in enumerate(keys):
            if any(r):
                table[(i + b, b)] = field(r).frobenius(i + b)
        if any(c % p**guard for c in v):
            truncated = True
    return CartierElement(context, table, truncated)


ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


class TestNormalizeOracle:
    @pytest.mark.parametrize("p, m", ORACLE_FIELDS)
    @pytest.mark.parametrize("vcap", [1, 2, 3, 4])
    def test_monomial_products_and_sums(self, p, m, vcap):
        # every product and every sum of two monomials V^a <c> F^b with
        # a, b < vcap and c != 0: the same terms and the same truncated flag
        ctx = CartierContext(p, m, vcap)
        units = [c for c in ctx.field.elements() if not c.is_zero()]
        monomials = [(a, b, c) for a in range(vcap) for b in range(vcap) for c in units]
        raws = set()
        for j, (a, b, c) in enumerate(monomials):
            for a2, b2, c2 in monomials:
                raws.add(((a + a2, b + b2, c.frobenius(a2) * c2.frobenius(b)),))
            for other in monomials[j:]:
                raws.add(((a, b, c), other))
        for raw in raws:
            got, want = cartier_normalize(ctx, raw), oracle_normalize(ctx, raw)
            assert (got.terms, got.truncated) == (want.terms, want.truncated), raw

    @pytest.mark.parametrize("p, m", ORACLE_FIELDS)
    def test_from_int(self, p, m):
        ctx = CartierContext(p, m, vcap=4)
        for k in range(-50, 51):
            got, want = _from_int(ctx, k), oracle_from_int(ctx, k)
            assert (got.terms, got.truncated) == (want.terms, want.truncated), k

    def test_warm_normalize_builds_no_ring_element(self, monkeypatch):
        # the sum and its digits are plain ints: a warm normalization over
        # F_9 meets ring elements only as entries of the lift table
        ctx = CartierContext(3, 2, vcap=4)
        g = ctx.field.generator()
        raw = [(1, 0, g), (2, 1, g + 1), (3, 3, 2 * g), (0, 2, 1), (1, 0, 2)]
        cold = cartier_normalize(ctx, raw)
        ring = _working_ring(ctx, 4)
        made = []
        original = UElement.__init__

        def counting(self, ring, coeffs):
            made.append(coeffs)
            original(self, ring, coeffs)

        monkeypatch.setattr(UElement, "__init__", counting)
        UElement(ring, [1])
        assert made == [[1]]  # the patch sees every construction
        made.clear()
        warm = cartier_normalize(ctx, raw)
        assert made == []
        assert (warm.terms, warm.truncated) == (cold.terms, cold.truncated)


class TestCarryFreeShortcut:
    """A diagonal whose positions are distinct is taken as it stands; the
    lift-ring normalization must agree on every small raw sum."""

    @pytest.mark.parametrize(
        "p, m, vcap, length",
        [(p, m, vcap, length) for p, m in [(2, 1), (3, 1), (2, 2)] for vcap in (1, 2, 3) for length in (1, 2)]
        + [(3, 2, vcap, length) for vcap in (1, 2) for length in (1, 2)]
        + [(2, 1, vcap, 3) for vcap in (1, 2)],
    )
    def test_every_short_raw_sum(self, p, m, vcap, length):
        # a, b in 0..vcap (so rows at the cap are dropped), every c, 0 too
        ctx = CartierContext(p, m, vcap)
        monomials = [(a, b, c) for a in range(vcap + 1) for b in range(vcap + 1) for c in ctx.field.elements()]
        for raw in product(monomials, repeat=length):
            got, want = cartier_normalize(ctx, raw), lift_ring_normalize(ctx, raw)
            assert (got.terms, got.truncated) == (want.terms, want.truncated), raw

    def test_carry_free_normalization_builds_no_ring(self):
        # over F_{31^3} the lift ring of a single monomial at V-cap 2 would
        # have precision 7920 * 3 + 4; a monomial needs none
        finite_field.cache_clear()
        ctx = CartierContext(31, 3, vcap=2)
        g = ctx.field.generator()
        z = ctx.monomial(1, 0, g + 1) * ctx.monomial(0, 1, 3)
        assert z.terms == {(1, 1): (g + 1) * 3} and not z.truncated
        assert ctx.F().terms == {(0, 1): ctx.field(1)}
        assert ctx.field._lifts == {}


class TestRelations:
    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
    def test_fv_vf_p(self, p, m):
        ctx = CartierContext(p, m, vcap=6)
        assert ctx.F() * ctx.V() == ctx.p_element()
        assert ctx.V() * ctx.F() == ctx.p_element()

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
    def test_diagonal_multiplicative(self, p, m):
        ctx = CartierContext(p, m, vcap=6)
        rng = random.Random(p)
        for _ in range(200):
            a, b = random_nonzero(ctx.field, rng), random_nonzero(ctx.field, rng)
            assert ctx.diag(a) * ctx.diag(b) == ctx.diag(a * b)

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
    def test_f_diag_twist(self, p, m):
        ctx = CartierContext(p, m, vcap=6)
        rng = random.Random(3 * p)
        for _ in range(200):
            a = random_nonzero(ctx.field, rng)
            assert ctx.F() * ctx.diag(a) == ctx.monomial(0, 1, a.frobenius())
            assert ctx.diag(a) * ctx.V() == ctx.monomial(1, 0, a.frobenius())

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
    def test_relation_seven(self, p, m):
        # V^mm <a> F^mm . V^nn <b> F^nn = p^r V^(mm+nn-r) <a^(p^(nn-r)) b^(p^(mm-r))> F^(mm+nn-r)
        ctx = CartierContext(p, m, vcap=6)
        rng = random.Random(7 * p)
        for _ in range(200):
            a, b = random_nonzero(ctx.field, rng), random_nonzero(ctx.field, rng)
            mm, nn = rng.randrange(3), rng.randrange(3)
            r = min(mm, nn)
            lhs = ctx.monomial(mm, mm, a) * ctx.monomial(nn, nn, b)
            rhs = ctx.p_element() ** r * ctx.monomial(
                mm + nn - r, mm + nn - r, a.frobenius(nn - r) * b.frobenius(mm - r)
            )
            assert lhs == rhs

    def test_one_plus_one_is_p_char2(self):
        ctx = CartierContext(2, 1, vcap=5)
        assert ctx.one() + ctx.one() == ctx.p_element()

    def test_associativity_monomials(self):
        for p, m in ((2, 2), (3, 2)):
            ctx = CartierContext(p, m, vcap=6)
            rng = random.Random(13 + p)
            for _ in range(60):
                xs = [
                    ctx.monomial(rng.randrange(4), rng.randrange(4), random_nonzero(ctx.field, rng))
                    for _ in range(3)
                ]
                assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])

    def test_distributivity(self):
        ctx = CartierContext(3, 1, vcap=5)
        rng = random.Random(5)
        for _ in range(30):
            xs = [
                ctx.monomial(rng.randrange(3), rng.randrange(3), 1 + rng.randrange(2))
                for _ in range(3)
            ]
            assert xs[0] * (xs[1] + xs[2]) == xs[0] * xs[1] + xs[0] * xs[2]


class TestNormalization:
    def test_monomial_collision_carries(self):
        # <1> + <1> over F_2 must carry into the (1,1) slot, not give <2> = 0
        ctx = CartierContext(2, 1, vcap=4)
        z = cartier_normalize(ctx, [(0, 0, 1), (0, 0, 1)])
        assert z.terms == {(1, 1): ctx.field(1)}

    def test_unique_expression(self):
        # normalizing twice is the identity on tables
        ctx = CartierContext(3, 2, vcap=5)
        rng = random.Random(17)
        for _ in range(50):
            raw = [
                (rng.randrange(4), rng.randrange(4), random_nonzero(ctx.field, rng))
                for _ in range(4)
            ]
            z = cartier_normalize(ctx, raw)
            again = cartier_normalize(ctx, [(a, b, c) for (a, b), c in z.terms.items()])
            assert again.terms == z.terms
            assert not again.truncated

    def test_vcap_truncation_flagged(self):
        ctx = CartierContext(2, 1, vcap=2)
        z = cartier_normalize(ctx, [(2, 0, 1)])
        assert z.is_zero() and z.truncated

    def test_carry_past_cap_flagged(self):
        ctx = CartierContext(2, 1, vcap=1)
        z = ctx.one() + ctx.one()  # = p = V<1>F, entirely beyond cap 1
        assert z.is_zero() and z.truncated

    def test_clean_operations_not_flagged(self):
        ctx = CartierContext(5, 1, vcap=6)
        assert not (ctx.F() * ctx.V()).truncated
        assert not (ctx.diag(2) * ctx.diag(3)).truncated

    def test_deep_teichmuller_tail_detected(self):
        # over F_5, <1> + <1> = "2" has an infinite Teichmuller tail; the
        # cap-2 table keeps two digits and must report the dropped tail
        ctx = CartierContext(5, 1, vcap=2)
        z = ctx.one() + ctx.one()
        assert z.truncated
        assert z.terms[(0, 0)] == ctx.field(2)

    def test_integer_embedding(self):
        ctx = CartierContext(2, 1, vcap=5)
        assert ctx.from_int(6).terms == {(1, 1): ctx.field(1), (2, 2): ctx.field(1)}
        assert ctx.from_int(0).is_zero()

    def test_zero_cap_rejected(self):
        with pytest.raises(InputError):
            CartierContext(2, 1, vcap=0)

    def test_context_builds_no_ring(self):
        finite_field.cache_clear()
        ctx = CartierContext(3, 2, vcap=4)
        assert ctx.field is finite_field(3, 2)
        assert ctx.field._lifts == {}
        for p, m, message in ((4, 1, "p = 4 is not prime"), (2, 0, "field degree m must be >= 1")):
            with pytest.raises(InputError, match=message):
                CartierContext(p, m)


    def test_rings_follow_the_field_cache(self):
        # a cached ring once kept the field it was built with, so after
        # clearing the field cache alone a new context's carrying diagonal
        # raised "element from a different field"
        results = []
        for _ in range(2):
            ctx = CartierContext(3, 2, vcap=3)
            g = ctx.field.generator()
            results.append(repr(cartier_normalize(ctx, [(0, 0, g), (0, 0, g)])))
            assert unramified_ring(3, 2, 4).field is ctx.field is finite_field(3, 2)
            finite_field.cache_clear()
        assert results == ["Cartier(<2*g> + V <2*g> F)"] * 2

    def test_context_outlives_the_field_cache(self):
        # its working rings once came from the cache, over the field cached
        # now, so a context built before a clear raised "element from a
        # different field" on its next carrying diagonal
        ctx = CartierContext(3, 2, vcap=3)
        g = ctx.field.generator()
        finite_field.cache_clear()
        assert repr(cartier_normalize(ctx, [(0, 0, g), (0, 0, g)])) == "Cartier(<2*g> + V <2*g> F)"

    def test_arithmetic_outlives_the_field_cache(self):
        ctx = CartierContext(3, 2, vcap=3)
        x = ctx.monomial(0, 0, ctx.field.generator())
        want = (repr(x + x), repr(-x))
        finite_field.cache_clear()
        assert (repr(x + x), repr(-x)) == want == ("Cartier(<2*g> + V <2*g> F)", "Cartier(<2*g>)")


class TestAction:
    def test_diag_one_acts_trivially(self):
        ctx = CartierContext(2, 2, vcap=5)
        wctx = WittContext(2, 2, 4)
        w = wctx.from_coordinates([wctx.field([1, 1]), 1, 0, 1])
        assert ctx.one().act(w) == w

    def test_fv_acts_as_p(self):
        ctx = CartierContext(3, 1, vcap=5)
        wctx = WittContext(3, 1, 4)
        w = wctx.from_coordinates([2, 1, 0, 2])
        assert (ctx.F() * ctx.V()).act(w) == wctx.element(3) * w

    def test_v_diag_f_coordinate_formula(self):
        # V<a>F acts as (c_0, c_1, ...) -> (0, a c_0^p, a^p c_1^p, ...)
        ctx = CartierContext(2, 1, vcap=5)
        wctx = WittContext(2, 1, 4)
        w = wctx.from_coordinates([1, 1, 0, 1])
        out = ctx.monomial(1, 1, 1).act(w)
        shifted = [wctx.field.zero()] + [c ** 2 for c in w.coordinates()[:-1]]
        assert out.coordinates() == shifted

    def test_action_is_module_map(self):
        # compatible precision: Witt length N <= V-cap, so rows dropped by
        # the cap act as multiples of p^N anyway
        ctx = CartierContext(3, 2, vcap=4)
        wctx = WittContext(3, 2, 4)
        rng = random.Random(23)
        els = wctx.field.elements()
        for _ in range(40):
            x = ctx.monomial(rng.randrange(3), rng.randrange(3), random_nonzero(ctx.field, rng))
            y = ctx.monomial(rng.randrange(3), rng.randrange(3), random_nonzero(ctx.field, rng))
            w = wctx.from_coordinates([rng.choice(els) for _ in range(4)])
            assert (x * y).act(w) == x.act(y.act(w))
            assert (x + y).act(w) == x.act(w) + y.act(w)

    def test_action_separates_monomials_up_to_sigma_period(self):
        # the action of V^a <c> F^b on the standard module is
        # p^a tau(c^(1/p^a)) sigma^(b-a); two monomials act identically
        # exactly when (a, twisted c, (b-a) mod m) agree.  F^m acts as
        # sigma^m = id, so the F-exponent is only seen modulo m.
        ctx = CartierContext(2, 2, vcap=3)
        wctx = WittContext(2, 2, 4)
        m = 2
        probes = [wctx.teichmuller(c) for c in wctx.field.elements() if not c.is_zero()]
        probes += [x.verschiebung() for x in probes[:2]]
        monos = [
            (a, b, c)
            for a in range(3)
            for b in range(3)
            for c in [ctx.field([1, 0]), ctx.field([0, 1])]
        ]
        for a1, b1, c1 in monos:
            x = ctx.monomial(a1, b1, c1)
            for a2, b2, c2 in monos:
                y = ctx.monomial(a2, b2, c2)
                same_key = (
                    a1 == a2
                    and (b1 - a1) % m == (b2 - a2) % m
                    and c1.frobenius_inv(a1) == c2.frobenius_inv(a2)
                )
                agree = all(x.act(w) == y.act(w) for w in probes)
                assert agree == same_key

    def test_precision_underflow(self):
        ctx = CartierContext(2, 1, vcap=6)
        wctx = WittContext(2, 1, 3)
        w = wctx.one()
        with pytest.raises(PrecisionError):
            ctx.monomial(3, 0, 1).act(w)

    def test_action_takes_and_returns_a_ring_element(self):
        ctx = CartierContext(3, 2, vcap=4)
        wctx = WittContext(3, 2, 4)
        w = wctx.from_coordinates([1, wctx.field.generator()])
        out = ctx.V().act(w)
        assert type(out) is UElement and out.ring is w.ring is wctx.ring
        assert out == w.verschiebung()

    @pytest.mark.parametrize("target", [3, "x", CartierContext(3, 2).one(), finite_field(3, 2).one()])
    def test_action_refuses_a_non_element(self, target):
        with pytest.raises(InputError, match="^action target must be a WittElement$"):
            CartierContext(3, 2).one().act(target)

    @pytest.mark.parametrize("p, m", [(3, 1), (2, 2), (5, 2)])
    def test_action_refuses_another_field(self, p, m):
        with pytest.raises(InputError, match="^field mismatch between Cartier element and Witt vector$"):
            CartierContext(3, 2).one().act(WittContext(p, m, 3).one())

    def test_action_refuses_the_same_parameters_over_another_field(self):
        # equal (p, m) once passed the check and failed inside `teichmuller`
        # with "element from a different field"
        w = WittContext(3, 2, 3).one()
        finite_field.cache_clear()
        with pytest.raises(InputError, match="^field mismatch between Cartier element and Witt vector$"):
            CartierContext(3, 2).one().act(w)


def _artin_hasse_convolution(p, degree):
    """The Artin-Hasse coefficients as the library once computed them:
    (k + 1) a_(k+1) = sum_i g'_i a_(k-i), a full convolution with the
    mostly zero g' = -sum x^(p^n - 1)."""
    gprime = [Fraction(0)] * degree
    q = 1
    while q - 1 < degree:
        gprime[q - 1] = Fraction(-1)
        q *= p
    coeffs = [Fraction(1)]
    for k in range(degree):
        acc = sum((gprime[i] * coeffs[k - i] for i in range(k + 1)), Fraction(0))
        coeffs.append(acc / (k + 1))
    return coeffs


class TestArtinHasse:
    @pytest.mark.parametrize("p", [p for p in range(98) if is_prime(p)])
    def test_sparse_recurrence_is_the_convolution(self, p):
        want = _artin_hasse_convolution(p, 120)
        for degree in range(1, 121):
            assert artin_hasse(p, degree) == want[: degree + 1], degree

    @pytest.mark.parametrize("p", [2, 3])
    def test_sparse_recurrence_at_the_cap(self, p):
        assert artin_hasse(p, MAX_ARTIN_HASSE_DEGREE) == _artin_hasse_convolution(p, MAX_ARTIN_HASSE_DEGREE)

    def test_constant_and_linear(self):
        for p in (2, 3, 5):
            c = artin_hasse(p, 4)
            assert c[0] == 1 and c[1] == -1

    def test_p_integrality_to_50(self):
        for p in (2, 3, 5):
            for c in artin_hasse(p, 50):
                assert c.denominator % p != 0

    def test_against_formal_exponential(self):
        # oracle: exp(g) = sum g^k / k! truncated, with exact rationals
        def exp_series(g, d):
            out = [Fraction(0)] * (d + 1)
            out[0] = Fraction(1)
            term = [Fraction(1)] + [Fraction(0)] * d
            for k in range(1, d + 1):
                new = [Fraction(0)] * (d + 1)
                for i, ti in enumerate(term):
                    if ti:
                        for j, gj in enumerate(g):
                            if gj and i + j <= d:
                                new[i + j] += ti * gj
                term = new
                for i in range(d + 1):
                    out[i] += term[i] / factorial(k)
            return out

        for p in (2, 3):
            d = 14
            g = [Fraction(0)] * (d + 1)
            q = 1
            while q <= d:
                g[q] = Fraction(-1, q)
                q *= p
            assert artin_hasse(p, d) == exp_series(g, d)

    def test_degree_validation(self):
        with pytest.raises(InputError):
            artin_hasse(2, 0)


class TestJson:
    def test_round_trip(self):
        ctx = CartierContext(3, 2, vcap=5)
        g = ctx.field.generator()
        z = ctx.monomial(2, 1, g) + ctx.monomial(0, 3, g + 1)
        ctx2, z2 = cartier_from_json(z.to_json())
        assert z2.to_json() == z.to_json()
