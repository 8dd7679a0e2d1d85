"""Weil number verification and Honda-Tate classification."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import comb, isqrt

import pytest

from isolab import weil
from isolab.errors import InputError, IsolabError, PlaceResolutionError
from isolab._arith import poly_add, poly_deriv, poly_eval, poly_mul, poly_primitive, poly_rem, poly_sub, poly_trim
from isolab.weil import (
    HondaTateData,
    WeilRejection,
    _rational_roots,
    _real_weil_polynomial,
    _roots_all_real_and_bounded,
    _sturm_chain,
    albert_classify,
    count_real_roots,
    honda_tate,
    is_irreducible_q,
    weil_from_real_trace,
    weil_verify,
)

from qpoly import field_stable_under_power, q_divmod, q_gcd, rational_roots_by_divisors, weil_transform
from qpoly import irreducible_by_backstop as _irreducible_by_backstop


class TestIrreducibility:
    def test_linear(self):
        assert is_irreducible_q([3, 1])

    def test_quadratic(self):
        assert is_irreducible_q([2, -1, 1])  # T^2 - T + 2
        assert not is_irreducible_q([4, -5, 1])  # (T-1)(T-4)

    def test_quadratics_by_discriminant_match_rational_roots(self):
        # every monic T^2 + c1 T + c0 with |c0| <= 300 and |c1| <= 60
        for c0 in range(-300, 301):
            for c1 in range(-60, 61):
                assert is_irreducible_q([c0, c1, 1]) == (not rational_roots_by_divisors([c0, c1, 1])), (c0, c1)

    def test_rational_roots_match_the_divisor_search(self):
        # every monic polynomial of degree <= 4 with coefficients in [-3, 3];
        # the divisor search returns [0] alone when f(0) = 0
        for e in range(1, 5):
            for low in product(range(-3, 4), repeat=e):
                f = list(low) + [1]
                want = rational_roots_by_divisors(f)
                got = _rational_roots(f)
                if f[0]:
                    assert got == sorted(want), f
                else:
                    assert 0 in got and want == [0], f

    def test_rational_roots_of_products_with_large_roots(self):
        rng = random.Random(2402)
        for _ in range(60):
            roots = [rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
            f = [1]
            for r in roots:
                f = poly_mul(f, [-r, 1])
            if rng.random() < 0.5:
                f = poly_mul(f, [rng.randint(1, 5), rng.randint(-3, 3), 1])  # x^2 + b x + c, maybe no real root
            got = _rational_roots(f)
            assert got == sorted(rational_roots_by_divisors(f)) and set(roots) <= set(got), (roots, f)
        # a double root, roots at the Cauchy bound's edge, and a cubic whose
        # constant term Pollard rho cannot split quickly
        assert _rational_roots(poly_mul([-7, 1], [-7, 1])) == [7]
        assert _rational_roots([-6, 1]) == [6] and _rational_roots([6, 1]) == [-6]
        assert _rational_roots([1427247692705959881088524462630930192097345861, 0, 0, 1]) == []

    def test_quadratic_with_a_hard_constant(self):
        # c0 = P^2 for the Mersenne prime P = 2^61 - 1, which Pollard rho
        # would need about 2^30 steps to split
        P = 2**61 - 1
        assert is_irreducible_q([P * P, 1, 1])
        assert not is_irreducible_q([P * P, -2 * P, 1])

    def test_cubic_with_root(self):
        assert not is_irreducible_q([0, 1, 0, 1])  # T(T^2+1)

    def test_biquadratic_needing_kronecker(self):
        # Galois group V_4: no irreducible reduction mod any prime
        assert is_irreducible_q([4, 0, 2, 0, 1])
        assert not is_irreducible_q([4, 0, 5, 0, 1])  # (T^2+1)(T^2+4)

    def test_quartic_weil(self):
        assert is_irreducible_q([64, 8, 6, 1, 1])

    def test_product_of_quadratics(self):
        # (T^2 - T + 2)(T^2 + T + 2)
        assert not is_irreducible_q([4, 0, 3, 0, 1])


class TestSturm:
    def test_simple_counts(self):
        # (x-1)(x-2)(x+3) = x^3 - 7x + 6
        f = [6, -7, 0, 1]
        assert count_real_roots(f) == 3
        assert count_real_roots(f, lower=0, upper=None) == 2
        assert count_real_roots(f, lower=Fraction(3, 2), upper=Fraction(5, 2)) == 1

    def test_no_real_roots(self):
        assert count_real_roots([1, 0, 1]) == 0  # x^2 + 1

    def test_empty_interval_refused(self):
        with pytest.raises(InputError, match="empty interval"):
            count_real_roots([-1, 0, 1], 2, -2)
        with pytest.raises(InputError, match="empty interval"):
            count_real_roots([-1, 0, 1], Fraction(1, 2), 0)
        assert count_real_roots([-1, 0, 1], 1, 1) == 0
        assert count_real_roots([-1, 0, 1], Fraction(-1), -1) == 0

    @pytest.mark.parametrize("f", [[], [0], [0, 0], [Fraction(0)]])
    def test_zero_polynomial_refused(self, f):
        # every real number is a root: no count is right
        with pytest.raises(InputError, match="zero polynomial"):
            count_real_roots(f)

    def test_constants_and_repeated_roots(self):
        assert count_real_roots([5]) == 0
        assert count_real_roots([Fraction(-1, 3)], 0, 1) == 0
        f = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])  # (x-1)^2 (x+2)
        assert count_real_roots(f) == 2
        assert count_real_roots(f, lower=0, upper=1) == 1  # the root 1 is in (0, 1]
        assert count_real_roots(f, lower=1, upper=None) == 0
        assert count_real_roots([Fraction(c, 6) for c in f], -2, 1) == 1

    def test_float_endpoint_is_read_exactly(self):
        # x - (2^60 + 1) at the float 2^60 is -1, which float arithmetic
        # rounds to 0
        assert count_real_roots([-(2**60 + 1), 1], 2.0**60) == 1
        assert count_real_roots([-(2**60 + 1), 1], 0.5, 2.0**60) == 0

    def test_counts_match_fraction_oracle_exhaustively(self):
        # every integer polynomial of degree <= 4 with coefficients in [-2, 2],
        # f and -f together, on endpoints None and k/2 for |k| <= 8 (ints
        # where k is even)
        points = [k // 2 if k % 2 == 0 else Fraction(k, 2) for k in range(-8, 9)]
        for coeffs in product(range(-2, 3), repeat=5):
            f = poly_trim(coeffs)
            if f and f[-1] > 0:
                _assert_counts_match(f, points)
                _assert_chain_positive_multiple(f)

    def test_counts_match_fraction_oracle_on_repeated_factors(self):
        rng = random.Random(11)
        for _ in range(150):
            f, roots = [rng.choice((-3, -1, 1, 2))], []
            while len(f) < 10:
                if rng.random() < 0.6:
                    a, b = rng.randint(1, 3), rng.randint(-6, 6)  # root -b/a
                    factor = [b, a]
                    roots.append(Fraction(-b, a))
                else:
                    factor = [rng.randint(-4, 4), rng.randint(-3, 3), rng.choice((-2, 1, 3))]
                for _ in range(rng.choice((1, 1, 2, 3))):
                    if len(f) + len(factor) - 2 < 11:
                        f = poly_mul(f, factor)
            points = sorted(set(roots) | {Fraction(rng.randint(-16, 16), 2) for _ in range(6)})
            _assert_counts_match(f, points)
            _assert_counts_match([Fraction(c, 7) for c in f], points[:3])
            _assert_chain_positive_multiple(f)


# -- the oracle of count_real_roots: Sturm chains by remainders and gcds over
# Q (`Fraction`s), taken on the squarefree part


def _oracle_sturm_chain(f):
    f = poly_trim(f)
    chain = [f, poly_deriv(f)]
    while len(chain[-1]) > 1:
        r = q_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _oracle_squarefree_part(f):
    f = poly_trim(f)
    if len(f) <= 2:
        return f
    g = q_gcd(f, poly_deriv(f))
    return f if len(g) == 1 else q_divmod(f, g)[0]


def _oracle_variations(chain, x, infinity):
    """Sign changes along the chain at x, or at infinity (+1 or -1) for None."""
    signs = []
    for g in chain:
        v = poly_eval(g, x) if x is not None else g[-1] * infinity ** (len(g) - 1)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _assert_counts_match(f, points):
    """count_real_roots of f and of -f against the oracle of f on the whole
    line and on each interval of its cut at the sorted points, the two
    outer ones infinite."""
    chain = _oracle_sturm_chain(_oracle_squarefree_part(f))
    ends = [None, *points, None]
    var = [_oracle_variations(chain, None, -1)]
    var += [_oracle_variations(chain, x, 0) for x in points]
    var.append(_oracle_variations(chain, None, 1))
    for g in (f, [-c for c in f]):
        assert count_real_roots(g) == var[0] - var[-1], g
        for x, y, vx, vy in zip(ends, ends[1:], var, var[1:]):
            assert count_real_roots(g, x, y) == vx - vy, (g, x, y)


def _assert_chain_positive_multiple(f):
    """Each entry of the integer chain is a positive multiple of the Fraction
    chain's entry, so both have the same signs everywhere."""
    ours, oracle = _sturm_chain(poly_primitive(f)), _oracle_sturm_chain(f)
    assert len(ours) == len(oracle), f
    for a, b in zip(ours, oracle):
        assert len(a) == len(b) and a[-1] * b[-1] > 0, f
        assert [x * b[-1] for x in a] == [y * a[-1] for y in b], f


def _divides_over_q(d, f):
    """The Fraction-division definition: long division of f by d over Q
    leaves no remainder and an integral quotient."""
    r = [Fraction(c) for c in f]
    q = []
    for i in range(len(f) - len(d), -1, -1):
        c = r[i + len(d) - 1] / d[-1]
        q.append(c)
        for j, dj in enumerate(d):
            r[i + j] -= c * dj
    return not any(r) and all(c.denominator == 1 for c in q)


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_int_poly_divides_is_the_fraction_definition():
    rng = random.Random(41)
    seen = set()
    for _ in range(2000):
        d = [rng.randint(-4, 4) for _ in range(rng.randrange(1, 5))] + [1]
        g = [rng.randint(-4, 4) for _ in range(rng.randrange(0, 5))] + [1]
        f = _convolve(d, g)
        if rng.random() < 0.5:
            f[rng.randrange(len(f) - 1)] += rng.choice((-1, 1))
        if rng.random() < 0.2:
            f = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))] + [1]
        want = _divides_over_q(d, f)
        assert (not poly_rem(f, d)) is want, (d, f)
        seen.add(want)
    assert seen == {True, False}


def _oracle_roots_all_real_and_bounded(h, q):
    """The shifted check: the roots of D(u) = C(u + 4q) are beta_i^2 - 4q,
    and after its zero roots are stripped none may be positive; the bound
    is strict when there were none to strip."""
    h = poly_trim(h)
    if count_real_roots(h) != len(h) - 1:
        return False, False
    A, B = h[0::2], h[1::2]
    C = poly_sub(poly_mul(A, A), [0] + poly_mul(B, B))
    D = []
    for c in reversed(C):
        D = poly_add(poly_mul(D, [4 * q, 1]), [c])
    strictly = D[0] != 0
    while D and D[0] == 0:
        D = D[1:]
    bounded = not D or count_real_roots(D, lower=0) == 0
    return bounded, bounded and strictly


def test_root_bound_is_the_shifted_check():
    verdicts = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        top = isqrt(16 * q) + 1  # |a| <= 4 sqrt(q) + 1
        for a in range(-top, top + 1):
            for b in range(-6 * q - 1, 6 * q + 2):
                h = _real_weil_polynomial([q * q, a * q, b, a, 1], q)
                verdicts.append(_roots_all_real_and_bounded(h, q))
                assert verdicts[-1] == _oracle_roots_all_real_and_bounded(h, q), (q, a, b)
    assert {(True, True), (True, False), (False, False)} <= set(verdicts)
    sextics = 0
    for minpoly, p, n in _weil_pin_cases():
        if len(minpoly) == 7:
            h = _real_weil_polynomial(list(reversed(minpoly)), p**n)
            assert _roots_all_real_and_bounded(h, p**n) == _oracle_roots_all_real_and_bounded(h, p**n), minpoly
            sextics += 1
    assert sextics > 20


class TestVerify:
    def test_ordinary_quadratic(self):
        w = weil_verify([1, -1, 2], 2, 1)
        assert w.e == 2 and w.q == 2

    def test_real_even_power(self):
        w = weil_verify([1, -3], 3, 2)
        assert w.e == 1

    def test_reducible_rejected(self):
        with pytest.raises(WeilRejection) as exc:
            weil_verify([1, -5, 4], 2, 2)
        assert exc.value.reason == "reducible"

    def test_functional_equation_rejected(self):
        with pytest.raises(WeilRejection) as exc:
            weil_verify([1, -1, 3], 2, 1)
        assert exc.value.reason == "functional-equation"

    def test_root_modulus_rejected(self):
        # T^2 - 5T + 2 satisfies the functional equation for q = 2 but has
        # two real roots of modulus != sqrt(2)
        with pytest.raises(WeilRejection) as exc:
            weil_verify([1, -5, 2], 2, 1)
        assert exc.value.reason == "root-modulus"

    def test_nonmonic_rejected(self):
        with pytest.raises(WeilRejection):
            weil_verify([2, -1, 2], 2, 1)

    def test_nonprime_p(self):
        with pytest.raises(InputError):
            weil_verify([1, -1, 4], 4, 1)

    def test_quartic_accepted(self):
        w = weil_verify([1, 1, 6, 8, 64], 2, 3)
        assert w.e == 4

    def test_quartic_modulus_violation(self):
        # functional-equation-shaped but trace polynomial leaves the bound:
        # a = 7, b = 6: beta^2 + 7 beta - 10 has a root below -4*sqrt(2)
        with pytest.raises(WeilRejection) as exc:
            weil_verify([1, 7, 6, 56, 64], 2, 3)
        assert exc.value.reason == "root-modulus"


class TestRecords:
    # the records were frozen dataclasses: repr, equality within the class,
    # hash (of the field tuple) and JSON are as they were
    def test_weil_number(self):
        w = weil_verify([1, -1, 2], 2, 1)
        assert repr(w) == "WeilNumber(minpoly=(1, -1, 2), p=2, n=1)"
        assert w == weil_verify([1, -1, 2], 2, 1) and w != weil_verify([1, 1, 2], 2, 1)
        assert hash(w) == hash(((1, -1, 2), 2, 1))
        assert w.to_json() == {"minpoly": [1, -1, 2], "p": 2, "n": 1}
        with pytest.raises(AttributeError):
            w.p = 3

    def test_honda_tate_data(self):
        ht = honda_tate(weil_verify([1, -1, 2], 2, 1))
        assert repr(ht) == (
            "HondaTateData(case='C', slopes=(Fraction(0, 1), Fraction(1, 1)), e0=1, e=2, d=1, g=1, albert='IV(1,1)', "
            "local_invariants=(('p|0:deg=1', Fraction(0, 1)), ('p|1:deg=1', Fraction(0, 1))))"
        )
        assert ht == honda_tate(weil_verify([1, -1, 2], 2, 1)) and ht != honda_tate(weil_verify([1, 0, -2], 2, 1))
        assert hash(ht) == hash((ht.case, ht.slopes, ht.e0, ht.e, ht.d, ht.g, ht.albert, ht.local_invariants))
        assert ht.to_json() == {
            "case": "C",
            "slopes": ["0", "1"],
            "e0": 1,
            "e": 2,
            "d": 1,
            "g": 1,
            "albert": "IV(1,1)",
            "local_invariants": [["p|0:deg=1", "0"], ["p|1:deg=1", "0"]],
        }
        with pytest.raises(AttributeError):
            ht.g = 2


class TestFromRealTrace:
    def test_examples(self):
        assert weil_from_real_trace(1, 2, 1).minpoly == (1, -1, 2)
        assert weil_from_real_trace(0, 3, 1).minpoly == (1, 0, 3)
        assert weil_from_real_trace(5, 5, 2).minpoly == (1, -5, 25)

    def test_boundary_square_q(self):
        assert weil_from_real_trace(6, 3, 2).minpoly == (1, -3)
        assert weil_from_real_trace(-4, 2, 2).minpoly == (1, 2)
        # for non-square q an integer trace can never reach the boundary
        w = weil_from_real_trace(2 * isqrt(27), 3, 3)
        assert w.e == 2

    def test_too_large(self):
        with pytest.raises(InputError):
            weil_from_real_trace(5, 2, 2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_refused(self, n):
        # q = p^n would be 1, or a non-integer
        with pytest.raises(InputError, match="n must be >= 1"):
            weil_from_real_trace(1, 2, n)

    def test_always_verifies(self):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                q = p**n
                for beta in range(-isqrt(4 * q - 1), isqrt(4 * q - 1) + 1):
                    w = weil_from_real_trace(beta, p, n)
                    assert weil_verify(list(w.minpoly), p, n) == w


class TestHondaTate:
    def test_case_re(self):
        ht = honda_tate(weil_verify([1, -3], 3, 2))
        assert (ht.case, ht.albert, ht.g, ht.d, ht.e) == ("Re", "III(1)", 1, 2, 1)
        assert ht.slopes == (Fraction(1, 2),)
        assert dict(ht.local_invariants)["p"] == Fraction(1, 2)
        assert dict(ht.local_invariants)["infinity"] == Fraction(1, 2)

    def test_case_re_negative(self):
        ht = honda_tate(weil_verify([1, 4], 2, 4))
        assert (ht.case, ht.g) == ("Re", 1)

    def test_case_ro(self):
        ht = honda_tate(weil_verify([1, 0, -27], 3, 3))
        assert (ht.case, ht.albert, ht.g, ht.d, ht.e) == ("Ro", "III(2)", 2, 2, 2)

    def test_ordinary_elliptic(self):
        ht = honda_tate(weil_verify([1, -1, 2], 2, 1))
        assert (ht.case, ht.albert, ht.g, ht.d) == ("C", "IV(1,1)", 1, 1)
        assert ht.slopes == (Fraction(0), Fraction(1))

    def test_supersingular_odd_n(self):
        ht = honda_tate(weil_verify([1, 0, 3], 3, 1))
        assert ht.slopes == (Fraction(1, 2), Fraction(1, 2))
        assert (ht.g, ht.d) == (1, 1)

    def test_manin_family(self):
        # T^2 + p^n T + p^g: slopes n/g and m/g, index g, dimension g
        for (m, n) in ((2, 1), (3, 2), (4, 3), (5, 2)):
            g = m + n
            for p in (2, 3, 5):
                coeffs = [1, p**n, p**g]
                if not is_irreducible_q(list(reversed(coeffs))):
                    continue
                ht = honda_tate(weil_verify(coeffs, p, g))
                assert ht.slopes == (Fraction(n, g), Fraction(m, g))
                assert ht.d == g and ht.g == g
                assert ht.albert == "IV(1,%d)" % g

    def test_quartic_lcm_regression(self):
        # slopes {0, 1/3, 2/3, 1}: invariant orders {1, 3, 3, 1}.
        # lcm gives d = 3 (g = 6); the gcd-of-denominators reading would
        # give d = 1, which is impossible: a slope-1/3 place of local
        # degree 1 needs its multiplicity d * 1 divisible by 3.
        ht = honda_tate(weil_verify([1, 1, 6, 8, 64], 2, 3))
        assert ht.d == 3 and ht.g == 6
        assert ht.albert == "IV(2,3)"
        for slope in set(ht.slopes):
            mult = ht.d * sum(1 for s in ht.slopes if s == slope)
            assert (slope * mult).denominator == 1

    def test_place_resolution_refused(self):
        # 7 splits in Q(sqrt(-3)): one hull segment hides two places
        with pytest.raises(PlaceResolutionError):
            honda_tate(weil_verify([1, -7, 49], 7, 2))

    def test_slope_symmetry_always(self):
        for p, n, beta in ((2, 1, 1), (3, 1, 0), (2, 3, 2), (5, 1, 3)):
            ht = honda_tate(weil_from_real_trace(beta, p, n))
            assert tuple(sorted(1 - s for s in ht.slopes)) == ht.slopes

    def test_two_g_equals_e_d(self):
        for p, n in ((2, 1), (2, 2), (3, 1), (5, 1), (3, 2)):
            q = p**n
            for beta in range(-isqrt(4 * q - 1), isqrt(4 * q - 1) + 1):
                try:
                    ht = honda_tate(weil_from_real_trace(beta, p, n))
                except PlaceResolutionError:
                    continue
                assert 2 * ht.g == ht.e * ht.d

    def test_ordinary_criterion_small(self):
        for p, n in ((2, 2), (3, 1), (5, 1)):
            q = p**n
            for beta in range(-isqrt(4 * q - 1), isqrt(4 * q - 1) + 1):
                try:
                    ht = honda_tate(weil_from_real_trace(beta, p, n))
                except PlaceResolutionError:
                    # only supersingular-type traces can be ambiguous
                    assert beta % p == 0
                    continue
                ordinary = ht.slopes == (Fraction(0), Fraction(1))
                assert ordinary == (beta % p != 0)


class TestAlbert:
    def test_type_i(self):
        assert albert_classify(1, 1, 1, True) == "I(1)"
        assert albert_classify(3, 3, 1, True) == "I(3)"

    def test_quaternion_split(self):
        assert albert_classify(1, 1, 2, True, is_definite=True) == "III(1)"
        assert albert_classify(2, 2, 2, True, is_definite=False) == "II(2)"

    def test_type_iv(self):
        assert albert_classify(1, 2, 1, False) == "IV(1,1)"
        assert albert_classify(2, 4, 3, False) == "IV(2,3)"

    def test_inconsistent(self):
        with pytest.raises(InputError):
            albert_classify(2, 3, 1, True)
        with pytest.raises(InputError):
            albert_classify(1, 1, 3, True)
        with pytest.raises(InputError):
            albert_classify(1, 1, 2, True)  # definiteness missing


class TestFieldStability:
    def test_ordinary_stable(self):
        w = weil_verify([1, -1, 2], 2, 1)
        assert field_stable_under_power(w, 3)

    def test_supersingular_collapses(self):
        # pi^2 = -3 is rational: the field shrinks
        w = weil_verify([1, 0, 3], 3, 1)
        assert not field_stable_under_power(w, 2)


def _functional_equation_candidate(rng, e, q, sign):
    """Monic integer polynomial of degree e (descending) whose coefficients
    satisfy c_k q^k = c_0 c_(e-k) with c_0 = sign * q^(e/2); e odd needs q
    a square.  For sign = 1 and e even, half of them are T^(e/2) h(T + q/T)
    with h = prod (T - r_i) + d for integers r_i inside (-2 sqrt(q),
    2 sqrt(q)) and d in {-1, 0, 1}; the others draw the top half of f
    inside the Weil bounds |c_(e-j)| <= C(e, j) q^(j/2)."""
    if sign == 1 and e % 2 == 0 and rng.random() < 0.5:
        g = e // 2
        top = isqrt(4 * q - 1)
        h = [1]
        for _ in range(g):
            h = poly_mul(h, [-rng.randint(-top, top), 1])
        h[0] += rng.randint(-1, 1)
        f = [0] * (e + 1)
        for j, b in enumerate(h):
            for i in range(j + 1):
                f[g - j + 2 * i] += b * comb(j, i) * q ** (j - i)
        return list(reversed(f))
    asc = [0] * (e + 1)
    asc[e] = 1
    for k in range(e - 1, (e - 1) // 2, -1):
        bound = comb(e, e - k) * isqrt(q ** (e - k))
        asc[k] = rng.randint(-bound, bound)
    if e % 2 == 0 and sign == -1:
        asc[e // 2] = 0
    for k in range((e + 1) // 2):
        asc[k] = sign * isqrt(q**e) // q**k * asc[e - k]
    return list(reversed(asc))


def _weil_pin_cases():
    cases = [([1, a, b, 2 * a, 4], 2, 1) for a in range(-5, 6) for b in range(-12, 13)]
    for p, n in ((2, 1), (3, 1), (2, 2), (3, 2), (5, 1), (2, 3)):
        q = p**n
        r = isqrt(q)
        cases += [([1, 0, -q], p, n), ([1, -r], p, n), ([1, r], p, n)]
    rng = random.Random(20261018)
    for _ in range(300):
        p = rng.choice((2, 3))
        e = rng.randrange(1, 7)
        n = 2 if e % 2 or e == 2 else 1
        f = _functional_equation_candidate(rng, e, p**n, rng.choice((1, 1, 1, -1)))
        if rng.random() < 0.1:
            f[rng.randrange(1, e + 1)] += rng.choice((-1, 1))
        cases.append((f, p, n))
    return cases


def _weil_pin_record(minpoly, p, n):
    try:
        w = weil_verify(minpoly, p, n)
    except InputError as ex:
        return [minpoly, p, n, getattr(ex, "reason", type(ex).__name__)]
    try:
        ht = honda_tate(w).to_json()
    except IsolabError as ex:
        ht = type(ex).__name__
    return [minpoly, p, n, "accepted", ht, [field_stable_under_power(w, k) for k in (1, 2, 3, 4, 6)]]


# sha256 of the verdicts, Honda-Tate data and field stabilities of the
# cases above, generated before weil_verify read the real Weil polynomial
# off f; any change to it is a change of behaviour.
WEIL_PIN_SHA256 = "df19f9f63339cc5cee378a4d4a0cb50fc2370bb01cc7254ff4f9e7b751ba3623"


def test_weil_behaviour_pinned():
    records = [_weil_pin_record(*case) for case in _weil_pin_cases()]
    verdicts = {r[3] for r in records}
    assert {"accepted", "reducible", "functional-equation", "root-modulus"} <= verdicts
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WEIL_PIN_SHA256


# -- the real-Weil-polynomial step of is_irreducible_q -----------------------


def _box_quartics():
    """The quartic Weil box of the census: T^4 + a T^3 + b T^2 + aq T + q^2
    for q = 2, 3, |a| <= 4 sqrt(q), |b| <= 6q; ascending, with (q, p, n, a, b)."""
    for q in (2, 3):
        amax = isqrt(16 * q)
        for a in range(-amax, amax + 1):
            for b in range(-6 * q, 6 * q + 1):
                yield (q, q, 1, a, b), [q * q, a * q, b, a, 1]


def _step_verdict(coeffs):
    """The verdict of the real-Weil-polynomial step, None when f is not
    q-symmetric or the step leaves it open."""
    step = weil._real_weil_step(coeffs)
    return None if step is None else step[0]


def test_int_root_is_the_floor_root():
    rng = random.Random(23)
    for k in range(1, 9):
        for n in [1, 2, 3, 255, 256, 257] + [rng.randrange(1, 1 << rng.randrange(1, 400)) for _ in range(60)]:
            r = weil._int_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
        for r in (1, 2, 3, 6, 2**61 - 1):
            assert weil._int_root(r**k, k) == r


def test_real_weil_transform_of_a_product_is_the_product_of_transforms():
    # theorem (A): f = T^g (h1 h2)(T + q/T) = T^g1 h1(T + q/T) * T^g2 h2(T + q/T)
    rng = random.Random(2301)
    decided = 0
    for _ in range(500):
        h1, h2 = ([rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] + [1] for _ in range(2))
        q = rng.choice((2, 3, 4, 5, 6, 9, 2**61 - 1))
        h = poly_mul(h1, h2)
        f = weil_transform(h, q)
        assert f == poly_mul(weil_transform(h1, q), weil_transform(h2, q)), (h1, h2, q)
        assert _real_weil_polynomial(f, q) == h
        if min(len(h1), len(h2)) == 2:
            # h has a rational root, so its own test is quick
            assert _step_verdict(f) is False, (h1, h2, q)
            decided += 1
    assert decided > 100


def _pinned_even_weil_candidates():
    for minpoly, p, n in _weil_pin_cases():
        if len(minpoly) in (5, 7):
            yield list(reversed(minpoly)), p**n


def test_real_weil_verdicts_match_the_backstop():
    # theorem (B) and theorem (A) on the box quartics and the pinned quartics
    # and sextics: every verdict the step gives is the backstop's
    seen = {True: 0, False: 0}
    sextics = 0
    cases = [(asc, q) for (q, *_), asc in _box_quartics()] + list(_pinned_even_weil_candidates())
    for asc, q in cases:
        verdict = _step_verdict(asc)
        if verdict is not None:
            assert verdict == _irreducible_by_backstop(asc), (asc, q)
            seen[verdict] += 1
            sextics += len(asc) == 7
    assert seen[True] > 50 and seen[False] > 100 and sextics > 10, (seen, sextics)


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 8])
def test_roots_on_the_boundary_are_left_to_the_backstop(q):
    # f = (T^2 - q)^2 has h = x^2 - 4q, irreducible with both roots at
    # +-2 sqrt(q): the non-strict bound admits them, the strict one does not
    f = poly_mul([-q, 0, 1], [-q, 0, 1])
    h = _real_weil_polynomial(f, q)
    assert h == [-4 * q, 0, 1] and is_irreducible_q(h)
    assert _roots_all_real_and_bounded(h, q) == (True, False)
    assert weil._real_weil_step(f) == (None, True)
    assert not is_irreducible_q(f)


def test_q_symmetric_for_a_q_that_is_no_prime_power():
    # q = 6: the step reads q off f(0) = 36 and needs no prime power
    seen = set()
    for a in range(-4, 5):
        for b in range(-24, 25, 4):
            asc = [36, 6 * a, b, a, 1]
            verdict = _step_verdict(asc)
            if verdict is not None:
                assert verdict == is_irreducible_q(asc) == _irreducible_by_backstop(asc), (a, b)
                seen.add(verdict)
    assert seen == {True, False}


def test_q_symmetry_is_read_off_f():
    assert weil._real_weil_step([4, 0, 2, 0, 1]) == (True, True)  # 2-symmetric, h = x^2 - 2
    assert weil._real_weil_step([4, 1, 2, 0, 1]) is None  # c1 q = 2 != f(0) c3 = 0
    assert weil._real_weil_step([5, 0, 0, 0, 1]) is None  # f(0) = 5 is no square
    assert weil._real_weil_step([-4, 0, 0, 0, 1]) is None  # f(0) < 0
    assert weil._real_weil_step([8, 4, 2, 1]) is None  # odd degree
    assert weil._real_weil_step([4, 0, 3, 0, 1]) == (False, None)  # h = x^2 - 1, reducible


def _symmetric_by_round_trip(f, q):
    return weil_transform(_real_weil_polynomial(f, q), q) == f


def test_functional_equation_is_the_round_trip_on_quartics():
    # every monic quartic with c_0 in 1..16 and |c_1|, |c_2|, |c_3| <= 6
    seen = set()
    for c0 in range(1, 17):
        q = weil._int_root(c0, 2)
        for c1, c2, c3 in product(range(-6, 7), repeat=3):
            f = [c0, c1, c2, c3, 1]
            want = _symmetric_by_round_trip(f, q)
            assert weil._functional_equation(f, q) is want, f
            seen.add(want)
    assert seen == {True, False}


def test_functional_equation_is_the_round_trip_on_transforms():
    # seeded T^g h(T + q/T) for h of degree 2..8, one coefficient below the
    # leading one perturbed half the time
    rng = random.Random(2501)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        g = rng.randint(2, 8)
        q = rng.choice((2, 3, 4, 5, 7, 9, 2**61 - 1))
        f = weil_transform([rng.randint(-9, 9) for _ in range(g)] + [1], q)
        if rng.random() < 0.5:
            f[rng.randrange(2 * g)] += rng.choice((-1, 1)) * rng.randint(1, 3)
        q = weil._int_root(f[0], g)
        want = _symmetric_by_round_trip(f, q)
        assert weil._functional_equation(f, q) is want, (f, q)
        seen[want] += 1
    assert min(seen.values()) > 1000, seen


# sha256 of (q, a, b, weil_verify verdict) over the 756 box quartics,
# generated before is_irreducible_q read the real Weil polynomial
BOX_SHA256 = "49a25c2199c6b73f15d6ecb6d3d151b9e7bb780e5e2c06f818509172414edd8a"
# box quartics that may reach the Kronecker search; 188 did before the step
BOX_BACKSTOP_CALLS = 69


def test_box_verdicts_pinned_and_backstop_reach_bounded(monkeypatch):
    current, stepped, sieved, searched = [None], {}, set(), set()
    step, sieve, search = weil._real_weil_step, weil.factor_degrees, weil._kronecker_has_factor

    def counting_step(coeffs):
        stepped[current[0]] = out = step(coeffs)
        return out

    def counting_sieve(coeffs, ell):
        sieved.add(current[0])
        return sieve(coeffs, ell)

    def counting_search(coeffs, g):
        searched.add(current[0])
        return search(coeffs, g)

    monkeypatch.setattr(weil, "_real_weil_step", counting_step)
    monkeypatch.setattr(weil, "factor_degrees", counting_sieve)
    monkeypatch.setattr(weil, "_kronecker_has_factor", counting_search)
    rows = []
    for (q, p, n, a, b), asc in _box_quartics():
        current[0] = (q, a, b)
        try:
            weil_verify(list(reversed(asc)), p, n)
            verdict = "accepted"
        except WeilRejection as ex:
            verdict = ex.reason
        rows.append([q, a, b, verdict])
    assert len(rows) == 756
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == BOX_SHA256
    # every box quartic is q-symmetric, so the step runs first on all of
    # them; the sieve runs only where it leaves f open, and the search on
    # no more quartics than before
    assert len(stepped) == 756 and None not in stepped.values()
    assert sieved == {key for key, (verdict, _) in stepped.items() if verdict is None}
    assert searched <= sieved and len(searched) <= BOX_BACKSTOP_CALLS


def test_degree_16_q_symmetric_decided_without_the_search(monkeypatch):
    # T^16 + 2^16 is 4-symmetric; every factor-degree pattern mod an odd
    # prime leaves degree 8 open, and its h of degree 8 is irreducible with
    # every root strictly inside (-4, 4).  The Kronecker search at degree 16
    # ran past 15 s.
    def refuse(coeffs, g):
        raise AssertionError("Kronecker search reached")

    monkeypatch.setattr(weil, "_kronecker_has_factor", refuse)
    f = [2**16] + [0] * 15 + [1]
    assert is_irreducible_q(f)
    assert weil_verify(list(reversed(f)), 2, 2).e == 16
    with pytest.raises(WeilRejection) as ex:
        weil_verify(list(reversed(f)), 2, 1)
    assert ex.value.reason == "functional-equation"


def test_rational_roots_are_not_sought_for_q_symmetric_f(monkeypatch):
    # a rational root r of f would make r + q/r a rational root of h, so a
    # q-symmetric f is never searched for one; h's own test of a sextic (a
    # cubic) still is
    current = [None]
    roots = weil._rational_roots

    def refuse(coeffs, *chain):
        if len(coeffs) == len(current[0]):
            raise AssertionError("rational roots of f sought")
        return roots(coeffs, *chain)

    monkeypatch.setattr(weil, "_rational_roots", refuse)
    cases = [(asc, q) for (q, *_), asc in _box_quartics()] + list(_pinned_even_weil_candidates())
    symmetric = 0
    for asc, _ in cases:
        if weil._real_weil_step(asc) is not None:
            current[0] = asc
            weil._irreducible(asc)
            symmetric += 1
    assert symmetric > 756 + 40, symmetric


def test_weil_verify_builds_the_chain_of_h_once(monkeypatch):
    # the root-modulus check reuses the root bound of h that the
    # irreducibility test computed: one Sturm chain of h per weil_verify
    built = []
    chain = weil._sturm_chain

    def counting_chain(f):
        built.append(list(f))
        return chain(f)

    monkeypatch.setattr(weil, "_sturm_chain", counting_chain)
    reached = 0
    cases = [((p, n), asc) for (q, p, n, *_), asc in _box_quartics()]
    cases += [((p, n), list(reversed(minpoly))) for minpoly, p, n in _weil_pin_cases() if len(minpoly) == 5]
    for (p, n), asc in cases:
        h = _real_weil_polynomial(asc, p**n)
        built.clear()
        try:
            weil_verify(list(reversed(asc)), p, n)
            verdict = "accepted"
        except WeilRejection as ex:
            verdict = ex.reason
        if verdict in ("accepted", "root-modulus"):
            assert built.count(h) == 1, (asc, p, n, verdict)
            reached += 1
        else:
            assert built.count(h) <= 1, (asc, p, n, verdict)
    assert reached > 500, reached


def test_irreducible_builds_the_chain_of_a_cubic_h_once(monkeypatch):
    # f = T^3 h(T + 3/T) for h = x^3 - 2x^2 - x + 1: h's rational roots and
    # its real-root count read one Sturm chain of h; C, whose roots are the
    # squares of h's, has its own
    built = []
    chain = weil._sturm_chain

    def counting_chain(f):
        built.append(list(f))
        return chain(f)

    monkeypatch.setattr(weil, "_sturm_chain", counting_chain)
    f = [27, -18, 24, -11, 8, -2, 1]
    h = _real_weil_polynomial(f, 3)
    assert h == [1, -1, -2, 1]
    built.clear()
    assert weil._irreducible(f) == (True, True)
    assert built.count(h) == 1 and len(built) == 2, built
    built.clear()
    assert weil_verify(list(reversed(f)), 3, 1).e == 6
    assert built.count(h) == 1, built


def _q_reciprocal(F, q):
    """T^g F(q/T) / F(0): an integer monic polynomial when F(0) is +-1 or +-q."""
    g = len(F) - 1
    return [F[g - j] * q ** (g - j) // F[0] for j in range(g + 1)]


def test_symmetric_sextics_and_octics_match_the_backstop_path():
    # seeded q-symmetric f: the narrowed path (no rational roots, the sieve
    # and the search at degree g alone) gives the verdict of rational roots,
    # the sieve over degrees 1..e-1 and the search at every open degree.
    # The products F * F-bar, F-bar = T^g F(q/T) / F(0), are reducible; the
    # octic ones take F = G1 G2, since on octics with an irreducible h the
    # search at degree 4 alone can run past a minute
    rng = random.Random(2401)
    cases = []
    for _ in range(24):
        q = rng.choice((2, 3, 4, 5))
        cases.append(weil_transform([rng.randint(-3, 3) for _ in range(3)] + [1], q))
    for _ in range(8):
        q = rng.choice((2, 3))
        F = [rng.choice((1, -1, q, -q))] + [rng.randint(-1, 1) for _ in range(2)] + [1]
        cases.append(poly_mul(F, _q_reciprocal(F, q)))
    for _ in range(10):
        q = rng.choice((2, 3))
        F = poly_mul(*([rng.choice((1, -1, q, -q)), rng.randint(-1, 1), 1] for _ in range(2)))
        cases.append(poly_mul(F, _q_reciprocal(F, q)))
    seen = set()
    for f in cases:
        verdict = is_irreducible_q(f)
        assert verdict == _irreducible_by_backstop(f), f
        seen.add((len(f) - 1, verdict, weil._real_weil_step(f)[0]))
    assert {(6, False, None), (6, True, None), (6, True, True), (6, False, False), (8, False, False)} <= seen, seen
