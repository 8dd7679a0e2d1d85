"""The exact-arithmetic kernel against brute-force oracles."""

import ast
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import gcd, isqrt, prod
from operator import mul

import pytest

from isolab import unramified
from isolab._arith import (
    MAX_PRIME,
    _miller_rabin,
    base_p_digits,
    divisors,
    euler_phi,
    factor_degrees,
    factor_int,
    is_prime,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_mulmod,
    poly_powmod,
    poly_prem,
    poly_primitive,
    poly_rem,
    poly_sub,
    power,
    rank,
    require_prime,
    vp,
)
from isolab.cartier import CartierContext
from isolab.errors import InputError
from isolab.newton import np_of_polynomial
from isolab.unramified import FiniteField, UElement, UnramifiedRing, default_modulus, finite_field, unramified_ring
from isolab.weil import weil_from_real_trace
from element_oracles import teichmuller_digits
from qpoly import factor_degrees_by_powmod, q_divmod


def _trial_division_primes(bound):
    primes = []
    for n in range(2, bound):
        r = isqrt(n)
        if all(n % q for q in primes if q <= r):
            primes.append(n)
    return primes


PRIMES_16 = _trial_division_primes(2**16)


class TestIntegers:
    def test_is_prime_below_2_16(self):
        expected = set(PRIMES_16)
        assert [n for n in range(-3, 2**16) if is_prime(n)] == sorted(expected)

    # the last is 399165290221 * 798330580441, the least strong pseudoprime
    # to every prime base up to 37
    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_require_prime_stops_where_the_proof_does(self):
        # MAX_PRIME is a strong pseudoprime to every base used, so is_prime
        # cannot tell it from a prime; require_prime refuses it by the cap
        assert is_prime(MAX_PRIME)
        require_prime(3317044064679887385961813)  # the largest prime below the cap
        for p in (MAX_PRIME, 2**89 - 1):
            with pytest.raises(InputError, match="cap of %d" % MAX_PRIME):
                require_prime(p)
        with pytest.raises(InputError, match="not prime"):
            require_prime(318665857834031151167461)

    def test_is_prime_against_a_sieve(self):
        bound = 2 * 10**5
        sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
        for n in range(2, isqrt(bound) + 1):
            if sieve[n]:
                sieve[n * n :: n] = bytearray(len(range(n * n, bound, n)))
        assert [n for n in range(bound) if is_prime(n)] == [n for n in range(bound) if sieve[n]]

    # 37^2 and the least strong pseudoprimes to the bases 2, 3 and to 2, 3,
    # 5, each with the largest prime below it
    @pytest.mark.parametrize("n, prime", [(1369, False), (1367, True), (1373653, False), (1373639, True), (25326001, False)])
    def test_around_the_base_switches(self, n, prime):
        assert is_prime(n) == _miller_rabin(n) == prime

    # the sieve read answers every int below 2^16; the Miller-Rabin path it
    # bypasses there stays under test as its oracle
    def test_miller_rabin_matches_the_sieve_below_2_16(self):
        assert [n for n in range(-3, 2**16) if _miller_rabin(n)] == PRIMES_16
        assert all(is_prime(n) == _miller_rabin(n) for n in range(-3, 2**16))

    # the edge of the table, and the base-2 strong pseudoprimes below 10^4
    @pytest.mark.parametrize(
        "n, prime",
        [(65521, True), (65535, False), (65536, False), (65537, True)] + [(n, False) for n in (2047, 3277, 4033, 4681, 8321)],
    )
    def test_both_paths_at_the_table_edge_and_on_pseudoprimes(self, n, prime):
        assert is_prime(n) is _miller_rabin(n) is prime

    def test_input_that_is_not_an_int_skips_the_table(self):
        # as before the table: True is below 2, and 2.0 passes trial division
        assert is_prime(True) is False and is_prime(False) is False
        assert is_prime(2.0) is True and is_prime(4.0) is False

    @pytest.mark.parametrize("p", [0, 1, -1, -7, 4, 65535, 65536, 1369, 3215031751, True])
    def test_require_prime_refuses_with_its_message(self, p):
        with pytest.raises(InputError, match="^p = %s is not prime$" % re.escape(repr(p))):
            require_prime(p)

    @pytest.mark.parametrize("p", [7.5, 2.0, Fraction(7), "7"])
    def test_require_prime_refuses_what_is_not_an_int(self, p):
        with pytest.raises(InputError, match="^p = %s is not an int$" % re.escape(repr(p))):
            require_prime(p)

    def test_a_p_that_is_not_an_int_is_refused_by_every_caller(self):
        # the first once returned a polygon, the other two ended in an
        # AttributeError on float.bit_length
        with pytest.raises(InputError, match="is not an int"):
            np_of_polynomial([1, 3, 7.5], 7.5)
        with pytest.raises(InputError, match="is not an int"):
            weil_from_real_trace(1, 7.5, 1)
        finite_field.cache_clear()
        with pytest.raises(InputError, match="is not an int"):
            finite_field(2.0, 1)

    def test_large_primes(self):
        assert is_prime(2**61 - 1) and is_prime(1000000007)
        assert not is_prime((2**31 - 1) * (2**61 - 1))

    def test_factor_divisors_phi_brute_force(self):
        bound = 5000
        divs = [[] for _ in range(bound)]
        for d in range(1, bound):
            for n in range(d, bound, d):
                divs[n].append(d)
        phi = [0] * bound  # Gauss: the phi(d) over d | n sum to n
        primes = set(PRIMES_16)
        for n in range(1, bound):
            phi[n] = n - sum(phi[d] for d in divs[n][:-1])
            f = factor_int(n)
            assert all(q in primes for q in f)
            assert prod(q**k for q, k in f.items()) == n
            assert divisors(n) == divs[n]
            assert euler_phi(n) == phi[n]
        for n in (1, 2, 12, 97, 4096):
            assert phi[n] == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    def test_factor_large_composite(self):
        n = (2**31 - 1) * 1000000007 * 1000000009
        assert factor_int(n) == {2**31 - 1: 1, 1000000007: 1, 1000000009: 1}
        assert factor_int(-12) == {2: 2, 3: 1}

    def test_vp_and_digits(self):
        for p in (2, 3, 5):
            for n in range(1, 400):
                v = vp(n, p)
                assert n % p**v == 0 and n % p ** (v + 1) != 0
                assert vp(-n, p) == v
                assert base_p_digits(n, p) == len(_digits(n, p))
        assert base_p_digits(0, 7) == 0
        with pytest.raises(InputError):
            vp(0, 3)


def _digits(n, p):
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def _random_poly(rng, degree, p, monic=False):
    return [rng.randrange(p) for _ in range(degree)] + [1 if monic else rng.randrange(1, p)]


class TestPolynomialsModP:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_powmod_against_repeated_mulmod(self, p):
        rng = random.Random(p)
        for _ in range(20):
            f = _random_poly(rng, rng.randrange(1, 6), p, monic=rng.random() < 0.5)
            a = _random_poly(rng, rng.randrange(0, 8), p)
            slow = [1]
            for e in range(30):
                assert poly_powmod(a, e, f, p) == slow
                slow = poly_mulmod(slow, a, f, p)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_divmod_gcd_identities(self, p):
        rng = random.Random(100 + p)
        for _ in range(50):
            a = _random_poly(rng, rng.randrange(0, 7), p)
            b = _random_poly(rng, rng.randrange(0, 5), p)
            q, r = poly_divmod(a, b, p)
            assert poly_add(poly_mul(q, b, p), r, p) == poly_sub(a, [], p)
            assert len(r) < len(b)
            g = poly_gcd(a, b, p)
            assert g[-1] == 1
            assert not poly_divmod(a, g, p)[1] and not poly_divmod(b, g, p)[1]


def _irreducible_brute_force(f, p):
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in product(range(p), repeat=d):
            if not poly_divmod(f, list(low) + [1], p)[1]:
                return False
    return True


class TestIrreducibility:
    @pytest.mark.parametrize("p, top", [(2, 6), (3, 4), (5, 3), (7, 3)])
    def test_factor_degrees_decides_irreducibility(self, p, top):
        for m in range(1, top + 1):
            for low in product(range(p), repeat=m):
                f = list(low) + [1]
                assert (factor_degrees(f, p) == [m]) == _irreducible_brute_force(f, p), (f, p)

    def test_factor_degrees_of_a_product(self):
        # (x^2+x+1)(x^3+x+1) over F_2; then a reduction that loses degree
        # and one that is not squarefree
        f = poly_mul([1, 1, 1], [1, 1, 0, 1], 2)
        assert sorted(factor_degrees(f, 2)) == [2, 3]
        assert factor_degrees([1, 0, 2], 2) is None
        assert factor_degrees(poly_mul([1, 1], [1, 1], 3), 3) is None

    # the Frobenius rows against one poly_powmod per distinct-degree step
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_factor_degrees_by_rows_match_powmod_exhaustively(self, p):
        for e in range(1, 5):
            for low in product(range(p), repeat=e):
                f = list(low) + [1]
                assert factor_degrees(f, p) == factor_degrees_by_powmod(f, p), (f, p)

    def test_factor_degrees_by_rows_match_powmod_on_random_polynomials(self):
        rng = random.Random(2403)
        primes = [ell for ell in range(2, 102) if is_prime(ell)]
        splits = 0
        for _ in range(1500):
            ell = rng.choice(primes)
            f = [rng.randrange(-99, 100) for _ in range(rng.randint(1, 12))] + [rng.choice((1, 1, 1, 2, ell))]
            want = factor_degrees_by_powmod(f, ell)
            assert factor_degrees(f, ell) == want, (f, ell)
            splits += want is not None and len(want) > 2
        assert splits > 200

    def test_default_modulus_by_rows_matches_powmod(self, monkeypatch):
        fields = [(p, m) for p in range(2, 10**4) if is_prime(p) for m in range(1, 14) if p**m <= 10**4]
        got = [default_modulus(p, m) for p, m in fields]
        monkeypatch.setattr(unramified, "factor_degrees", factor_degrees_by_powmod)
        assert got == [default_modulus(p, m) for p, m in fields]
        assert len(fields) > 1229


# default_modulus(p, m) for every p <= 13 with p^m <= 6000, as fixed by the
# original Rabin-test implementation; the generator basis of every field
# (and so every rendered field element) depends on it.
DEFAULT_MODULUS = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
}


def test_default_modulus_table():
    got = {}
    for p in (2, 3, 5, 7, 11, 13):
        m = 1
        while p**m <= 6000:
            got[(p, m)] = default_modulus(p, m)
            m += 1
    assert got == DEFAULT_MODULUS


class TestPolynomialsOverZ:
    def test_kernel_imports_no_fractions(self):
        import isolab._arith

        with open(isolab._arith.__file__) as fh:
            tree = ast.parse(fh.read())
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "fractions" not in modules

    def test_mulmod_and_powmod(self):
        f = [2, 0, 1]  # x^2 = -2
        assert poly_eval(f, Fraction(1, 2)) == Fraction(9, 4)
        assert poly_mulmod([0, 1], [0, 1], f) == [-2]
        assert poly_powmod([0, 1], 5, f) == [0, 4]
        assert poly_powmod([3], -1, f) == [1]

    def test_prem_is_the_primitive_positive_multiple_of_the_remainder(self):
        rng = random.Random(13)
        for _ in range(300):
            a = [rng.randint(-9, 9) for _ in range(rng.randrange(0, 8))]
            b = [rng.randint(-9, 9) for _ in range(rng.randrange(0, 5))] + [rng.choice((-6, -1, 1, 4))]
            r = poly_prem(a, b)
            rq = q_divmod(a, b)[1]
            assert len(r) == len(rq) and all(type(c) is int for c in r)
            assert not r or gcd(*r) == 1
            # r = lambda rq with lambda = r_top / rq_top > 0
            assert all(x * rq[-1] == y * r[-1] for x, y in zip(r, rq))
            assert not r or r[-1] * rq[-1] > 0

    def test_primitive_and_exact_division(self):
        assert poly_primitive([-4, 6, 0, 2]) == [-2, 3, 0, 1]
        assert poly_primitive([0, -3]) == [0, -1]
        assert poly_primitive([]) == []
        rng = random.Random(17)
        for _ in range(200):
            a = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 6))] + [rng.choice((-2, 1, 3))]
            b = [rng.randint(-9, 9) for _ in range(rng.randrange(0, 5))] + [rng.choice((-5, -1, 1, 2))]
            assert poly_divmod(poly_mul(a, b), b) == (a, [])
        # x^2 + 1 by 2x + 1: the quotient x/2 is not in Z[x]
        with pytest.raises(InputError, match="the lead 2 of the divisor leaves a quotient outside Z"):
            poly_divmod([1, 0, 1], [1, 2])


class TestTeichmullerDigits:
    @pytest.mark.parametrize("p, m, N", [(2, 1, 5), (3, 1, 4), (2, 2, 4), (3, 2, 3), (5, 1, 3)])
    def test_digits_reassemble(self, p, m, N):
        ring = unramified_ring(p, m, N)
        rng = random.Random(p * 100 + m * 10 + N)
        for _ in range(10):
            v = ring.from_coeffs([rng.randrange(ring.pN) for _ in range(m)])
            for k in range(N + 1):
                digits, rest = teichmuller_digits(ring, v, k)
                assert len(digits) == k
                total = ring.from_int(p**k) * rest
                for i, r in enumerate(digits):
                    total = total + ring.from_int(p**i) * ring.teichmuller(r)
                assert total == v


SMALL_FIELDS = [(p, m) for p in range(2, 65) if is_prime(p) for m in range(1, 7) if p**m <= 64]


class TestLiftAndFrobeniusTables:
    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_newton_lift_is_the_power_definition(self, p, m):
        # p^m = 2 covers q - 1 = 1
        for N in (1, 2, 3, 5, 8, 13):
            ring = unramified_ring(p, m, N)
            for c in ring.field.elements():
                assert ring.teichmuller(c) == UElement(ring, c.coeffs) ** (p ** (m * (N - 1))), (N, c)

    @pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 5)])
    def test_frobenius_matrix_is_the_power_definition(self, p, m):
        field = finite_field(p, m)
        for c in field.elements():
            for k in range(-1, 2 * m + 1):
                assert c.frobenius(k) == power(c, p ** (k % m), field.one()), (c, k)

    def test_repeated_lift_is_the_table_entry(self):
        ring = unramified_ring(3, 2, 5)
        c = ring.field([1, 2])
        lift = ring.teichmuller(c)
        assert ring.teichmuller(ring.field([1, 2])) is lift
        assert teichmuller_digits(ring, ring.from_coeffs([4, 2]), 1)[0] == [c]
        assert ring.teichmuller(c) is lift

    def test_rebuilt_ring_starts_with_empty_tables(self):
        ring = unramified_ring(2, 3, 4)
        ring.teichmuller(ring.field.generator())
        ring.field.generator().frobenius()
        assert ring._teichmuller and ring.field._sigma
        finite_field.cache_clear()
        rebuilt = unramified_ring(2, 3, 4)
        assert rebuilt is not ring and rebuilt.field is not ring.field
        assert rebuilt._teichmuller == {} and rebuilt.field._sigma == {}
        assert rebuilt.field._lifts == {4: rebuilt} and ring.field._lifts[4] is ring

    def test_a_field_owns_its_lift_rings(self):
        F = FiniteField(3, 2)
        assert F is not finite_field(3, 2) and F.lift(4).field is F
        assert F.lift(4) is F.lift(4) and list(F._lifts) == [4]


def _horner(ring, coeffs, point):
    """Horner evaluation of an integer coefficient sequence at a ring element."""
    out = ring.zero()
    for c in reversed(coeffs):
        out = out * point + ring.from_int(c)
    return out


def _horner_newton_root(ring):
    """sigma(x) as the ring once found it: a fixed (N - 1).bit_length() + 1
    Newton steps on hbar from x^p, each evaluating hbar and hbar' by Horner
    and inverting hbar'(r) afresh."""
    r = UElement(ring, [0, 1]) ** ring.p
    for _ in range((ring.N - 1).bit_length() + 1):
        r = r - _horner(ring, ring.modulus, r) * _horner(ring, poly_deriv(ring.modulus), r).inverse()
    return r


def _horner_sigma_powers(ring):
    """sigma^k(x) for k < m, as the ring once built them: sigma(x) by Newton
    on hbar from x^p, then sigma^k(x) = sigma^(k-1)(x) evaluated at sigma(x)."""
    x = UElement(ring, [0, 1])
    r = _horner_newton_root(ring)
    powers = [x, r]
    while len(powers) < ring.m:
        powers.append(_horner(ring, powers[-1].coeffs, r))
    return powers


def _horner_sigma(ring, powers, a, k):
    """sigma^k(a) as a(sigma^k(x)), evaluated by Horner."""
    k %= ring.m
    return a if k == 0 else _horner(ring, a.coeffs, powers[k])


class TestRingBuild:
    """The carried-inverse Hensel lift against the Horner Newton step it
    replaced."""

    @staticmethod
    def check(p, m, N):
        ring = UnramifiedRing(finite_field(p, m), N)
        r = _horner_newton_root(ring)
        assert _horner(ring, ring.modulus, r).is_zero()
        cols = [ring.one()]
        while len(cols) < m:
            cols.append(cols[-1] * r)
        assert ring._sigma == {1 % m: list(zip(*(c.coeffs for c in cols)))}, N

    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_sigma_rows_are_the_horner_newton_rows(self, p, m):
        for N in (1, 2, 3, 5, 8, 40):
            self.check(p, m, N)

    @pytest.mark.parametrize("p, m, N", [(2, 12, 10), (3, 6, 30)])
    def test_sigma_rows_of_a_large_field(self, p, m, N):
        self.check(p, m, N)


class TestSigmaMatrices:
    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_sigma_is_the_horner_definition(self, p, m):
        rng = random.Random(p * 10 + m)
        for N in (1, 2, 3, 5, 8):
            ring = unramified_ring(p, m, N)
            powers = _horner_sigma_powers(ring)
            elements = [UElement(ring, c.coeffs) for c in ring.field.elements()]
            elements += [ring.from_coeffs([rng.randrange(ring.pN) for _ in range(m)]) for _ in range(50)]
            for k in range(-m, 2 * m + 1):
                for a in elements:
                    assert ring.sigma(a, k) == _horner_sigma(ring, powers, a, k), (N, k, a)

    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_inverse_sigma_of_a_lift_is_the_lift_of_the_root(self, p, m):
        # sigma^-i [c] = [c^(p^-i)]
        for N in (1, 2, 3, 5, 8):
            ring = unramified_ring(p, m, N)
            for c in ring.field.elements():
                for i in range(N):
                    assert ring.teichmuller(c.frobenius_inv(i)) == ring.sigma(ring.teichmuller(c), -i), (N, c, i)

    @pytest.mark.parametrize("p, m, N", [(2, 1, 5), (2, 3, 4), (3, 2, 6), (5, 2, 3), (61, 1, 2)])
    def test_scaling_by_an_int_is_the_ring_product(self, p, m, N):
        ring = unramified_ring(p, m, N)
        rng = random.Random(N)
        for _ in range(20):
            a = ring.from_coeffs([rng.randrange(ring.pN) for _ in range(m)])
            for k in (-(p**N), -1, 0, 1, p, p**N + 3):
                assert k * a == a * k == ring.from_int(k) * a, (a, k)

    def test_a_new_ring_holds_only_the_sigma_matrix(self):
        for p, m in SMALL_FIELDS:
            assert list(UnramifiedRing(finite_field(p, m), 3)._sigma) == [1 % m], (p, m)
        ring = unramified_ring(2, 3, 4)
        ring.sigma(ring.from_coeffs([1, 1]), -1)
        assert sorted(ring._sigma) == [1, 2]
        finite_field.cache_clear()
        rebuilt = unramified_ring(2, 3, 4)
        assert rebuilt is not ring and list(rebuilt._sigma) == [1]


# -- the oracle of poly_rem: schoolbook reduction, written out with no
# _arith routine


def _schoolbook_reduce(raw, hbar, n):
    """raw mod (n, hbar) for a monic hbar of degree m, padded to length m:
    c x^(i-m) hbar is subtracted for each top coefficient c, from the top
    down, then every coefficient is reduced mod n."""
    m = len(hbar) - 1
    raw = list(raw) + [0] * (m - len(raw))
    for i in range(len(raw) - 1, m - 1, -1):
        c = raw[i]
        for j, h in enumerate(hbar):
            raw[i - m + j] -= c * h
    return tuple(c % n for c in raw[:m])


def _schoolbook_mulmod(a, b, hbar, n):
    raw = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += x * y
    return _schoolbook_reduce(raw, hbar, n)


def _seeded_coefficients(rng, m, n):
    """0, 1, every coefficient n - 1, and nine random elements of (Z/n)^m."""
    out = [[0] * m, [1] + [0] * (m - 1), [n - 1] * m]
    return out + [[rng.randrange(n) for _ in range(m)] for _ in range(9)]


class TestRemainderKernel:
    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_ring_product_is_the_schoolbook_product(self, p, m):
        rng = random.Random(p * 100 + m)
        for N in (1, 2, 3, 5, 8):
            ring = unramified_ring(p, m, N)
            elements = [ring.from_coeffs(c) for c in _seeded_coefficients(rng, m, ring.pN)]
            for x in elements:
                for y in elements:
                    assert (x * y).coeffs == _schoolbook_mulmod(x.coeffs, y.coeffs, ring.modulus, ring.pN), (N, x, y)

    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_field_product_is_the_schoolbook_product(self, p, m):
        rng = random.Random(p * 10 + m)
        field = finite_field(p, m)
        elements = [field(c) for c in _seeded_coefficients(rng, m, p)]
        for x in elements:
            for y in elements:
                assert (x * y).coeffs == _schoolbook_mulmod(x.coeffs, y.coeffs, field.modulus, p), (x, y)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_rem_is_the_divmod_remainder(self, p):
        rng = random.Random(200 + p)
        for _ in range(300):
            f = _random_poly(rng, rng.randrange(0, 6), p, monic=rng.random() < 0.5)
            a = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randrange(0, 12))]
            assert poly_rem(a, f, p) == poly_divmod(a, f, p)[1], (a, f)

    @pytest.mark.parametrize("p, N", [(2, 1), (2, 7), (3, 4), (5, 3), (13, 2)])
    def test_rem_by_a_monic_divisor_mod_a_prime_power(self, p, N):
        rng = random.Random(p * 10 + N)
        n = p**N
        for _ in range(200):
            f = [rng.randrange(n) for _ in range(rng.randrange(1, 6))] + [1]
            a = [rng.randint(-n * n, n * n) for _ in range(rng.randrange(0, 12))]
            want = list(_schoolbook_reduce(a, f, n))
            while want and not want[-1]:
                want.pop()
            assert poly_rem(a, f, n) == want, (a, f)

    def test_rem_over_z_is_the_divmod_remainder(self):
        rng = random.Random(23)
        for _ in range(300):
            f = [rng.randint(-6, 6) for _ in range(rng.randrange(0, 5))] + [1]
            a = [rng.randint(-20, 20) for _ in range(rng.randrange(0, 10))]
            r = poly_rem(a, f)
            assert r == q_divmod(a, f)[1] == poly_divmod(a, f)[1], (a, f)
            assert all(type(c) is int for c in r), (a, f)

    @pytest.mark.parametrize("f", [[1, 2], [0, -1], [3, 0, 5], [1, 1, 1, -2]])
    def test_rem_over_z_refuses_a_non_monic_divisor(self, f):
        # pow(lead, -1) over no modulus would be a float
        for a in ([], [7], [1, 1, 1], [0, 0, 0, 0, 4]):
            with pytest.raises(InputError, match="needs a monic divisor"):
                poly_rem(a, f)


def _det(m):
    """Leibniz determinant of a small square integer matrix."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(len(m)))
    return total


def _rank_by_minors(m):
    """Size of the largest nonzero minor."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if _det([[m[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _rank_by_span(vectors, field):
    """log_{p^m} of the size of the span, materialized as a set."""
    zero = tuple(field.zero() for _ in vectors[0])
    span = {zero}
    for v in vectors:
        span = {tuple(x + a * y for x, y in zip(s, v)) for s in span for a in field.elements()}
    k = 0
    while len(span) > len(field.elements()) ** k:
        k += 1
    assert len(span) == len(field.elements()) ** k
    return k


class TestRank:
    def test_rank_over_q_against_minors(self):
        rng = random.Random(11)
        for _ in range(150):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.4:
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (rows - 1)])]
            assert rank([[Fraction(x) for x in row] for row in m]) == _rank_by_minors(m), m

    @pytest.mark.parametrize("p, m, count", [(2, 1, 60), (3, 1, 40), (2, 2, 40), (3, 2, 15)])
    def test_rank_over_ff_against_span(self, p, m, count):
        field = finite_field(p, m)
        rng = random.Random(p * 10 + m)
        elements = field.elements()
        for _ in range(count):
            dim = rng.randrange(1, 4)
            vectors = [[rng.choice(elements) for _ in range(dim)] for _ in range(rng.randrange(1, 4))]
            if len(vectors) > 1 and rng.random() < 0.5:
                a = rng.choice(elements)
                vectors[-1] = [a * x for x in vectors[0]]
            assert rank(vectors) == _rank_by_span(vectors, field)

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert rank([[Fraction(0), Fraction(0)]]) == 0


def _power_cases():
    ff = finite_field(3, 2)
    ring = unramified_ring(2, 2, 4)
    ctx = CartierContext(2, 2, 3)
    return [
        (ff(1) + ff.generator(), ff.one()),
        (ring.from_coeffs([3, 1]), ring.one()),
        (ctx.element([(0, 0, ctx.field.generator()), (1, 0, 1)]), ctx.one()),
        (ctx.V() + ctx.F(), ctx.one()),
    ]


class TestPower:
    def test_power_is_repeated_multiplication(self):
        for x, one in _power_cases():
            for k in range(9):
                assert power(x, k, one) == reduce(mul, [x] * k, one)
                assert x**k == power(x, k, one)
            assert power(x, 0, one) is one

    def test_power_of_integers_and_negative_exponent(self):
        assert [power(3, k, 1) for k in range(6)] == [3**k for k in range(6)]
        with pytest.raises(InputError):
            power(3, -1, 1)

    def test_negative_ff_power_is_inverse_power(self):
        field = finite_field(2, 3)
        for x in field.elements()[1:]:
            for k in range(1, 5):
                assert x**-k == x.inverse() ** k
                assert x**-k * x**k == field.one()


@pytest.mark.parametrize(
    "setup",
    [
        "x = unramified_ring(3, 1, 4).from_int(2)",
        "x = WittContext(3, 1, 4).element(2)",
        "x = CartierContext(2, 1, 3).one()",
    ],
)
def test_negative_power_of_a_ring_element_is_refused(setup):
    # each of these once looped forever: -1 >> 1 == -1
    code = (
        "from isolab.cartier import CartierContext\n"
        "from isolab.errors import InputError\n"
        "from isolab.unramified import unramified_ring\n"
        "from isolab.witt import WittContext\n"
        "%s\n"
        "try:\n"
        "    x ** -1\n"
        "except InputError as ex:\n"
        "    print('refused:', ex)\n" % setup
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.startswith("refused:") and proc.stderr == ""


class TestInverse:
    """u * u^-1 = 1 for every unit among the lifts of F_{p^m} to W_N: the
    ring inverse starts from the field's Euclid inverse of the residue."""

    @pytest.mark.parametrize("p, m", SMALL_FIELDS)
    def test_every_unit_lift_times_its_inverse_is_one(self, p, m):
        field = finite_field(p, m)
        for c in field.elements()[1:]:
            assert c * c.inverse() == field.one() == c.inverse() * c, c
        with pytest.raises(InputError, match="^inverse of zero$"):
            field.zero().inverse()
        for N in (1, 2, 3, 5):
            ring = unramified_ring(p, m, N)
            for i, c in enumerate(field.elements()):
                lifts = [UElement(ring, c.coeffs), UElement(ring, [x + p * (i + j) for j, x in enumerate(c.coeffs)])]
                for u in lifts:
                    if c.is_zero():
                        assert not u.is_unit()
                        with pytest.raises(InputError, match="^not a unit$"):
                            u.inverse()
                    else:
                        assert u * u.inverse() == ring.one(), (N, u)
                        assert u.inverse().residue() == c.inverse(), (N, u)
