"""Truncated unramified lifts of finite fields, with a Frobenius lift.

The ring behind every Witt/Dieudonne computation here is
Z[x] / (p^N, hbar(x)) where hbar is a fixed monic degree-m polynomial that
is irreducible mod p.  At N = 1 it is F_{p^m} itself, which is
W_1(F_{p^m}) (Serre, Local Fields, II 5): the field and its lift rings
share one ring class and one element class, coefficients mod p^N, and
`FiniteField`/`FFElement` are the case N = 1 of `UnramifiedRing`/
`UElement`, built without the lift.  sigma is the unique ring automorphism
lifting a |-> a^p: Frobenius at N = 1, and for a lift ring obtained by
Hensel-lifting the root x^p of hbar by Newton's method with a carried
inverse of hbar', so a cold ring costs O(m log N) products.  Working at
explicit precision N keeps every valuation claim certifiable.
"""

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul

from ._arith import euler_phi, factor_degrees, poly_deriv, poly_divmod, poly_mul, poly_mulmod, poly_sub, poly_trim, power, require_prime, vp
from .errors import InputError, PrecisionError

# Largest bit length of the field size p^m.  On a 2-vCPU Xeon a fresh-process
# `witt add --a 1 --b 1` at N = 6 / 128 takes 0.31 / 0.47 s over F_{2^32},
# 0.68 / 3.1 s over F_{2^64} and 0.19 / 2.0 s over F_p for a 33-bit p; at
# N = 128 a 41-bit p takes 3.3 s and a 64-bit p 10.8 s.
MAX_FIELD_BITS = 32


def default_modulus(p, m):
    """First monic degree-m polynomial (lexicographic in constant..x^(m-1))
    irreducible mod p.  Fixes the generator basis for F_{p^m} once and
    for all, so rendered elements are reproducible."""
    for code in range(p**m):  # m = 1 gives x: F_p = Z[x]/(p, x)
        f = [code // p**i % p for i in range(m)] + [1]
        if factor_degrees(f, p) == [m]:
            return tuple(f)
    raise InputError("no irreducible polynomial found (impossible)")


def _apply(rows, coeffs):
    return [sum(map(mul, row, coeffs)) for row in rows]


# ---------------------------------------------------------------------------


class _Element:
    """Element of Z/p^N[x]/(hbar): a polynomial of degree < m in the
    generator, coefficients mod p^N.  Each subclass has its own product,
    which the per-layer tracer times apart."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        q = ring.pN
        c = [x % q for x in coeffs]
        c += [0] * (ring.m - len(c))
        self.coeffs = tuple(c[: ring.m])

    @classmethod
    def _reduced(cls, ring, coeffs):
        """The element of at most m coefficients already reduced mod p^N,
        as `poly_mulmod` returns them: padded, not reduced again."""
        e = cls.__new__(cls)
        e.ring = ring
        e.coeffs = tuple(coeffs) + (0,) * (ring.m - len(coeffs))
        return e

    def __add__(self, other):
        other = self.ring.coerce(other)
        return self.__class__(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self.ring.coerce(other)
        return self.__class__(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self.__class__(self.ring, [-a for a in self.coeffs])

    __radd__ = __add__

    def __pow__(self, k):
        """self^k for k >= 0: builtin `pow` mod p^N in Z/p^N (m = 1), else
        square-and-multiply."""
        r = self.ring
        if r.m == 1 and k >= 0:
            return self._reduced(r, (pow(self.coeffs[0], k, r.pN),))
        return power(self, k, r.one())

    def inverse(self):
        """Extended Euclid in F_p[x] inverts the residue.  Any lift of that
        inverse is right mod p, and Newton's z <- z(2 - u z) doubles the
        p-adic accuracy each step: none at N = 1."""
        ring = self.ring
        p = ring.p
        r0, r1 = ring.modulus, poly_trim([c % p for c in self.coeffs])
        if not r1:
            raise InputError(self._no_inverse)
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        c = pow(r1[0], -1, p)
        z = self.__class__(ring, [c * x for x in s1])
        for _ in range((ring.N - 1).bit_length()):
            z = z * (2 - self * z)
        return z

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.coerce(other)
        return isinstance(other, _Element) and self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))


class _Ring:
    """Z/p^N[x]/(hbar) with the matrices of sigma^k, filled once per k mod
    m when first needed (sigma is Frobenius at N = 1)."""

    def __init__(self, p, m, N, modulus):
        self.p, self.m, self.N = p, m, N
        self.pN = p**N
        self.modulus = modulus
        self._sigma = {}

    def zero(self):
        return self._element(self, [0])

    def one(self):
        return self._element(self, [1])

    def generator(self):
        return self._element(self, [0, 1])

    def _twist(self, coeffs, k):
        """The coefficients of sigma^k(c), for any integer k and c given by
        its m coefficients mod p^N: sigma^k on a plain tuple, by its matrix
        on the basis 1, x, ..., x^(m-1), whose column j is sigma^k(x)^j.
        sigma^k(x) is the k = 1 matrix applied k times to x, and sigma(x)
        is x^p at N = 1; a lift ring enters its k = 1 matrix when built."""
        k %= self.m
        if not k:
            return coeffs
        rows = self._sigma.get(k)
        if rows is None:
            if k == 1:
                image = self.generator() ** self.p
            else:
                image = [0, 1]
                for _ in range(k):
                    image = self._twist(image, 1)
                image = self._element._reduced(self, image)
            cols = accumulate([image] * (self.m - 1), mul, initial=self.one())
            rows = self._sigma[k] = list(zip(*(c.coeffs for c in cols)))
        pN = self.pN
        return [sum(map(mul, row, coeffs)) % pN for row in rows]

    def twist(self, coeffs, k):
        """sigma^k(c) as an element, for c given by its coefficients mod p^N."""
        return self._element._reduced(self, self._twist(coeffs, k))


class FFElement(_Element):
    """Element of F_{p^m}, a polynomial of degree < m in the generator g."""

    __slots__ = ()
    field = _Element.ring
    _no_inverse = "inverse of zero"

    def __mul__(self, other):
        other = self.field.coerce(other)
        return FFElement._reduced(self.field, poly_mulmod(self.coeffs, other.coeffs, self.field.modulus, self.field.p))

    __rmul__ = __mul__

    def __pow__(self, k):
        """A negative power is a power of the inverse."""
        return _Element.__pow__(self.inverse() if k < 0 else self, abs(k))

    def frobenius(self, k=1):
        """self^(p^k), by the field's matrix of x -> x^(p^k)."""
        if k % self.field.m == 0:
            return self
        return self.field.twist(self.coeffs, k)

    def frobenius_inv(self, k=1):
        return self.frobenius(-k)

    def __repr__(self):
        return "FF(%s)" % render_ff(self)


class FiniteField(_Ring):
    """F_{p^m} in a fixed polynomial basis, the ring at N = 1; p must be
    prime and m >= 1."""

    _element = FFElement

    def __init__(self, p, m):
        require_prime(p)
        if m < 1:
            raise InputError("field degree m must be >= 1, got %r" % (m,))
        if m > MAX_FIELD_BITS or (p**m).bit_length() > MAX_FIELD_BITS:  # p^m has over m bits
            raise InputError("field size %d^%d exceeds the cap of %d bits" % (p, m, MAX_FIELD_BITS))
        super().__init__(p, m, 1, default_modulus(p, m))
        self._lifts = {}

    @cached_property
    def phi(self):
        """euler_phi(p^m - 1), which scales the guard digits of a carrying
        Cartier diagonal; computed the first time it is read."""
        return euler_phi(self.p**self.m - 1)

    def lift(self, N):
        """W_N(F_{p^m}) over this field: built the first time it is asked
        for and kept on the field, so it goes when the field goes."""
        ring = self._lifts.get(N)
        if ring is None:
            ring = self._lifts[N] = UnramifiedRing(self, N)
        return ring

    def __call__(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        return FFElement(self, list(coeffs))

    def coerce(self, x):
        if isinstance(x, FFElement):
            if x.field is not self:
                raise InputError("element from a different field")
            return x
        if isinstance(x, int):
            return FFElement(self, [x])
        raise InputError("cannot coerce %r" % (x,))

    def elements(self):
        """All p^m elements, in a fixed order."""
        p, m = self.p, self.m
        return [FFElement(self, [code // p**i % p for i in range(m)]) for code in range(p**m)]

    def __repr__(self):
        return "FiniteField(%d^%d)" % (self.p, self.m)


@lru_cache(maxsize=None)
def finite_field(p, m):
    return FiniteField(p, m)


def render_ff(e):
    """Polynomial string in the generator g, e.g. "g^2+2*g+1"."""
    parts = []
    for i in range(e.field.m - 1, -1, -1):
        c = e.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("g" if c == 1 else "%d*g" % c)
        else:
            parts.append("g^%d" % i if c == 1 else "%d*g^%d" % (c, i))
    return "+".join(parts) if parts else "0"


def parse_ff(field, text):
    """Inverse of render_ff; also accepts bare integers."""
    text = text.replace(" ", "")
    if not text:
        raise InputError("empty field element")
    coeffs = [0] * field.m
    for term in text.split("+"):
        if not term:
            raise InputError("bad field element %r" % text)
        if "g" not in term:
            coeffs[0] += int(term)
            continue
        head, _, tail = term.partition("g")
        c = int(head.rstrip("*")) if head else 1
        k = int(tail[1:]) if tail.startswith("^") else (1 if not tail else None)
        if k is None or k >= field.m:
            raise InputError("bad field element %r" % text)
        coeffs[k] += c
    return FFElement(field, coeffs)


# ---------------------------------------------------------------------------


class UElement(_Element):
    """Element of W_N(F_{p^m}) in the lift representation: an integer
    polynomial of degree < m, coefficients mod p^N.  It is the Witt vector
    of `witt` (`WittElement` is this class), with Frobenius, Verschiebung
    and the Witt coordinate view."""

    __slots__ = ()
    _no_inverse = "not a unit"

    def __mul__(self, other):
        r = self.ring
        if isinstance(other, int):
            return UElement(r, [other * a for a in self.coeffs])
        return UElement._reduced(r, poly_mulmod(self.coeffs, r.coerce(other).coeffs, r.modulus, r.pN))

    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def is_unit(self):
        return not self.residue().is_zero()

    def valuation(self):
        """p-adic valuation; None when indistinguishable from 0 at
        precision N (meaning ">= N", never a number)."""
        if self.is_zero():
            return None
        return min(vp(c, self.ring.p) for c in self.coeffs if c)

    def residue(self):
        return FFElement(self.ring.field, self.coeffs)

    def sigma(self, k=1):
        return self.ring.sigma(self, k)

    frobenius = sigma  # sigma^k, as `FFElement.frobenius(k)` on the residue

    def frobenius_inv(self, k=1):
        return self.ring.sigma(self, -k)

    def verschiebung(self):
        """V = p * sigma^(-1)."""
        return self.ring.p * self.frobenius_inv()

    def coordinates(self):
        """The Witt coordinate view (c_0,...,c_{N-1}), c_i in F_{p^m}: the
        Teichmuller digits r_i of the element, twisted to c_i = r_i^(p^i) on
        their residue tuples, one field element per coordinate."""
        ring = self.ring
        keys, _ = ring.digit_keys(self.coeffs, ring.N)
        return [ring.field.twist(r, i) for i, r in enumerate(keys)]

    def __repr__(self):
        return "U(%s; p=%d,m=%d,N=%d)" % (list(self.coeffs), self.ring.p, self.ring.m, self.ring.N)


class UnramifiedRing(_Ring):
    """W_N(F_{p^m}) = Z[x]/(p^N, hbar), with the Frobenius lift sigma.

    sigma is a genuine ring automorphism reducing to a |-> a^p mod p and
    satisfying sigma^m = id; both facts are asserted at construction.

    sigma(x) is the root r of hbar with r = x^p mod p, found by Newton's
    method with a carried approximate inverse z of hbar'(r):

        r <- r - hbar(r) z,   then   z <- z (2 - hbar'(r) z),

    from r_0 = x^p and z_0 a lift of the inverse of hbar'(r_0) mod p, the
    one inversion.  Both values come from one table of the powers
    r^0..r^m, scaled by hbar's integer coefficients: m - 1 products a
    step, plus three for the updates.  Write a_k = v(hbar(r_k)) and
    b_k = v(1 - hbar'(r_k) z_k).  Then a_0 >= 1, since hbar(x^p) =
    hbar(x)^p = 0 mod p, and b_0 >= 1.  With d = r_{k+1} - r_k =
    -hbar(r_k) z_k, of valuation >= a_k, Taylor's formula gives
    hbar(r_{k+1}) = hbar(r_k)(1 - hbar'(r_k) z_k) + O(d^2), so
    a_{k+1} >= a_k + min(a_k, b_k).  And 1 - hbar'(r_{k+1}) z_{k+1} =
    (1 - hbar'(r_{k+1}) z_k)^2 with hbar'(r_{k+1}) = hbar'(r_k) mod d, so
    b_{k+1} >= 2 min(a_k, b_k).  So min(a_k, b_k) >= 2^k and a_k >= 2^k:
    ceil(log2 N) steps reach p^N.  The loop stops as soon as hbar(r) = 0
    mod p^N, that is at once for N = 1 and for m = 1 (hbar = x, r = 0),
    and the columns of sigma's matrix are the powers r^0..r^(m-1) of the
    last table.
    """

    _element = UElement

    def __init__(self, field, N):
        if N < 1:
            raise InputError("precision N must be >= 1")
        self.field = field
        p, m = field.p, field.m
        super().__init__(p, m, N, field.modulus)
        self._teichmuller = {}
        f = self.modulus
        df = poly_deriv(f)
        x = y = self.generator()
        r, z = x**p, None
        for _ in range((N - 1).bit_length() + 2):
            powers = [self.one(), *accumulate([r] * m, mul)]  # r^0..r^m
            rows = list(zip(*(c.coeffs for c in powers)))
            value = UElement(self, _apply(rows, f))
            if value.is_zero():
                break
            slope = UElement(self, _apply(rows, df))
            z = UElement(self, slope.residue().inverse().coeffs) if z is None else z * (2 - slope * z)
            r = r - value * z
        else:
            raise PrecisionError("Frobenius lift did not converge")
        self._sigma[1 % m] = [row[:m] for row in rows]
        for _ in range(m):
            y = self.sigma(y)
        if y != x:
            raise PrecisionError("sigma^m != id; modulus not unramified-compatible")

    def coerce(self, x):
        if isinstance(x, int):
            return UElement(self, [x])
        if not isinstance(x, UElement) or x.ring is not self:
            raise InputError("context mismatch")
        return x

    def from_int(self, k):
        return UElement(self, [k])

    def from_coeffs(self, coeffs):
        return UElement(self, list(coeffs))

    def sigma(self, elem, k=1):
        """sigma^k(elem) for any integer k, by the matrix of sigma^(k mod m)."""
        if elem.ring is not self:
            raise InputError("context mismatch")
        return elem if k % self.m == 0 else self.twist(elem.coeffs, k)

    def teichmuller(self, c):
        """The multiplicative lift: the unique root of unity (or 0)
        reducing to c, i.e. the root of X^q - X (q = p^m) over c.

        Each residue is lifted once per ring, by Newton on X^q - X
        started from the plain lift.  At a nonzero root the derivative is
        the integer unit q - 1, so the fixed step
        x <- (q x - x^q) / (q - 1) doubles the p-adic accuracy each time
        and ceil(log2 N) steps reach p^N; 0 is a fixed point of the step."""
        c = self.field.coerce(c)
        lift = self._teichmuller.get(c.coeffs)
        if lift is None:
            q = self.p**self.m
            scale = pow(q - 1, -1, self.pN)
            lift = UElement(self, c.coeffs)
            for _ in range((self.N - 1).bit_length()):
                xq = (lift**q).coeffs
                lift = UElement(self, [scale * (q * a - b) for a, b in zip(lift.coeffs, xq)])
            self._teichmuller[c.coeffs] = lift
        return lift

    def teichmuller_sum(self, terms):
        """sum p^b [c^(p^-a)] over the terms (a, b, c), c in the residue
        field, as coefficients mod p^N: the lifts come from `teichmuller`
        and are summed as plain int lists, with no ring element built."""
        p = self.p
        acc = [0] * self.m
        for a, b, c in terms:
            pb = p**b
            acc = [x + pb * y for x, y in zip(acc, self.teichmuller(c.frobenius_inv(a)).coeffs)]
        return [x % self.pN for x in acc]

    def digit_keys(self, coeffs, k):
        """The first k Teichmuller digits r_0..r_{k-1} of an element given
        by its coefficients mod p^N (v = sum p^i [r_i] + p^k w): the digits
        as residue tuples (the keys of the lift table) and the coefficients
        of the remainder w."""
        p, pN, table = self.p, self.pN, self._teichmuller
        keys = []
        for _ in range(k):
            r = tuple([c % p for c in coeffs])
            keys.append(r)
            lift = table.get(r) or self.teichmuller(self.field(r))
            coeffs = [(a - b) % pN // p for a, b in zip(coeffs, lift.coeffs)]
        return keys, coeffs

    def __repr__(self):
        return "UnramifiedRing(p=%d, m=%d, N=%d)" % (self.p, self.m, self.N)


def unramified_ring(p, m, N):
    """W_N(F_{p^m}) over the field that `finite_field(p, m)` returns now."""
    return finite_field(p, m).lift(N)
