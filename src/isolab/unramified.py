"""Truncated unramified lifts of finite fields, with a Frobenius lift.

The ring behind every Witt/Dieudonne computation here is
Z[x] / (p^N, hbar(x)) where hbar is a fixed monic degree-m polynomial that
is irreducible mod p.  Reduction mod p gives F_{p^m}; sigma is the unique
ring automorphism lifting a |-> a^p, obtained by Hensel-lifting the root
x^p of hbar.  Working at explicit precision N keeps every valuation claim
certifiable.
"""

from functools import lru_cache
from itertools import accumulate
from operator import mul

from ._arith import factor_degrees, poly_deriv, poly_divmod, poly_eval, poly_mul, poly_mulmod, poly_sub, poly_trim, power, require_prime, vp
from .errors import InputError, PrecisionError


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


def _frobenius_rows(algebra, table, k, image=None):
    """Rows of the matrix of phi^k on the basis 1, x, ..., x^(m-1), where phi
    is Frobenius on F_{p^m} or sigma on its lift ring: column j is phi^k(x)^j.
    `table` holds the rows per k mod m, each filled when first asked for;
    phi^k(x) is `image` for k = 1, else the k = 1 matrix applied k times to x."""
    k %= algebra.m
    rows = table.get(k)
    if rows is None:
        one = algebra.one()
        if image is None:
            image = [0, 1]
            for _ in range(k):
                image = _apply(table[1 % algebra.m], image)
            image = type(one)(algebra, image)
        cols = accumulate([image] * (algebra.m - 1), mul, initial=one)
        rows = table[k] = list(zip(*(c.coeffs for c in cols)))
    return rows


# ---------------------------------------------------------------------------


class FFElement:
    """Element of F_{p^m}, a polynomial of degree < m in the generator g."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        c = [x % field.p for x in coeffs]
        c += [0] * (field.m - len(c))
        self.coeffs = tuple(c[: field.m])

    def __add__(self, other):
        other = self.field.coerce(other)
        return FFElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self.field.coerce(other)
        return FFElement(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FFElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self.field.coerce(other)
        return FFElement(self.field, poly_mulmod(self.coeffs, other.coeffs, self.field.modulus, self.field.p))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    def inverse(self):
        if self.is_zero():
            raise InputError("inverse of zero")
        # extended Euclid in F_p[x]
        p = self.field.p
        r0, r1 = self.field.modulus, poly_trim(self.coeffs)
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        c = pow(r1[0], -1, p)
        return FFElement(self.field, [c * x % p for x in s1])

    def frobenius(self, k=1):
        """self^(p^k), by the field's matrix of x -> x^(p^k)."""
        return FFElement(self.field, _apply(self.field._frobenius_matrix(k), self.coeffs))

    def frobenius_inv(self, k=1):
        return self.frobenius(-k)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        return isinstance(other, FFElement) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return "FF(%s)" % render_ff(self)


class FiniteField:
    """F_{p^m} in a fixed polynomial basis; p must be prime and m >= 1."""

    def __init__(self, p, m):
        require_prime(p)
        if m < 1:
            raise InputError("field degree m must be >= 1, got %r" % (m,))
        self.p = p
        self.m = m
        self.modulus = default_modulus(p, m)
        self._frobenius = {}

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

    def zero(self):
        return FFElement(self, [0])

    def one(self):
        return FFElement(self, [1])

    def generator(self):
        return FFElement(self, [0, 1])

    def _frobenius_matrix(self, k):
        """Rows of the matrix of x -> x^(p^k) on the basis 1, g, ...,
        g^(m-1), whose column j is (g^j)^(p^k); built once per k mod m."""
        if not self._frobenius:
            _frobenius_rows(self, self._frobenius, 1, self.generator() ** self.p)
        return _frobenius_rows(self, self._frobenius, k)

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


class UElement:
    """Element of W_N(F_{p^m}) in the lift representation: an integer
    polynomial of degree < m, coefficients mod p^N."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        q = ring.pN
        c = [x % q for x in coeffs]
        c += [0] * (ring.m - len(c))
        self.coeffs = tuple(c[: ring.m])

    def _same(self, other):
        if isinstance(other, int):
            return UElement(self.ring, [other])
        if not isinstance(other, UElement) or other.ring is not self.ring:
            raise InputError("context mismatch")
        return other

    def __add__(self, other):
        other = self._same(other)
        return UElement(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._same(other)
        return UElement(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return UElement(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UElement(self.ring, [other * a for a in self.coeffs])
        other = self._same(other)
        r = self.ring
        raw = [0] * (2 * r.m - 1) if r.m > 1 else [0]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        return UElement(r, r._reduce_poly(raw))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._same(other) - self

    def __pow__(self, k):
        return power(self, k, self.ring.one())

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_unit(self):
        return not self.residue().is_zero()

    def valuation(self):
        """p-adic valuation; None when indistinguishable from 0 at
        precision N (meaning ">= N", never a number)."""
        if self.is_zero():
            return None
        return min(vp(c, self.ring.p) for c in self.coeffs if c)

    def residue(self):
        return FFElement(self.ring.field, [c % self.ring.p for c in self.coeffs])

    def sigma(self, k=1):
        return self.ring.sigma(self, k)

    def inverse(self):
        if not self.is_unit():
            raise InputError("not a unit")
        # any lift of the residue inverse is right mod p, and Newton's
        # z <- z(2 - u z) doubles the p-adic accuracy each step
        z = UElement(self.ring, self.residue().inverse().coeffs)
        for _ in range((self.ring.N - 1).bit_length()):
            z = z * (2 - self * z)
        return z

    def exact_div_p(self):
        if any(c % self.ring.p for c in self.coeffs):
            raise InputError("not divisible by p")
        # the quotient only carries N-1 certified digits but stays in-ring
        return UElement(self.ring, [c // self.ring.p for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, int):
            other = UElement(self.ring, [other])
        return isinstance(other, UElement) and self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        return "U(%s; p=%d,m=%d,N=%d)" % (list(self.coeffs), self.ring.p, self.ring.m, self.ring.N)


class UnramifiedRing:
    """W_N(F_{p^m}) = Z[x]/(p^N, hbar), with the Frobenius lift sigma.

    sigma is a genuine ring automorphism reducing to a |-> a^p mod p and
    satisfying sigma^m = id; both facts are asserted at construction.  Like
    the field's Frobenius, sigma^k is a matrix filled once per k mod m.
    """

    def __init__(self, p, m, N):
        if N < 1:
            raise InputError("precision N must be >= 1")
        self.field = finite_field(p, m)
        self.p, self.m, self.N = p, m, N
        self.pN = p**N
        self.modulus = self.field.modulus
        self._teichmuller = {}
        # sigma(x) is the root of hbar over x^p, Hensel-lifted from mod p
        f, df = self.modulus, poly_deriv(self.modulus)
        x = y = UElement(self, [0, 1])
        r = x**p
        for _ in range((N - 1).bit_length() + 1):
            r = r - poly_eval(f, r) * poly_eval(df, r).inverse()
        if not poly_eval(f, r).is_zero():
            raise PrecisionError("Frobenius lift did not converge")
        self._sigma = {}
        _frobenius_rows(self, self._sigma, 1, r)
        for _ in range(m):
            y = self.sigma(y)
        if y != x:
            raise PrecisionError("sigma^m != id; modulus not unramified-compatible")

    # -- internal -----------------------------------------------------

    def _reduce_poly(self, raw):
        """Reduce an integer polynomial mod (p^N, hbar)."""
        f = self.modulus
        m = self.m
        raw = list(raw)
        for i in range(len(raw) - 1, m - 1, -1):
            c = raw[i]
            if c:
                for j in range(m + 1):
                    raw[i - m + j] -= c * f[j]
                raw[i] = 0
        return [c % self.pN for c in raw[:m]]

    # -- public -------------------------------------------------------

    def zero(self):
        return UElement(self, [0])

    def one(self):
        return UElement(self, [1])

    def from_int(self, k):
        return UElement(self, [k])

    def from_coeffs(self, coeffs):
        return UElement(self, list(coeffs))

    def sigma(self, elem, k=1):
        """sigma^k(elem) for any integer k, by the matrix of sigma^(k mod m)."""
        if elem.ring is not self:
            raise InputError("context mismatch")
        if k % self.m == 0:
            return elem
        return UElement(self, _apply(_frobenius_rows(self, self._sigma, k), elem.coeffs))

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

    def teichmuller_digits(self, v, k):
        """The first k Teichmuller digits r_0..r_{k-1} of v, as residues
        (v = sum p^i [r_i] + p^k w), and the remainder w."""
        digits = []
        for _ in range(k):
            r = v.residue()
            digits.append(r)
            v = (v - self.teichmuller(r)).exact_div_p()
        return digits, v

    def __repr__(self):
        return "UnramifiedRing(p=%d, m=%d, N=%d)" % (self.p, self.m, self.N)


@lru_cache(maxsize=None)
def unramified_ring(p, m, N):
    return UnramifiedRing(p, m, N)
