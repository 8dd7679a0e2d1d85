"""Module presentations with a semilinear Frobenius over W_N(F_{p^m}).

The F-matrix acts on coordinate columns as x |-> M . sigma(x) (sigma
applied entrywise to the coordinates), the V-matrix as x |-> M' .
sigma^{-1}(x).  Provides the cyclic building blocks of each pure slope,
a-numbers by exact row reduction mod p, duality, the display normal form
with its Cayley-Hamilton slope polygon, the sigma-trivial characteristic
polynomial route, and the elementary divisors of deformation torus
quotients in closed form.
"""

from collections import namedtuple
from math import gcd

from ._arith import charpoly, rank, require_prime, vp
from .errors import InputError, PrecisionError
from .newton import ValuationPolygon

__all__ = [
    "DieudonnePresentation",
    "DisplayNormalForm",
    "TorsionProfile",
    "gmn_module",
    "gmn_normal_form",
    "a_number",
    "dualize",
    "np_of_display",
    "np_sigma_trivial",
    "display_matrix",
    "serre_tate_torsion",
]


class DieudonnePresentation:
    """Free rank-h module with sigma-linear F (and optionally V)."""

    def __init__(self, context, F_matrix, V_matrix=None, ht=None, dim=None):
        self.context = context
        self.F = _as_matrix(context, F_matrix)
        self.h = len(self.F)
        self.V = _as_matrix(context, V_matrix) if V_matrix is not None else None
        self.ht = ht if ht is not None else self.h
        self.dim = dim
        if self.V is not None:
            self._check_fv()

    def _check_fv(self):
        if len(self.V) != self.h:
            raise InputError("V must have the size of F")
        ring = self.context.ring
        fsv = _matmul(self.F, _mat_sigma(ring, self.V, 1))
        vsf = _matmul(self.V, _mat_sigma(ring, self.F, -1))
        zero, p = ring.zero(), ring.from_int(self.context.p)
        for i in range(self.h):
            for j in range(self.h):
                want = p if i == j else zero
                if fsv[i][j] != want or vsf[i][j] != want:
                    raise InputError("F.sigma(V) and V.sigma^-1(F) must both be p*Id")

    def det_valuation(self):
        """Valuation of det(F); None when not certifiable at precision N.

        Only supported over F_p, where the characteristic polynomial is
        an honest matrix invariant of the sigma-linear map.
        """
        if self.context.m != 1:
            raise InputError("det valuation is only computed over F_p")
        det = charpoly([[e.coeffs[0] for e in row] for row in self.F], self.context.ring.pN)[-1]
        return vp(det, self.context.p) if det else None

    def to_json(self):
        def entry(e):
            return e.coeffs[0] if self.context.m == 1 else list(e.coeffs)

        return {
            "p": self.context.p,
            "m": self.context.m,
            "N": self.context.N,
            "h": self.h,
            "F": [[entry(e) for e in row] for row in self.F],
            "V": None if self.V is None else [[entry(e) for e in row] for row in self.V],
        }


def _as_matrix(context, rows):
    ring = context.ring
    out = []
    for row in rows:
        r = []
        for e in row:
            if isinstance(e, int):
                e = ring.from_int(e)
            elif getattr(e, "ring", None) is not ring:
                raise InputError("matrix entry from a different context")
            r.append(e)
        out.append(tuple(r))
    n = len(out)
    if any(len(r) != n for r in out):
        raise InputError("matrix must be square")
    return tuple(out)


def _matmul(A, B):
    # skip zero entries of both factors: a G_{m,n} presentation has one
    # nonzero per row; each sum starts from its first product
    zero = A[0][0].ring.zero()
    nonzero = [[(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in B]
    out = []
    for row in A:
        acc = [None] * len(B[0])
        for a, terms in zip(row, nonzero):
            if a.is_zero():
                continue
            for j, b in terms:
                acc[j] = a * b if acc[j] is None else acc[j] + a * b
        out.append(tuple(zero if s is None else s for s in acc))
    return tuple(out)


def _mat_sigma(ring, M, k):
    return tuple(tuple(ring.sigma(e, k) for e in row) for row in M)


def _transpose(M):
    return tuple(tuple(M[j][i] for j in range(len(M))) for i in range(len(M)))


# ---------------------------------------------------------------------------


def gmn_module(m, n, context):
    """The rank m+n cyclic presentation of the pure-slope building block:
    F e_i = e_{i+m}, V e_i = e_{i+n}, e_{i+h} = p e_i.  Tagged ht = m+n,
    dim = m; F^h = p^m on the whole module."""
    if m < 0 or n < 0 or (m == 0 and n == 0):
        raise InputError("need m, n >= 0, not both zero")
    if gcd(m, n) != 1:
        raise InputError("(%d,%d) is not coprime" % (m, n))
    h = m + n
    if context.N < h + 2:
        raise InputError("context precision N=%d too low; need >= %d" % (context.N, h + 2))
    ring = context.ring
    F = [[ring.zero() for _ in range(h)] for _ in range(h)]
    V = [[ring.zero() for _ in range(h)] for _ in range(h)]
    for i in range(h):
        F[(i + m) % h][i] = ring.from_int(context.p ** ((i + m) // h))
        V[(i + n) % h][i] = ring.from_int(context.p ** ((i + n) // h))
    return DieudonnePresentation(context, F, V, ht=h, dim=m)


def a_number(pres):
    """dim_K of M / (FM + VM) mod p, by exact row reduction over F_{p^m}."""
    if pres.V is None:
        raise InputError("a-number needs the V action")
    cols = []
    for M in (pres.F, pres.V):
        for j in range(pres.h):
            cols.append([M[i][j].residue() for i in range(pres.h)])
    return pres.h - rank(cols)


def dualize(pres):
    """Dual presentation: F* = sigma(V^T), V* = sigma^{-1}(F^T)."""
    if pres.V is None:
        raise InputError("dualizing needs the V action")
    ring = pres.context.ring
    Fd = _mat_sigma(ring, _transpose(pres.V), 1)
    Vd = _mat_sigma(ring, _transpose(pres.F), -1)
    dim = None if pres.dim is None else pres.ht - pres.dim
    return DieudonnePresentation(pres.context, Fd, Vd, ht=pres.ht, dim=dim)


# ---------------------------------------------------------------------------
# display normal form


class DisplayNormalForm:
    """The almost-companion F-matrix shape with block size s.

    Free entries a_{i,j} live at 1 <= i <= s, s <= j <= h (1-based), with
    a_{1,h} a unit; all other positions are forced: 1's below the diagonal
    of the leading s x s block, a single bridging 1, and p's below the
    diagonal of the trailing block.  The attached group has height h and
    dimension h - s.
    """

    def __init__(self, context, h, s, entries):
        if not (1 <= s <= h - 1):
            raise InputError("block size s must satisfy 1 <= s <= h-1")
        self.context = context
        self.h, self.s = h, s
        ring = context.ring
        table = {}
        for (i, j), e in dict(entries).items():
            if not (1 <= i <= s and s <= j <= h):
                raise InputError("entry (%d,%d) outside the normal-form window" % (i, j))
            if isinstance(e, int):
                e = ring.from_int(e)
            elif e.ring is not ring:
                raise InputError("entry from a different context")
            if not e.is_zero():
                table[(i, j)] = e
        top = table.get((1, h))
        if top is None or not top.is_unit():
            raise InputError("a_{1,h} must be a unit")
        self.entries = table

    @property
    def dim(self):
        return self.h - self.s

    def is_zero_unit(self):
        return all(e.is_unit() for e in self.entries.values())


def gmn_normal_form(m, n, context):
    """Normal form of the pure building block: s = n, single unit a_{1,h}."""
    if m < 1 or n < 1:
        raise InputError("normal form needs m, n >= 1")
    h = m + n
    if context.N < h + 2:
        raise InputError("context precision too low")
    return DisplayNormalForm(context, h, n, {(1, h): 1})


def np_of_display(dnf):
    """Newton polygon of the group presented by a display normal form.

    The cyclic vector e_1 satisfies a monic degree-h twisted polynomial
    whose coefficient at F^(h-t) collects the anti-diagonal j - i = t - 1
    with weights p^(j-s) and coefficient twists sigma^(h-j); the polygon
    is the lower hull of its coefficient valuations, ending at (h, h-s).
    When every entry is a unit the hull shortcut (0,0), (j+1-i, j-s) is
    exact because distinct p-weights cannot cancel; otherwise the
    valuations are computed by `_np_of_display_general`.
    """
    if dnf.is_zero_unit():
        pts = [(0, 0)] + [(j + 1 - i, j - dnf.s) for (i, j) in dnf.entries]
        return _hull_to_group_polygon(pts, dnf.h, dnf.dim)
    return _np_of_display_general(dnf)


def _np_of_display_general(dnf):
    """np_of_display for any entries, from the coefficient valuations."""
    ring = dnf.context.ring
    p = dnf.context.p
    points = [(0, 0)]
    for t in range(1, dnf.h + 1):
        slots = [(i, j) for (i, j) in dnf.entries if j - i == t - 1]
        if not slots:
            continue
        acc = sum((p ** (j - dnf.s) * ring.sigma(dnf.entries[(i, j)], dnf.h - j) for i, j in slots), ring.zero())
        v = acc.valuation()
        if v is None:
            raise PrecisionError(
                "coefficient of F^%d vanishes at precision N=%d; raise N"
                % (dnf.h - t, dnf.context.N)
            )
        points.append((t, v))
    return _hull_to_group_polygon(points, dnf.h, dnf.dim)


def _hull_to_group_polygon(points, h, dim):
    polygon = ValuationPolygon(h, points)
    if polygon.vertices[-1] != (h, dim):
        raise InputError("hull does not end at (h, dim) = (%d, %d)" % (h, dim))
    return polygon.to_newton_polygon()


def display_matrix(dnf):
    """The full h x h F-matrix of the display (columns are images).  Ring
    elements are immutable, so every forced entry shares one zero, one one
    or one p."""
    ring = dnf.context.ring
    zero, one, p = ring.zero(), ring.one(), ring.from_int(dnf.context.p)
    h, s = dnf.h, dnf.s
    M = [[zero] * h for _ in range(h)]
    for jp in range(1, s):
        M[jp][jp - 1] = one  # subdiagonal of the s x s block
    M[s][s - 1] = one  # bridging 1 below a_{s,s}
    for jp in range(s + 1, h):
        M[jp][jp - 1] = p  # subdiagonal p's in the trailing block
    for (i, j), e in dnf.entries.items():
        M[i - 1][j - 1] = M[i - 1][j - 1] + (e if j == s else p * e)
    return tuple(tuple(row) for row in M)


# ---------------------------------------------------------------------------
# sigma-trivial characteristic-polynomial route (base field F_p)


def np_sigma_trivial(matrix_or_pres, context=None):
    """Valuation polygon of det(T - F) for an F-matrix over W_N(F_p).

    Slopes may leave [0,1] (nothing caps a matrix valuation), so the
    result is the raw hull; `to_newton_polygon` converts when the slopes
    are group-like.  Certification: the determinant must be nonzero at
    precision N; interior coefficients that vanish at precision N sit
    strictly above the certified hull and are safely ignored.
    """
    if isinstance(matrix_or_pres, DieudonnePresentation):
        pres = matrix_or_pres
        context = pres.context
        M = pres.F
    else:
        if context is None:
            raise InputError("a context is required with a raw matrix")
        M = _as_matrix(context, matrix_or_pres)
    if context.m != 1:
        raise InputError("sigma-trivial route requires base field F_p")
    p, N = context.p, context.N
    c = charpoly([[e.coeffs[0] for e in row] for row in M], context.ring.pN)
    h = len(M)
    if c[-1] == 0:
        raise PrecisionError("det(F) vanishes at precision N=%d; raise N" % N)
    points = [(0, 0)]
    for i in range(1, h + 1):
        if c[i] == 0:
            continue  # true valuation >= N > certified hull; irrelevant
        points.append((i, vp(c[i], p)))
    return ValuationPolygon(h, points)


# ---------------------------------------------------------------------------
# torsion of the polarized deformation quotient


# Largest bit length of a printed torsion order p^e.  Such an order has at
# most 3,011 decimal digits, so it prints under CPython's default 4,300-digit
# limit on int to str conversion; 2^20000 formed and then failed to print.
MAX_TORSION_BITS = 10_000
# Largest g served: the profile lists up to g(g - 1)/2 orders.  On a 2-vCPU
# Xeon a CLI request with g = 1000 exponents 1 takes 0.37 s and 57 MiB, and
# g = 2000 0.95 s and 178 MiB.
MAX_TORSION_G = 1000


class TorsionProfile(namedtuple("TorsionProfile", "p exponents orders")):
    """`orders` is the sorted multiset of cyclic orders, each a power of p."""

    __slots__ = ()

    def to_json(self):
        return {"p": self.p, "exponents": list(self.exponents), "orders": [str(o) for o in self.orders]}


def serre_tate_torsion(exponents, p):
    """Elementary divisors of the torsion of the relation quotient.

    The relations u (x) lam(v) - v (x) lam(u) on Z^(g*g), lam =
    diag(p^e_i), have one column per pair a < b, with support
    {(a, b), (b, a)}, and the supports of distinct columns are
    disjoint.  So the quotient is a direct sum: Z on each diagonal
    position, and Z^2 / (p^(e_b), -p^(e_a)) = Z + Z/p^min(e_a, e_b) for
    each pair.  With the exponents sorted, the torsion is the multiset
    {p^(e_a) : a < b, e_a > 0}, ascending; the tests check it against the
    Smith normal form of the relation matrix and against gcds of minors.
    More than MAX_TORSION_G exponents, or an order of more than
    MAX_TORSION_BITS bits, is refused before any order is formed.
    """
    require_prime(p)
    exponents = tuple(int(e) for e in exponents)
    if not exponents or any(e < 0 for e in exponents):
        raise InputError("need g >= 1 sorted non-negative exponents")
    if list(exponents) != sorted(exponents):
        raise InputError("exponents must be sorted ascending")
    g = len(exponents)
    if g > MAX_TORSION_G:
        raise InputError("g = %d exceeds the cap of %d exponents" % (g, MAX_TORSION_G))
    orders = []
    for a, e in enumerate(exponents[:-1]):
        if e:
            # p^e >= 2^(e(b - 1)) for p of bit length b: the first test
            # refuses most oversized orders unformed
            if e * (p.bit_length() - 1) > MAX_TORSION_BITS or (o := p**e).bit_length() > MAX_TORSION_BITS:
                raise InputError("torsion order %d^%d exceeds the cap of %d bits" % (p, e, MAX_TORSION_BITS))
            orders += [o] * (g - 1 - a)
    return TorsionProfile(p, exponents, tuple(orders))
