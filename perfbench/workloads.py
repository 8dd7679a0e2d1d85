"""The four benchmark workloads: op generators, op runners and oracles.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Ops come in *rounds*.  A round has a fixed
class composition (the counts per op class never depend on the seed); the
seed draws the concrete inputs and the order inside the round.  The worker
reports end-to-end metrics over complete rounds only, so every measured
sample holds the same op mix and the figures stay comparable across seeds.

An op returns ``(ok, record)``.  ``ok`` is False when the op did not
behave as specified (an unexpected exception, or a CLI exit code other
than the documented one); such ops count towards ``failed``.  The
workload's oracle checks each record as soon as its op returns, outside
the op's timing, and the record is then dropped.  A wrong answer makes the
whole run incorrect.
"""

import hashlib
import importlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

# Library calls go through the module attributes (``poset.longest_chain``,
# not a name bound here), so the traced run sees every one of them.  The
# CLI module is imported by cli-mix only: ``import isolab`` does not load
# it, so the library workloads' set-up time leaves it out.
from isolab import cartier, dieudonne, newton, poset, weil, witt
from isolab.errors import PlaceResolutionError


class Workload:
    """A workload: ``make_round(rng)`` returns ``[(class, op), ...]``;
    ``before_op()`` runs before each op, outside its timing; ``run(op)``
    returns ``(ok, record)``; ``check(record)`` returns the oracle errors
    for one record; ``end_round()`` the errors of checks made when a round
    completes and ``final_check()`` those made once per run; ``report()``
    returns figures for the provenance line, gathered once after the timed
    phase.  ``targets`` lists the traced functions this workload must call.
    With ``cold_caches`` every op starts from the library cache state of a
    fresh process."""

    name = ""
    targets = ()
    cold_caches = False

    def __init__(self, seed):
        self.seed = seed

    def before_op(self):
        pass

    def end_round(self):
        return []

    def final_check(self):
        return []

    def report(self):
        return {}


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def _compose(rng, parts):
    """One shuffled round from ``[(count, make_op), ...]``."""
    ops = [make(rng) for count, make in parts for _ in range(count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# weil-census


class WeilCensus(Workload):
    """Quadratic real-trace Weil numbers over q <= 10^4 (three quarters of
    the ops, cheap, they set p50) and the whole Weil coefficient box of the
    quartics x^4 + a x^3 + b x^2 + a q x + q^2 for q in {2, 3} (a quarter,
    reducible / refused / accepted / root-modulus, they set p90).

    The quartic census is the same 756 candidates in every round, in a
    seeded order: quartic costs range over three decades (the Kronecker
    backstop), so a seeded sample of them would not give steady figures.
    """

    name = "weil-census"
    QUARTIC_Q = ((2, 2, 1), (3, 3, 1))  # (q, p, n)
    targets = (
        "weil.weil_verify",
        "weil.honda_tate",
        "weil.is_irreducible_q",
        "weil.count_real_roots",
        "newton.np_of_polynomial",
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.quadratic_q = []
        for p in _primes_upto(10**4):
            q, n = p, 1
            while q <= 10**4:
                self.quadratic_q.append((p, n, q))
                q *= p
                n += 1
        self.quartics = []
        for q, p, n in self.QUARTIC_Q:
            amax = math.isqrt(16 * q)
            for a in range(-amax, amax + 1):
                for b in range(-6 * q, 6 * q + 1):
                    self.quartics.append(("quartic", p, n, q, a, b))

    def make_round(self, rng):
        ops = list(self.quartics)
        for _ in range(3 * len(self.quartics)):
            p, n, q = rng.choice(self.quadratic_q)
            top = math.isqrt(4 * q - 1)
            ops.append(("quadratic", p, n, q, rng.randint(-top, top), None))
        rng.shuffle(ops)
        return [(op[0], op) for op in ops]

    def run(self, op):
        kind, p, n, q, a, b = op
        try:
            if kind == "quadratic":
                w = weil.weil_from_real_trace(a, p, n)
            else:
                w = weil.weil_verify([1, a, b, a * q, q * q], p, n)
            ht = weil.honda_tate(w)
            return True, (op, "accepted", ht)
        except weil.WeilRejection as ex:
            return True, (op, ex.reason, None)
        except PlaceResolutionError:
            return True, (op, "refused", None)

    @staticmethod
    def _weil_plausible(q, a, b):
        """Exact integer test that y^2 + a y + (b - 2q), the real-trace
        polynomial of the quartic, has both roots in [-2 sqrt q, 2 sqrt q]."""
        c = b - 2 * q
        return a * a - 4 * c >= 0 and 4 * q + c >= 0 and 4 * a * a * q <= (4 * q + c) ** 2

    def check(self, record):
        op, outcome, ht = record
        kind, p, n, q, a, b = op
        errors = []
        if outcome == "accepted":
            if 2 * ht.g != ht.e * ht.d:
                errors.append("%s: 2g != e*d" % (op,))
            if tuple(sorted(1 - s for s in ht.slopes)) != tuple(ht.slopes):
                errors.append("%s: slopes not symmetric" % (op,))
        if kind == "quadratic":
            if outcome == "refused":
                if a % p:
                    errors.append("%s: refused with p not dividing beta" % (op,))
            elif outcome == "accepted":
                ordinary = ht.slopes == (Fraction(0), Fraction(1))
                if ordinary != (a % p != 0):
                    errors.append("%s: ordinary iff p does not divide beta fails" % (op,))
            else:
                errors.append("%s: quadratic rejected (%s)" % (op, outcome))
        else:
            plausible = self._weil_plausible(q, a, b)
            if outcome == "root-modulus" and plausible:
                errors.append("%s: root-modulus reject of a plausible quartic" % (op,))
            if outcome in ("accepted", "refused") and not plausible:
                errors.append("%s: %s although roots leave the circle" % (op, outcome))
            if outcome not in ("accepted", "refused", "reducible", "root-modulus"):
                errors.append("%s: unexpected verdict %s" % (op, outcome))
        return errors


# ---------------------------------------------------------------------------
# cartier-witt


class CartierWitt(Workload):
    """Cartier products and relation checks over F_4, F_9, F_8 and F_25 at
    V-cap 6, Witt add/mul/coordinates in W_N(F_{p^m}), and Cayley-Hamilton
    cross-checks of zero/unit display normal forms.  The Teichmuller lift
    dominates; the residues repeat heavily across ops.

    Round of 24, cheapest first: 5 Witt and 3 display ops; 6 associativity
    triples over F_4 of one exponent shape (p50 lies among these); one more
    over F_4, F_9 and F_8, relation sets over F_4 and F_9; 4 associativity
    triples over F_25 of one shape (p90 lies among these) and a relation
    set over F_25.
    """

    name = "cartier-witt"
    VCAP = 6
    targets = (
        "unramified.UnramifiedRing.teichmuller",
        "unramified.UnramifiedRing",
        "unramified.UElement.__mul__",
        "unramified.FFElement.__mul__",
        "unramified.FFElement.frobenius",
        "cartier.cartier_normalize",
        "cartier.CartierElement.__mul__",
        "witt.WittContext.from_coordinates",
        "witt.WittElement.coordinates",
        "dieudonne.np_of_display",
        "dieudonne.np_sigma_trivial",
    )
    # Cartier product cost depends on the V and F exponents far more than
    # on the residues, so every round uses these exponent shapes and the
    # seed draws the residues
    ASSOC_SHAPES = (((0, 1), (1, 0), (2, 1)), ((1, 2), (0, 1), (1, 1)))
    RELATION_SHAPES = ((0, 1), (1, 2), (2, 0))
    WITT_SHAPES = ((2, 1, 6), (3, 1, 5), (7, 1, 4), (3, 2, 5), (2, 3, 5))  # (p, m, N)

    @staticmethod
    def _nonzero(rng, p, m):
        """A uniform nonzero element of F_{p^m} as its coefficient list."""
        code = rng.randrange(1, p**m)
        return [code // p**k % p for k in range(m)]

    def _assoc(self, p, m, shape):
        def make(rng):
            terms = [(a, b, self._nonzero(rng, p, m)) for a, b in shape]
            return ("cartier-assoc F_%d^%d" % (p, m), ("cartier", "assoc", p, m, terms))

        return make

    def _relation(self, p, m, shape):
        def make(rng):
            terms = [self._nonzero(rng, p, m), self._nonzero(rng, p, m), *shape]
            return ("cartier-relation F_%d^%d" % (p, m), ("cartier", "relation", p, m, terms))

        return make

    @staticmethod
    def _witt(shape):
        def make(rng):
            p, m, N = shape
            a = [[rng.randrange(p) for _ in range(m)] for _ in range(N)]
            b = [[rng.randrange(p) for _ in range(m)] for _ in range(N)]
            return ("witt m=%d" % m, ("witt", p, m, N, a, b))

        return make

    @staticmethod
    def _display(h):
        def make(rng):
            p = rng.choice((2, 3))
            s = rng.randrange(1, h)
            positions = [(i, j) for i in range(1, s + 1) for j in range(s, h + 1) if (i, j) != (1, h)]
            entries = {(1, h): 1}
            for pos in rng.sample(positions, min(len(positions), rng.randrange(3))):
                entries[pos] = 1
            return ("display", ("display", p, h, s, entries))

        return make

    def make_round(self, rng):
        assoc, relation = self.ASSOC_SHAPES, self.RELATION_SHAPES
        return _compose(
            rng,
            [(1, self._witt(shape)) for shape in self.WITT_SHAPES]
            + [(1, self._display(h)) for h in (4, 5, 6)]
            # six ops of one cost, around p50
            + [(6, self._assoc(2, 2, assoc[0]))]
            + [
                (1, self._assoc(2, 2, assoc[1])),
                (1, self._relation(2, 2, relation[0])),
                (1, self._assoc(3, 2, assoc[0])),
                (1, self._assoc(2, 3, assoc[1])),
                (1, self._relation(3, 2, relation[2])),
            ]
            # four ops of one cost, around p90, and the dearest op above them
            + [(4, self._assoc(5, 2, assoc[1])), (1, self._relation(5, 2, relation[1]))],
        )

    def run(self, op):
        tag = op[0]
        if tag == "cartier":
            _, kind, p, m, terms = op
            ctx = cartier.CartierContext(p, m, vcap=self.VCAP)
            if kind == "assoc":
                x, y, z = (ctx.monomial(a, b, ctx.field(c)) for a, b, c in terms)
                return True, (op, ((x * y) * z, x * (y * z)))
            a, b, i, j = terms
            a, b = ctx.field(a), ctx.field(b)
            r = min(i, j)
            pairs = (
                (ctx.diag(a) * ctx.diag(b), ctx.diag(a * b)),
                (ctx.F() * ctx.diag(a), ctx.monomial(0, 1, a.frobenius())),
                (ctx.F() * ctx.V(), ctx.p_element()),
                (ctx.V() * ctx.F(), ctx.p_element()),
                (
                    ctx.monomial(i, i, a) * ctx.monomial(j, j, b),
                    ctx.p_element() ** r
                    * ctx.monomial(i + j - r, i + j - r, a.frobenius(j - r) * b.frobenius(i - r)),
                ),
            )
            return True, (op, pairs)
        if tag == "witt":
            _, p, m, N, a, b = op
            ctx = witt.WittContext(p, m, N)
            x = ctx.from_coordinates([ctx.field(c) for c in a])
            y = ctx.from_coordinates([ctx.field(c) for c in b])
            sums = [list(c.coeffs) for c in (x + y).coordinates()]
            prods = [list(c.coeffs) for c in (x * y).coordinates()]
            return True, (op, (sums, prods))
        _, p, h, s, entries = op
        ctx = witt.WittContext(p, 1, 9)
        dnf = dieudonne.DisplayNormalForm(ctx, h, s, entries)
        return True, (op, (
            dieudonne.np_of_display(dnf).slopes(),
            dieudonne.np_sigma_trivial(dieudonne.display_matrix(dnf), ctx).slopes(),
        ))

    def check(self, record):
        op, result = record
        tag = op[0]
        errors = []
        if tag == "cartier":
            pairs = (result,) if op[1] == "assoc" else result
            for idx, (lhs, rhs) in enumerate(pairs):
                if lhs != rhs:
                    errors.append("cartier %s relation %d fails: %r != %r" % (op[1], idx, lhs, rhs))
        elif tag == "witt":
            _, p, m, N, a, b = op
            sums, prods = result
            if m == 1:
                ga = witt.ghost_components([c[0] for c in a], p)
                gb = witt.ghost_components([c[0] for c in b], p)
                want_s = [c % p for c in witt.ghost_inverse([u + v for u, v in zip(ga, gb)], p)]
                want_m = [c % p for c in witt.ghost_inverse([u * v for u, v in zip(ga, gb)], p)]
                if [c[0] for c in sums] != want_s or [c[0] for c in prods] != want_m:
                    errors.append("witt W_%d(F_%d) disagrees with the ghost map" % (N, p))
            else:
                # no ghost oracle over F_{p^m}: coordinates must read back
                ctx = witt.WittContext(p, m, N)
                x, y = (ctx.from_coordinates([ctx.field(c) for c in v]) for v in (a, b))
                back_s, back_m = (ctx.from_coordinates([ctx.field(c) for c in v]) for v in (sums, prods))
                if back_s != x + y or back_m != x * y:
                    errors.append("witt W_%d(F_%d^%d): coordinates do not read back" % (N, p, m))
        else:
            display_np, char_np = result
            if display_np != char_np:
                errors.append("display %s: np_of_display != np_sigma_trivial" % (op[1:4],))
        return errors


# ---------------------------------------------------------------------------
# poset


class PosetWorkload(Workload):
    """Requests (h, d, symmetric): build the poset, then longest_chain from
    the bottom to the top, a specialization witness below the ordinary
    polygon, and np_dim / np_sdim on three elements.

    Round of 24: 8 light requests (h <= 5), 8 at h = 6, 7 at h = 7 and
    the symmetric (8, 4).  As many ops lie below the h = 6 class as above
    it, so p50 is that class's median, where its op times are densest;
    p90 lies among the h = 7 requests.
    The (h, d) list is fixed; the seed draws the queried elements and the
    order.
    """

    name = "poset"
    targets = (
        "poset.NPPoset",
        "poset.enumerate_polygons",
        "poset.longest_chain",
        "poset.specialization_witness",
        "newton.np_compare",
        "newton.np_precedes",
    )
    TIERS = (
        ((4, 1, False), (4, 2, False), (4, 3, False), (4, 2, True), (5, 1, False), (5, 2, False), (5, 3, False), (5, 4, False)),
        # (6, 2) and (6, 4) are mirror images of one cost, around p50
        ((6, 2, False),) * 4 + ((6, 4, False),) * 4,
        # (7, 3) and (7, 4) likewise, around p90
        ((7, 3, False), (7, 4, False)) * 3 + ((7, 3, False),),
        ((8, 4, True),),
    )

    def make_round(self, rng):
        ops = []
        for tier in self.TIERS:
            for h, d, sym in tier:
                ops.append(("h=%d" % h, (h, d, sym, rng.random(), [rng.random() for _ in range(3)])))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        h, d, sym, pick, probes = op
        built = poset.poset_build(h, d, symmetric=sym)
        elements = built.elements
        chain = poset.longest_chain(built, built.bottom(), built.top())
        beta = elements[int(pick * len(elements))]
        witness = poset.specialization_witness(beta, built.top())
        dims = [(newton.np_sdim if sym else newton.np_dim)(elements[int(u * len(elements))]) for u in probes]
        return True, (op, built, chain, beta, witness, dims)

    def check(self, record):
        op, built, chain, beta, witness, dims = record
        errors = []
        if not built.is_ranked():
            errors.append("poset %s is not ranked" % (op[:3],))
        bottom, top = built.index_of(built.bottom()), built.index_of(built.top())
        if len(chain) - 1 != built.ranks[top] - built.ranks[bottom]:
            errors.append("poset %s: chain length != rank difference" % (op[:3],))
        if witness[0] != built.top() or witness[-1] != beta:
            errors.append("poset %s: witness has the wrong ends" % (op[:3],))
        if any(not newton.np_precedes(lo, hi, strict=True) for hi, lo in zip(witness, witness[1:])):
            errors.append("poset %s: witness is not a descending chain" % (op[:3],))
        if any(v < 0 for v in dims):
            errors.append("poset %s: negative dimension" % (op[:3],))
        return errors


# ---------------------------------------------------------------------------
# cli-mix


# Malformed requests with their documented exit code.  `np dim --pairs
# "99999999999*(1,0)"` is left out on purpose: it exhausts memory until the
# CLI caps its inputs.
MALFORMED = (
    (["np", "dim", "--pairs", "(2,2)"], (2,)),
    (["np", "frobnicate", "--pairs", "(1,1)"], (64,)),
    (["np-poly", "--coeffs", "1,2"], (64,)),
    (["np-poly", "--coeffs", "2,1", "--p", "5"], (2,)),
    (["weil-trace", "--beta", "999", "--p", "2", "--n", "1"], (2,)),
    (["witt", "add", "--p", "3", "--N", "1", "--a", "1", "--b", "1"], (2,)),
    (["witt", "mul", "--p", "x"], (64,)),
    (["semimod", "enumerate", "--m", "2", "--n", "4"], (2,)),
    (["poset", "build", "--h", "3", "--d", "5"], (2,)),
)
# The missing-argument requests that end in a traceback at the seed; the
# README promises exit 2 or 64 for them.  They are not in the timed stream,
# which holds only requests that behave as documented: each run calls them
# once after its timed phase and reports what they did.
MISSING_ARGUMENT = (
    (["cartier", "mul"], (2, 64)),
    (["dieudonne", "a-number"], (2, 64)),
    (["witt", "ghost", "--p", "3"], (2, 64)),
    (["poset", "chain", "--h", "5", "--d", "2"], (2, 64)),
    (["weil", "verify", "--minpoly", "1,2"], (2, 64)),
)

# The README examples, run once per run outside the timed phase; their
# stdout must stay byte-identical.
GOLDEN = (
    ["np", "dim", "--pairs", "2*(1,0)+(2,1)+(1,5)"],
    ["np", "compare", "--a", "2*(1,1)", "--b", "(1,0)+(1,1)+(0,1)"],
    ["np-poly", "--coeffs", "1,0,-5,-125", "--p", "5"],
    ["weil", "classify", "--minpoly", "1,2,8", "--p", "2", "--n", "3"],
    ["weil-trace", "--beta", "1", "--p", "2", "--n", "1"],
    ["witt", "ghost", "--p", "3", "--coords", "2,1,1"],
    ["cartier", "artin-hasse", "--p", "2", "--degree", "10"],
    ["dieudonne", "gmn", "--m", "2", "--n", "1", "--p", "3"],
    ["dieudonne", "serre-tate-torsion", "--exponents", "1,2,2", "--p", "3"],
    ["semimod", "enumerate", "--m", "3", "--n", "4"],
    ["poset", "chain", "--h", "7", "--d", "3", "--from", "iso", "--to", "ord"],
    ["poset", "dot", "--h", "6", "--d", "3", "--symmetric"],
)
GOLDEN_SHA256 = "9aa4ed792478d3c35aa0884e35ecc4011b3781bc751819d4feec06d966a284cd"
# stdout digest of the valid requests of the first round for the default seed
DEFAULT_SEED = 0
FIRST_ROUND_SHA256 = "e5ebbec7f0cb87c4be2ed2c42a1799bf5093566020806b959e6b0418ec3f32f8"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _pairs_text(pairs):
    counts = {}
    for pair in pairs:
        counts[pair] = counts.get(pair, 0) + 1
    return "+".join(
        ("%d*(%d,%d)" % (k, m, n) if k > 1 else "(%d,%d)" % (m, n)) for (m, n), k in sorted(counts.items())
    )


def _random_pairs(rng, count):
    coprime = [(m, n) for m in range(4) for n in range(4) if (m or n) and math.gcd(m, n) == 1]
    return [rng.choice(coprime) for _ in range(count)]


def _symmetric_pairs(rng):
    pairs = [(1, 1)] * rng.randrange(3)
    for m, n in _random_pairs(rng, rng.randrange(1, 3)):
        pairs += [(m, n), (n, m)]
    return pairs or [(1, 1)]


def _semimodule_members(rng):
    m, n = rng.choice(((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)))
    gens = rng.sample(range(0, 12), rng.randrange(1, 3))
    tail = max(gens) + (m - 1) * (n - 1) + rng.randrange(3)
    members = sorted(
        {g + i * m + j * n for g in gens for i in range(tail) for j in range(tail) if g + i * m + j * n < tail}
    )
    return m, n, members, tail


def _gmn_json(rng):
    m, n = rng.choice(((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 0), (0, 1)))
    p = rng.choice((2, 3, 5))
    h = m + n
    F = [[0] * h for _ in range(h)]
    V = [[0] * h for _ in range(h)]
    for i in range(h):
        F[(i + m) % h][i] = p ** ((i + m) // h)
        V[(i + n) % h][i] = p ** ((i + n) // h)
    return {"p": p, "m": 1, "h": h, "F": [[str(e) for e in row] for row in F], "V": [[str(e) for e in row] for row in V]}


def _ff_text(rng, p, m):
    coeffs = [rng.randrange(p) for _ in range(m)]
    if not any(coeffs):
        coeffs[0] = 1
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            terms.append(str(c) if k == 0 else ("%sg%s" % ("" if c == 1 else "%d*" % c, "" if k == 1 else "^%d" % k)))
    return "+".join(reversed(terms))


def _cartier_json(rng, p, m, vcap):
    terms = [
        {"v": rng.randrange(vcap), "f": rng.randrange(3), "c": _ff_text(rng, p, m)} for _ in range(rng.randrange(1, 3))
    ]
    return json.dumps({"p": p, "m": m, "vcap": vcap, "terms": terms})


def _req_np(rng):
    action = rng.choice(("construct", "dim", "sdim", "dual", "p-rank", "symmetric", "compare"))
    if action == "compare":
        a = _random_pairs(rng, rng.randrange(1, 4))
        b = list(a)
        m, n = b.pop(rng.randrange(len(b)))
        b += [(1, 0)] * m + [(0, 1)] * n
        return ["np", "compare", "--a", _pairs_text(a), "--b", _pairs_text(b)]
    pairs = _symmetric_pairs(rng) if action == "sdim" else _random_pairs(rng, rng.randrange(1, 5))
    return ["np", action, "--pairs", _pairs_text(pairs)]


def _req_np_poly(rng):
    coeffs = [1] + [rng.randint(-50, 50) for _ in range(rng.randrange(1, 5))]
    coeffs[-1] = coeffs[-1] or 7
    return ["np-poly", "--coeffs", ",".join(map(str, coeffs)), "--p", str(rng.choice(_SMALL_PRIMES))]


def _req_weil(rng):
    p = rng.choice(_SMALL_PRIMES)
    n = rng.randrange(1, 4)
    q = p**n
    top = math.isqrt(4 * q - 1)
    if rng.random() < 0.5:
        return ["weil-trace", "--beta", str(rng.randint(-top, top)), "--p", str(p), "--n", str(n)]
    # classify refuses supersingular traces (exit 2); keep p from dividing beta
    beta = rng.choice([b for b in range(-top, top + 1) if b % p])
    action = rng.choice(("verify", "classify"))
    return ["weil", action, "--minpoly", "1,%d,%d" % (-beta, q), "--p", str(p), "--n", str(n)]


def _req_witt(rng):
    if rng.random() < 0.25:
        # ghost components grow like c^(p^n); keep them printable
        p = rng.choice((2, 3, 5, 7))
        coords = [rng.randrange(p) for _ in range(rng.randrange(1, 5))]
        return ["witt", "ghost", "--p", str(p), "--coords", ",".join(map(str, coords))]
    p = rng.choice(_SMALL_PRIMES)
    m = rng.randrange(1, 4) if p < 7 else 1
    N = rng.randrange(2, 7)
    action = rng.choice(("add", "mul", "teichmuller", "frobenius", "valuation"))
    a = ",".join(str(rng.randrange(p)) for _ in range(rng.randrange(1, N + 1)))
    b = ",".join(str(rng.randrange(p)) for _ in range(rng.randrange(1, N + 1)))
    argv = ["witt", action, "--p", str(p), "--m", str(m), "--N", str(N), "--a", a]
    return argv + ["--b", b] if action in ("add", "mul") else argv


def _req_cartier(rng):
    kind = rng.choice(("artin-hasse", "mul", "act"))
    if kind == "artin-hasse":
        return ["cartier", "artin-hasse", "--p", str(rng.choice(_SMALL_PRIMES)), "--degree", str(rng.randrange(5, 30))]
    p, m = rng.choice(((2, 1), (3, 1), (5, 1), (2, 2), (7, 1)))
    vcap = rng.randrange(2, 4)
    x = _cartier_json(rng, p, m, vcap)
    if kind == "mul":
        return ["cartier", "mul", "--x", x, "--y", _cartier_json(rng, p, m, vcap)]
    N = rng.randrange(vcap + 1, vcap + 4)
    w = ",".join(str(rng.randrange(p)) for _ in range(rng.randrange(1, N + 1)))
    return ["cartier", "act", "--x", x, "--w", w, "--N", str(N)]


def _req_dieudonne(rng):
    kind = rng.choice(("gmn", "a-number", "dual", "np-sigma-trivial", "np-display", "serre-tate-torsion"))
    if kind == "gmn":
        m, n = rng.choice(((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4)))
        return ["dieudonne", "gmn", "--m", str(m), "--n", str(n), "--p", str(rng.choice((2, 3, 5, 7)))]
    if kind == "serre-tate-torsion":
        exps = sorted(rng.randrange(4) for _ in range(rng.randrange(1, 5)))
        return ["dieudonne", "serre-tate-torsion", "--exponents", ",".join(map(str, exps)), "--p", str(rng.choice((2, 3, 5)))]
    if kind == "np-display":
        h = rng.randrange(3, 7)
        s = rng.randrange(1, h)
        cells = [{"i": 1, "j": h, "c": "unit"}]
        for i, j in rng.sample([(i, j) for i in range(1, s + 1) for j in range(s, h + 1) if (i, j) != (1, h)], 1):
            cells.append({"i": i, "j": j, "c": rng.choice(("unit", "0"))})
        obj = {"h": h, "s": s, "p": rng.choice((2, 3)), "a": cells}
        return ["dieudonne", "np-display", "--json", json.dumps(obj)]
    return ["dieudonne", kind, "--json", json.dumps(_gmn_json(rng))]


def _req_semimod(rng):
    kind = rng.choice(("enumerate", "normalize", "dual", "from-jumps"))
    m, n, members, tail = _semimodule_members(rng)
    if kind == "enumerate":
        return ["semimod", "enumerate", "--m", str(m), "--n", str(n)]
    if kind == "from-jumps":
        return ["semimod", "from-jumps", "--m", str(m), "--n", str(n), "--jumps", ",".join(map(str, members + [tail]))]
    argv = ["semimod", kind, "--m", str(m), "--n", str(n), "--tail", str(tail)]
    return argv + ["--heads", ",".join(map(str, members))] if members else argv


def _poset_request(shapes, actions):
    def make(rng):
        h, d, sym = rng.choice(shapes)
        action = rng.choice(actions)
        argv = ["poset", action, "--h", str(h), "--d", str(d)] + (["--symmetric"] if sym else [])
        if action in ("chain", "witness"):
            argv += ["--from", "iso", "--to", "ord"]
        return argv

    return make


# A witness at h = 5 (about 30 ms, it builds the poset twice), h = 6
# requests of one cost (about 35 ms) around p90, and h = 7 above them
# (130 to 140 ms)
_req_poset_witness = _poset_request(((5, 2, False), (5, 3, False)), ("witness",))
_req_poset_small = _poset_request(((6, 2, False), (6, 4, False)), ("build", "chain", "dot"))
_req_poset_large = _poset_request(((7, 3, False), (7, 4, False)), ("build", "chain", "dot"))


class CliMix(Workload):
    """In-process ``cli.main`` over a seeded argv stream, both output
    formats, every subcommand, (p, m, N) from a wide range.  Before each
    op, outside its timing, every functools cache in the ``isolab``
    modules is cleared, so each request builds its rings and fields cold
    and pays for filling any cache, as a fresh CLI process does.

    Round of 22: 15 cheap valid requests (p50 lies among these; their cost
    is mostly argparse parser construction), 2 malformed requests with a
    documented exit code, a poset witness at h = 5, 3 poset requests at
    h = 6 (p90 lies among these) and one at h = 7.
    """

    name = "cli-mix"
    targets = (
        "cli.main",
        "cli.build_parser",
        "cli.parse_polygon",
        "poset.NPPoset",
        "newton.np_compare",
        "unramified.UnramifiedRing",
        "unramified.UnramifiedRing.teichmuller",
    )
    CHEAP = (
        _req_np,
        _req_np,
        _req_np,
        _req_np_poly,
        _req_weil,
        _req_weil,
        _req_witt,
        _req_witt,
        _req_cartier,
        _req_cartier,
        _req_dieudonne,
        _req_dieudonne,
        _req_dieudonne,
        _req_semimod,
        _req_semimod,
    )

    cold_caches = True

    def __init__(self, seed):
        super().__init__(seed)
        self.cli = importlib.import_module("isolab.cli")
        caches = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("isolab.") and module is not None:
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        caches[id(value)] = value
        self.caches = list(caches.values())
        self.rounds_made = 0
        self.round_digest = None

    def before_op(self):
        for cache in self.caches:
            cache.cache_clear()

    def _valid(self, make):
        def op(rng):
            argv = make(rng)
            fmt = rng.choice(("text", "json"))
            return (argv[0], (["--format", fmt] + argv, (0,), True))

        return op

    def make_round(self, rng):
        self.rounds_made += 1
        self.round_digest = hashlib.sha256()
        parts = [(1, self._valid(make)) for make in self.CHEAP]
        parts.append((1, self._valid(_req_poset_witness)))
        parts.append((3, self._valid(_req_poset_small)))
        parts.append((1, self._valid(_req_poset_large)))
        parts.append((2, lambda r: ("malformed", (*r.choice(MALFORMED), False))))
        return _compose(rng, parts)

    def call(self, argv):
        """Run ``cli.main`` in-process; returns (exit code or exception
        name, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except Exception as ex:  # an unexpected exception is a failed op, not a crash
                code = type(ex).__name__
        return code, out.getvalue()

    def run(self, op):
        argv, expected, valid = op
        code, stdout = self.call(argv)
        return code in expected, (argv, valid, code, stdout)

    @staticmethod
    def digest_update(h, text):
        h.update(text.encode())
        h.update(b"\0")

    def check(self, record):
        argv, valid, code, stdout = record
        if valid and self.rounds_made == 1:
            self.digest_update(self.round_digest, stdout)
        if valid and code == 0 and not stdout:
            return ["%s: exit 0 with empty stdout" % (argv,)]
        return []

    def end_round(self):
        if self.seed == DEFAULT_SEED and self.rounds_made == 1:
            if self.round_digest.hexdigest() != FIRST_ROUND_SHA256:
                return ["default seed, first round: stdout digest changed"]
        return []

    def final_check(self):
        h = hashlib.sha256()
        for argv in GOLDEN:
            for fmt in ("text", "json"):
                self.digest_update(h, self.call(["--format", fmt] + argv)[1])
        if h.hexdigest() != GOLDEN_SHA256:
            return ["README examples: stdout digest changed"]
        return []

    def report(self):
        outcomes = {}
        for argv, expected in MISSING_ARGUMENT:
            self.before_op()
            code = self.call(argv)[0]
            outcomes[" ".join(argv)] = {"outcome": code, "as_documented": code in expected}
        return {"missing_argument_requests": outcomes}


WORKLOADS = {w.name: w for w in (WeilCensus, CartierWitt, PosetWorkload, CliMix)}
