"""(m,n)-semimodules: subsets of Z bounded below, closed under +m and +n.

Classifies lattices inside the isocrystal of a pure slope; only the
combinatorial type matters here.  A type is stored normalized: contained
in Z>=0 with exactly r = (m-1)(n-1)/2 gaps, so it is r heads below 2r
plus the full tail [2r, oo).  With M = min(m, n) and N = max(m, n) it is
fixed by k_i, the gap count of class i mod M (they sum to r): its least
member there is i + M k_i.  It is closed under +N exactly when
k_j <= k_i + (i + N) // M for j = (i + N) mod M.  Membership is one
comparison; normalization, the dual and <0> take time linear in r.
"""

from itertools import chain
from math import comb, gcd

from .errors import InputError

__all__ = [
    "MAX_SEMIMODULES",
    "SemiModule",
    "sm_normalize",
    "sm_dual",
    "sm_enumerate",
    "sm_from_jumps",
    "sm_principal",
]

# Each type prints its r heads, so the (2, n) family costs the most per
# type.  On a 2-vCPU Xeon a CLI call at (2, 1999), 1,000 types, takes
# 1.5 s and (2, 2999) 3.3 s; (8, 9), 1,430 types of 28 heads, takes 0.4 s.
MAX_SEMIMODULES = 1000

# Every action prints the r heads: at r = 10^6 (8 MB of text, 9 MB of
# JSON) a fresh CLI `semimod normalize` or `dual` call takes 0.6-1.1 s and
# 139 MiB on a 2-vCPU Xeon, as the largest enumeration does.
MAX_GAPS = 10**6


def _shape(m, n):
    """(M, N, r) of a pair of coprime positive integers."""
    if m < 1 or n < 1 or gcd(m, n) != 1:
        raise InputError("m, n must be coprime positive integers")
    return min(m, n), max(m, n), (m - 1) * (n - 1) // 2


def _check_gaps(m, n, r):
    if r > MAX_GAPS:
        raise InputError("(%d,%d)-semimodules have r = %d gaps, over the cap of %d" % (m, n, r, MAX_GAPS))


def _cycle(M, N):
    """The classes mod M in the order 0, N, 2N, ..., and the closure rule:
    k[cycle[t + 1]] <= k[cycle[t]] + step[t] around the cycle."""
    cycle = [t * N % M for t in range(M)]
    return cycle, [(i + N) // M for i in cycle]


class SemiModule:
    """Normalized (m,n)-semimodule: r heads below 2r plus the tail; `ks`
    holds the gap count of each class mod min(m, n)."""

    __slots__ = ("m", "n", "r", "heads", "ks")

    def __init__(self, m, n, heads):
        m, n = int(m), int(n)
        M, N, r = _shape(m, n)
        heads = tuple(sorted(int(h) for h in heads))
        if len(heads) != r or len(set(heads)) != r:
            raise InputError("expected exactly r = %d distinct heads" % r)
        if heads and (heads[0] < 0 or heads[-1] >= 2 * r):
            raise InputError("normalized heads live in [0, 2r)")
        ks = [len(range(i, 2 * r, M)) for i in range(M)]
        for h in heads:
            ks[h % M] -= 1
        cycle, step = _cycle(M, N)
        low = any(h < h % M + M * ks[h % M] for h in heads)  # not closed under +M
        if low or any(ks[j] > ks[i] + s for i, s, j in zip(cycle, step, cycle[1:] + cycle[:1])):
            raise InputError("head set is not closed under +m, +n")
        self.m, self.n, self.r, self.heads, self.ks = m, n, r, heads, tuple(ks)

    @classmethod
    def _of(cls, m, n, ks):
        """The type with gap count ks[i] in class i, unchecked."""
        self = object.__new__(cls)
        M, r2 = len(ks), 2 * sum(ks)
        self.m, self.n, self.r, self.ks = int(m), int(n), r2 // 2, tuple(ks)
        self.heads = tuple(sorted(chain.from_iterable(range(i + M * k, r2, M) for i, k in enumerate(ks))))
        return self

    def contains(self, x):
        M = len(self.ks)
        return x >= x % M + M * self.ks[x % M]

    def gaps(self):
        """The r non-members in [0, 2r)."""
        return tuple(x for x in range(2 * self.r) if not self.contains(x))

    def is_principal(self):
        """Whether this is the type generated by 0 (the semigroup <m,n>)."""
        return self.contains(0)

    def __eq__(self, other):
        return (
            isinstance(other, SemiModule)
            and (self.m, self.n) in ((other.m, other.n), (other.n, other.m))
            and self.heads == other.heads
        )

    def __hash__(self):
        return hash((min(self.m, self.n), max(self.m, self.n), self.heads))

    def __repr__(self):
        return "SemiModule(m=%d, n=%d, %s)" % (self.m, self.n, self.text())

    def text(self):
        inner = ",".join(str(a) for a in self.heads)
        return "{%s} u [%d,oo)" % (inner, 2 * self.r)

    def to_json(self):
        return {"m": self.m, "n": self.n, "heads": list(self.heads)}


def sm_normalize(finite_part, tail_start, m, n):
    """Normalize a semimodule given as a finite set plus the tail
    [tail_start, oo).  The result is the unique translate contained in
    Z>=0 with exactly r gaps."""
    if gcd(m, n) != 1:
        raise InputError("m, n must be coprime")
    r = (m - 1) * (n - 1) // 2
    _check_gaps(m, n, r)
    members = {x for x in set(finite_part) if x < tail_start}
    for x in members:
        for step in (m, n):
            y = x + step
            if y < tail_start and y not in members:
                raise InputError("set not closed under +%d at %d" % (step, x))
    lo = min(members) if members else tail_start
    gaps = tail_start - lo - len(members)
    if gaps > r:
        raise InputError("gap count %d exceeds r = %d; not a valid (%d,%d)-semimodule" % (gaps, r, m, n))
    # Moved by t, the set lies in Z>=0 with r gaps, all below 2r (for m, n >= 1;
    # SemiModule refuses any other pair): under a gap g each g - s, s in
    # <m,n>, is a gap, and <m,n> has r + 1 members in [0, 2r].
    t = r - gaps - lo
    return SemiModule(m, n, sorted(x + t for x in members if x + t < 2 * r) + list(range(tail_start + t, 2 * r)))


def sm_dual(A):
    """A^t = Z \\ (2r-1-A), an involution: x -> 2r-1-x sends the heads of
    class i to the gaps of class j = (2r-1-i) mod M."""
    M, r2 = len(A.ks), 2 * A.r
    classes = ((r2 - 1 - j) % M for j in range(M))
    return SemiModule._of(A.m, A.n, [len(range(i, r2, M)) - A.ks[i] for i in classes])


def sm_principal(m, n):
    """<0>: the numerical semigroup generated by m and n, as a type; its
    least member in class i mod M is N t itself, for t = i / N mod M."""
    M, N, r = _shape(m, n)
    _check_gaps(m, n, r)
    return SemiModule._of(m, n, [N * (i * pow(N, -1, M) % M) // M for i in range(M)])


def sm_enumerate(m, n):
    """All normalized (m,n)-semimodules, sorted by head set.  The gap
    counts are filled around `_cycle`'s cycle under its rule, each only where
    the later classes can still take the gaps left: no branch is wasted."""
    M, N, r = _shape(m, n)
    if r == 0:
        return [SemiModule._of(m, n, [0])]
    # the count (m+n-1)!/(m! n!) is at least (m+n-1)/2 once m, n >= 2
    if m + n > 2 * MAX_SEMIMODULES + 1 or comb(m + n, m) // (m + n) > MAX_SEMIMODULES:
        raise InputError("(%d,%d)-semimodules outnumber the cap of %d" % (m, n, MAX_SEMIMODULES))
    cycle, step = _cycle(M, N)
    out = []

    def fill(kc, left, least):
        t = len(kc)
        if t == M:
            out.append(SemiModule._of(m, n, [k for _, k in sorted(zip(cycle, kc))]))
            return
        for k in range(least[t], min(kc[-1] + step[t - 1], left) + 1):
            most = sum(k + sum(step[t:u]) for u in range(t + 1, M))
            if sum(least[t + 1 :]) <= left - k <= most:
                fill(kc + [k], left - k, least)

    for k0 in range(r + 1):
        # least[t]: the fewest gaps class cycle[t] can take and still close at k0
        least = [0] * M + [k0]
        for t in range(M - 1, 0, -1):
            least[t] = max(0, least[t + 1] - step[t])
        fill([k0], r - k0, least[:M])
    return sorted(out, key=lambda s: s.heads)


def sm_from_jumps(jumps, m, n):
    """Normalized type of a filtration jump set: `jumps` is strictly
    increasing, and the set is jumps[:-1] together with [jumps[-1], oo)."""
    jumps = [int(j) for j in jumps]
    if not jumps:
        raise InputError("at least the tail start is required")
    if any(b <= a for a, b in zip(jumps, jumps[1:])):
        raise InputError("jump sequence must be strictly increasing")
    return sm_normalize(set(jumps[:-1]), jumps[-1], m, n)
