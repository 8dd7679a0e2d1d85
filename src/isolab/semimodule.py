"""(m,n)-semimodules: subsets of Z bounded below, closed under +m and +n.

Classifies lattices inside the isocrystal of a pure slope; only the
combinatorial type matters here.  A type is stored normalized: contained
in Z>=0 with exactly r = (m-1)(n-1)/2 gaps, so it is r heads below 2r
plus the full tail [2r, oo).  Normalization of an arbitrary semimodule is
the unique translate with that gap count; the dual is the complement
A^t = Z \\ (2r-1-A), computed on the window [0, 2r).
"""

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


class SemiModule:
    """Normalized (m,n)-semimodule: r heads below 2r plus the tail."""

    __slots__ = ("m", "n", "r", "heads")

    def __init__(self, m, n, heads):
        m, n = int(m), int(n)
        if m < 1 or n < 1 or gcd(m, n) != 1:
            raise InputError("m, n must be coprime positive integers")
        self.m, self.n = m, n
        self.r = (m - 1) * (n - 1) // 2
        heads = tuple(sorted(int(h) for h in heads))
        members = set(heads)
        if len(heads) != self.r or len(members) != self.r:
            raise InputError("expected exactly r = %d distinct heads" % self.r)
        if heads and (heads[0] < 0 or heads[-1] >= 2 * self.r):
            raise InputError("normalized heads live in [0, 2r)")
        self.heads = heads
        if any(b < 2 * self.r and b not in members for a in heads for b in (a + m, a + n)):
            raise InputError("head set is not closed under +m, +n")

    def contains(self, x):
        return x >= 2 * self.r or x in self.heads

    def gaps(self):
        """The r non-members in [0, 2r)."""
        return tuple(x for x in range(2 * self.r) if x not in self.heads)

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


def _validate_raw(finite_part, tail_start, m, n):
    members = set(finite_part)
    members = {x for x in members if x < tail_start}
    for x in members:
        for step in (m, n):
            y = x + step
            if y < tail_start and y not in members:
                raise InputError("set not closed under +%d at %d" % (step, x))
    return members, tail_start


def sm_normalize(finite_part, tail_start, m, n):
    """Normalize a semimodule given as a finite set plus the tail
    [tail_start, oo).  The result is the unique translate contained in
    Z>=0 with exactly r gaps."""
    if gcd(m, n) != 1:
        raise InputError("m, n must be coprime")
    members, tail_start = _validate_raw(finite_part, tail_start, m, n)
    r = (m - 1) * (n - 1) // 2
    lo = min(members) if members else tail_start
    # translate to min 0, then shift up to reach exactly r gaps
    members0 = {x - lo for x in members}
    tail0 = tail_start - lo
    gaps0 = sum(1 for x in range(tail0) if x not in members0 and x >= 0)
    delta = r - gaps0
    if delta < 0:
        raise InputError(
            "gap count %d exceeds r = %d; not a valid (%d,%d)-semimodule"
            % (gaps0, r, m, n)
        )
    membersN = {x + delta for x in members0}
    tailN = tail0 + delta
    heads = sorted(x for x in range(2 * r) if (x in membersN or x >= tailN))
    # everything at or beyond 2r must be present
    for x in range(2 * r, tailN):
        if x not in membersN:
            raise InputError("normalized translate misses %d >= 2r (unexpected)" % x)
    return SemiModule(m, n, heads)


def sm_dual(A):
    """A^t = Z \\ (2r-1-A): heads are the reflected gaps; an involution."""
    r2 = 2 * A.r
    heads = sorted(r2 - 1 - g for g in A.gaps())
    return SemiModule(A.m, A.n, heads)


def sm_principal(m, n):
    """<0>: the numerical semigroup generated by m and n, as a type; its
    heads are the a m + b n < 2r, a, b >= 0."""
    if m < 1 or n < 1 or gcd(m, n) != 1:
        raise InputError("m, n must be coprime positive integers")
    r2 = (m - 1) * (n - 1)
    return SemiModule(m, n, {x for am in range(0, r2, m) for x in range(am, r2, n)})


def sm_enumerate(m, n):
    """All normalized (m,n)-semimodules, sorted by head set.

    With M = min(m, n) and N = max(m, n), a type is fixed by the number k_i
    of gaps in each residue class i mod M; it is closed under +N when
    k_j <= k_i + (i + N) // M for j = (i + N) mod M, and has r gaps when
    the k_i sum to r.  The classes are filled around the cycle i -> i + N,
    each k only where the later classes can still take the gaps left, so
    every branch ends in an output.
    """
    if m < 1 or n < 1 or gcd(m, n) != 1:
        raise InputError("m, n must be coprime positive integers")
    r = (m - 1) * (n - 1) // 2
    if r == 0:
        return [SemiModule(m, n, ())]
    # the count (m+n-1)!/(m! n!) is at least (m+n-1)/2 once m, n >= 2
    if m + n > 2 * MAX_SEMIMODULES + 1 or comb(m + n, m) // (m + n) > MAX_SEMIMODULES:
        raise InputError("(%d,%d)-semimodules outnumber the cap of %d" % (m, n, MAX_SEMIMODULES))
    M, N = min(m, n), max(m, n)
    cycle = [t * N % M for t in range(M)]
    step = [(i + N) // M for i in cycle]  # the most k may grow to the next class
    out = []

    def fill(ks, left, least):
        t = len(ks)
        if t == M:
            gaps = {i + M * j for i, k in zip(cycle, ks) for j in range(k)}
            out.append(SemiModule(m, n, [x for x in range(2 * r) if x not in gaps]))
            return
        for k in range(least[t], min(ks[-1] + step[t - 1], left) + 1):
            most = sum(k + sum(step[t:u]) for u in range(t + 1, M))
            if sum(least[t + 1 :]) <= left - k <= most:
                fill(ks + [k], left - k, least)

    for k0 in range(r + 1):
        # least[t]: the fewest gaps class cycle[t] can take and still let
        # the cycle close back to k0
        least = [0] * M + [k0]
        for t in range(M - 1, 0, -1):
            least[t] = max(0, least[t + 1] - step[t])
        fill([k0], r - k0, least[:M])
    return sorted(out, key=lambda s: s.heads)


def sm_from_jumps(jumps, m, n):
    """Normalized type of a filtration jump set.

    `jumps` is strictly increasing; its last entry marks where the full
    tail begins, i.e. the set is jumps[:-1] together with [jumps[-1], oo).
    """
    jumps = [int(j) for j in jumps]
    if not jumps:
        raise InputError("at least the tail start is required")
    if any(b <= a for a, b in zip(jumps, jumps[1:])):
        raise InputError("jump sequence must be strictly increasing")
    return sm_normalize(set(jumps[:-1]), jumps[-1], m, n)
