"""(m,n)-semimodules: subsets of Z bounded below, closed under +m and +n.

Classifies lattices inside the isocrystal of a pure slope; only the
combinatorial type matters here.  A type is stored normalized: contained
in Z>=0 with exactly r = (m-1)(n-1)/2 gaps, so it is r heads below 2r
plus the full tail [2r, oo).  Normalization of an arbitrary semimodule is
the unique translate with that gap count; the dual is the complement
A^t = Z \\ (2r-1-A), computed on the window [0, 2r).
"""

from math import gcd

from .errors import InputError

__all__ = [
    "SemiModule",
    "sm_normalize",
    "sm_dual",
    "sm_enumerate",
    "sm_from_jumps",
    "sm_principal",
]


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
        if len(heads) != self.r or len(set(heads)) != self.r:
            raise InputError("expected exactly r = %d distinct heads" % self.r)
        if heads and (heads[0] < 0 or heads[-1] >= 2 * self.r):
            raise InputError("normalized heads live in [0, 2r)")
        self.heads = heads
        for a in heads:
            if not (self.contains(a + m) and self.contains(a + n)):
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
    """<0>: the numerical semigroup generated by m and n, as a type."""
    if gcd(m, n) != 1:
        raise InputError("m, n must be coprime")
    r = (m - 1) * (n - 1) // 2
    members = {0}
    frontier = [0]
    bound = 2 * r + m + n
    while frontier:
        x = frontier.pop()
        for step in (m, n):
            y = x + step
            if y <= bound and y not in members:
                members.add(y)
                frontier.append(y)
    return SemiModule(m, n, sorted(x for x in range(2 * r) if x in members))


def sm_enumerate(m, n):
    """All normalized (m,n)-semimodules, via their gap sets.

    A gap set is an r-subset of [0, 2r) closed downward under -m and -n;
    the search walks positions from high to low, forcing g-m and g-n
    whenever g is taken.
    """
    if gcd(m, n) != 1:
        raise InputError("m, n must be coprime")
    r = (m - 1) * (n - 1) // 2
    out = []
    if r == 0:
        return [SemiModule(m, n, ())]

    def dfs(pos, chosen, required):
        if len(chosen) == r:
            if not required:
                gapset = set(chosen)
                heads = [x for x in range(2 * r) if x not in gapset]
                out.append(SemiModule(m, n, heads))
            return
        if pos < 0 or len(chosen) + pos + 1 < r:
            return
        if pos in required:
            req = required - {pos}
            for step in (m, n):
                if pos - step >= 0:
                    req = req | {pos - step}
            dfs(pos - 1, chosen + [pos], req)
            return
        # include pos
        req = set(required)
        for step in (m, n):
            if pos - step >= 0:
                req.add(pos - step)
        dfs(pos - 1, chosen + [pos], req)
        # exclude pos
        dfs(pos - 1, chosen, required)

    dfs(2 * r - 1, [], set())
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
