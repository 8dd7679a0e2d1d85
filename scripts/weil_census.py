#!/usr/bin/env python3
"""Census of quadratic Weil numbers: for each q = p^n up to a bound,
classify every admissible real trace and histogram the outcomes.

Usage: python scripts/weil_census.py [max_q]
"""

import argparse
from collections import Counter
from math import isqrt

from isolab.errors import PlaceResolutionError
from isolab.weil import honda_tate, weil_from_real_trace


def main(max_q=200):
    hist = Counter()
    refused = 0
    p = 2
    sieve = [True] * (max_q + 1)
    for p in range(2, max_q + 1):
        if not sieve[p]:
            continue
        for k in range(2 * p, max_q + 1, p):
            sieve[k] = False
        q, n = p, 1
        while q <= max_q:
            top = isqrt(4 * q)  # boundary traces included when q is square
            for beta in range(-top, top + 1):
                w = weil_from_real_trace(beta, p, n)
                try:
                    ht = honda_tate(w)
                except PlaceResolutionError:
                    refused += 1
                    continue
                hist[(ht.albert, ht.g)] += 1
            q *= p
            n += 1
    width = max(len(a) for a, _ in hist)
    for (albert, g), count in sorted(hist.items()):
        print("%-*s  g=%d  %6d" % (width, albert, g, count))
    print("ambiguous place data (refused): %d" % refused)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Census of the quadratic Weil numbers for q = p^n up to max_q.")
    parser.add_argument("max_q", nargs="?", type=int, default=200, help="largest q (default 200)")
    main(parser.parse_args().max_q)
