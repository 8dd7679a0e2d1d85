#!/usr/bin/env python3
"""Tabulate stratum dimensions for all symmetric Newton polygons up to a
given genus: the lattice-point counts behind the polarized and
unpolarized dimension formulas, next to p-rank and a climb to ordinary.

Usage: python scripts/stratum_dimensions.py [max_g]
"""

import argparse

from isolab.newton import np_dim, np_sdim, p_rank, render_pairs
from isolab.poset import longest_chain, poset_build


def main(max_g=4):
    for g in range(1, max_g + 1):
        poset = poset_build(2 * g, g, symmetric=True)
        print("g = %d (%d symmetric polygons)" % (g, len(poset.elements)))
        top = poset.top()
        for z in poset.elements:
            chain = longest_chain(poset, z, top)
            print(
                "  %-34s sdim=%3d dim=%3d f=%d steps-to-ordinary=%d"
                % (render_pairs(z.pairs()), np_sdim(z), np_dim(z), p_rank(z), len(chain) - 1)
            )
        print()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Tabulate stratum dimensions of the symmetric Newton polygons up to genus max_g.")
    parser.add_argument("max_g", nargs="?", type=int, default=4, help="largest genus (default 4)")
    main(parser.parse_args().max_g)
