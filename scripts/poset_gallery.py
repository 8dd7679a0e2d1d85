#!/usr/bin/env python3
"""Emit DOT files for the Newton polygon posets up to a given height,
plus the symmetric sub-posets, into a target directory.

Usage: python scripts/poset_gallery.py [max_h] [outdir]
"""

import argparse
import pathlib

from isolab.poset import dot_export, poset_build


def main(max_h=6, outdir="poset-gallery"):
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for h in range(1, max_h + 1):
        for d in range(h + 1):
            poset = poset_build(h, d)
            (out / ("np_%d_%d.dot" % (h, d))).write_text(dot_export(poset))
        if h % 2 == 0:
            sym = poset_build(h, h // 2, symmetric=True)
            (out / ("np_%d_%d_sym.dot" % (h, h // 2))).write_text(dot_export(sym))
    print("wrote DOT files to %s" % out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write DOT files of the Newton polygon posets up to height max_h.")
    parser.add_argument("max_h", nargs="?", type=int, default=6, help="largest height (default 6)")
    parser.add_argument("outdir", nargs="?", default="poset-gallery", help="target directory (default poset-gallery)")
    args = parser.parse_args()
    main(args.max_h, args.outdir)
