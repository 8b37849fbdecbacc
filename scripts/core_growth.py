#!/usr/bin/env python3
"""Grow the singleton-free 14/23 core level by level and compare sizes with
the coefficients of its algebraic generating function, and each level's cap
histogram with row n of the bivariate series h_series_check.  Exits 5 when
a level disagrees with either (a row marked MISMATCH).

Example:
    python3 scripts/core_growth.py --n-max 10
"""

import argparse
from collections import Counter

from partavoid.bijections import generate_14_23_core
from partavoid.enumeration import core_gf_14_23, h_series_check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=9)
    args = ap.parse_args()
    if args.n_max < 2:  # the core's first level is n = 2
        ap.error(f"need --n-max >= 2, got {args.n_max}")

    g = core_gf_14_23(args.n_max).integer_coeffs()
    h = h_series_check(args.n_max)
    mismatch = False
    print("n   generated  [z^n]G  caps histogram")
    for n in range(2, args.n_max + 1):
        level = generate_14_23_core(n)
        hist = Counter(c.caps for c in level)
        tag = " ".join("%d:%d" % (j, hist[j]) for j in sorted(hist))
        row = tuple(hist[j] for j in range(max(hist) + 1))
        ok = len(level) == g[n] and row == h[n]
        mismatch |= not ok
        mark = "" if ok else "  MISMATCH"
        print("%-3d %-10d %-7s %s%s" % (n, len(level), g[n], tag, mark))
    if mismatch:
        raise SystemExit(5)


if __name__ == "__main__":
    main()
