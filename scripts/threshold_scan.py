#!/usr/bin/env python3
"""Scan the punctured-block chain for several k and report where the
end-position count first drops strictly below the interior.  Exits 5 when
the chain breaks for some k (a row printed with ok False).

Example:
    python3 scripts/threshold_scan.py --kmin 3 --kmax 5
"""

import argparse

from partavoid.wilf import check_beta_threshold, default_horizon


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=3)
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=None,
                    help="horizon; default is per-k")
    args = ap.parse_args()
    if args.kmin > args.kmax:
        ap.error(f"need --kmin <= --kmax, got {args.kmin} > {args.kmax}")

    # every k is checked before anything is printed, so a bad range
    # leaves stdout empty
    results = {}
    for k in range(args.kmin, args.kmax + 1):
        n_max = default_horizon(k) if args.n_max is None else args.n_max
        try:
            results[k] = check_beta_threshold(k, n_max)
        except ValueError as exc:
            ap.error(f"k={k}: {exc}")
    print("k  predicted  equal_ns        strict_ns       ok")
    for k, res in results.items():
        print("%-2d %-10d %-15s %-15s %s" % (
            k, res["threshold_n"],
            ",".join(map(str, res["equal_ns"])) or "-",
            ",".join(map(str, res["strict_ns"])) or "-",
            res["ok"]))
    if not all(res["ok"] for res in results.values()):
        raise SystemExit(5)


if __name__ == "__main__":
    main()
