#!/usr/bin/env python3
"""Build the avoider-count table for patterns of [k] and print the empirical
Wilf classes with their status and the conjecture labels.

Example:
    python3 scripts/class_report.py --k 4 --n-max 10 --json report.json
"""

import argparse

from partavoid.wilf import build_table, default_horizon, wilf_classes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=None)
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also dump the full report as JSON")
    args = ap.parse_args()

    n_max = default_horizon(args.k) if args.n_max is None else args.n_max
    try:
        table = build_table(args.k, n_max)
    except ValueError as exc:
        ap.error(str(exc))
    rep = wilf_classes(table)

    print(f"k={args.k}, n up to {n_max}: {len(rep.classes)} classes")
    for c in rep.classes:
        print("  {%s}  [%s]" % (", ".join(c["members"]), c["status"]))
    for lab in rep.labels:
        print("label:", lab)
    for anom in rep.anomalies:
        print("anomaly:", anom)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(rep.to_json())
        print("wrote", args.json)


if __name__ == "__main__":
    main()
