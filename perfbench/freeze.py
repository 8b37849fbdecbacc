"""Regenerate perfbench/expected.json, the frozen outputs the benchmark checks.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py

It records, from the program as it stands:

* ``k4_rows`` / ``k5_rows``: avoider counts for depths 1..11 (every pattern
  of [4]) and 1..9 (every pattern of [5]) from the brute-force oracle;
* ``series``: the stdout of ``count --method gf|formula --n N`` for the
  series workload's patterns, at the sizes the workload and its tests use.

Before writing, it checks the values against each other: at every n <= 11
the oracle equals the formula or generating-function value for every pattern of
[4] that has one, and where a pattern has both, the two series values agree.
The benchmark never recomputes these values inside a timed command.
"""

import contextlib
import io
import json
from pathlib import Path

from partavoid import cli
from partavoid.avoidance import avoider_counts
from partavoid.core import iter_partitions

OUT = Path(__file__).with_name("expected.json")
SERIES_SIZES = (80, 20)
GF_PATTERNS = ["1234", "1/2/3/4", "14/2/3", "1/24/3", "13/2/4", "14/23", "13/24"]
FORMULA_PATTERNS = ["1234", "1/2/3/4", "12/3/4", "1/2/34", "12/34",
                    "1/234", "123/4", "134/2", "124/3"]


def cli_value(method, pattern, n):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["count", "--method", method, "--n", str(n), "--pattern", pattern])
    return buf.getvalue().strip()


def rows(k, n):
    return {str(tau): avoider_counts(n, tau)[1:] for tau in iter_partitions(k)}


def main():
    k4 = rows(4, 11)
    k5 = rows(5, 9)
    for pattern in set(GF_PATTERNS) | set(FORMULA_PATTERNS):
        method = "formula" if pattern in FORMULA_PATTERNS else "gf"
        for n in range(1, 12):
            assert int(cli_value(method, pattern, n)) == k4[pattern][n - 1], (pattern, n)
    series = {}
    for n in SERIES_SIZES:
        gf = {p: cli_value("gf", p, n) for p in GF_PATTERNS}
        formula = {p: cli_value("formula", p, n) for p in FORMULA_PATTERNS}
        for p in set(gf) & set(formula):
            assert gf[p] == formula[p], (p, n)
        series[str(n)] = {"gf": gf, "formula": formula}
    OUT.write_text(json.dumps({
        "k4_rows": k4,
        "k5_rows": k5,
        "series": series,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
