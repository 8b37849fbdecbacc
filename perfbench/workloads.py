"""The benchmark's workloads: which partavoid commands a pass runs, chosen
from the seed, and the check each command's output must pass.

A pass answers a workload once.  Expected outputs come from
``expected.json`` (frozen by ``freeze.py``) or are computed here, in the
parent, never inside a timed command.  Each command of ``oracle`` and
``table`` also carries its exact amount of work ("nodes", see README.md),
taken from the input and the frozen rows, never from a counter in the program.
"""

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# one representative per Wilf class of [4]; four classes also hold a complement
CLASSES_4 = ["1234", "1/2/3/4", "12/3/4", "12/34", "1/234", "134/2",
             "14/23", "13/24", "14/2/3", "1/24/3", "1/23/4"]
COMPLEMENT = {"12/3/4": "1/2/34", "1/234": "123/4", "134/2": "124/3",
              "1/24/3": "13/2/4"}
VERIFY_MAPS = ["slide", "phi_a", "two_block", "psi", "words_14_2_3", "words_1_24_3",
               "rgf_R", "core_14_23", "phi_134_2"]
# series: a tuple is a complement pair, the seed picks the side
GF_PATTERNS = ["1234", "1/2/3/4", "14/2/3", ("1/24/3", "13/2/4"), "14/23", "13/24"]
FORMULA_PATTERNS = ["1234", "1/2/3/4", ("12/3/4", "1/2/34"), "12/34",
                    ("1/234", "123/4"), ("134/2", "124/3")]


@dataclass
class Command:
    argv: list
    check: object            # stdout -> problem text, or None when correct
    nodes: int = 0           # surviving RGF-prefix nodes of its walks (oracle, table)


@dataclass
class Workload:
    name: str
    make_pass: object        # pass index -> list of Command
    unit: int = 1            # passes that together cover the input once
    cross_check: object = None   # [(Command, stdout)] -> [problem text]
    # traced run: span-name prefixes that must make no call, and that must
    # make some; a wrapper installed wrongly, or a layer reached where it
    # should be bypassed, fails the run
    zero_calls: tuple = ()
    some_calls: tuple = ()


def _nodes(row, n):
    # surviving RGF-prefix nodes of one walk: avoiders summed over depths 1..n
    return sum(row[:n])


def _equals(expected):
    def check(stdout):
        got = stdout.strip()
        return None if got == expected else f"expected {expected[:40]}, got {got[:40]!r}"
    return check


# =========================================================================
# oracle: count --method oracle, once per Wilf class of [4]
# =========================================================================

def oracle(seed, n=10):
    """Pass 2i runs the seed's member of each complement pair, pass 2i+1 the
    other member, so any two consecutive passes cover all 15 patterns."""
    rng = random.Random(seed)
    flipped = {rep: rng.random() < 0.5 for rep in COMPLEMENT}
    rows = EXPECTED["k4_rows"]

    def make_pass(index):
        patterns = [COMPLEMENT[rep] if rep in COMPLEMENT and flipped[rep] ^ (index % 2 == 1)
                    else rep for rep in CLASSES_4]
        rng.shuffle(patterns)
        return [Command(["count", "--method", "oracle", "--n", str(n), "--pattern", p],
                        _equals(str(rows[p][n - 1])), _nodes(rows[p], n))
                for p in patterns]

    return Workload("oracle", make_pass, unit=2,
                    zero_calls=("avoidance.containment_witness", "enumeration."),
                    some_calls=("avoidance.avoider_counts",))


# =========================================================================
# table: classes over [5] and table over [4]
# =========================================================================

def _table_check(k, n_max, rows):
    def check(stdout):
        try:
            if stdout.lstrip().startswith("{"):
                got = {p: list(r) for p, r in json.loads(stdout)["rows"].items()}
            else:
                got = {}
                for rec in csv.DictReader(io.StringIO(stdout)):
                    got.setdefault(rec["pattern"], []).append(int(rec["count"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable table: {exc}"
        want = {p: r[k:n_max] for p, r in rows.items()}
        if got != want:
            bad = sorted(p for p in want.keys() | got.keys() if got.get(p) != want.get(p))
            return f"rows differ for {bad[:5]}"
        if k == 4:
            for rep, comp in COMPLEMENT.items():
                if got[rep] != got[comp]:
                    return f"complement rows differ: {rep} {comp}"
        return None
    return check


def _classes_check(k, n_max, rows):
    groups = {}
    for p, r in rows.items():
        groups.setdefault(tuple(r[k:n_max]), []).append(p)
    want = sorted(sorted(g) for g in groups.values())

    def check(stdout):
        try:
            if stdout.lstrip().startswith("{"):
                report = json.loads(stdout)
                got = sorted(sorted(c["members"]) for c in report["classes"])
                if report["anomalies"]:
                    return f"anomalies: {report['anomalies']}"
            else:
                members = {}
                for rec in csv.DictReader(io.StringIO(stdout)):
                    members.setdefault(rec["class"], []).append(rec["pattern"])
                got = sorted(sorted(m) for m in members.values())
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable classes: {exc}"
        return None if got == want else "class members differ from the frozen rows"
    return check


def table(seed, classes_size=(5, 8), table_size=(4, 9)):
    """The seed sets each command's format and, per pass, their order."""
    rng = random.Random(seed)
    rows = {4: EXPECTED["k4_rows"], 5: EXPECTED["k5_rows"]}
    (ck, cn), (tk, tn) = classes_size, table_size
    cmds = [
        Command(["classes", "--k", str(ck), "--n-max", str(cn),
                 "--format", rng.choice(["json", "csv"])],
                _classes_check(ck, cn, rows[ck]),
                sum(_nodes(r, cn) for r in rows[ck].values())),
        Command(["table", "--k", str(tk), "--n-max", str(tn),
                 "--format", rng.choice(["csv", "json"])],
                _table_check(tk, tn, rows[tk]),
                sum(_nodes(r, tn) for r in rows[tk].values())),
    ]

    def make_pass(index):
        return rng.sample(cmds, len(cmds))

    return Workload("table", make_pass,
                    zero_calls=("avoidance.containment_witness", "enumeration."),
                    some_calls=("avoidance.avoider_counts", "wilf.build_table",
                                "wilf.wilf_classes"))


# =========================================================================
# verify: the nine maps at their defaults
# =========================================================================

def verify(seed):
    """The seed sets each command's --seed and, per pass, their order."""
    rng = random.Random(seed)
    cmds = []
    for name in VERIFY_MAPS:
        pattern = re.compile(rf"pass: {name} \([^)]*\)")

        def check(stdout, pattern=pattern):
            got = stdout.strip()
            return None if pattern.fullmatch(got) else f"no pass line: {got[:60]!r}"
        cmds.append(Command(["verify", "--map", name, "--seed", str(rng.randrange(10 ** 6))],
                            check))

    def make_pass(index):
        return rng.sample(cmds, len(cmds))

    return Workload("verify", make_pass, zero_calls=("enumeration.",),
                    some_calls=("avoidance.containment_witness", "bijections.",
                                "core.iter_partitions"))


# =========================================================================
# series: count --method gf and --method formula at n = 80
# =========================================================================

def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def series(seed, n=80):
    """The seed picks the side of each complement pair, so the CLI's
    complement fallback runs too, and the order."""
    rng = random.Random(seed)
    frozen = EXPECTED["series"][str(n)]
    plan = [(method, p if isinstance(p, str) else rng.choice(p))
            for method, patterns in (("gf", GF_PATTERNS), ("formula", FORMULA_PATTERNS))
            for p in patterns]

    cmds = [Command(["count", "--method", method, "--n", str(n), "--pattern", p],
                    _equals(str(catalan(n)) if p == "13/24" else frozen[method][p]))
            for method, p in plan]

    def make_pass(index):
        return rng.sample(cmds, len(cmds))

    def cross_check(done):
        # a pattern with both a generating function and a formula: they agree
        values = {}
        for cmd, stdout in done:
            values.setdefault(cmd.argv[-1], set()).add(stdout.strip())
        return [f"gf and formula disagree for {p}" for p, v in values.items() if len(v) > 1]

    return Workload("series", make_pass, cross_check=cross_check,
                    zero_calls=("avoidance.avoider_counts", "avoidance.containment_witness"),
                    some_calls=("enumeration.series.", "enumeration.gf.",
                                "enumeration.formula."))


WORKLOADS = {"oracle": oracle, "table": table, "verify": verify, "series": series}
