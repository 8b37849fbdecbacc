###############################################################################
#
#  Empirical Wilf classification over all patterns of a fixed size.
#
#  Builds exact avoider tables with the exact count, clusters patterns
#  whose rows agree across the horizon, and checks the proved structure:
#  complementation, the punctured-block equivalences and threshold, the
#  everything-below-the-single-block ordering, and the two-family counting
#  lemma behind 1/24/3 < 1/2/3/4.  A table counts one member of each
#  complement pair, the one with the smaller RGF word, and copies its row
#  to the other, so complementation holds in a table by construction; the
#  tests keep it checked by counting both members apart.
#
###############################################################################

import json
from collections import namedtuple

from .avoidance import avoider_counts, avoids, count_avoiders
from .core import (
    SetPartition,
    components,
    iter_partitions,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
    stirling2,
)

DEFAULT_HORIZONS = {3: 10, 4: 10, 5: 9}


def default_horizon(k):
    return DEFAULT_HORIZONS.get(k, k + 4)


# =========================================================================
# tables
# =========================================================================

class CountTable(namedtuple("CountTable", "k n_max rows")):
    """Avoider counts for every pattern of [k], n = k+1 .. n_max; rows maps
    each pattern's text to its tuple of counts."""

    __slots__ = ()

    def row(self, pattern):
        if isinstance(pattern, SetPartition):
            pattern = str(pattern)
        return self.rows[pattern]

    def ns(self):
        return range(self.k + 1, self.n_max + 1)

    def to_csv(self):
        lines = ["pattern,n,count"]
        for text in sorted(self.rows):
            for n, c in zip(self.ns(), self.rows[text]):
                lines.append(f"{text},{n},{c}")
        return "\n".join(lines) + "\n"


def build_table(k, n_max, shards=1):
    """The avoider counts of every pattern of [k] for n = k+1 .. n_max.

    Complementation is a Wilf-equivalence, so each complement pair
    {tau, tau^c} is counted once, on the member with the smaller RGF word,
    and its row is copied to the other member.  iter_partitions runs in RGF
    order, so that member is the one met first.  The tests still count both
    members of every pair and compare.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if n_max <= k:
        raise ValueError("need n_max > k")
    rows = {}
    for tau in iter_partitions(k):
        comp = str(tau.complement())
        if comp in rows:
            rows[str(tau)] = rows[comp]
            continue
        counts = avoider_counts(n_max, tau, shards=shards)
        rows[str(tau)] = tuple(counts[n] for n in range(k + 1, n_max + 1))
    return CountTable(k, n_max, dict(sorted(rows.items())))


# =========================================================================
# predicted class structure
# =========================================================================

def _proved_pairs(k):
    """Pattern pairs with a proved Wilf equivalence: complementation, the
    punctured-block merges, and the known extra pair at k = 3."""
    pairs = []
    for tau in iter_partitions(k):
        pairs.append((str(tau), str(tau.complement())))
    if k >= 3:
        mid = [str(punctured_block_pattern(k, a)) for a in range(2, k)]
        for a, b in zip(mid, mid[1:]):
            pairs.append((a, b))
        pairs.append((str(punctured_block_pattern(k, 1)),
                      str(punctured_block_pattern(k, k))))
    if k == 3:
        pairs.append((str(singletons_pattern(3)), "13/2"))
    return pairs


def predicted_classes(k):
    """Connected components of the proved-equivalence pairs."""
    texts = sorted(str(t) for t in iter_partitions(k))
    return sorted(components(texts, _proved_pairs(k)))


# =========================================================================
# reports
# =========================================================================

class WilfReport(namedtuple("WilfReport", "k n_max classes order_evidence "
                                         "conjecture_flags labels anomalies")):
    # classes:        [{"members": [...], "status": ...}]
    # order_evidence: [{"a":, "b":, "first_strict_n":, "direction":}]
    __slots__ = ()

    def to_json(self):
        return json.dumps(self._asdict(), indent=2)


def _first_strict(row_a, row_b, start):
    for i, (x, y) in enumerate(zip(row_a, row_b)):
        if x != y:
            return start + i, ("<" if x < y else ">")
    return None, "="


def wilf_classes(table):
    """Cluster the table rows and compare with the proved structure.

    A class is "proved" when it coincides with a component of the proved
    pairs; agreement only across the horizon is reported as "equivalent up
    to n_max" and never as an equivalence.
    """
    by_row = {}
    for text, row in table.rows.items():
        by_row.setdefault(row, []).append(text)
    empirical = sorted(sorted(ms) for ms in by_row.values())
    predicted = predicted_classes(table.k)
    pred_of = {m: tuple(c) for c in predicted for m in c}

    anomalies = []
    classes = []
    for members in empirical:
        comps = {pred_of[m] for m in members}
        if len(comps) == 1 and list(comps.pop()) == members:
            status = "proved"
        else:
            status = f"equivalent up to n_max={table.n_max}"
        classes.append({"members": members, "status": status})
    # a proved component split across empirical classes would falsify a
    # known identity; surface it instead of hiding it
    empirical_of = {m: tuple(c) for c in empirical for m in c}
    for comp in predicted:
        targets = {empirical_of[m] for m in comp}
        if len(targets) > 1:
            anomalies.append({"proved_class_split": comp})

    start = table.k + 1
    reps = [c["members"][0] for c in classes]
    evidence = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            a, b = reps[i], reps[j]
            n, d = _first_strict(table.rows[a], table.rows[b], start)
            evidence.append({"a": a, "b": b, "first_strict_n": n, "direction": d})

    conj31 = not _below_beta_violations(table)
    conj22 = empirical == predicted and not anomalies
    flags = {"conjecture_2_2": conj22, "conjecture_3_1": conj31}
    labels = []
    if conj22:
        labels.append("consistent with Conjecture 2.2")
    if conj31:
        labels.append("consistent with Conjecture 3.1")
    return WilfReport(table.k, table.n_max, classes, evidence, flags, labels,
                      anomalies)


def check_beta_threshold(k, n_max, table=None):
    """The punctured-block chain: rows equal for interior positions, the
    end-position row weakly below, strictly from n = 2k-2 on.

    ends_equal compares 1/2..k with 1..(k-1)/k, a complement pair, whose
    rows build_table copies from one count; it holds by construction on
    such a table and checks something only on a table built otherwise.
    """
    if n_max < 2 * k - 2:
        raise ValueError("horizon too small to see the threshold")
    if table is None:
        table = build_table(k, n_max)
    rows = {a: table.row(punctured_block_pattern(k, a)) for a in range(1, k + 1)}
    ns = list(table.ns())
    chain_weak = all(
        all(x <= y for x, y in zip(rows[a + 1], rows[a]))
        for a in range(2, k))
    interior_equal = all(rows[a] == rows[2] for a in range(2, k))
    ends_equal = rows[1] == rows[k]
    equal_ns = [n for n, x, y in zip(ns, rows[k], rows[k - 1]) if x == y]
    strict_ns = [n for n, x, y in zip(ns, rows[k], rows[k - 1]) if x < y]
    threshold_ok = all(n in strict_ns for n in ns if n >= 2 * k - 2)
    return {
        "k": k,
        "n_max": n_max,
        "ends_equal": ends_equal,
        "interior_equal": interior_equal,
        "chain_weak": chain_weak,
        "equal_ns": equal_ns,
        "strict_ns": strict_ns,
        "threshold_n": 2 * k - 2,
        "threshold_ok": threshold_ok,
        "ok": ends_equal and interior_equal and chain_weak and threshold_ok,
    }


def _below_beta_violations(table):
    """Where a row is not strictly below the single block's row (Conjecture
    3.1 says nowhere), in pattern order."""
    beta = str(single_block_pattern(table.k))
    beta_row = table.rows[beta]
    return [{"pattern": text, "n": n, "count": c, "beta_count": bc}
            for text, row in sorted(table.rows.items()) if text != beta
            for n, c, bc in zip(table.ns(), row, beta_row) if not c < bc]


def check_conjecture_order(k, n_max, table=None):
    """Every pattern other than the single block strictly below it at every
    n in (k, n_max]."""
    if k < 4:
        raise ValueError("the conjecture concerns k >= 4")
    if table is None:
        table = build_table(k, n_max)
    violations = _below_beta_violations(table)
    return {"k": k, "n_max": n_max, "violations": violations,
            "ok": not violations}


def check_lemma_4_7(n_max):
    """Size accounting behind |avoiders(1/24/3)| < |avoiders(1/2/3/4)|.

    A_n: two-block partitions; A_n*: three blocks with n alone; C_n / D_n:
    the remainders on each side, classified by the block count after
    deleting n.  Reports each claimed relation with its own verdict; the
    3x growth claims do not survive direct computation and are reported
    exactly as found.
    """
    if n_max < 5:
        raise ValueError("need n_max >= 5")
    pat = SetPartition.parse("1/24/3")
    sig = singletons_pattern(4)
    sizes = {}
    for n in range(5, n_max + 1):
        a = a_star = c = d = 0
        head = list(range(1, n))
        for pi in iter_partitions(n):
            nb = len(pi.blocks)
            if nb == 2:
                a += 1
            if nb == 3 and pi.block_of(n) == (n,):
                a_star += 1
            dropped = len(pi.restrict(head))
            if dropped >= 3 and avoids(pi, pat):
                c += 1
            if dropped == 3 and avoids(pi, sig):
                d += 1
        sizes[n] = {"A": a, "A_star": a_star, "C": c, "D": d,
                    "total_1_24_3": 1 + a + a_star + c,
                    "total_sigma_4": 1 + a + a_star + d}
    decomp_ok = all(
        sizes[n]["total_1_24_3"] == count_avoiders(n, pat)
        and sizes[n]["total_sigma_4"] == stirling2(n, 1) + stirling2(n, 2) + stirling2(n, 3)
        for n in sizes)
    a_closed = all(sizes[n]["A"] == 2 ** (n - 1) - 1 for n in sizes)
    astar_closed = all(sizes[n]["A_star"] == stirling2(n - 1, 2) for n in sizes)
    c_lt_d = all(sizes[n]["C"] < sizes[n]["D"] for n in sizes)
    c_growth = all(sizes[n + 1]["C"] <= 3 * sizes[n]["C"]
                   for n in range(5, n_max))
    d_growth = all(sizes[n + 1]["D"] == 3 * sizes[n]["D"]
                   for n in range(5, n_max))
    return {
        "n_max": n_max,
        "sizes": sizes,
        "decompositions_exact": decomp_ok,
        "A_is_2_pow_minus_1": a_closed,
        "A_star_is_stirling": astar_closed,
        "C_lt_D": c_lt_d,
        "C_growth_at_most_3x": c_growth,
        "D_growth_exactly_3x": d_growth,
        "conclusion_ok": decomp_ok and c_lt_d,
    }


__all__ = [
    "CountTable",
    "DEFAULT_HORIZONS",
    "WilfReport",
    "build_table",
    "check_beta_threshold",
    "check_conjecture_order",
    "check_lemma_4_7",
    "default_horizon",
    "predicted_classes",
    "wilf_classes",
]
