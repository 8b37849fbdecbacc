import json

import pytest

from partavoid import cli, wilf
from partavoid.avoidance import avoider_counts
from partavoid.core import SetPartition, iter_partitions
from partavoid.wilf import (
    build_table,
    check_beta_threshold,
    check_conjecture_order,
    check_lemma_4_7,
    default_horizon,
    predicted_classes,
    wilf_classes,
)

P = SetPartition.parse


@pytest.fixture(scope="module")
def table4():
    return build_table(4, 8)


@pytest.fixture(scope="module")
def table5():
    return build_table(5, 9)


# =========================================================================
# count tables
# =========================================================================

def test_table_shape(table4, k4_rows):
    assert len(table4.rows) == 15
    assert list(table4.ns()) == [5, 6, 7, 8]
    assert table4.row("1234") == tuple(k4_rows["1234"][4:8])
    assert table4.row("1/23/4") == tuple(k4_rows["1/23/4"][4:8])


def test_table_complement_symmetry(table4):
    for pat in table4.rows:
        comp = str(P(pat).complement())
        assert table4.row(pat) == table4.row(comp)


def test_table_csv(table4, capsys):
    assert cli.main(["table", "--k", "4", "--n-max", "8", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pattern,n,count"
    assert len(lines) == 1 + 15 * 4
    for line in lines[1:]:
        pat, n, count = line.split(",")
        assert int(n) in range(5, 9)
        assert int(count) == table4.row(pat)[int(n) - 5] > 0


# build_table walks one member of each complement pair, so complementation
# holds in its rows by construction; these walk every pattern on its own
WALK_N = {3: 7, 4: 10, 5: 8}


@pytest.fixture(scope="module")
def own_walks():
    return {k: {str(tau): avoider_counts(n, tau) for tau in iter_partitions(k)}
            for k, n in WALK_N.items()}


def test_complement_pairs_count_alike_when_walked_apart(own_walks):
    for k in (4, 5):
        walks = own_walks[k]
        for pat, counts in walks.items():
            assert counts == walks[str(P(pat).complement())], pat


def test_table_rows_land_on_their_own_patterns(own_walks):
    for k, n_max in WALK_N.items():
        table = build_table(k, n_max)
        assert sorted(table.rows) == sorted(own_walks[k])
        for pat, counts in own_walks[k].items():
            assert table.row(pat) == tuple(counts[k + 1:n_max + 1]), pat


def test_one_walk_per_complement_class(monkeypatch):
    walked = []

    def counting(n, tau):
        walked.append(tau)
        return avoider_counts(n, tau)

    monkeypatch.setattr(wilf, "avoider_counts", counting)
    for k, classes in ((3, 4), (4, 11), (5, 32)):
        walked.clear()
        build_table(k, k + 1)
        cheaper = {min(t, t.complement(), key=SetPartition.to_rgf)
                   for t in iter_partitions(k)}
        assert len(walked) == classes
        assert set(walked) == cheaper


# =========================================================================
# class discovery
# =========================================================================

def test_k4_classes_are_complement_orbits(table4):
    rep = wilf_classes(table4)
    assert len(rep.classes) == 11
    assert all(c["status"] == "proved" for c in rep.classes)
    members = {frozenset(c["members"]) for c in rep.classes}
    orbits = {frozenset({p, str(P(p).complement())}) for p in table4.rows}
    assert members == orbits
    assert rep.anomalies == []
    assert rep.conjecture_flags == {
        "conjecture_2_2": True,
        "conjecture_3_1": True,
    }
    assert rep.labels == [
        "consistent with Conjecture 2.2",
        "consistent with Conjecture 3.1",
    ]


def test_k4_order_evidence(table4):
    rep = wilf_classes(table4)
    by_pair = {(e["a"], e["b"]): e for e in rep.order_evidence}
    e = by_pair[("1/2/3/4", "1234")]
    assert e["first_strict_n"] == 5 and e["direction"] == "<"
    e = by_pair[("1/2/3/4", "1/2/34")]
    assert e["first_strict_n"] == 5 and e["direction"] == ">"


def test_k3_sagan_pair():
    rep = wilf_classes(build_table(3, 8))
    got = sorted(sorted(c["members"]) for c in rep.classes)
    assert got == [["1/2/3", "13/2"], ["1/23", "12/3"], ["123"]]
    assert all(c["status"] == "proved" for c in rep.classes)
    assert sorted(map(sorted, predicted_classes(3))) == got


def test_k5_punctured_statuses(table5):
    rep = wilf_classes(table5)
    trio = [c for c in rep.classes if "1345/2" in c["members"]]
    assert trio == [
        {"members": ["1235/4", "1245/3", "1345/2"], "status": "proved"}
    ]
    ends = [c for c in rep.classes if "1/2345" in c["members"]]
    assert ends[0]["status"] == "proved"
    assert "1234/5" in ends[0]["members"]


def test_k5_short_horizon_merges_chain():
    # at n_max = 7 the whole punctured family still counts alike, so the
    # explorer may only report the larger cluster as horizon-limited
    rep = wilf_classes(build_table(5, 7))
    cluster = next(c for c in rep.classes if "1345/2" in c["members"])
    assert {"1/2345", "1345/2", "1245/3", "1235/4", "1234/5"} <= set(
        cluster["members"])
    assert cluster["status"] == "equivalent up to n_max=7"


def test_report_json_round_trip(table4, capsys):
    rep = wilf_classes(table4)
    assert cli.main(["classes", "--k", "4", "--n-max", "8", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d == json.loads(json.dumps(rep._asdict()))
    assert d["k"] == 4 and d["n_max"] == 8
    assert len(d["classes"]) == 11
    assert d["labels"] == rep.labels


# =========================================================================
# focused checks
# =========================================================================

def test_beta_threshold_k4(table4):
    res = check_beta_threshold(4, 8, table=table4)
    assert res["ends_equal"] and res["interior_equal"] and res["chain_weak"]
    assert res["equal_ns"] == [5]
    assert res["strict_ns"] == [6, 7, 8]
    assert res["threshold_n"] == 6 and res["threshold_ok"] and res["ok"]


def test_beta_threshold_k5(table5):
    res = check_beta_threshold(5, 9, table=table5)
    assert res["equal_ns"] == [6, 7]
    assert res["strict_ns"] == [8, 9]
    assert res["threshold_n"] == 8 and res["ok"]


def test_beta_threshold_refuses_short_horizon():
    with pytest.raises(ValueError):
        check_beta_threshold(5, 7)


def test_conjecture_order_k4(table4):
    res = check_conjecture_order(4, 8, table=table4)
    assert res["ok"] and res["violations"] == []


def test_lemma_families():
    res = check_lemma_4_7(7)
    assert res["sizes"][5] == {
        "A": 15, "A_star": 7, "C": 16, "D": 18,
        "total_1_24_3": 39, "total_sigma_4": 41,
    }
    assert res["decompositions_exact"]
    assert res["A_is_2_pow_minus_1"]
    assert res["A_star_is_stirling"]
    assert res["C_lt_D"]
    # the blanket growth claims do not hold as stated; the conclusion
    # (strict separation) survives anyway
    assert res["C_growth_at_most_3x"] is False
    assert res["D_growth_exactly_3x"] is False
    assert res["conclusion_ok"]


def test_default_horizon():
    assert default_horizon(3) == 10
    assert default_horizon(4) == 10
    assert default_horizon(5) == 9
    assert default_horizon(6) == 10
