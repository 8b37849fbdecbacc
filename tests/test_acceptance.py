"""Acceptance gate: nine checks, one test and one pass/fail line each.

Run `pytest tests/test_acceptance.py -v` and read the PASSED/FAILED column;
with -s each test also prints its own `criterion N: PASS` line and timing.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from partavoid.avoidance import avoider_counts, avoids, contains, count_avoiders
from partavoid.bijections import (
    KZero,
    encode_14_2_3,
    encode_1_24_3,
    generate_14_23_core,
    has_forbidden_pair,
    iter_r_words,
    phi_134_2,
    phi_134_2_inverse,
    phi_a,
    phi_a_inverse,
    psi_sigma_beta,
    slide,
    two_block_gamma,
    two_block_varphi,
    two_block_varphi_inverse,
)
from partavoid.cli import main
from partavoid.core import (
    SetPartition,
    iter_partitions,
    iter_rgf_words,
    punctured_block_pattern,
    single_block_pattern,
    singletons_pattern,
)
from partavoid.enumeration import (
    count_1_234,
    count_12_3_4,
    count_12_34,
    count_134_2,
    count_beta_k,
    count_sigma_k,
    gf_coeffs_13_24,
    gf_coeffs_14_2_3,
    gf_coeffs_14_23,
    gf_coeffs_1_24_3,
)
from partavoid.wilf import build_table, check_beta_threshold, wilf_classes

P = SetPartition.parse


def report(cid, t0):
    print(f"criterion {cid}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_c1_pinned_value_reproduction():
    t0 = time.perf_counter()
    assert count_avoiders(5, P("1/24/3")) == 39
    assert count_avoiders(5, P("1/2/3/4")) == 41
    assert time.perf_counter() - t0 < 1.0
    report(1, t0)


def test_c2_table_row_agreement():
    t0 = time.perf_counter()
    closed = {
        "1234": lambda n: count_beta_k(n, 4),
        "1/2/3/4": lambda n: count_sigma_k(n, 4),
        "12/3/4": count_12_3_4,
        "12/34": count_12_34,
        "1/234": count_1_234,
        "134/2": count_134_2,
        "14/23": gf_coeffs_14_23(10).__getitem__,
        "13/24": gf_coeffs_13_24(10).__getitem__,
        "14/2/3": gf_coeffs_14_2_3(10).__getitem__,
        "1/24/3": gf_coeffs_1_24_3(10).__getitem__,
    }
    for text, fn in closed.items():
        oracle = avoider_counts(10, P(text))
        for n in range(1, 11):
            assert fn(n) == oracle[n], (text, n)
    assert time.perf_counter() - t0 < 120.0
    report(2, t0)


def test_c3_catalan_identity():
    t0 = time.perf_counter()
    want = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    assert avoider_counts(10, P("13/24"))[1:] == want
    report(3, t0)


def test_c4_worked_examples():
    t0 = time.perf_counter()
    assert str(slide(P("1 3/2 5 6 7 8 9/4 10"), 2, 5, 2)) == "1 6/2 3 4 5 8 9/7 10"
    assert str(phi_a(P("1 10 11 12/2 4 5 8/3 6 7 9"), 5, 2)) \
        == "1 2 11 12/3 4 7 9/5 6 8 10"
    assert str(encode_14_2_3("aaccba")) == "134/25/6"
    assert str(encode_1_24_3("abbacb")) == "1235/46"
    lam, skel = phi_134_2(P("1 2 7/3/4 5 6 8/9/10 11 12"))
    assert tuple(lam) == (1, 2, 1)
    assert str(skel) == "14/2/35/6/78"
    report(4, t0)


def test_c5_punctured_chain_k5():
    t0 = time.perf_counter()
    res = check_beta_threshold(5, 9)
    assert res["chain_weak"]
    assert res["interior_equal"]          # equality for 2 <= a <= 3
    assert res["equal_ns"] == [6, 7]      # end position ties the interior...
    assert res["strict_ns"] == [8, 9]     # ...until n = 2k-2 = 8
    assert res["ok"]
    assert time.perf_counter() - t0 < 60.0
    report(5, t0)


def test_c6_bijection_property_suite():
    t0 = time.perf_counter()
    # phi_a round trips, image avoidance
    for a in (2, 3, 4):
        hi = punctured_block_pattern(5, a + 1)
        lo = punctured_block_pattern(5, a)
        for n in range(1, 9):
            for pi in iter_partitions(n):
                if not avoids(pi, hi):
                    continue
                q = phi_a(pi, 5, a)
                assert avoids(q, lo)
                assert phi_a_inverse(q, 5, a) == pi
    # recursive core equals the singleton-free oracle
    pat = P("14/23")
    for n in range(2, 10):
        got = {c.partition for c in generate_14_23_core(n)}
        want = {p for p in iter_partitions(n)
                if avoids(p, pat) and not p.singletons()}
        assert got == want
    # 134/2 decomposition round trips on its whole domain
    pat2 = P("134/2")
    for n in range(1, 9):
        no_body = 0
        for p in iter_partitions(n):
            if not avoids(p, pat2):
                continue
            try:
                lam, skel = phi_134_2(p)
            except KZero:
                no_body += 1
                continue
            assert phi_134_2_inverse(lam, skel) == p
        assert no_body == 1               # only the all-singleton partition
    # rgf <-> R is size-preserving
    for k in (2, 3, 4, 5):
        for n in range(1, 11):
            n_rgf = sum(1 for _ in iter_rgf_words(n, max_letter=k - 1))
            n_r = sum(1 for _ in iter_r_words(n, k))
            assert n_rgf == n_r
    report(6, t0)


def test_c7_injection_evidence():
    t0 = time.perf_counter()
    for k in (3, 4, 5):
        beta = single_block_pattern(k)
        sig = singletons_pattern(k)
        for n in range(1, 10):
            images = set()
            total = 0
            for pi in iter_partitions(n):
                if not avoids(pi, sig):
                    continue
                total += 1
                q = psi_sigma_beta(pi, k)
                assert avoids(q, beta)
                assert not has_forbidden_pair(q, k)
                images.add(q)
            assert len(images) == total
    beta4 = single_block_pattern(4)
    sigmas = [s for s in iter_partitions(4) if len(s.blocks) == 2]
    for sigma in sigmas:
        m = len(sigma.blocks[1])
        for n in range(1, 9):
            src = [p for p in iter_partitions(n) if contains(p, beta4)]
            images = set()
            for p in src:
                q = two_block_varphi(p, sigma)
                assert contains(q, sigma)
                assert two_block_varphi_inverse(q, sigma) == p
                images.add(q)
            assert len(images) == len(src)
            if m + 1 < 4 and n > 4:
                g = two_block_gamma(sigma, n)
                assert contains(g, sigma) and g not in images
            elif n > 4:
                codom = sum(1 for p in iter_partitions(n) if contains(p, sigma))
                assert len(images) < codom
    report(7, t0)


def test_c8_conjecture_evidence():
    t0 = time.perf_counter()
    table = build_table(4, 10)
    rep = wilf_classes(table)
    members = {frozenset(c["members"]) for c in rep.classes}
    orbits = {frozenset({p, str(P(p).complement())}) for p in table.rows}
    assert members == orbits
    assert all(c["status"] == "proved" for c in rep.classes)
    beta_row = table.row("1234")
    for pat in table.rows:
        if pat == "1234":
            continue
        assert all(x < y for x, y in zip(table.row(pat), beta_row))
    assert rep.labels == [
        "consistent with Conjecture 2.2",
        "consistent with Conjecture 3.1",
    ]
    report(8, t0)


def test_c9_shard_determinism():
    # count's --shards is checked and has no other effect: the same bytes
    t0 = time.perf_counter()
    argv = ["count", "--method", "oracle", "--pattern", "14/23", "--n", "8"]
    outputs = []
    for extra in ([], ["--shards", "1"], ["--shards", "2"], ["--shards", "8"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv + extra) == 0
        outputs.append((out.getvalue(), err.getvalue()))
    assert outputs[0] == (f"{count_avoiders(8, P('14/23'))}\n", "")
    assert all(o == outputs[0] for o in outputs)
    report(9, t0)
