import functools
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import K4_COMPLEMENTS, K4_ROWS, K5_ROWS
from partavoid.avoidance import avoider_counts, block_contains_beta, iter_avoiders
from partavoid.bijections import BijectionError
from partavoid import cli
from partavoid.cli import VERIFY, _sample, main
from partavoid.core import SetPartition, iter_partitions, punctured_block_pattern


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_fail(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def run_any(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


# =========================================================================
# count
# =========================================================================

def test_count_oracle(capsys):
    rc, out, _ = run(capsys, "count", "--pattern", "13/24", "--n", "6", "--method", "oracle")
    assert rc == 0 and out.strip() == "132"


def test_count_all_two_methods(capsys):
    rc, out, _ = run(capsys, "count", "--pattern", "14/2/3", "--n", "5", "--method", "all")
    assert rc == 0 and out.strip() == "40 40 AGREE"


def test_count_all_three_methods(capsys):
    rc, out, _ = run(capsys, "count", "--pattern", "1234", "--n", "5", "--method", "all")
    assert rc == 0 and out.strip() == "46 46 46 AGREE"


def test_count_uses_complement_formula(capsys):
    # no direct formula for 123/4, but its complement 1/234 has one
    rc, out, _ = run(capsys, "count", "--pattern", "123/4", "--n", "7", "--method", "formula")
    rc2, out2, _ = run(capsys, "count", "--pattern", "123/4", "--n", "7", "--method", "oracle")
    assert rc == rc2 == 0 and out == out2


def test_count_bad_pattern_exits_2(capsys):
    rc, _, err = run_fail(capsys, "count", "--pattern", "1 3/2", "--n", "-1", "--method", "oracle")
    assert rc == 2 and "error:" in err


def test_count_unavailable_method_exits_3(capsys):
    rc, _, err = run_fail(capsys, "count", "--pattern", "12/3/4", "--n", "6", "--method", "gf")
    assert rc == 3 and "generating function" in err


def test_count_shard_split_agrees(capsys):
    rc, out, _ = run(capsys, "count", "--pattern", "1/234", "--n", "7",
                     "--method", "oracle", "--shards", "3")
    rc2, out2, _ = run(capsys, "count", "--pattern", "1/234", "--n", "7", "--method", "oracle")
    assert rc == rc2 == 0 and out == out2


def test_count_env_shards(capsys, monkeypatch):
    # PARTAVOID_SHARDS is not read, whatever it holds
    for raw in ("abc", "0", "5"):
        monkeypatch.setenv("PARTAVOID_SHARDS", raw)
        rc, out, err = run(capsys, "count", "--pattern", "12/34", "--n", "6")
        assert rc == 0 and out == "122\n" and err == "", raw


@pytest.mark.parametrize("shards", ["0", "-1"])
def test_count_bad_shards_exits_2(capsys, shards):
    rc, out, err = run_fail(capsys, "count", "--pattern", "12/34", "--n", "5",
                            "--shards", shards)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_count_pattern_of_one(capsys):
    rc, out, _ = run(capsys, "count", "--pattern", "1", "--n", "3", "--method", "all")
    assert rc == 0 and out.strip() == "0 AGREE"
    for method in ("formula", "gf"):
        rc, _, err = run_fail(capsys, "count", "--pattern", "1", "--n", "3",
                              "--method", method)
        assert rc == 3 and err.startswith("error:")


def test_count_formula_far_past_the_oracle(capsys):
    # the single-block formula is a bottom-up recurrence, not one frame per n
    rc, out, err = run(capsys, "count", "--pattern", "1234", "--n", "1000",
                       "--method", "formula")
    assert rc == 0 and err == ""
    assert out.strip().isdigit() and len(out.strip()) > 1000


@pytest.mark.parametrize("pattern", ["1/2/3/4", "12/3/4"])
def test_count_formula_through_stirling2_far_past_the_oracle(capsys, pattern):
    # the Stirling numbers are a bottom-up row loop, not one frame per n
    rc, out, err = run(capsys, "count", "--pattern", pattern, "--n", "600",
                       "--method", "formula")
    assert rc == 0 and err == ""
    assert out.strip().isdigit() and len(out.strip()) > 150


def test_count_oracle_far_past_the_recursion_limit(capsys):
    # the walk keeps its pending nodes on a stack, not one frame per element
    rc, out, err = run(capsys, "count", "--pattern", "1/2", "--n", "3000",
                       "--method", "oracle")
    assert rc == 0 and out.strip() == "1" and err == ""


# which patterns of [k] each closed-form method counts, complements included
CLOSED_COVERAGE = {
    ("formula", 4): {"1234", "1/2/3/4", "12/3/4", "1/2/34", "12/34", "1/234",
                     "123/4", "134/2", "124/3"},
    ("gf", 4): {"1234", "1/2/3/4", "14/2/3", "1/24/3", "13/2/4", "14/23",
                "13/24"},
}


@pytest.mark.parametrize("method", ["formula", "gf"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_closed_form_coverage_pinned(capsys, k, method):
    # a covered pattern prints the frozen row (the oracle's where none is
    # frozen) at every n; any other pattern exits 3
    frozen = {**K5_ROWS, **K4_ROWS,
              **{c: K4_ROWS[t] for c, t in K4_COMPLEMENTS.items()}}
    covered = set()
    for tau in iter_partitions(k):
        row = frozen.get(str(tau)) or avoider_counts(8, tau)[1:]
        for n, want in enumerate(row, start=1):
            rc, out, err = run_any(capsys, "count", "--pattern", str(tau),
                                   "--n", str(n), "--method", method)
            if rc == 3:
                assert out == "" and err.startswith("error: no ")
            else:
                assert rc == 0 and out == f"{want}\n"
                covered.add(str(tau))
    families = {str(tau) for tau in iter_partitions(k) if len(tau.blocks) in (1, k)}
    assert covered == CLOSED_COVERAGE.get((method, k), families)


# =========================================================================
# avoid
# =========================================================================

def test_avoid_contains_with_witness(capsys):
    rc, out, _ = run(capsys, "avoid", "--sigma", "145/23", "--tau", "12/34")
    lines = out.splitlines()
    assert rc == 0 and lines[0] == "CONTAINS"
    assert lines[1].startswith("S = ")


def test_avoid_avoids(capsys):
    rc, out, _ = run(capsys, "avoid", "--sigma", "123/45", "--tau", "14/23")
    assert rc == 0 and out.strip() == "AVOIDS"


def test_avoid_bad_input(capsys):
    rc, _, err = run_fail(capsys, "avoid", "--sigma", "1/1", "--tau", "12")
    assert rc == 2 and "error:" in err


def test_avoid_far_past_the_recursion_limit(capsys):
    # the containment search used to recurse once per pattern element
    sigma = " ".join(map(str, range(1, 1501)))
    tau = " ".join(map(str, range(1, 1201)))
    rc, out, err = run(capsys, "avoid", "--sigma", sigma, "--tau", tau)
    assert rc == 0 and err == ""
    assert out == "CONTAINS\nS = " + tau + "\n"


# =========================================================================
# verify
# =========================================================================

@pytest.mark.parametrize("name,flags", [
    ("slide", ["--k", "5", "--n", "6"]),
    ("phi_a", ["--k", "5", "--n", "6"]),
    ("two_block", ["--k", "4", "--n", "6"]),
    ("psi", ["--k", "4", "--n", "6"]),
    ("words_14_2_3", ["--n", "6"]),
    ("words_1_24_3", ["--n", "6"]),
    ("rgf_R", ["--k", "4", "--n", "6"]),
    ("core_14_23", ["--n", "6"]),
    ("phi_134_2", ["--n", "6"]),
])
def test_verify_maps(capsys, name, flags):
    rc, out, _ = run(capsys, "verify", "--map", name, *flags)
    assert rc == 0
    assert out.startswith("pass: " + name)


@pytest.mark.parametrize("name,line", [pytest.param(name, line, id=name) for name, line in [
    ("slide", "pass: slide (k=5, n=7, exhaustive)"),
    ("phi_a", "pass: phi_a (k=5, n=7, exhaustive)"),
    ("two_block", "pass: two_block (k=4, n=7, exhaustive)"),
    ("psi", "pass: psi (k=4, n=8, exhaustive)"),
    ("words_14_2_3", "pass: words_14_2_3 (n=8, exhaustive)"),
    ("words_1_24_3", "pass: words_1_24_3 (n=8, exhaustive)"),
    ("rgf_R", "pass: rgf_R (k=4, n=8, exhaustive)"),
    ("core_14_23", "pass: core_14_23 (n=8, exhaustive)"),
    ("phi_134_2", "pass: phi_134_2 (n=7, exhaustive)"),
]])
def test_verify_defaults_exact_line(capsys, name, line):
    # every default corpus is under the sampling cap
    rc, out, _ = run(capsys, "verify", "--map", name, "--seed", "17")
    assert rc == 0 and out == line + "\n"


def test_verify_reports_size(capsys):
    rc, out, _ = run(capsys, "verify", "--map", "psi", "--k", "3", "--n", "5")
    assert rc == 0 and out.strip() == "pass: psi (k=3, n=5, exhaustive)"


def test_verify_reports_sampled_coverage(capsys, monkeypatch):
    # m of N sums what the map's corpora kept and what they held: phi_a at
    # k = 5, n = 7 replays three corpora of 777 avoiders each; each command
    # counts its own corpora only
    monkeypatch.setattr(cli, "_sample", functools.partial(_sample, cap=100))
    rc, out, err = run(capsys, "verify", "--map", "phi_a")
    assert rc == 0 and out == "pass: phi_a (k=5, n=7, sampled 300 of 2331)\n"
    assert err == "note: sampled 100 of the corpus\n" * 3
    rc, out, _ = run(capsys, "verify", "--map", "two_block")
    assert rc == 0 and out == "pass: two_block (k=4, n=7, sampled 100 of 225)\n"
    rc, out, err = run(capsys, "verify", "--map", "psi", "--k", "3", "--n", "5")
    assert rc == 0 and out == "pass: psi (k=3, n=5, exhaustive)\n" and err == ""
    # a word map holds no more than the cap either, and its count check
    # compares every word listed, not only those kept, with the avoiders
    rc, out, err = run(capsys, "verify", "--map", "words_14_2_3", "--n", "8")
    assert rc == 0 and out == "pass: words_14_2_3 (n=8, sampled 100 of 871)\n"
    assert err == "note: sampled 100 of the corpus\n"


def test_verify_slide_replays_every_sliding_block(capsys, monkeypatch):
    # each input is slid once at each block holding the position-a pattern,
    # blocks of exactly k - 1 elements included
    slid = []
    real = cli.slide
    monkeypatch.setattr(cli, "slide", lambda pi, i, k, a: slid.append((str(pi), i, a)) or real(pi, i, k, a))
    rc, out, _ = run(capsys, "verify", "--map", "slide")
    assert rc == 0 and out == "pass: slide (k=5, n=7, exhaustive)\n"
    k, n = 5, 7
    want = [(str(pi), i, a) for a in range(2, k)
            for pi in iter_avoiders(n, punctured_block_pattern(k, a + 1))
            for i, b in enumerate(pi.blocks, start=1) if block_contains_beta(b, k, a, n)]
    assert Counter(slid) == Counter(want)
    assert any(len(SetPartition.parse(pi).blocks[i - 1]) == k - 1 for pi, i, _ in slid)


@pytest.mark.parametrize("flags", [["--n", "0"], ["--k", "0"], ["--k", "4", "--n", "0"]])
@pytest.mark.parametrize("name", ["rgf_R", "core_14_23"])
def test_verify_zero_is_out_of_range(capsys, name, flags):
    # an explicit 0 is a value, not "use the default"
    rc, out, err = run_fail(capsys, "verify", "--map", name, *flags)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_exit_codes_on_small_ranges(capsys, name):
    # every small --n and --k ends in a documented exit code, never a
    # traceback; out-of-range values exit 2 with one error line
    for n in range(5):
        for k in [None, *range(7)]:
            argv = ["verify", "--map", name, "--n", str(n)]
            if k is not None:
                argv += ["--k", str(k)]
            rc, out, err = run_any(capsys, *argv)
            assert rc in (0, 2, 3, 4, 5), argv
            if n and k == 2 and name in ("slide", "phi_a"):  # a runs over 2..k-1
                assert rc == 2 and "--k >= 3" in err, argv
            if k is not None and VERIFY[name][1] is None:  # the map has no k
                assert rc == 2 and err == f"error: --map {name} takes no --k\n", argv
            if rc == 2:
                assert out == "" and err.startswith("error:"), argv
                assert len(err.splitlines()) == 1, argv


def test_verify_far_past_the_recursion_limit(capsys):
    # the psi corpus at k = 2 is the one partition 1..n; listing it used to
    # recurse once per element
    rc, out, _ = run(capsys, "verify", "--map", "psi", "--k", "2", "--n", "1200")
    assert rc == 0 and out == "pass: psi (k=2, n=1200, exhaustive)\n"


def test_verify_rgf_R_far_past_the_recursion_limit(capsys):
    # both word sets at k = 2 are the one word 1..1; the two generators
    # used to recurse once per letter
    rc, out, err = run(capsys, "verify", "--map", "rgf_R", "--k", "2", "--n", "1200")
    assert rc == 0 and out == "pass: rgf_R (k=2, n=1200, exhaustive)\n" and err == ""


def test_sample_under_the_cap_is_the_corpus_in_walk_order(capsys):
    items = list(iter_partitions(5))
    for cap in (len(items), len(items) + 1):
        assert _sample(iter(items), 3, cap=cap) == (items, len(items))
    assert capsys.readouterr().err == ""


def test_sample_over_the_cap_is_a_seeded_reservoir(capsys):
    items = list(iter_partitions(6))
    draws = {seed: _sample(iter(items), seed, cap=10) for seed in (1, 2)}
    assert _sample(iter(items), 1, cap=10) == draws[1]
    assert draws[1][0] != draws[2][0]
    for pool, seen in draws.values():
        assert seen == len(items) and len(set(pool)) == len(pool) == 10
        assert set(pool) <= set(items)
    assert capsys.readouterr().err == "note: sampled 10 of the corpus\n" * 3
    # every item is kept with probability cap / len, here 1/2: about 1000
    # times in 2000 seeds, with a standard deviation of 22
    kept = [0] * 6
    for seed in range(2000):
        for i in _sample(range(6), seed, cap=3)[0]:
            kept[i] += 1
    assert all(900 < c < 1100 for c in kept), kept


def _raise_boom(*args):
    raise BijectionError("boom")


@pytest.mark.parametrize("name,target,broken", [
    ("phi_a", "phi_a_inverse", lambda rho, k, a: rho),
    ("two_block", "two_block_varphi_inverse", lambda rho, sigma: rho),
    ("words_14_2_3", "decode_14_2_3", lambda pi: "a" * pi.n),
    # an image outside the target set
    ("psi", "psi_sigma_beta", lambda pi, k: pi),
    # a broken inverse
    ("rgf_R", "R_to_rgf", lambda v: v),
    ("slide", "_unslide", lambda pi, i, k, a: pi),
    ("phi_134_2", "phi_134_2_inverse", lambda lam, skeleton: skeleton),
    # every input to one image
    ("psi", "psi_sigma_beta",
     lambda pi, k: SetPartition.from_blocks([[x] for x in range(1, pi.n + 1)], pi.n)),
    # a map that refuses an input
    ("phi_a", "phi_a", _raise_boom),
])
def test_verify_failure_exits_5(capsys, monkeypatch, name, target, broken):
    # a broken map fails its check with one stdout line
    monkeypatch.setattr("partavoid.cli." + target, broken)
    rc, out, err = run_fail(capsys, "verify", "--map", name)
    assert rc == 5
    assert out.startswith(f"fail: {name}: ") and len(out.splitlines()) == 1
    assert "Traceback" not in err


# =========================================================================
# table and classes
# =========================================================================

def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "--k", "4", "--n-max", "6", "--format", "csv")
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "pattern,n,count"
    assert len(lines) == 1 + 15 * 2
    assert "1/2/3/4,5,41" in lines


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--k", "4", "--n-max", "6", "--format", "json")
    d = json.loads(out)
    assert rc == 0 and d["k"] == 4
    assert d["rows"]["1234"] == [46, 166]


def test_table_bad_range(capsys):
    rc, _, err = run_fail(capsys, "table", "--k", "4", "--n-max", "3", "--format", "csv")
    assert rc == 2 and "error:" in err


def test_classes_json(capsys):
    rc, out, _ = run(capsys, "classes", "--k", "3", "--n-max", "7", "--format", "json")
    d = json.loads(out)
    assert rc == 0
    got = sorted(sorted(c["members"]) for c in d["classes"])
    assert got == [["1/2/3", "13/2"], ["1/23", "12/3"], ["123"]]
    assert all(c["status"] == "proved" for c in d["classes"])


@pytest.mark.parametrize("sub", ["table", "classes"])
def test_table_and_classes_take_no_shards(capsys, sub):
    rc, out, err = run_fail(capsys, sub, "--k", "3", "--n-max", "5", "--shards", "2")
    assert rc == 2 and out == "" and err.startswith("usage: partavoid ")
    assert err.splitlines()[-1] == "partavoid: error: unrecognized arguments: --shards 2"


def test_classes_csv(capsys):
    rc, out, _ = run(capsys, "classes", "--k", "3", "--n-max", "7", "--format", "csv")
    lines = out.strip().splitlines()
    assert rc == 0 and lines[0] == "class,pattern,status"
    assert len(lines) == 1 + 5


# =========================================================================
# a reader that goes away
# =========================================================================

class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_2_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--k", "3", "--n-max", "5", "--format", "json"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


# =========================================================================
# argv fuzzing: every input ends in a documented exit code
# =========================================================================

def _rgf(size):
    def fold(xs):
        word = [1]
        for x in xs:
            word.append(1 + x % (max(word) + 1))
        return str(SetPartition.from_rgf(word))
    return st.lists(st.integers(0, 9), max_size=size - 1).map(fold)


# junk stays at most six characters, so no text names a ground set past 10^6
_junk = st.text(alphabet="0123456789/ ,-x", max_size=6)


def _rare(common, odd):
    """Mostly common, one draw in eight from odd."""
    return st.integers(0, 7).flatmap(lambda r: odd if r == 5 else common)


def _ints(lo, hi):
    return _rare(st.integers(lo, hi).map(str),
                 st.sampled_from(["-1", "0", "", "x", "1.5", " 3"]))


@st.composite
def _argv(draw):
    sub = draw(_rare(st.sampled_from(["count", "avoid", "table", "classes", "verify"]),
                     st.just("junk")))
    opts = []
    if sub == "count":
        opts = [("--pattern", draw(_rare(_rgf(5), _junk))), ("--n", draw(_ints(1, 8))),
                ("--method", draw(_rare(st.sampled_from(["oracle", "formula", "gf", "all"]),
                                        st.just("egf")))),
                ("--shards", draw(_ints(1, 3)))]
    elif sub == "avoid":
        opts = [("--sigma", draw(_rare(_rgf(8), _junk))),
                ("--tau", draw(_rare(_rgf(5), _junk)))]
    elif sub in ("table", "classes"):
        k = draw(st.integers(1, 5))
        # no --n-max means the default horizon, past n = 8 from k = 4 on
        n_max = draw(_ints(k + 1, 8) if k >= 4 else _rare(_ints(k + 1, 8), st.none()))
        opts = [("--k", str(k)), ("--n-max", n_max),
                ("--format", draw(_rare(st.sampled_from(["csv", "json"]), st.just("xml"))))]
    elif sub == "verify":
        opts = [("--map", draw(_rare(st.sampled_from(sorted(VERIFY)), st.just("nope")))),
                ("--k", draw(_ints(2, 5))), ("--n", draw(_ints(1, 8))),
                ("--seed", draw(_ints(-3, 3)))]
    argv = [sub]
    for flag, value in opts:
        # any flag but --n-max goes missing now and then; --n-max is left out
        # above, and only where the default horizon is cheap
        if value is not None and (flag == "--n-max" or draw(st.integers(0, 15)) != 9):
            argv += [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_argv_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    err = err.getvalue()
    assert rc in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err, argv
    if rc in (2, 3):
        assert "error:" in err, argv


# =========================================================================
# golden bytes
# =========================================================================

@pytest.mark.parametrize("argv,digest", [
    pytest.param(argv, digest, id=" ".join(argv)) for argv, digest in [
        (["classes", "--k", "4", "--n-max", "8"],
         "8def5b845b10662b4f4c824f987b442ea470f7dd667e912d046d7193add0fd15"),
        (["classes", "--k", "5", "--n-max", "7", "--format", "csv"],
         "0d09633f9f8e22d8515a59cc9611058621ec060f975a57a00f9e1848b6b8944b"),
    ]])
def test_classes_golden_bytes(capsys, argv, digest):
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("text,line", [
    ("12//3", "error: cannot parse pattern '12//3': empty block in text"),
    ("13", "error: cannot parse pattern '13': blocks cover [13], expected 1..13"),
    ("1 3/2 3", "error: cannot parse pattern '1 3/2 3': elements repeated across blocks: [3]"),
])
def test_parse_error_golden_lines(capsys, text, line):
    for argv in (["count", "--n", "5", "--pattern", text],
                 ["avoid", "--sigma", "1/2", "--tau", text]):
        rc, out, err = run_fail(capsys, *argv)
        assert rc == 2 and out == "" and err == line + "\n"


# sha256 of json.dumps([exit code, stdout, stderr]) at COLUMNS=80: help,
# parse errors from the top parser and from a subparser, an abbreviated
# flag, and one valid call per subcommand
CLI_GOLDEN = [
    ([],
     "beacf24b351d03e7ea6f66a58fad6d2838e41dbb32e8d3a3a2727bf325771532"),
    (["-h"],
     "0b4f647c0d6e5e3a5bb1b1e76a8c96004a40de1dd44d496767d675d722ad85dc"),
    (["count", "-h"],
     "e9cb4a352b889695efca32672a1264291e14cb63cf59cf1767220165cba9b651"),
    (["avoid", "-h"],
     "280f3d3ac9ac86f2dcebf2c2c1a157e24c6dfdcfb787a5c19064ed82c447d078"),
    (["verify", "-h"],
     "0ea91515d86794c831558c175ca120d998ba51cdf3a3777f1c9b26e7af99c8a2"),
    (["table", "-h"],
     "f32191f526d80fd899046be5838ab62c7a3f624977fe0a89e8739ec966431e00"),
    (["classes", "-h"],
     "bc1b452bf5798a16152e8d0a811fdee9e6a5b2f7541c77692b4b916fc85b7a37"),
    (["junk"],
     "590d7055515e968eed0fab1e7babed6af92ce9b219eb8be13ee0b312fb4ea8a2"),
    (["--n", "3", "count"],
     "9036a98ce438a4c96a8d73c63dd33e3ac729700f5c3735b02c6fcfc655c3d3ab"),
    (["count", "--pattern", "12"],
     "5c0c0ec1e4b152f4508fea7fd1d7f88bfd65119c10b52198de3ecc70da58609e"),
    (["count", "--pattern", "12", "--n", "x"],
     "26f09752c00f6db9289e760aa06bcbcc7a8d37766eb316b5bd0071478478228a"),
    (["count", "--pattern", "12", "--n", "3", "--bogus"],
     "0b7bac6710fa8256ad8b1e5dea870563c748ef894ddde75a00a6cdcd6cec4b1a"),
    (["count", "--pattern", "12", "--n", "3", "extra"],
     "8f83e41762d3c21bb7984a4d4fa92fe4e65645200513a9b476e7ae26aae96604"),
    (["count", "--pat", "12", "--n", "3"],
     "90f825953954db045408ae19c16f8d5c303b78bee1e163d305a16d9c6544950d"),
    (["count", "--pattern", "14/23", "--n", "10", "--method", "gf"],
     "9ceaaa47e2c33315ab3c8acbb1209d44085d1c3f13b49329c2744b085ebf5954"),
    (["avoid", "--sigma", "13/2", "--tau", "1/2"],
     "7aec87d947ec712758be67c44f788f1fcb56d27b5c2740108a9f7f9d01dfbcee"),
    (["verify", "--map", "psi", "--k", "3", "--n", "5"],
     "cf54674fb9806dee7ae4e34b0be08b69124c651e98d08bc3fea2d55f0ff635a1"),
    (["table", "--k", "3", "--n-max", "5"],
     "572f1881acc9f382b5cc3638f4052f604239af79eb05e397040161d17a221ad8"),
    (["classes", "--k", "3", "--n-max", "5", "--format", "csv"],
     "1929368c30add9abefe917b55d0fdc647cb3ca6de1b0449c72ceca267e5feb54"),
]


def _outcome(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    return list(run_any(capsys, *argv))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words help and errors differently by "
                           "version; the digests were taken on Python 3.11")
@pytest.mark.parametrize("argv,digest", [
    pytest.param(argv, digest, id=" ".join(argv) or "(none)") for argv, digest in CLI_GOLDEN])
def test_cli_golden_bytes(capsys, monkeypatch, argv, digest):
    blob = json.dumps(_outcome(capsys, monkeypatch, argv))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# =========================================================================
# the plain path: argv parsed off COMMANDS, without argparse
# =========================================================================

def _plain_or_none(argv):
    """_parse_plain(argv), after checking that it is None or equal to what
    argparse builds, and None wherever argparse prints help or an error."""
    plain = cli._parse_plain(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            full = cli._build_parser().parse_args(argv)
    except SystemExit:
        assert plain is None, argv
        return None
    assert plain is None or vars(plain) == vars(full), argv
    return plain


@pytest.mark.parametrize("argv", [argv for argv, _ in CLI_GOLDEN])
def test_plain_parse_is_argparse_or_none_on_the_golden_argv(argv):
    _plain_or_none(argv)


# argv that argparse accepts, or that no CLI_GOLDEN argv covers
@pytest.mark.parametrize("argv", [
    ["count", "--pat", "12", "--n", "3"],
    ["count", "--pattern=12", "--n", "3"],
    ["count", "--pattern", "12", "--n", "3", "--n", "4"],
    ["count", "--pattern", "12", "--n", "-3"],
    ["count", "--pattern", "12", "--n", "3", "--method", "egf"],
    ["count", "--pattern", "12", "--n", "3", "--", "--method", "gf"],
    ["table", "--k", "4", "--n", "6"],
    ["verify", "--map", "psi", "-h"],
])
def test_plain_parse_leaves_other_argv_to_argparse(argv):
    assert cli._parse_plain(argv) is None


def _benchmark_argv():
    # every command of two passes of each benchmark workload, at three seeds
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cmd.argv for make in workloads.WORKLOADS.values() for seed in range(3)
            for index in range(2) for cmd in make(seed).make_pass(index)]


def test_plain_parse_takes_every_benchmark_argv():
    for argv in _benchmark_argv():
        assert _plain_or_none(argv) is not None, argv


@st.composite
def _argv_rewritten(draw):
    """An argv of _argv, with its flag pairs shuffled and now and then one
    flag abbreviated, written --flag=value, repeated or given a negative
    or dash-led value."""
    argv = draw(_argv())
    pairs = draw(st.permutations([argv[i:i + 2] for i in range(1, len(argv), 2)]))
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        flag, value = pairs[i]
        pairs[i] = draw(st.sampled_from([
            [flag[:-1], value], [f"{flag}={value}"], [flag, value, flag, value],
            [flag, "-" + value], [flag, "--"], [value]]))
    return argv[:1] + [word for pair in pairs for word in pair]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_argv(), _argv_rewritten()))
def test_plain_parse_is_argparse_or_none_on_fuzzed_argv(argv):
    _plain_or_none(argv)


def test_plain_commands_never_import_argparse():
    # one plain command per subcommand in a fresh interpreter
    script = """
import sys
from partavoid.cli import main
for argv in (["count", "--pattern", "12", "--n", "3", "--method", "formula"],
             ["avoid", "--sigma", "13/2", "--tau", "1/2"],
             ["verify", "--map", "psi", "--k", "3", "--n", "5"],
             ["table", "--k", "3", "--n-max", "5"],
             ["classes", "--k", "3", "--n-max", "5", "--format", "csv"]):
    assert main(argv) == 0, argv
assert "argparse" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1\nCONTAINS\nS = 1 2\npass: psi (k=3, n=5, exhaustive)\n")


def test_series_commands_never_import_fractions():
    # the series kernel holds integers; fractions (and decimal under it)
    # load only when a caller asks a series for its Fraction coefficients
    script = """
import sys
from partavoid.cli import main
for method, patterns in (("gf", ("1234", "1/2/3/4", "14/2/3", "13/2/4", "14/23", "13/24")),
                         ("formula", ("1234", "1/2/3/4", "12/3/4", "12/34", "123/4", "124/3"))):
    for p in patterns:
        assert main(["count", "--method", method, "--n", "30", "--pattern", p]) == 0, p
assert main(["count", "--method", "all", "--n", "6", "--pattern", "14/23"]) == 0
print(sorted(m for m in ("fractions", "decimal") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# each module, and the other partavoid modules that importing it loads
_LOADS = {
    "core": [],
    "enumeration": ["core"],
    "wilf": ["avoidance", "core"],
    "cli": ["avoidance", "bijections", "core", "enumeration", "wilf"],
}


@pytest.mark.parametrize("module", list(_LOADS))
def test_each_module_loads_only_what_it_imports(module):
    # the package re-exports nothing, so importing one module in a fresh
    # interpreter loads only the modules it imports itself
    script = f"""
import sys
import partavoid.{module}
print(sorted(m for m in sys.modules if m.startswith("partavoid.")))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    expected = sorted(f"partavoid.{m}" for m in [module, *_LOADS[module]])
    assert done.stdout == f"{expected}\n"


@pytest.mark.parametrize("argv", [
    ("class_report.py", "--k", "3", "--n-max", "3"),
    ("class_report.py", "--k", "1"),
    ("threshold_scan.py", "--kmin", "1", "--kmax", "2"),
    ("threshold_scan.py", "--kmin", "3", "--kmax", "3", "--n-max", "3"),
    ("class_report.py", "--k", "3", "--n-max", "0"),
    ("threshold_scan.py", "--kmin", "3", "--kmax", "3", "--n-max", "0"),
    ("threshold_scan.py", "--kmin", "3", "--kmax", "5", "--n-max", "5"),
    ("threshold_scan.py", "--kmin", "5", "--kmax", "3"),
    ("core_growth.py", "--n-max", "-1"),
    ("core_growth.py", "--n-max", "0"),
    ("core_growth.py", "--n-max", "1"),
])
def test_scripts_report_bad_ranges_as_usage_errors(argv):
    # an out-of-range k or horizon is one error line and exit 2, never a
    # traceback, and nothing on stdout, not even the rows of the k that
    # are in range; --n-max 0 is a horizon given, not "use the default"
    script = Path(__file__).resolve().parents[1] / "scripts" / argv[0]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(script), *argv[1:]], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(argv[0] + ": error: "), done.stderr
