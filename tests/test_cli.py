import io
import json
import sys

import pytest

from conftest import K4_COMPLEMENTS, K4_ROWS, K5_ROWS
from partavoid.avoidance import avoider_counts
from partavoid.cli import VERIFY, main
from partavoid.core import iter_partitions


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
    monkeypatch.setenv("PARTAVOID_SHARDS", "5")
    rc, out, _ = run(capsys, "count", "--pattern", "12/34", "--n", "6", "--method", "oracle")
    assert rc == 0 and out.strip() == "122"


@pytest.mark.parametrize("shards", ["0", "-1"])
def test_count_bad_shards_exits_2(capsys, shards):
    rc, out, err = run_fail(capsys, "count", "--pattern", "12/34", "--n", "5",
                            "--shards", shards)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_count_bad_env_shards_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("PARTAVOID_SHARDS", raw)
    rc, out, err = run_fail(capsys, "count", "--pattern", "12/34", "--n", "5")
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


@pytest.mark.parametrize("name,line", [
    ("slide", "pass: slide (k=5, n=7)"),
    ("phi_a", "pass: phi_a (k=5, n=7)"),
    ("two_block", "pass: two_block (k=4, n=7)"),
    ("psi", "pass: psi (k=4, n=8)"),
    ("words_14_2_3", "pass: words_14_2_3 (n=8)"),
    ("words_1_24_3", "pass: words_1_24_3 (n=8)"),
    ("rgf_R", "pass: rgf_R (k=4, n=8)"),
    ("core_14_23", "pass: core_14_23 (n=8)"),
    ("phi_134_2", "pass: phi_134_2 (n=7)"),
])
def test_verify_defaults_exact_line(capsys, name, line):
    rc, out, _ = run(capsys, "verify", "--map", name, "--seed", "17")
    assert rc == 0 and out == line + "\n"


def test_verify_reports_size(capsys):
    rc, out, _ = run(capsys, "verify", "--map", "psi", "--k", "3", "--n", "5")
    assert rc == 0 and out.strip() == "pass: psi (k=3, n=5)"


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
            if rc == 2:
                assert out == "" and err.startswith("error:"), argv
                assert len(err.splitlines()) == 1, argv


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
