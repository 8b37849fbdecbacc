"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "oracle": lambda seed: workloads.oracle(seed, n=7),
    "table": lambda seed: workloads.table(seed, classes_size=(4, 6), table_size=(4, 7)),
    "verify": workloads.verify,
    "series": lambda seed: workloads.series(seed, n=20),
}


@pytest.fixture(autouse=True)
def one_run_each(monkeypatch):
    monkeypatch.setattr(run, "MIN_RUNS", 1)


def runner():
    return run.Runner(time.monotonic() + 120)


def test_expected_rows_match_the_frozen_test_rows():
    spec = importlib.util.spec_from_file_location("frozen_rows", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    k4, k5 = workloads.EXPECTED["k4_rows"], workloads.EXPECTED["k5_rows"]
    for pattern, row in conftest.K4_ROWS.items():
        assert tuple(k4[pattern][:10]) == row
    for alias, pattern in conftest.K4_COMPLEMENTS.items():
        assert k4[alias] == k4[pattern]
    for pattern, row in conftest.K5_ROWS.items():
        assert tuple(k5[pattern]) == row
    assert len(k4) == 15 and len(k5) == 52


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name):
    r = runner()
    metrics = run.end_to_end(TINY[name](3), r, seconds=0.1)
    assert r.problems == [] and r.failed == 0 and r.attempted > 0
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_clean_and_counts_repeat_between_runs(name):
    counts = []
    for _ in range(2):
        r = runner()
        metrics = run.traced(TINY[name](5), r, seconds=0.1)
        assert r.problems == []
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]


def test_wrong_expectation_counts_as_a_failure():
    wl = TINY["oracle"](1)
    cmds = wl.make_pass(0)
    cmds[0].check = workloads._equals("0")
    r = runner()
    r.run_pass(wl, cmds)
    assert r.failed == 1 and r.attempted == len(cmds) and len(r.problems) == 1


def test_wall_takes_the_median_of_passing_runs_at_the_reference_speed():
    cmd = workloads.Command(["count"], check=None)
    wl = workloads.Workload("w", make_pass=None)
    runs = [(3.0, 1.0, True), (0.5, 1.0, False), (4.0, 0.5, True), (1.0, 1.0, True)]
    passes = [([cmd], [{"main_s": t, "scale": k, "ok": ok}]) for t, k, ok in runs]
    assert run._wall(wl, passes) == 2.0


def test_times_are_scaled_by_the_yardstick_around_each_command(monkeypatch):
    times = iter([run.YARDSTICK_REF_S, 3 * run.YARDSTICK_REF_S])
    monkeypatch.setattr(run, "yardstick", lambda: next(times))
    report = runner().spawn(["count", "--pattern", "12/3", "--n", "4"])
    assert report["scale"] == pytest.approx(0.5)


def test_misplaced_layer_fails_the_traced_run():
    wl = TINY["series"](1)
    wl.zero_calls = ("enumeration.series.",)
    r = runner()
    run.traced(wl, r, seconds=0.1)
    assert r.failed == 0 and any("predicted 0" in p for p in r.problems)


def test_shards_variable_does_not_leak_into_commands(monkeypatch):
    monkeypatch.setenv("PARTAVOID_SHARDS", "2")
    report = runner().spawn(["count", "--pattern", "12/3", "--n", "4"])
    assert report["env_shards"] is None and report["exit"] == 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
