"""Benchmark of the partavoid command line.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It runs real ``partavoid`` commands as a
closed loop with one client: each command in its own fresh Python process
(``child.py``), one at a time, with ``PARTAVOID_SHARDS`` removed from its
environment.  Whole passes over the workload repeat until ``--seconds`` is
spent, and at least until each command has run ``MIN_RUNS`` times; every
command's output is checked.  Times are reported in seconds at a reference
machine speed: around every command the parent times a fixed pure-Python job
of its own, the yardstick, and scales the command's times by
``YARDSTICK_REF_S`` / the yardstick's time (README.md says why).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it times the same passes untraced and then traced, with a span
around each public call of the program's layers (``tracing.py``), and prints
the per-layer metrics.  Spans go to ``perfbench/out/``.  ``--workload all``
runs every workload in turn.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md defines every
metric and what each layer metric should move.
"""

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = os.cpu_count() or 1
RUN_LIMIT_S = 170          # a run must end within 180 s
SETUP_PROBES = 5           # extra import-only processes per run, for setup_s
MIN_RUNS = 3               # runs of each command, at least, for its median
YARDSTICK_DEPTH = 9        # the yardstick walks the RGFs of this length
YARDSTICK_REF_S = 0.034    # the yardstick's median time on the BASELINE.json machine


def yardstick():
    """Seconds taken by a fixed pure-Python job: a walk over the restricted
    growth functions of length YARDSTICK_DEPTH, counting states in a dict.
    It is the benchmark's own code, so no change to the program moves it,
    and it uses what the program's hot loops use: recursion, tuples, dicts
    and small ints."""
    seen = {}

    def walk(prefix, top):
        if len(prefix) == YARDSTICK_DEPTH:
            return 1
        total = 0
        for block in range(top + 2):
            grown = prefix + (block,)
            key = (len(grown), block, max(top, block))
            seen[key] = seen.get(key, 0) + 1
            total += walk(grown, max(top, block))
        return total

    start = time.perf_counter()
    walk((0,), 0)
    return time.perf_counter() - start


class RunTimeout(Exception):
    pass


class Runner:
    """Spawns the command processes of one run and checks their output."""

    def __init__(self, deadline, trace_log=None):
        self.deadline = deadline
        self.trace_log = trace_log
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = []
        self.peak_rss_kb = 0
        self.yardstick_s = None   # the last yardstick time, taken after a command

    def spawn(self, argv, trace=False):
        env = {k: v for k, v in os.environ.items() if k != "PARTAVOID_SHARDS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        spec = json.dumps({"argv": argv, "trace": trace})
        before = self.yardstick_s or yardstick()
        spawned = time.monotonic()
        if spawned >= self.deadline:
            raise RunTimeout
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=self.deadline - spawned)
        except subprocess.TimeoutExpired:
            raise RunTimeout from None
        self.yardstick_s = yardstick()
        # the machine's speed moves by tens of percent within seconds and
        # moves the yardstick with it; see README.md
        scale = YARDSTICK_REF_S * 2 / (before + self.yardstick_s)
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            report = {"exit": proc.returncode or 1, "stdout": "", "main_s": 0.0,
                      "cpu_s": 0.0,
                      "stderr": proc.stderr or "child process printed no report"}
        else:
            self.setup_s.append((report["import_done"] - spawned) * scale)
        report["scale"] = scale
        return report

    def run(self, cmd, trace=False, extra=(), label=""):
        """Run one command; returns its report, with a per-name summary of
        its spans when traced (the spans themselves go to the trace log)."""
        self.attempted += 1
        report = self.spawn(cmd.argv + list(extra), trace)
        problem = None
        if report["exit"] != 0:
            problem = f"exit code {report['exit']}"
        elif "Traceback" in report["stderr"]:
            problem = "traceback on stderr"
        else:
            problem = cmd.check(report["stdout"])
        report["ok"] = problem is None
        if problem:
            self.failed += 1
            self.fail(f"{' '.join(cmd.argv)}: {problem}: {report['stderr'][-300:]}")
        if "ru_self" in report:
            self.peak_rss_kb = max(self.peak_rss_kb, report["ru_self"]["maxrss_kb"],
                                   report["ru_children"]["maxrss_kb"])
        if trace:
            names, spans = report.pop("names", []), report.pop("spans", [])
            report["summary"] = tracing.summarize(names, spans)
            report["derived"] = _derived(names, spans)
            if self.trace_log is not None:
                self.trace_log.write(json.dumps({
                    "label": label, "argv": cmd.argv + list(extra),
                    "summary": report["summary"], "names": names,
                    "spans": spans}) + "\n")
        return report

    def fail(self, problem):
        """Record a problem; the run is then not correct."""
        self.problems.append(problem)
        print(f"FAIL {problem}", file=sys.stderr)

    def run_pass(self, wl, cmds, trace=False, extra=(), label=""):
        reports = [self.run(c, trace, extra, label) for c in cmds]
        self.cross_check(wl, cmds, reports)
        return reports

    def cross_check(self, wl, cmds, reports):
        if wl.cross_check:
            for problem in wl.cross_check([(c, r["stdout"]) for c, r in zip(cmds, reports)]):
                self.fail(problem)

    def measure(self, wl, budget_s, run_pass=None):
        """Whole units of passes until budget_s is spent, and at least
        MIN_RUNS units, so that every command runs MIN_RUNS times;
        returns [(commands, run_pass(commands))] per pass."""
        run_pass = run_pass or (lambda cmds: self.run_pass(wl, cmds))
        passes = []
        start = time.monotonic()
        while True:
            for _ in range(wl.unit):
                cmds = wl.make_pass(len(passes))
                passes.append((cmds, run_pass(cmds)))
            units = len(passes) // wl.unit
            elapsed = time.monotonic() - start
            if units >= MIN_RUNS and elapsed + elapsed / units > budget_s:
                return passes


def _derived(names, spans):
    """Span-level figures that a per-name summary loses."""
    walks = []
    for i, span in enumerate(spans):
        if names[span[tracing.NAME]] == "wilf.build_table":
            walks.append([s[tracing.BUSY] for s in spans
                          if s[tracing.PARENT] == i
                          and names[s[tracing.NAME]] == "avoidance.avoider_counts"])
    return {
        "bijections_busy": tracing.outer_busy(names, spans, "bijections."),
        "gf_busy": tracing.outer_busy(names, spans, "enumeration.gf."),
        "formula_busy": tracing.outer_busy(names, spans, "enumeration.formula."),
        "walks": walks,
    }


def _per_pass(wl, passes, value):
    """value(command) summed over the first unit of passes, per pass."""
    return sum(value(c) for cmds, _ in passes[:wl.unit] for c in cmds) / wl.unit


def _wall(wl, passes):
    """Time to answer the workload once: per pass, the sum of its commands'
    times at the reference speed, each command taking the median of its
    passing runs in the run; failed runs are left out."""
    times = {}
    for cmds, reports in passes:
        for cmd, report in zip(cmds, reports):
            if report["ok"]:
                times.setdefault(tuple(cmd.argv), []).append(report["main_s"] * report["scale"])
    return _per_pass(wl, passes,
                     lambda c: statistics.median(times.get(tuple(c.argv), [0.0])))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# =========================================================================
# end-to-end run
# =========================================================================

def end_to_end(wl, runner, seconds):
    passes = runner.measure(wl, seconds)
    wall = _wall(wl, passes)
    raw = [sum(r["main_s"] for r in reports) for _, reports in passes]
    q1, q3 = _quartiles(raw)
    scales = [r["scale"] for _, reports in passes for r in reports]
    print(f"{wl.name}: {len(passes)} passes; pass time as measured: median "
          f"{statistics.median(raw):.4f} s, quartiles {q1:.4f} .. {q3:.4f} s; "
          f"speed scale median {statistics.median(scales):.4f}, "
          f"range {min(scales):.4f} .. {max(scales):.4f}")
    # nodes_per_s is defined on oracle and table only, so it is printed here
    # and reported as a metric by the traced run (README.md)
    nodes = _per_pass(wl, passes, lambda c: c.nodes)
    rate = f"{nodes / wall:14.6g}" if nodes and wall else f"{'n/a':>14s}"
    print(f"{wl.name:7s} {'nodes_per_s':42s} {rate} nodes/s")
    return {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
    }


# =========================================================================
# traced run
# =========================================================================

def traced(wl, runner, seconds):
    def paired(cmds):
        # each command untraced and then traced, back to back, so that both
        # runs see the same load and trace.overhead_ratio compares like with like
        reports = [(runner.run(c), runner.run(c, trace=True, label="traced")) for c in cmds]
        for side in zip(*reports):
            runner.cross_check(wl, cmds, side)
        return reports

    passes = runner.measure(wl, seconds, paired)
    untraced = [(cmds, [r[0] for r in reports]) for cmds, reports in passes]
    done = [(cmds, [r[1] for r in reports]) for cmds, reports in passes]
    sharded = []
    if wl.name == "oracle":
        extra = ("--shards", str(NPROC))
        sharded = [(cmds, runner.run_pass(wl, cmds, True, extra, f"shards={NPROC}"))
                   for cmds, _ in passes]
    _check_counts(wl, runner, done + sharded)
    return per_layer(wl, untraced, done, sharded)


def _counts(summary):
    return sorted((name, e["calls"], e["items"], e["hits"], e["errors"])
                  for name, e in summary.items())


def _check_counts(wl, runner, passes):
    """Exact counts repeat for every repeated command (--shards aside), the
    predicted-zero calls are zero and the targeted layers are reached."""
    seen = {}
    calls = {}
    for cmds, reports in passes:
        for cmd, report in zip(cmds, reports):
            key = tuple(cmd.argv)
            counts = _counts(report["summary"])
            if seen.setdefault(key, counts) != counts:
                runner.fail(f"{' '.join(key)}: call counts differ between repeats")
            for name, e in report["summary"].items():
                calls[name] = calls.get(name, 0) + e["calls"]
    for prefix in wl.zero_calls:
        made = sum(c for name, c in calls.items() if name.startswith(prefix))
        if made:
            runner.fail(f"{prefix}* made {made} calls on {wl.name}, predicted 0")
    for prefix in wl.some_calls:
        if not any(c for name, c in calls.items() if name.startswith(prefix)):
            runner.fail(f"{prefix}* made no calls on {wl.name}")


def per_layer(wl, untraced, done, sharded):
    reports = [r for _, rs in done for r in rs]
    npass = len(done)

    def total(name, key):
        return sum(r["summary"].get(name, {}).get(key, 0) for r in reports)

    def prefix_total(prefix, key):
        return sum(e[key] for r in reports for name, e in r["summary"].items()
                   if name.startswith(prefix))

    def derived(key):
        return sum(r["derived"][key] for r in reports)

    def sub_time(sub):
        times = [r["summary"].get("cli.main", {}).get("busy", 0.0) for cmds, rs in done
                 for c, r in zip(cmds, rs) if c.argv[0] == sub]
        return statistics.median(times) if times else 0.0

    m = {}
    for sub in ("count", "verify", "table", "classes"):
        m[f"cli.{sub}_s"] = (sub_time(sub), "s")
    m["cli.self_s"] = (prefix_total("cli.", "self") / npass, "s")
    plain = [r for _, rs in untraced for r in rs]
    plain_wall = _wall(wl, untraced)
    nodes = _per_pass(wl, done, lambda c: c.nodes)
    m["nodes_per_s"] = (nodes / plain_wall if plain_wall else 0.0, "nodes/s")
    m["cli.cpu_util"] = (sum(r["cpu_s"] for r in plain)
                         / max(sum(r["main_s"] for r in plain), 1e-9), "ratio")

    ac_busy = total("avoidance.avoider_counts", "busy")
    m["avoidance.avoider_counts.calls"] = (total("avoidance.avoider_counts", "calls") / npass, "count")
    m["avoidance.avoider_counts.busy_s"] = (ac_busy / npass, "s")
    m["avoidance.nodes_per_busy_s"] = (nodes * npass / ac_busy if ac_busy else 0.0, "nodes/s")
    cw_calls = total("avoidance.containment_witness", "calls")
    m["avoidance.containment_witness.calls"] = (cw_calls / npass, "count")
    m["avoidance.containment_witness.busy_s"] = (total("avoidance.containment_witness", "busy") / npass, "s")
    m["avoidance.containment_witness.hit_ratio"] = (
        total("avoidance.containment_witness", "hits") / cw_calls if cw_calls else 0.0, "ratio")
    shard_busy = sum(r["summary"].get("avoidance.avoider_counts", {}).get("busy", 0)
                     for _, rs in sharded for r in rs)
    m["avoidance.shard_scaling"] = (ac_busy / shard_busy if shard_busy else 0.0, "ratio")
    m["avoidance.shard_scaling.base_s"] = (ac_busy / npass if shard_busy else 0.0, "s")

    m["core.iter_partitions.items"] = (total("core.iter_partitions", "items") / npass, "count")
    m["core.iter_partitions.busy_s"] = (total("core.iter_partitions", "busy") / npass, "s")

    m["bijections.calls"] = (prefix_total("bijections.", "calls") / npass, "count")
    m["bijections.busy_s"] = (derived("bijections_busy") / npass, "s")
    m["bijections.errors"] = (prefix_total("bijections.", "errors") / npass, "count")
    for name in workloads.VERIFY_MAPS:
        busy = sum(r["derived"]["bijections_busy"] for cmds, rs in done
                   for c, r in zip(cmds, rs)
                   if c.argv[:3] == ["verify", "--map", name])
        m[f"bijections.{name}.busy_s"] = (busy / npass, "s")

    for op in ("mul", "truediv", "sqrt", "compose"):
        m[f"enumeration.series.{op}.calls"] = (total(f"enumeration.series.{op}", "calls") / npass, "count")
        m[f"enumeration.series.{op}.busy_s"] = (total(f"enumeration.series.{op}", "busy") / npass, "s")
    m["enumeration.series.mul.coeff_ops"] = (total("enumeration.series.mul", "items") / npass, "count")
    m["enumeration.gf.busy_s"] = (derived("gf_busy") / npass, "s")
    m["enumeration.formula.busy_s"] = (derived("formula_busy") / npass, "s")

    walks = [w for r in reports for w in r["derived"]["walks"] if w]
    m["wilf.build_table.busy_s"] = (total("wilf.build_table", "busy") / npass, "s")
    m["wilf.build_table.self_s"] = (total("wilf.build_table", "self") / npass, "s")
    m["wilf.wilf_classes.busy_s"] = (total("wilf.wilf_classes", "busy") / npass, "s")
    m["wilf.pattern_imbalance"] = (
        max((max(w) / statistics.mean(w) for w in walks), default=0.0), "ratio")
    m["wilf.critical_path_s"] = (
        sum(max(max(w), sum(w) / NPROC) for w in walks) / npass, "s")

    m["trace.overhead_ratio"] = (_wall(wl, done) / plain_wall - 1 if plain_wall else 0.0,
                                 "ratio")
    return m


# =========================================================================
# command line
# =========================================================================

def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name](seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    log = None
    if trace:
        OUT.mkdir(exist_ok=True)
        log = gzip.open(OUT / f"trace-{name}-seed{seed}.jsonl.gz", "wt")
    try:
        runner = Runner(deadline, log)
        for _ in range(SETUP_PROBES):
            runner.spawn(None)
        try:
            metrics = traced(wl, runner, seconds) if trace else end_to_end(wl, runner, seconds)
        except RunTimeout:
            runner.fail(f"run passed its {RUN_LIMIT_S} s limit")
            metrics = {}
    finally:
        if log is not None:
            log.close()
    if trace:
        metrics["fail_ratio"] = (runner.failed / max(runner.attempted, 1), "ratio")
    for key, (value, unit) in metrics.items():
        print(f"{name:7s} {key:42s} {value:14.6g} {unit}")
    print(f"{name:7s} attempted {runner.attempted}, failed {runner.failed}, "
          f"fail_ratio {runner.failed / max(runner.attempted, 1):.4f}")
    return runner, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "partavoid" / "cli.py").is_file():
        print(f"error: no partavoid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = problems = 0
    metrics = {}
    for name in names:
        runner, found = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += runner.attempted
        failed += runner.failed
        problems += len(runner.problems)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": problems == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
