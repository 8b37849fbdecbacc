"""Run one partavoid CLI command in this fresh process and report on it.

    python3 perfbench/child.py '{"argv": [...], "trace": false}'

The parent starts one such process per command, with ``src`` on
``PYTHONPATH``, so every command pays the import and starts with empty
``lru_cache``s, as a command-line user does.  The process

1. imports ``partavoid.cli`` and notes when that finished (``CLOCK_MONOTONIC``
   is shared by all processes, so the parent can subtract its spawn time);
2. calls ``cli.main(argv)`` with stdout and stderr captured, and times it;
3. prints one JSON line: both timings, the exit code, the captured output,
   ``getrusage`` of itself and its children, and the spans when traced.

With ``"argv": null`` it stops after step 1: a set-up probe.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def _usage(who):
    ru = resource.getrusage(who)
    return {"user_s": ru.ru_utime, "sys_s": ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def main():
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import partavoid.cli
    import_s = time.perf_counter() - start
    report = {"import_done": time.monotonic(), "import_s": import_s,
              "env_shards": os.environ.get("PARTAVOID_SHARDS")}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        cpu_before = os.times()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = partavoid.cli.main(spec["argv"]) or 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:
                traceback.print_exc()
                code = 1
        main_s = time.perf_counter() - start
        cpu_after = os.times()
        report.update(
            main_s=main_s,
            cpu_s=sum(cpu_after[:4]) - sum(cpu_before[:4]),
            exit=code, stdout=out.getvalue(), stderr=err.getvalue())
        if tracer is not None:
            report.update(names=tracer.names, spans=tracer.spans)
    report.update(ru_self=_usage(resource.RUSAGE_SELF),
                  ru_children=_usage(resource.RUSAGE_CHILDREN))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
