"""Run ``tcasym.cli.main`` with span tracing, workers included.

Usage: python3 traced_cli.py SPAN_DIR CLI_ARGS...

The wrappers are installed before the process pool starts; pool workers
are forked from this process and inherit them. Each worker writes the
spans of every task it ran to SPAN_DIR/worker-<pid>.jsonl, one JSON line
per task, and this process writes its own spans to SPAN_DIR/main.json.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from spans import Tracer


def main(span_dir, argv):
    from tcasym import cli

    tracer = Tracer()
    tracer.install()
    main_pid = os.getpid()
    task = cli._compare_task

    def flushing_task(t):
        worker = os.getpid() != main_pid
        if worker and tracer.stack:
            # first task in a forked worker: drop the parent's open spans
            tracer.spans.clear()
            tracer.stack.clear()
        row = task(t)
        if worker:
            with open(os.path.join(span_dir, f"worker-{os.getpid()}.jsonl"), "a") as f:
                f.write(json.dumps(tracer.take()) + "\n")
        return row

    flushing_task.__module__, flushing_task.__qualname__ = task.__module__, task.__qualname__
    cli._compare_task = flushing_task

    def pool_map(self, fn, *iterables, **kwargs):
        return list(ProcessPoolExecutor.map(self, fn, *iterables, **kwargs))

    class TracedPool(ProcessPoolExecutor):
        map = tracer.wrap(pool_map, "cli.pool")
        __exit__ = tracer.wrap(ProcessPoolExecutor.__exit__, "cli.pool")

    cli.ProcessPoolExecutor = TracedPool
    code = cli.main(argv)
    with open(os.path.join(span_dir, "main.json"), "w") as f:
        json.dump(tracer.take(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
