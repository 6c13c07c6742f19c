"""``repro serve`` with the span harness installed.

Usage: ``PERFBENCH_SPAN_DIR=DIR python3 perfbench/traced_serve.py serve
[serve flags]``.  The server process records one request span per job
(its id is the request id); the strategy's forked shard workers inherit
the wrappers and record their own spans.  Every process writes
``DIR/spans-<pid>.jsonl.gz`` and ``DIR/counts-<pid>.json`` when it exits.
"""

from __future__ import annotations

import multiprocessing.util
import os
import sys

from spans import Tracer


def _after_fork(tracer: Tracer) -> None:
    """In a forked worker: forget the parent's spans and dump this
    process's own on exit."""
    tracer.reset()
    multiprocessing.util.Finalize(
        tracer, tracer.dump_dir, args=(os.environ["PERFBENCH_SPAN_DIR"],),
        exitpriority=100,
    )


def main() -> int:
    span_dir = os.environ["PERFBENCH_SPAN_DIR"]
    tracer = Tracer()
    tracer.install()
    multiprocessing.util.register_after_fork(tracer, _after_fork)

    from repro.service import workers

    execute_job = workers.execute_job

    def traced_execute_job(workspace, store, job):
        with tracer.request(job.id):
            return execute_job(workspace, store, job)

    workers.execute_job = traced_execute_job

    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.dump_dir(span_dir)


if __name__ == "__main__":
    sys.exit(main())
