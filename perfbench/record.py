"""Rewrite the committed answers in ``expected/``.

    python3 perfbench/record.py        # from the root of a checkout

Run it only when a change is meant to alter the program's answers; the
benchmark treats any difference from these files as a wrong answer.
``table1.json`` holds each corpus row of the Table-1 pass;
``live.json`` holds each benchmark's ``overhead_ratio`` and the first
live-protect requests of the default seed with their anomaly counts
(``null`` where the request failed with an error while recording).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from closed import (  # noqa: E402
    DEFAULT_SEED, EXPECTED, LIVE_SAMPLES, TABLE1_FIELDS, draw_live_requests,
    live_answer,
)

#: Default-seed live-protect requests recorded; more than a run reaches.
LIVE_REQUESTS = 120


def main() -> int:
    from repro.api import BenchRequest, LiveProtectRequest, Workspace
    from repro.corpus import ALL_BENCHMARKS
    from repro.errors import ReproError

    with Workspace(strategy="serial") as ws:
        rows = ws.bench(BenchRequest()).rows
        table1 = {r.name: {f: getattr(r, f) for f in TABLE1_FIELDS} for r in rows}
        plans = {b.name: ws.repair_program(b.program()).plan.to_json()
                 for b in ALL_BENCHMARKS}
        draw = draw_live_requests(DEFAULT_SEED, [b.name for b in ALL_BENCHMARKS])
        requests, ratios = [], {}
        for _ in range(LIVE_REQUESTS):
            bench, seed = next(draw)
            try:
                result = ws.protect(LiveProtectRequest(
                    benchmark=bench, plan=plans[bench], samples=LIVE_SAMPLES,
                    seed=seed, measure=True))
            except ReproError:
                # Some protect calls fail depending on the process's
                # string hash seed (NOTES.md): no answer to record.
                requests.append(None)
                continue
            answer = live_answer(result)
            ratios[bench] = answer["overhead_ratio"]
            requests.append({"benchmark": bench, "seed": seed, **answer})
    os.makedirs(EXPECTED, exist_ok=True)
    with open(os.path.join(EXPECTED, "table1.json"), "w") as fh:
        json.dump(table1, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(EXPECTED, "live.json"), "w") as fh:
        json.dump({"overhead_ratio": ratios, "requests": requests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
