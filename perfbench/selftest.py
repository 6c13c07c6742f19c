"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py      # from the root of a checkout

Checks that

- the program generator gives byte-identical sources for a seed in two
  separate processes, and every generated program passes
  ``parse_program(validate=True)``;
- on a short traced run of each workload, every span declared for that
  workload fires, every wrapped target still exists, and no request's
  span self times sum past its wall time.

Exits 1 on the first kind of failure it finds, after printing them all.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-corpus", "service-mixed", "live-protect")


def generator_problems() -> list:
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "progs.py"), "--seed", "7", "--count", "200"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            return [f"generator check failed:\n{proc.stdout}{proc.stderr}"]
        digests.append(proc.stdout.strip().splitlines()[-1])
    if digests[0] != digests[1]:
        return [f"generator differs between processes: {digests}"]
    return []


def trace_problems(workload: str) -> list:
    # The service's traced run spends 40% of its time at 6 jobs/s; 30 s
    # gives 72 jobs, enough for the rare repair candidate to show up.
    seconds = "30" if workload == "service-mixed" else "4"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", "1"],
        capture_output=True, text=True,
    )
    problems = [line for line in proc.stderr.splitlines()
                if line.startswith(("trace self-test:", "WRONG ANSWER:"))]
    if proc.returncode != 0 and not problems:
        problems.append(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["metrics"]["requests"]["value"] < 1:
            problems.append(f"{workload}: no request completed")
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    problems = generator_problems()
    for workload in WORKLOADS:
        problems += trace_problems(workload)
    for problem in problems:
        print(problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
