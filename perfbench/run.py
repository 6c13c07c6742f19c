"""The repository benchmark: three workloads through the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seeds 1,2] [--seconds S]

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` reruns the workload under the span harness
(``spans.py``) and reports per-layer metrics instead.  Every answer is
checked (``expected/``, the serial reference, the JSON schemas); a wrong
answer makes ``correct`` false and the exit code 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; details, wrong answers included, go to
standard error.  ``--all`` runs every workload on each seed, untraced
and traced, prints every metric with its unit and the tracing overhead,
and exits 1 on any wrong answer.

NOTES.md says why each workload exists, how each metric is measured,
and what the first baseline found.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
WORKLOADS = ("table1-corpus", "service-mixed", "live-protect")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _metrics(pairs: dict) -> dict:
    return {name: _metric(value, unit) for name, (value, unit) in pairs.items()}


# -- one workload ----------------------------------------------------------


def extra_setups(args) -> list:
    """Set-up times of fresh processes that stop after set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def per_layer(spans_found, counts, requests: int, extra: dict) -> dict:
    """Every per-layer metric; those of layers this workload does not
    reach read 0."""
    import service
    import spans

    pairs = spans.layer_metrics(spans_found, counts, requests)
    pairs.update({name: (0.0, unit) for name, unit in service.LAYER_UNITS.items()})
    pairs.update({"live.rewrite_rate": (0.0, "ratio"),
                  "live.verdict_mismatch_rate": (0.0, "ratio"),
                  "capacity_rps": (0.0, "jobs/s"), "requests": (requests, "count")})
    pairs.update(extra)
    return _metrics(pairs)


def run_closed(args, workload, setup_s: float, calibration) -> dict:
    import spans
    from closed import closed_loop
    from common import median, peak_rss_mb, percentile

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        loop = closed_loop(workload, args.seconds, calibration, tracer)
        rss = peak_rss_mb([os.getpid()])
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    for line in workload.failures:
        print(f"failed request: {line}", file=sys.stderr)
    for line in workload.mismatches:
        print(f"live verdict disagrees: {line}", file=sys.stderr)
    report = {"attempted": loop.attempted, "failed": loop.failed, "errors": workload.errors,
              "samples": len(loop.latencies)}
    lats = loop.scaled(loop.latencies)
    n = len(lats)
    print(f"  raw wall p50 {percentile(loop.latencies, 50):.6g} s, host speed "
          f"{median(loop.speed):.4g} x reference", file=sys.stderr)
    if tracer is None:
        report["metrics"] = _metrics({
            "latency_p50_s": (percentile(lats, 50), "s"),
            "latency_p90_s": (percentile(lats, 90), "s"),
            "throughput_rps": (n / sum(lats), "req/s"),
            "cpu_s_per_req": (sum(loop.scaled(loop.cpu)) / n, "s"),
            "peak_rss_mb": (rss, "MB"),
            "completed_share": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
            "setup_s": (setup_s, "s"),
        })
        return report
    found = tracer.spans()
    extra = {"trace.latency_p50_s": (percentile(lats, 50), "s")}
    if workload.hits:
        extra["live.rewrite_rate"] = (workload.rewrites / workload.hits, "ratio")
    if workload.name == "live-protect":
        answered = max(loop.attempted - loop.failed, 1)
        extra["live.verdict_mismatch_rate"] = (len(workload.mismatches) / answered, "ratio")
    report["metrics"] = per_layer(found, tracer.counts, n, extra)
    report["trace_problems"] = spans.check(args.workload, found, tracer.counts, tracer.missing)
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz")
    tracer.dump(path, found)
    print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return report


def run_service(args, workload, setup_s: float, span_dir) -> dict:
    import service
    import spans
    from common import percentile

    try:
        result = workload.run(args.seconds, with_ladder=span_dir is not None)
    finally:
        workload.close()
    fixed = result["fixed"]
    done = fixed.done
    for job in fixed.jobs:
        if job.error:
            print(f"failed job: {job.error}", file=sys.stderr)
    report = {
        "attempted": len(fixed.jobs), "failed": fixed.failed,
        "errors": service.check_results(ROOT, workload.segments),
        "samples": len(done),
        "ladder": [(round(s.rate, 3), s.passes(), round(percentile(s.latencies(), 90), 4))
                   for s in result["ladder"]],
    }
    if span_dir is None:
        first_due = min(j.due_wall for j in fixed.jobs)
        last_finish = max(j.final["finished_at"] for j in done)
        report["metrics"] = _metrics({
            "latency_p50_s": (service.window_percentile(fixed, 50), "s"),
            "latency_p90_s": (service.window_percentile(fixed, 90), "s"),
            "throughput_rps": (len(done) / (last_finish - first_due), "req/s"),
            "cpu_s_per_req": (result["cpu"] / len(done), "s"),
            "peak_rss_mb": (result["rss"], "MB"),
            "completed_share": (len(done) / len(fixed.jobs), "ratio"),
            "setup_s": (setup_s, "s"),
        })
        return report
    found, counts, missing = spans.load_dir(span_dir)
    extra = service.layer_metrics(fixed, result["stats"])
    extra["trace.latency_p50_s"] = (service.window_percentile(fixed, 50), "s")
    extra["capacity_rps"] = (result["capacity"], "jobs/s")
    # The traced server ran the warm-up job and the fixed-rate segment.
    report["metrics"] = per_layer(found, counts, len(done) + 1, extra)
    report["trace_problems"] = spans.check(args.workload, found, counts, missing)
    return report


def run_workload(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    span_dir = None
    if args.workload == "service-mixed":
        from service import ServiceMixed

        if args.trace:
            span_dir = os.path.join(OUT, f"spans-{args.workload}-{args.seed}")
            shutil.rmtree(span_dir, ignore_errors=True)
            os.makedirs(span_dir)
        workload = ServiceMixed(ROOT)
        workload.setup(args.seed, span_dir)
    else:
        from closed import WORKLOADS as CLOSED
        from common import Calibration

        calibration = Calibration()
        workload = CLOSED[args.workload]()
        workload.setup(args.seed)
    setup_s = time.perf_counter() - START
    if args.workload != "service-mixed":
        setup_s *= calibration.speed()  # at reference host speed, like the requests
    if args.setup_only:
        workload.close()
        return {"setup_s": setup_s}
    if args.workload == "service-mixed":
        report = run_service(args, workload, setup_s, span_dir)
    else:
        report = run_closed(args, workload, setup_s, calibration)
    if not args.trace:
        setups = sorted([setup_s] + extra_setups(args))
        report["metrics"]["setup_s"]["value"] = setups[len(setups) // 2]
    return report


def emit(report: dict) -> None:
    for problem in report.get("trace_problems", []):
        print(f"trace self-test: {problem}", file=sys.stderr)
    for error in report["errors"][:20]:
        print(f"WRONG ANSWER: {error}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  samples {report['samples']}, attempted {report['attempted']}, "
          f"failed {report['failed']}", file=sys.stderr)
    if report.get("ladder"):
        print(f"  ladder (rate, passes, p90): {report['ladder']}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


# -- all workloads ---------------------------------------------------------


def run_all(args) -> int:
    """Every workload on each seed, untraced then traced."""
    wrong = False
    for workload in WORKLOADS:
        for seed in args.seeds:
            results = {}
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode not in (0, 1) or not lines:
                    print(proc.stderr, file=sys.stderr)
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
                    return 2
                results[trace] = json.loads(lines[-1])
                wrong |= not results[trace]["correct"]
            plain, traced = results[0], results[1]
            print(f"== {workload} seed {seed}: "
                  f"correct={plain['correct'] and traced['correct']} "
                  f"attempted={plain['attempted']} failed={plain['failed']}")
            for name, m in plain["metrics"].items():
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
            overhead = (traced["metrics"]["trace.latency_p50_s"]["value"]
                        / plain["metrics"]["latency_p50_s"]["value"])
            print(f"  {'trace overhead (traced / untraced p50)':40s} {overhead:.4g} x")
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    if args.all:
        args.seeds = [int(s) for s in args.seeds.split(",")]
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    report = run_workload(args)
    if args.setup_only:
        print(json.dumps(report))
        return 0
    emit(report)
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
