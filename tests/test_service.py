"""The HTTP service: differential vs direct library calls, async jobs,
schema validation of every response, error mapping."""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.api import AnalyzeRequest, RepairRequest, Workspace
from repro.api.schema import iter_violations, schema_filename
from repro.corpus import ALL_BENCHMARKS, BY_NAME
from repro.lang import print_program
from repro.service import make_server

SCHEMA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "schemas")


def committed_schema(name: str) -> dict:
    """Validate against the *committed* goldens, not the live code, so a
    response drifting from the frozen contract fails even if code and
    schema drifted together."""
    with open(os.path.join(SCHEMA_DIR, schema_filename(name))) as fh:
        return json.load(fh)


def assert_valid(payload, schema_name):
    violations = list(iter_violations(payload, committed_schema(schema_name)))
    assert not violations, violations


@pytest.fixture(scope="module")
def server():
    srv = make_server(port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def base(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def call(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=600) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHealthAndStats:
    def test_health(self, base):
        status, payload = call(base, "GET", "/v1/health")
        assert status == 200
        assert_valid(payload, "health")
        assert payload["version"] == repro.__version__
        assert payload["protocol"] == 1

    def test_keep_alive_requests_are_not_delayed(self, server):
        """Requests on one keep-alive connection must not wait on the
        client's delayed ACK (Nagle holds the body back ~40 ms)."""
        import http.client
        import statistics

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            timings = []
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
                timings.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(timings) < 0.020, timings

    def test_connection_burst_is_queued_not_dropped(self):
        """Connections beyond socketserver's default backlog of 5 must
        wait in the kernel's accept queue: a dropped SYN costs the
        client a one-second retransmit."""
        import socket

        srv = make_server(port=0)  # listening, but not accepting yet
        sockets = []
        try:
            host, port = srv.server_address[:2]
            for _ in range(32):
                sockets.append(
                    socket.create_connection((host, port), timeout=0.5)
                )
        finally:
            for sock in sockets:
                sock.close()
            srv.server_close()
            srv.service.close()

    def test_stats_validates(self, base):
        status, payload = call(base, "GET", "/v1/stats")
        assert status == 200
        assert_valid(payload, "stats")
        assert "jobs" in payload


class TestDifferential:
    """Acceptance gate: the service answers concurrent analyze/repair
    requests with byte-identical verdicts/plans to direct library calls,
    over the corpus benchmarks."""

    def test_concurrent_corpus_differential(self, base):
        names = [b.name for b in ALL_BENCHMARKS]

        def analyze_req(name):
            return call(base, "POST", "/v1/analyze",
                        AnalyzeRequest(benchmark=name).to_json())

        def repair_req(name):
            return call(base, "POST", "/v1/repair",
                        RepairRequest(benchmark=name).to_json())

        with ThreadPoolExecutor(max_workers=6) as pool:
            analyze_futures = {n: pool.submit(analyze_req, n) for n in names}
            repair_futures = {n: pool.submit(repair_req, n) for n in names}
            analyzed = {n: f.result() for n, f in analyze_futures.items()}
            repaired = {n: f.result() for n, f in repair_futures.items()}

        # Direct library calls on the seed serial reference.
        with Workspace(strategy="serial") as ws:
            for name in names:
                status, payload = analyzed[name]
                assert status == 200, payload
                assert_valid(payload, "analyze_result")
                direct = ws.analyze(AnalyzeRequest(benchmark=name))
                assert payload["pairs"] == [p.to_json() for p in direct.pairs], name

                status, payload = repaired[name]
                assert status == 200, payload
                assert_valid(payload, "repair_result")
                report = ws.repair_program(BY_NAME[name].program())
                assert payload["plan"] == report.plan.to_json(), name
                assert payload["repaired_program"] == print_program(
                    report.repaired_program
                ), name
                assert payload["serializable_variant"] == print_program(
                    report.serializable_variant()
                ), name


class TestJobs:
    def wait_for(self, base, job_id, timeout=600):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, payload = call(base, "GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if payload["status"] in ("done", "failed"):
                return payload
            time.sleep(0.05)
        pytest.fail("job did not finish")

    def test_async_repair_round_trip(self, base):
        request = RepairRequest(benchmark="Courseware").to_json()
        status, job = call(base, "POST", "/v1/jobs", request)
        assert status == 202
        assert_valid(job, "job")
        assert job["status"] in ("queued", "running")

        job = self.wait_for(base, job["id"])
        assert_valid(job, "job")
        assert job["status"] == "done", job["error"]
        assert job["events"], "job recorded no progress events"
        stages = {e["stage"] for e in job["events"]}
        assert "search.done" in stages

        # The async result is the same document the sync endpoint returns.
        status, sync = call(base, "POST", "/v1/repair", request)
        assert status == 200
        result = job["result"]
        assert_valid(result, "repair_result")
        assert result["plan"] == sync["plan"]
        assert result["repaired_program"] == sync["repaired_program"]

    def test_async_analyze_and_listing(self, base):
        status, job = call(
            base, "POST", "/v1/jobs", AnalyzeRequest(benchmark="SIBench").to_json()
        )
        assert status == 202 and job["kind"] == "analyze"
        done = self.wait_for(base, job["id"])
        assert_valid(done["result"], "analyze_result")
        status, listing = call(base, "GET", "/v1/jobs")
        assert status == 200
        assert any(j["id"] == job["id"] for j in listing["jobs"])

    def test_failed_job_reports_error_payload(self, base):
        status, job = call(
            base, "POST", "/v1/jobs", RepairRequest(benchmark="Nope").to_json()
        )
        assert status == 202
        done = self.wait_for(base, job["id"])
        assert done["status"] == "failed"
        assert_valid(done["error"], "error")
        assert done["error"]["error"]["code"] == "unknown-benchmark"

    def test_submission_wakes_the_idle_runner(self):
        """``POST /v1/jobs`` wakes an idle runner at once instead of
        leaving the job queued until the runner's next poll."""
        from repro.service import InlineRunner, ReproService

        service = ReproService(start_runner=False)
        runner = InlineRunner(
            service.store, service.workspace, poll_interval=60.0
        )
        service.runner = runner
        runner.start()
        try:
            time.sleep(0.2)  # the empty queue sent the runner idle
            body = json.dumps(AnalyzeRequest(benchmark="SIBench").to_json())
            status, job, _ = service.handle("POST", "/v1/jobs", body.encode())
            assert status == 202
            deadline = time.monotonic() + 20.0
            while (
                service.store.get(job["id"]).status != "done"
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.store.get(job["id"]).status == "done"
        finally:
            assert runner.drain(timeout=30)
            service.close()

    def test_unknown_job_is_404(self, base):
        status, payload = call(base, "GET", "/v1/jobs/job-9999-deadbeef")
        assert status == 404
        assert payload["error"]["code"] == "job-not-found"


class TestErrorMapping:
    def test_unknown_endpoint_404(self, base):
        status, payload = call(base, "GET", "/v1/nope")
        assert status == 404
        assert_valid(payload, "error")
        assert payload["error"]["code"] == "not-found"

    def test_wrong_method_405(self, base):
        status, payload = call(base, "GET", "/v1/analyze")
        assert status == 405
        assert payload["error"]["code"] == "method-not-allowed"

    def test_bad_json_400(self, base):
        request = urllib.request.Request(
            base + "/v1/analyze", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        payload = json.loads(exc.value.read())
        assert exc.value.code == 400
        assert payload["error"]["code"] == "invalid-request"

    def test_schema_version_mismatch_400(self, base):
        body = AnalyzeRequest(benchmark="SIBench").to_json()
        body["version"] = 99
        status, payload = call(base, "POST", "/v1/analyze", body)
        assert status == 400
        assert payload["error"]["code"] == "unsupported-version"

    def test_unknown_benchmark_400(self, base):
        status, payload = call(
            base, "POST", "/v1/analyze", AnalyzeRequest(benchmark="Nope").to_json()
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown-benchmark"

    def test_parse_error_400(self, base):
        status, payload = call(
            base, "POST", "/v1/analyze", AnalyzeRequest(source="schema {").to_json()
        )
        assert status == 400
        assert payload["error"]["code"] == "parse-error"


class TestSharedWorkspace:
    def test_served_requests_fill_the_persistent_cache(self, tmp_path):
        """A repair served over HTTP (handler thread!) must write
        through to the persistent cache so a later process warm-starts
        -- regression for the silent memory-only downgrade when the
        sqlite tier rejected cross-thread use."""
        cache_dir = str(tmp_path / "cache")
        with Workspace(strategy="incremental", cache_dir=cache_dir) as ws:
            srv = make_server(ws, port=0)
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            host, port = srv.server_address[:2]
            status, served = call(
                f"http://{host}:{port}", "POST", "/v1/repair",
                RepairRequest(benchmark="SIBench").to_json(),
            )
            assert status == 200
            assert not ws.cache._db_broken
            srv.close()
            thread.join(timeout=5)
        with Workspace(strategy="incremental", cache_dir=cache_dir) as again:
            result = again.repair(RepairRequest(benchmark="SIBench"))
            assert result.plan == served["plan"]
            assert again.cache.persistent_hits > 0
            assert again.cache.misses == 0

    def test_requests_share_one_warm_workspace(self, base):
        """After the differential sweep, the stats endpoint must show a
        shared cache and (on warm strategies) live sessions -- proof the
        handler threads hit one workspace, not per-request state."""
        status, stats = call(base, "GET", "/v1/stats")
        assert status == 200
        total = sum(stats["requests"].values())
        assert total > 10
        if stats["strategy"] != "serial":  # the default warm strategy
            assert stats["cache"]["hits"] + stats["cache"]["misses"] > 0
