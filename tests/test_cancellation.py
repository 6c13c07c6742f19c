"""Cooperative cancellation: ``POST /v1/jobs/<id>/cancel`` end to end.

Three paths, all terminal ``cancelled``:

- a *queued* job is cancelled immediately (no worker involved);
- a *running* job aborts at its next progress event -- the worker's
  hook polls the ``cancel_requested`` flag and raises out of the
  operation, so cancellation lands within one oracle query;
- a *terminal* job answers idempotently with its final status.
"""

import json
import time

import pytest

from repro import faults
from repro.api import AnalyzeRequest, RepairRequest, Workspace
from repro.api.schema import all_schemas, validate
from repro.faults import FaultPlan, FaultRule
from repro.service.server import ReproService


def post(service, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    status, payload, _ = service.handle("POST", path, raw)
    return status, payload


def get(service, path):
    status, payload, _ = service.handle("GET", path, b"")
    return status, payload


def submit(service, benchmark="SIBench"):
    status, payload = post(
        service, "/v1/jobs", AnalyzeRequest(benchmark=benchmark).to_json()
    )
    assert status == 202, payload
    return payload["id"]


class TestQueuedCancel:
    """With no runner, jobs stay queued -- the immediate-cancel path."""

    @pytest.fixture()
    def service(self):
        svc = ReproService(start_runner=False)
        yield svc
        svc.close()

    def test_queued_job_cancels_immediately(self, service):
        job_id = submit(service)
        status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
        assert status == 200
        assert payload == {"id": job_id, "status": "cancelled"}
        status, doc = get(service, f"/v1/jobs/{job_id}")
        assert doc["status"] == "cancelled"
        ok, why = validate(doc, all_schemas()["job"])
        assert ok, why

    def test_cancel_is_idempotent(self, service):
        job_id = submit(service)
        post(service, f"/v1/jobs/{job_id}/cancel")
        status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
        assert status == 200
        assert payload["status"] == "cancelled"

    def test_cancel_unknown_job_is_404(self, service):
        status, payload = post(service, "/v1/jobs/nope/cancel")
        assert status == 404
        assert payload["error"]["code"] == "job-not-found"

    def test_cancel_requires_post(self, service):
        job_id = submit(service)
        status, payload = get(service, f"/v1/jobs/{job_id}/cancel")
        assert status == 405

    def test_cancelled_jobs_are_pruned_as_terminal(self, service):
        """The retention fix: cancelled rows age out like done/failed."""
        job_id = submit(service)
        post(service, f"/v1/jobs/{job_id}/cancel")
        service.store.max_finished = 0
        assert service.store.prune() == 1
        status, _ = get(service, f"/v1/jobs/{job_id}")
        assert status == 404

    def test_cancel_bypasses_admission(self, service):
        """Cancels shed work; a draining server must still take them."""
        job_id = submit(service)
        service.admission.draining = True
        try:
            status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
        finally:
            service.admission.draining = False
        assert status == 200, payload
        assert payload["status"] == "cancelled"


class TestRunningCancel:
    def test_cancelled_event_lands_before_the_terminal_status(self, tmp_path):
        """Whoever reads ``cancelled`` -- a status poll, or the event
        stream deciding to send ``job.end`` -- must already find the
        ``job.cancelled`` event in the log."""
        from repro.service import JobStore
        from repro.service.workers import execute_job

        with JobStore(str(tmp_path / "jobs.sqlite")) as store, Workspace() as ws:
            job_id = store.submit(AnalyzeRequest(benchmark="SIBench")).id
            job = store.claim("w0")
            assert store.request_cancel(job_id) == "cancelling"
            seen_at_terminal = []
            mark_cancelled = store.mark_cancelled

            def spy(target):
                seen_at_terminal.extend(
                    e["stage"] for e in store.get(target).events
                )
                mark_cancelled(target)

            store.mark_cancelled = spy
            execute_job(ws, store, job)
            assert store.get(job_id).status == "cancelled"
            assert "job.cancelled" in seen_at_terminal

    def test_running_job_lands_cancelled(self):
        """Slow the solver down (seeded delay faults), catch the job
        mid-run, cancel, and watch it land terminal ``cancelled`` --
        the acceptance criterion for cooperative cancellation."""
        # The solver delay only fires inside long solves, so the job is
        # a TPC-C repair: dozens of analyses, each narrating progress
        # events, and a delay on every event write.  The job then runs
        # for seconds with a cancel poll at each event, however warm
        # earlier tests left the process.
        plan = FaultPlan(
            0,
            [
                FaultRule(
                    site="solver.propagate", action="delay",
                    p=1.0, times=0, delay_s=0.02,
                ),
                FaultRule(
                    site="events.write", action="delay",
                    p=1.0, times=0, delay_s=0.02,
                ),
            ],
        )
        faults.activate(plan)
        # The incremental strategy solves in *this* process, where the
        # delay plan is active, so the job cannot outrun the cancel.
        workspace = Workspace(strategy="incremental")
        service = ReproService(workspace)
        try:
            status, payload = post(
                service, "/v1/jobs",
                RepairRequest(benchmark="TPC-C").to_json(),
            )
            assert status == 202, payload
            job_id = payload["id"]
            deadline = time.monotonic() + 60
            status_seen = None
            while time.monotonic() < deadline:
                _, doc = get(service, f"/v1/jobs/{job_id}")
                status_seen = doc["status"]
                if status_seen != "queued":
                    break
                time.sleep(0.005)
            assert status_seen == "running", (
                f"job never observed running (last: {status_seen})"
            )
            status, payload = post(service, f"/v1/jobs/{job_id}/cancel")
            assert status == 200
            assert payload["status"] == "cancelling"
            while time.monotonic() < deadline:
                _, doc = get(service, f"/v1/jobs/{job_id}")
                if doc["status"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.01)
            assert doc["status"] == "cancelled", doc["status"]
            stages = [e["stage"] for e in doc["events"]]
            assert "job.cancelled" in stages
        finally:
            faults.deactivate()
            service.close()
            workspace.close()
