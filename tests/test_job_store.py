"""The durable job store: claims, shard affinity, crash recovery,
retention, and persistence across reopen."""

import contextlib
import json
import os
import threading
import time

import pytest

from repro.api import AnalyzeRequest, JobNotFoundError
from repro.api.events import ProgressEvent
from repro.service.store import (
    DEFAULT_TENANT,
    MAX_EVENTS,
    JobStore,
    shard_key_of,
)


@pytest.fixture
def store(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as s:
        yield s


def request_for(benchmark):
    return AnalyzeRequest(benchmark=benchmark)


class TestSubmitAndClaim:
    def test_submit_persists_a_queued_row(self, store):
        job = store.submit(request_for("SIBench"))
        assert job.status == "queued"
        loaded = store.get(job.id)
        assert loaded.status == "queued"
        assert loaded.request == request_for("SIBench").to_json()
        assert store.depth() == 1

    def test_claim_is_fifo_and_single_winner(self, store):
        first = store.submit(request_for("SIBench"))
        second = store.submit(request_for("Courseware"))
        claimed = store.claim("w0")
        assert claimed.id == first.id
        assert claimed.status == "running"
        assert claimed.worker == "w0"
        assert claimed.attempts == 1
        # The same row can never be claimed twice.
        assert store.claim("w1").id == second.id
        assert store.claim("w2") is None

    def test_claim_prefers_own_shard_then_steals(self, store):
        jobs = [
            store.submit(request_for(name))
            for name in ("SIBench", "Courseware", "SmallBank", "TPC-C")
        ]
        shards = 2
        mine = [
            j.id for j in jobs
            if shard_key_of(j.request) % shards == 0
        ]
        others = [j.id for j in jobs if j.id not in mine]
        for expected in mine:
            assert store.claim("w0", shard=0, shards=shards).id == expected
        # Own shard drained: stealing picks up the rest, oldest first.
        for expected in others:
            assert store.claim("w0", shard=0, shards=shards).id == expected
        assert store.claim("w0", shard=0, shards=shards) is None

    def test_shard_key_is_stable(self):
        doc = request_for("SIBench").to_json()
        assert shard_key_of(doc) == shard_key_of(json.loads(json.dumps(doc)))
        assert shard_key_of(doc) != shard_key_of(
            request_for("Courseware").to_json()
        )


class TestLifecycle:
    def test_finish_persists_result(self, store):
        job = store.submit(request_for("SIBench"))
        store.claim("w0")
        store.finish(job.id, {"version": 1, "kind": "analyze_result"})
        done = store.get(job.id)
        assert done.status == "done"
        assert done.result == {"version": 1, "kind": "analyze_result"}
        assert done.finished_at is not None

    def test_fail_persists_error(self, store):
        job = store.submit(request_for("Nope"))
        store.claim("w0")
        store.fail(job.id, {"error": {"code": "unknown-benchmark", "message": "x"}})
        failed = store.get(job.id)
        assert failed.status == "failed"
        assert failed.error["error"]["code"] == "unknown-benchmark"

    def test_events_are_ordered_and_trimmed(self, store):
        job = store.submit(request_for("SIBench"))
        for i in range(MAX_EVENTS + 25):
            store.record_event(job.id, ProgressEvent("tick", {"i": i}))
        events = store.get(job.id).events
        assert len(events) == MAX_EVENTS
        # Newest survive; the oldest 25 were trimmed.
        assert events[0]["detail"]["i"] == 25
        assert events[-1]["detail"]["i"] == MAX_EVENTS + 24

    def test_events_since_pages_incrementally(self, store):
        job = store.submit(request_for("SIBench"))
        store.record_event(job.id, ProgressEvent("a", {}))
        store.record_event(job.id, ProgressEvent("b", {}))
        batch, status = store.events_since(job.id, 0)
        assert [e["stage"] for _, e in batch] == ["a", "b"]
        assert status == "queued"
        last_seq = batch[-1][0]
        store.record_event(job.id, ProgressEvent("c", {}))
        batch, _ = store.events_since(job.id, last_seq)
        assert [e["stage"] for _, e in batch] == ["c"]

    def test_unknown_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.get("job-9999-deadbeef")
        with pytest.raises(JobNotFoundError):
            store.events_since("job-9999-deadbeef", 0)


class TestRecovery:
    def test_orphans_are_requeued(self, store):
        job = store.submit(request_for("SIBench"))
        store.claim("w0-dead")
        requeued, failed = store.recover(active_owners={"w1-alive"})
        assert requeued == [job.id]
        assert failed == []
        recovered = store.get(job.id)
        assert recovered.status == "queued"
        assert recovered.worker is None
        # Attempts carry across the crash: the retry budget is real.
        assert recovered.attempts == 1

    def test_live_owners_keep_their_claims(self, store):
        job = store.submit(request_for("SIBench"))
        store.claim("w0-alive")
        requeued, failed = store.recover(active_owners={"w0-alive"})
        assert requeued == [] and failed == []
        assert store.get(job.id).status == "running"

    def test_poison_job_fails_at_attempt_cap(self, tmp_path):
        with JobStore(str(tmp_path / "jobs.sqlite"), max_attempts=2) as store:
            job = store.submit(request_for("SIBench"))
            store.claim("w0")
            assert store.recover(set()) == ([job.id], [])
            store.claim("w0")
            requeued, failed = store.recover(set())
            assert requeued == [] and failed == [job.id]
            dead = store.get(job.id)
            assert dead.status == "failed"
            assert dead.error["error"]["code"] == "worker-crashed"


class TestDurability:
    def test_everything_survives_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            queued = store.submit(request_for("SIBench"))
            finished = store.submit(request_for("Courseware"))
            store.claim("w0")  # claims `queued` (FIFO)
            store.finish(queued.id, {"ok": 1})
            store.record_event(finished.id, ProgressEvent("early", {}))
        with JobStore(path) as store:
            assert store.get(queued.id).result == {"ok": 1}
            still_queued = store.get(finished.id)
            assert still_queued.status == "queued"
            assert [e["stage"] for e in still_queued.events] == ["early"]
            assert store.counters() == {
                "queued": 1, "running": 0, "done": 1, "failed": 0,
                "cancelled": 0, "total": 2,
            }

    def test_prune_drops_oldest_finished_beyond_cap(self, tmp_path):
        with JobStore(str(tmp_path / "jobs.sqlite"), max_finished=2) as store:
            ids = []
            for name in ("SIBench", "Courseware", "SmallBank"):
                job = store.submit(request_for(name))
                store.claim("w0")
                store.finish(job.id, {"n": name})
                ids.append(job.id)
            assert store.prune() == 1
            with pytest.raises(JobNotFoundError):
                store.get(ids[0])
            assert store.get(ids[1]).status == "done"
            assert store.get(ids[2]).status == "done"

    def test_corrupt_db_fails_loud_with_runbook_pointer(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        path.write_bytes(b"this is not a sqlite file" * 64)
        with pytest.raises(RuntimeError, match="OPERATIONS.md"):
            JobStore(str(path))

    def test_ids_stay_unique_across_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            first = store.submit(request_for("SIBench")).id
        with JobStore(path) as store:
            second = store.submit(request_for("SIBench")).id
        assert first != second
        assert os.path.exists(path)


class TestTenancy:
    def test_tenant_persists_and_scopes_queries(self, store):
        plain = store.submit(request_for("SIBench"))
        acme = store.submit(request_for("Courseware"), tenant="acme")
        assert store.get(plain.id).tenant == DEFAULT_TENANT
        assert store.get(acme.id).tenant == "acme"
        assert store.depth() == 2
        assert store.depth(tenant="acme") == 1
        assert [j.id for j in store.list(tenant="acme")] == [acme.id]
        counters = store.tenant_counters()
        assert counters["acme"]["queued"] == 1
        assert counters[DEFAULT_TENANT]["queued"] == 1

    def test_envelope_tenant_is_used_when_no_override(self, store):
        request = AnalyzeRequest(benchmark="SIBench", tenant="from-envelope")
        job = store.submit(request)
        assert store.get(job.id).tenant == "from-envelope"
        overridden = store.submit(request, tenant="from-header")
        assert store.get(overridden.id).tenant == "from-header"

    def test_equal_weights_alternate_claims(self, store):
        # The fairness core: a 6-job backlog from tenant a must not
        # delay tenant b's jobs behind all six.
        for _ in range(6):
            store.submit(request_for("SIBench"), tenant="a")
        for _ in range(3):
            store.submit(request_for("SIBench"), tenant="b")
        served = [store.claim("w0").tenant for _ in range(6)]
        assert served == ["a", "b", "a", "b", "a", "b"]
        # b's queue is drained; a gets the leftovers.
        assert [store.claim("w0").tenant for _ in range(3)] == ["a", "a", "a"]

    def test_weights_shape_the_interleave(self, store):
        for _ in range(6):
            store.submit(request_for("SIBench"), tenant="a")
            store.submit(request_for("SIBench"), tenant="b")
        served = [
            store.claim("w0", weights={"a": 2.0}).tenant for _ in range(6)
        ]
        # Weight 2 means two a jobs per b job.
        assert served == ["a", "a", "b", "a", "a", "b"]

    def test_running_cap_skips_saturated_tenant(self, store):
        for _ in range(3):
            store.submit(request_for("SIBench"), tenant="hog")
        store.submit(request_for("SIBench"), tenant="calm")
        first = store.claim("w0", max_running_per_tenant=1)
        # With hog at its running cap after one claim, the second claim
        # must take calm's job, not hog's second -- one of each runs.
        second = store.claim("w1", max_running_per_tenant=1)
        assert {first.tenant, second.tenant} == {"hog", "calm"}
        # hog is capped and calm's queue is empty: nothing claimable
        # despite hog's backlog.
        assert store.claim("w2", max_running_per_tenant=1) is None
        hog_job = first if first.tenant == "hog" else second
        store.finish(hog_job.id, {"ok": 1})
        assert store.claim("w2", max_running_per_tenant=1).tenant == "hog"

    def test_prune_applies_per_tenant_retention(self, tmp_path):
        with JobStore(
            str(tmp_path / "jobs.sqlite"),
            max_finished=100, max_finished_per_tenant=1,
        ) as store:
            kept = {}
            for tenant in ("a", "b"):
                for n in range(3):
                    job = store.submit(request_for("SIBench"), tenant=tenant)
                    store.claim("w0")
                    store.finish(job.id, {"n": n})
                    kept[tenant] = job.id
            # Each tenant keeps its newest finished row; the global cap
            # (100) never fires.
            assert store.prune() == 4
            for tenant, job_id in kept.items():
                assert store.get(job_id).tenant == tenant
            counters = store.tenant_counters()
            assert counters["a"]["done"] == 1
            assert counters["b"]["done"] == 1

    def test_drain_exit_prunes(self, tmp_path):
        # Satellite: a worker told to stop still runs retention on the
        # way out, even if it never claimed a job.
        from repro.service.workers import _drain_loop

        with JobStore(str(tmp_path / "jobs.sqlite"), max_finished=1) as store:
            for name in ("SIBench", "Courseware", "SmallBank"):
                job = store.submit(request_for(name))
                store.claim("w0")
                store.finish(job.id, {"n": name})
            assert store.counters()["done"] == 3
            _drain_loop(
                store, None, "w0", should_stop=lambda: True,
                wake=threading.BoundedSemaphore(1),
            )
            assert store.counters()["done"] == 1

    def test_pre_tenancy_database_is_migrated(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            job_id = store.submit(request_for("SIBench")).id
        # Rewind the schema to the pre-tenancy shape.
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE jobs_old AS SELECT id, kind, status, request,"
            " shard_key, result, error, created_at, started_at,"
            " finished_at, owner, attempts, cancel_requested FROM jobs;"
            "DROP TABLE jobs;"
            "ALTER TABLE jobs_old RENAME TO jobs;"
        )
        conn.close()
        with JobStore(path) as store:
            job = store.get(job_id)
            assert job.tenant == DEFAULT_TENANT
            assert store.depth(tenant=DEFAULT_TENANT) == 1


def wait_for_done(store, job_id, timeout=20.0):
    deadline = time.monotonic() + timeout
    while store.get(job_id).status != "done" and time.monotonic() < deadline:
        time.sleep(0.01)
    return store.get(job_id).status


def idle_wake():
    """A runner wake with no signal pending."""
    wake = threading.BoundedSemaphore(1)
    wake.acquire()
    return wake


@contextlib.contextmanager
def idle_runner(store, workspace, wake, poll_interval=60.0):
    """``_drain_loop`` on a thread with a 60 s poll, so only ``wake``
    can end its idle wait in test time."""
    from repro.service.workers import _drain_loop, signal_wake

    stop = threading.Event()
    runner = threading.Thread(
        target=_drain_loop,
        args=(store, workspace, "w0", stop.is_set, wake),
        kwargs={"poll_interval": poll_interval},
    )
    runner.start()
    try:
        yield
    finally:
        stop.set()
        signal_wake(wake)
        runner.join(timeout=30)
    assert not runner.is_alive()


class TestDrainLoop:
    def test_wake_ends_an_idle_wait(self, tmp_path):
        """A signalled wake sends an idle runner straight back to the
        queue instead of letting it wait out its poll interval."""
        from repro.api import Workspace
        from repro.service.workers import signal_wake

        wake = idle_wake()
        with JobStore(str(tmp_path / "jobs.sqlite")) as store, Workspace() as ws:
            with idle_runner(store, ws, wake):
                time.sleep(0.2)  # the empty queue sent the runner idle
                job = store.submit(request_for("SIBench"))
                signal_wake(wake)
                assert wait_for_done(store, job.id) == "done"

    def test_submission_between_claim_and_wait_is_not_missed(self, tmp_path):
        """A job committed (and its wake signalled) after the runner's
        empty claim but before its wait must still be claimed at once,
        not after the 60 s poll: the signal has to stay pending."""
        from repro.api import Workspace
        from repro.service.workers import signal_wake

        wake = idle_wake()
        with JobStore(str(tmp_path / "jobs.sqlite")) as store, Workspace() as ws:
            raced = []
            claim = store.claim

            def racing_claim(*args, **kwargs):
                job = claim(*args, **kwargs)
                if job is None and not raced:
                    raced.append(store.submit(request_for("SIBench")))
                    signal_wake(wake)
                return job

            store.claim = racing_claim
            with idle_runner(store, ws, wake):
                deadline = time.monotonic() + 20.0
                while not raced and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert raced
                assert wait_for_done(store, raced[0].id) == "done"

    def test_drain_of_an_idle_inline_runner_is_prompt(self, tmp_path):
        """Draining signals the wake, so an idle runner stops at once
        rather than after its poll interval."""
        from repro.api import Workspace
        from repro.service import InlineRunner

        with JobStore(str(tmp_path / "jobs.sqlite")) as store, Workspace() as ws:
            runner = InlineRunner(store, ws, poll_interval=60.0)
            runner.start()
            time.sleep(0.2)  # the empty queue sent the runner idle
            started = time.monotonic()
            assert runner.drain(timeout=30)
            assert time.monotonic() - started < 1.0

    def test_failed_claim_backs_off_despite_a_wake(self, tmp_path):
        """A claim that raised backs off its full poll interval: a
        submission's wake must not send the runner straight back into a
        contended store."""
        import sqlite3

        from repro.service.workers import signal_wake

        wake = idle_wake()
        with JobStore(str(tmp_path / "jobs.sqlite")) as store:
            claims = []

            def locked_claim(*args, **kwargs):
                claims.append(time.monotonic())
                raise sqlite3.OperationalError("database is locked")

            store.claim = locked_claim
            # A 1 s back-off: long enough to see, short enough that the
            # runner's exit (which it also sleeps through) is quick.
            with idle_runner(store, None, wake, poll_interval=1.0):
                time.sleep(0.2)  # the first claim failed; backing off
                signal_wake(wake)
                time.sleep(0.3)
                assert len(claims) == 1
