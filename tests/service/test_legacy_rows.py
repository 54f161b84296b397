"""Stores written by older releases still load.

The rows below are hand-written in two older shapes.  Rows from before θ
sweeps became one-axis grids carry job kind ``"sweep"`` and a
``sweep_mode`` key on the sweep record and on every request (including the
requests echoed inside stored responses and results).  Rows from before
fingerprint version 5 carry ``evaluation_mode`` and ``scan_mode`` on every
request.  A restarted :class:`JobManager` must finish the interrupted jobs
exactly like a fresh run, and finished jobs' stored results must be served
verbatim.
"""

import json
import threading

import pytest

from repro.api import (
    AnonymizationRequest,
    AnonymizationResponse,
    CheckpointBuffer,
    GridRequest,
    GridResponse,
    checkpoint_to_json,
    execute_sample_group,
    run_grid,
)
from repro.service.client import ServiceClient
from repro.service.http import create_server
from repro.service.jobs import JobManager, wrap_result
from repro.service.store import RunStore

BASE = AnonymizationRequest(dataset="gnutella", sample_size=24, seed=0)

#: Two sample groups: seed 0 (one θ, finished) and seed 1 (three θs, the
#: first crossed and checkpointed when the process died).
REQUESTS = (BASE.with_overrides(theta=0.8),
            BASE.with_overrides(seed=1, theta=0.9),
            BASE.with_overrides(seed=1, theta=0.6),
            BASE.with_overrides(seed=1, theta=0.4))

PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason", "metrics")


def legacy_request(request):
    return dict(request.to_dict(), sweep_mode="checkpointed")


def legacy_response(response):
    payload = response.to_dict()
    payload["request"] = legacy_request(response.request)
    return payload


def legacy_sweep(requests):
    return json.dumps({"requests": [legacy_request(r) for r in requests],
                       "sweep_mode": "checkpointed"})


@pytest.fixture
def legacy_store(tmp_path):
    """A store holding one interrupted and one finished ``sweep`` job."""
    store = RunStore(str(tmp_path / "runs.db"))
    fresh = run_grid(GridRequest(requests=REQUESTS))

    running = store.create_job("sweep", "legacy-running",
                               legacy_sweep(REQUESTS), len(REQUESTS))
    store.set_status(running, "running")
    store.record_response(running, 0, json.dumps(
        legacy_response(fresh.responses[0])))
    buffer = CheckpointBuffer()
    execute_sample_group([REQUESTS[1]], observer=buffer)
    (_indices, checkpoint), = buffer.records
    store.record_checkpoint(running, 1, checkpoint.theta,
                            checkpoint_to_json(checkpoint))

    done_requests = REQUESTS[:1]
    done = store.create_job("sweep", "legacy-done",
                            legacy_sweep(done_requests), 1)
    done_result = json.dumps({
        "responses": [legacy_response(fresh.responses[0])],
        "sweep_mode": "checkpointed", "num_groups": 1})
    store.record_result(done, done_result)
    store.set_status(done, "done")
    yield store, running, done, done_result, fresh
    store.close()


def test_restart_finishes_a_legacy_sweep_like_a_fresh_grid(legacy_store):
    store, running, done, _result, fresh = legacy_store
    manager = JobManager(store)
    resumed = manager.start()
    try:
        assert resumed == [running]
        job = manager.wait_for(running, timeout=120)
        assert job["status"] == "done", job["error"]
        result = GridResponse.from_json(store.get_result(running))
        assert [response.request for response in result.responses] == \
            list(REQUESTS)
        for response, expected in zip(result.responses, fresh.responses):
            for field in PARITY_FIELDS:
                assert getattr(response, field) == getattr(expected, field), \
                    field
        assert store.get_job(done)["status"] == "done"
    finally:
        manager.stop()


def test_done_legacy_result_is_served_verbatim(legacy_store):
    store, _running, done, done_result, fresh = legacy_store
    manager = JobManager(store)
    server = create_server("127.0.0.1", 0, manager, store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        answer = client.result(done, parse=False)
        assert answer["result"] == json.loads(done_result)
        parsed = client.result(done)
        assert isinstance(parsed, GridResponse)
        assert parsed.responses == fresh.responses[:1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


#: Fingerprint-v4 rows: ``(current request, evaluation_mode, scan_mode,
#: stored scan_workers)``.  A ``scan_workers`` stored beside a scan mode
#: other than ``"parallel"`` never took effect and is dropped on load.
V4_ROWS = (
    (BASE.with_overrides(theta=0.8), "scratch", "per_candidate", 3),
    (BASE.with_overrides(seed=1, theta=0.9, scan_workers=2),
     "incremental", "parallel", 2),
    (BASE.with_overrides(seed=1, theta=0.6), "incremental", "batched", 4),
)
V4_REQUESTS = tuple(request for request, *_knobs in V4_ROWS)


def v4_request(request, evaluation_mode, scan_mode, scan_workers):
    return dict(request.to_dict(), evaluation_mode=evaluation_mode,
                scan_mode=scan_mode, scan_workers=scan_workers)


def v4_response(response, row):
    payload = response.to_dict()
    payload["request"] = v4_request(*row)
    return payload


@pytest.fixture
def v4_store(tmp_path):
    """Interrupted and finished anonymize and grid jobs of fingerprint v4."""
    store = RunStore(str(tmp_path / "runs.db"))
    fresh = run_grid(GridRequest(requests=V4_REQUESTS)).responses
    rows = [v4_request(*row) for row in V4_ROWS]

    running = store.create_job("grid", "v4-running",
                               json.dumps({"requests": rows}), len(rows))
    store.set_status(running, "running")
    store.record_response(running, 0,
                          json.dumps(v4_response(fresh[0], V4_ROWS[0])))
    queued = store.create_job("anonymize", "v4-queued",
                              json.dumps(rows[2]), 1)

    done_anonymize = store.create_job("anonymize", "v4-anonymize",
                                      json.dumps(rows[0]), 1)
    anonymize_result = json.dumps(v4_response(fresh[0], V4_ROWS[0]))
    store.record_result(done_anonymize, anonymize_result)
    store.set_status(done_anonymize, "done")

    done_grid = store.create_job("grid", "v4-grid",
                                 json.dumps({"requests": rows[1:]}), 2)
    grid_result = wrap_result("grid", GridRequest(requests=V4_REQUESTS[1:]),
                              list(fresh[1:])).to_dict()
    grid_result["responses"] = [v4_response(response, row) for response, row
                                in zip(fresh[1:], V4_ROWS[1:])]
    grid_result = json.dumps(grid_result)
    store.record_result(done_grid, grid_result)
    store.set_status(done_grid, "done")
    yield store, (running, queued), {done_anonymize: anonymize_result,
                                     done_grid: grid_result}, fresh
    store.close()


def test_restart_finishes_v4_jobs_like_fresh_runs(v4_store):
    store, (running, queued), _done, fresh = v4_store
    manager = JobManager(store)
    assert manager.start() == [running, queued]
    try:
        job = manager.wait_for(running, timeout=120)
        assert job["status"] == "done", job["error"]
        result = GridResponse.from_json(store.get_result(running))
        assert [response.request for response in result.responses] == \
            list(V4_REQUESTS)
        for response, expected in zip(result.responses, fresh):
            for field in PARITY_FIELDS:
                assert getattr(response, field) == getattr(expected, field), \
                    field
        job = manager.wait_for(queued, timeout=120)
        assert job["status"] == "done", job["error"]
        response = AnonymizationResponse.from_json(store.get_result(queued))
        assert response.request == V4_REQUESTS[2]
        for field in PARITY_FIELDS:
            assert getattr(response, field) == getattr(fresh[2], field), field
    finally:
        manager.stop()


def test_done_v4_results_are_served_verbatim(v4_store):
    store, _interrupted, done, fresh = v4_store
    manager = JobManager(store)
    server = create_server("127.0.0.1", 0, manager, store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        for job_id, stored in done.items():
            assert client.result(job_id, parse=False)["result"] == \
                json.loads(stored)
        done_anonymize, done_grid = done
        assert client.result(done_anonymize) == fresh[0]
        parsed = client.result(done_grid)
        assert isinstance(parsed, GridResponse)
        assert parsed.responses == fresh[1:]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
