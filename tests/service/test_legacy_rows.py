"""Stores written before θ sweeps became one-axis grids still load.

The rows below are hand-written in the older shape: job kind ``"sweep"``,
a ``sweep_mode`` key on the sweep record and on every request (including
the requests echoed inside stored responses and results).  A restarted
:class:`JobManager` must finish the interrupted job exactly like a fresh
grid run, and the finished job's stored result must be served verbatim.
"""

import json
import threading

import pytest

from repro.api import (
    AnonymizationRequest,
    CheckpointBuffer,
    GridRequest,
    GridResponse,
    checkpoint_to_json,
    execute_sample_group,
    run_grid,
)
from repro.service.client import ServiceClient
from repro.service.http import create_server
from repro.service.jobs import JobManager
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
