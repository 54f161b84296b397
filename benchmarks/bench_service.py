"""Service-layer overhead: direct grid vs HTTP round-trip vs dedup replay.

Three timings of the same tiny θ-grid quantify what the
anonymization-as-a-service layer (DESIGN.md §10) costs and saves:

* ``direct`` — ``run_grid`` in-process, the floor every other number is
  compared against.
* ``service`` — submit over HTTP to a live server (store writes, job
  queue, checkpoint persistence, result fetch included).
* ``dedup`` — resubmit the identical grid: answered from the store by
  fingerprint with zero new candidate evaluations, so this should cost
  milliseconds regardless of the workload.
"""

import threading

import pytest

from benchmarks.conftest import run_once, smoke
from repro.api import AnonymizationRequest, GridRequest, run_grid
from repro.service.client import ServiceClient
from repro.service.http import create_server
from repro.service.jobs import JobManager
from repro.service.store import RunStore

DATASET = "enron"
SAMPLE_SIZE = smoke(120, 40)
THETAS = smoke((0.9, 0.7, 0.5, 0.3), (0.9, 0.6))
LENGTH = smoke(2, 1)

BASE = AnonymizationRequest(dataset=DATASET, sample_size=SAMPLE_SIZE, seed=0,
                            length_threshold=LENGTH)


@pytest.fixture(scope="module")
def grid():
    return GridRequest.from_axes(BASE, thetas=THETAS)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = RunStore(str(tmp_path_factory.mktemp("service") / "runs.db"))
    manager = JobManager(store)
    manager.start()
    server = create_server("127.0.0.1", 0, manager, store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield ServiceClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    manager.stop()
    store.close()


def bench_grid_direct(benchmark, grid):
    benchmark.group = f"{DATASET} |V|={SAMPLE_SIZE}, L={LENGTH}, {len(THETAS)} thetas"
    response = run_once(benchmark, run_grid, grid, max_workers=1)
    assert all(item.ok for item in response.responses)
    print(f"\n  direct: {len(response.responses)} responses")


def bench_grid_via_service(benchmark, grid, service):
    benchmark.group = f"{DATASET} |V|={SAMPLE_SIZE}, L={LENGTH}, {len(THETAS)} thetas"

    def round_trip():
        submitted = service.submit(grid)
        status = service.wait(submitted["job_id"], timeout=600,
                              poll_seconds=0.01)
        assert status["status"] == "done"
        return service.result(submitted["job_id"]), submitted

    response, submitted = run_once(benchmark, round_trip)
    assert all(item.ok for item in response.responses)
    assert submitted["deduped"] is False
    print(f"\n  service: job {submitted['job_id']} done, "
          f"{len(response.responses)} responses")


def bench_grid_dedup_replay(benchmark, grid, service):
    """Must run after ``bench_grid_via_service`` (same module, same store)."""
    benchmark.group = f"{DATASET} |V|={SAMPLE_SIZE}, L={LENGTH}, {len(THETAS)} thetas"
    first = service.submit(grid)  # warm: either deduped already or computes
    service.wait(first["job_id"], timeout=600)

    def replay():
        submitted = service.submit(grid)
        assert submitted["deduped"] is True
        return service.result(submitted["job_id"])

    response = run_once(benchmark, replay)
    assert all(item.ok for item in response.responses)
    print(f"\n  dedup: served from store, {len(response.responses)} responses")
