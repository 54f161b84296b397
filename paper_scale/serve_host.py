"""Traced stand-in for ``repro-lopacity serve``.

Hosts the same ``RunStore`` + ``JobManager`` + ``create_server`` trio the
``serve`` command builds, with the grid, store and HTTP layers traced (see
``tracing.install_service``).  It prints the same ``listening on`` line,
serves until SIGINT, then writes its spans to ``--spans`` and its per-layer
figures to ``--summary`` (JSON).

The figures cover the grid's submit-to-result window as the server sees it:
from the start of the first ``POST /jobs`` to the end of the first
``GET /jobs/{id}/result``.
"""

import argparse
import json
import sys

import tracing


def layer_figures(tracer: tracing.Tracer) -> dict:
    figures = tracing.engine_metrics(tracer)
    self_s = tracer.self_times()
    counts = tracer.counts()
    for route in ("submit", "poll", "result"):
        durations = [1000.0 * value
                     for value in tracer.durations(f"service.http_{route}")]
        figures[f"service.{route}_ms.p50"] = tracing.percentile(durations, 0.5)
        figures[f"service.{route}_ms.p90"] = tracing.percentile(durations, 0.9)
        figures[f"service.{route}_ms.n"] = len(durations)
    figures.update({
        "api.run_grid_s": self_s["api.run_grid"],
        "api.arena_publish_s": self_s["api.arena_publish"],
        "api.arenas": counts["api.arena_publish"],
        "service.queue_wait_s": sum(tracer.samples["service.queue_wait_s"]),
        "service.store_write_s": self_s["service.store_write"],
        "service.store_writes": counts["service.store_write"],
        "service.store_read_s": self_s["service.store_read"],
        "service.store_reads": counts["service.store_read"],
    })
    submits = [span for span in tracer.spans
               if span[tracing.NAME] == "service.http_submit"]
    results = [span for span in tracer.spans
               if span[tracing.NAME] == "service.http_result"]
    if submits and results:
        start = submits[0][tracing.START]
        end = results[0][tracing.END]
        figures["trace.window_s"] = end - start
        figures["trace.unattributed_frac"] = (
            1.0 - tracer.covered_seconds(start, end) / (end - start))
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", required=True)
    parser.add_argument("--max-workers", type=int, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    tracer.run_id = "serve"
    tracing.install_service(tracer)
    tracing.disable_in_forked_children(tracer)
    from repro.service import JobManager, RunStore, create_server

    store = RunStore(args.db)
    manager = JobManager(store, max_workers=args.max_workers)
    manager.start()
    server = create_server("127.0.0.1", 0, manager, store)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        manager.stop()
        store.close()
    tracer.enabled = False
    tracer.write_csv(args.spans)
    with open(args.summary, "w", encoding="utf-8") as handle:
        json.dump(layer_figures(tracer), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
