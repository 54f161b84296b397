"""The engine subject: one fresh process per repetition of an engine workload.

Protocol on stdin/stdout, one JSON object per line:

1. the process imports the package and prints ``{"ready": true}`` — the
   parent times spawn-to-ready as ``setup_s``;
2. it reads ``{"request": {...}, "trace": bool, "spans": path}``, runs
   :func:`repro.api.facade.anonymize` once, and prints
   ``{"wall_s", "maxrss_kb", "response", "layers"}``.

Closing stdin after step 1 makes the process exit (the set-up probes).
With ``"trace": true`` the engine layers are patched first (see
``tracing.py``) and the spans are written to ``spans``.
"""

import json
import resource
import sys
import time


def main() -> int:
    from repro.api.facade import anonymize
    from repro.api.requests import AnonymizationRequest

    print(json.dumps({"ready": True}), flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    request = AnonymizationRequest.from_dict(job["request"])
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.run_id = job["run_id"]
        tracing.install_engine(tracer)
        root = tracer.begin("api.anonymize")
    started = time.perf_counter()
    response = anonymize(request)
    wall = time.perf_counter() - started
    layers = None
    if tracer is not None:
        window = tracer.end(root)
        layers = tracing.engine_metrics(tracer)
        layers["trace.window_s"] = window
        layers["trace.unattributed_frac"] = (
            tracer.self_times()["api.anonymize"] / window)
        tracer.write_csv(job["spans"])
    print(json.dumps({
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "response": response.to_dict(),
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
