"""Paper-scale benchmark of the L-opacity engine and service.

Run from the root of a checkout::

    python3 paper_scale/run.py --workload remins-n500 --seed 1 \\
        --seconds 40 --trace 0

Workloads (see README.md for why each was chosen and which layer metric
should move which end-to-end metric):

* ``remins-n500`` — ``rem-ins`` on a wikipedia n=500 sample, L=2, one step;
* ``rem-la2-n100`` — ``rem`` with look-ahead 2 on an enron n=100 sample,
  L=2, one step;
* ``fig-grid-serve`` — a 75-point Fig-6-style grid through ``serve
  --max-workers 2`` over HTTP, then 100 deduplicated replays.

The seed fixes the samples (and the anonymizers' tie-break seed).  Every
response is checked (``checks.py``).  The last line of stdout is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer figures of a traced run.  The lines before it
repeat every figure by name and unit, with the counts each workload
exercised and a digest of its results for comparing two commits.

The program is taken from ``src/`` of the current directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each engine workload anonymizes one fixed Table-3-sized sample; the
# workload seed is the anonymizer's seed (tie-breaks, insertion sampling).
# The work per run is then the same across seeds and the spread between runs
# is the host's: across five enron n=100 samples the look-ahead scan took
# 10 to 25 s, because on some samples level 1 already improves and level 2
# never runs.
ENGINE_WORKLOADS = {
    # The insertion cap is a request field; it bounds the run length while
    # each candidate still costs what it costs at n=500.
    "remins-n500": dict(algorithm="rem-ins", dataset="wikipedia",
                        sample_size=500, sample_seed=0, length_threshold=2,
                        lookahead=1, theta=0.1, max_steps=1,
                        insertion_candidate_cap=4096),
    # Level 1 does not improve on this sample, so level 2 scans all 26,565
    # pairs of its 231 candidates, one DistanceSession.preview each; it is
    # the cheapest of the sample seeds 0-11 that reaches level 2.
    "rem-la2-n100": dict(algorithm="rem", dataset="enron", sample_size=100,
                         sample_seed=9, length_threshold=2, lookahead=2,
                         theta=0.5, max_steps=1),
}
WORKLOADS = tuple(ENGINE_WORKLOADS) + ("fig-grid-serve",)

#: Every per-layer figure a traced run prints: (name, unit, better).  A
#: figure a workload does not exercise reads 0.
PER_LAYER = (
    ("datasets.load_s", "s", "lower"),
    ("datasets.loads", "count", "lower"),
    ("distance.init_s", "s", "lower"),
    ("distance.computes", "count", "lower"),
    ("delta.insertion_batch_s", "s", "lower"),
    ("delta.insertion_candidates", "count", "lower"),
    ("delta.removal_batch_s", "s", "lower"),
    ("delta.removal_candidates", "count", "lower"),
    ("delta.preview_s", "s", "lower"),
    ("delta.previews", "count", "lower"),
    ("delta.apply_s", "s", "lower"),
    ("delta.applies", "count", "lower"),
    ("delta.affected_rows", "count", "lower"),
    ("delta.observed_candidates", "count", "lower"),
    ("delta.affected_rows_per_candidate", "rows/candidate", "lower"),
    ("session.batch_count_s", "s", "lower"),
    ("session.combo_count_s", "s", "lower"),
    ("session.apply_s", "s", "lower"),
    ("session.evaluations", "count", "lower"),
    ("core.steps", "count", "lower"),
    ("core.evals_per_s", "1/s", "higher"),
    ("core.candidates_s", "s", "lower"),
    ("core.tiebreak_s", "s", "lower"),
    ("core.tiebreak_offers", "count", "lower"),
    ("lookahead.search_self_s", "s", "lower"),
    ("lookahead.combos", "count", "lower"),
    ("scan_pool.scans", "count", "lower"),
    ("store.dense_resolutions", "count", "higher"),
    ("store.tiled_resolutions", "count", "lower"),
    ("api.run_grid_s", "s", "lower"),
    ("api.arena_publish_s", "s", "lower"),
    ("api.arenas", "count", "lower"),
    ("api.sample_loads", "count", "lower"),
    ("api.distance_computes", "count", "lower"),
    ("api.groups", "count", "lower"),
    ("service.submit_ms.p50", "ms", "lower"),
    ("service.submit_ms.p90", "ms", "lower"),
    ("service.submit_ms.n", "count", "higher"),
    ("service.poll_ms.p50", "ms", "lower"),
    ("service.poll_ms.p90", "ms", "lower"),
    ("service.poll_ms.n", "count", "lower"),
    ("service.result_ms.p50", "ms", "lower"),
    ("service.result_ms.p90", "ms", "lower"),
    ("service.result_ms.n", "count", "higher"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.store_write_s", "s", "lower"),
    ("service.store_writes", "count", "lower"),
    ("service.store_read_s", "s", "lower"),
    ("service.store_reads", "count", "lower"),
    ("service.replay_p50_ms", "ms", "lower"),
    ("service.replay_p90_ms", "ms", "lower"),
    ("service.replays", "count", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.window_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class Context:
    """Where a run reads the program from and writes its output files."""

    def __init__(self, root: str, workload: str) -> None:
        self.root = root
        self.workload = workload
        self.out_dir = os.path.join(root, ".paper_scale")
        tmp = os.path.join(self.out_dir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.stderr_path = os.path.join(self.out_dir, f"stderr-{workload}.log")
        self.stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        TMPDIR=tmp)

    def close(self) -> None:
        self.stderr.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no package at {src}/repro; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    ctx = Context(root, args.workload)
    try:
        if args.workload == "fig-grid-serve":
            import service

            outcome = service.run(ctx, args.seed, bool(args.trace))
        else:
            import engine

            outcome = engine.run(ctx, ENGINE_WORKLOADS[args.workload],
                                 args.seed, args.seconds, bool(args.trace))
    finally:
        ctx.close()

    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"digest={outcome['digest']}")
    for note in outcome["notes"]:
        print(f"  FAILED {note}")
    print(f"  error_rate = {failed / attempted} ({failed}/{attempted})")
    for name, value in outcome["counts"].items():
        print(f"  count {name} = {value}")
    if args.trace:
        layers = outcome["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome["metrics"].items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
