"""Ablation: delta-evaluated candidate scans vs from-scratch recounts.

The greedy heuristics spend nearly all of their runtime evaluating tentative
edge edits (the runtime wall of Figures 9-11).  Two layers of the shipped
``OpacitySession`` govern that cost, and the test-side references
(``tests/reference_session.py``) take each one away:

* incremental evaluation — the session updates only the distance cells an
  edit can touch, while ``ScratchSession`` recomputes the bounded matrix
  and the Algorithm 1 recount per candidate;
* batched scans — the session evaluates all single-edge candidates of a
  greedy step in one stacked numpy pass (shared sparse-cell removal repair,
  grouped bincount), while ``PerCandidateSession`` previews them one at a
  time.

This bench measures candidate evaluations per second on the same workload
for the shipped session and both references, and verifies every
configuration chooses bit-identical edits.

``max_steps`` caps the greedy loop so the measurement stays smoke-sized:
all configurations walk the exact same steps, so evaluations/sec is an
apples-to-apples throughput comparison.
"""

import time

import pytest

from benchmarks.conftest import smoke
from repro.core import EdgeRemovalAnonymizer, OpacitySession
from repro.datasets import load_sample
from tests.reference_session import (
    PerCandidateSession,
    ScratchSession,
    reference_run,
)

DATASET = "google"
SAMPLE_SIZES = smoke((40, 80), (40, 80))
LENGTH = 2
THETA = 0.3
MAX_STEPS = 4

#: (evaluation, scan) points of the ablation grid and their session
#: factories; the first entry is the shipped session, the last the
#: from-scratch reference.
CONFIGURATIONS = {
    ("incremental", "batched"): OpacitySession,
    ("incremental", "per_candidate"): PerCandidateSession,
    ("scratch", "per_candidate"): ScratchSession,
}

#: At the largest sample, incremental/per-candidate must beat scratch and
#: batched must beat per-candidate, each by at least this much; the measured
#: margins are ~3-6x and ~2-3x locally, so 2x absorbs scheduler noise.
#: Under the CI smoke knob only the bit-identity assertions run — a shared
#: runner must not fail the build on a timing measurement.
MIN_SPEEDUP_LARGEST = smoke(2.0, None)


def _run(graph, key):
    anonymizer = EdgeRemovalAnonymizer(
        length_threshold=LENGTH, theta=THETA, seed=0, max_steps=MAX_STEPS)
    started = time.perf_counter()
    result = reference_run(anonymizer, graph, CONFIGURATIONS[key])
    elapsed = time.perf_counter() - started
    return result, result.evaluations / max(elapsed, 1e-9)


@pytest.mark.parametrize("size", SAMPLE_SIZES)
def bench_incremental_vs_scratch(benchmark, size):
    benchmark.group = f"candidate evaluations/sec, {DATASET} L={LENGTH}"
    graph = load_sample(DATASET, size, seed=0)
    results, rates = {}, {}
    shipped, *references = CONFIGURATIONS
    for key in references:
        results[key], rates[key] = _run(graph, key)
    results[shipped], rates[shipped] = \
        benchmark.pedantic(_run, args=(graph, shipped), rounds=1, iterations=1)
    print(f"\n  |V|={size}:")
    for key in CONFIGURATIONS:
        print(f"    {key[0]:>11s}/{key[1]:<13s} {rates[key]:>10,.0f} evals/s")

    # Every configuration must walk the identical greedy trajectory ...
    reference = results["scratch", "per_candidate"]
    for key in (shipped, references[0]):
        observed = results[key]
        assert [(step.operation, step.edges, step.max_opacity_after)
                for step in observed.steps] == \
               [(step.operation, step.edges, step.max_opacity_after)
                for step in reference.steps]
        assert observed.final_opacity == reference.final_opacity
        assert observed.evaluations == reference.evaluations
    # ... and each optimization layer must pay off where the matrices are
    # big enough for fixed per-step overheads not to dominate.
    if MIN_SPEEDUP_LARGEST is not None and size == max(SAMPLE_SIZES):
        incremental_over_scratch = (rates["incremental", "per_candidate"]
                                    / rates["scratch", "per_candidate"])
        batched_over_per_candidate = (rates["incremental", "batched"]
                                      / rates["incremental", "per_candidate"])
        assert incremental_over_scratch >= MIN_SPEEDUP_LARGEST
        assert batched_over_per_candidate >= MIN_SPEEDUP_LARGEST
