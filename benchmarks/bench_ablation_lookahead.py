"""Ablation: cost and benefit of the look-ahead parameter.

Look-ahead widens the greedy search space; the paper reports that it lets
Removal/Insertion find solutions (or better solutions) at the price of a
significantly higher runtime, while Removal's runtime is affected only
mildly.  This bench quantifies both effects on one workload.

The L = 1 cases take the session's L = 1 tally path, which needs no
distance deltas; the L = 2 case runs look-ahead level 2 through the
sparse-cell k-edge removal repair and pins it to a per-candidate
``evaluate_edit`` loop (``PerCandidateSession`` of
``tests/reference_session.py``).
"""

import pytest

from benchmarks.conftest import run_once, smoke
from repro.core import EdgeRemovalAnonymizer, EdgeRemovalInsertionAnonymizer
from repro.datasets import load_sample
from tests.reference_session import PerCandidateSession, reference_run

DATASET = "wikipedia"
SAMPLE_SIZE = smoke(40, 25)
THETA = 0.5
#: A sparse sample on which level 1 stops improving within three steps at
#: L = 2, so level 2 scans its edge pairs.
SLAB_DATASET = "acm"


@pytest.fixture(scope="module")
def workload():
    return load_sample(DATASET, SAMPLE_SIZE, seed=0)


@pytest.mark.parametrize("lookahead", [1, 2])
def bench_lookahead_removal(benchmark, workload, lookahead):
    benchmark.group = f"Edge Removal, {DATASET} |V|={SAMPLE_SIZE}, theta={THETA}"
    anonymizer = EdgeRemovalAnonymizer(length_threshold=1, theta=THETA, seed=0,
                                       lookahead=lookahead)
    result = run_once(benchmark, anonymizer.anonymize, workload)
    print(f"\n  removal la={lookahead}: {result.summary()}")
    assert result.success


@pytest.mark.parametrize("lookahead", [1, 2])
def bench_lookahead_removal_insertion(benchmark, workload, lookahead):
    benchmark.group = f"Edge Removal/Insertion, {DATASET} |V|={SAMPLE_SIZE}, theta={THETA}"
    anonymizer = EdgeRemovalInsertionAnonymizer(length_threshold=1, theta=THETA, seed=0,
                                                lookahead=lookahead,
                                                insertion_candidate_cap=100)
    result = run_once(benchmark, anonymizer.anonymize, workload)
    print(f"\n  removal/insertion la={lookahead}: {result.summary()}")
    assert 0.0 <= result.final_opacity <= 1.0


def bench_lookahead_removal_stacked_slab(benchmark):
    graph = load_sample(SLAB_DATASET, SAMPLE_SIZE, seed=0)
    benchmark.group = (f"Edge Removal L=2 la=2, {SLAB_DATASET} "
                       f"|V|={SAMPLE_SIZE}, theta={THETA}")

    def anonymizer():
        return EdgeRemovalAnonymizer(length_threshold=2, theta=THETA, seed=0,
                                     lookahead=2, max_steps=3)

    batched = run_once(benchmark, anonymizer().anonymize, graph)
    reference = reference_run(anonymizer(), graph, PerCandidateSession)
    print(f"\n  removal L=2 la=2 batched: {batched.summary()}")
    # Level 1 evaluates at most |E| candidates per step; more evaluations
    # than three such scans prove a level-2 pair scan ran.
    assert batched.evaluations > 3 * (graph.num_edges + 1)
    assert [step.edges for step in batched.steps] == \
        [step.edges for step in reference.steps]
    assert batched.evaluations == reference.evaluations
    assert batched.final_opacity == reference.final_opacity
