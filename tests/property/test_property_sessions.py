"""Property-based differential tests for the evaluation-session layer.

The incremental sessions promise *bit-identical* results to the stateless
from-scratch evaluator: same ``Fraction`` opacities, same ``types_at_max``,
same per-type counts, and — for whole anonymization runs — the same step
sequence under a fixed seed.  These tests drive random graphs through random
edit sequences across every distance engine and check exactly that.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    GadedMaxAnonymizer,
    GadedRandAnonymizer,
    GadesAnonymizer,
)
from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    OpacityComputer,
    OpacitySession,
)
from repro.core.opacity_session import RatioOrder
from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.graph import Graph
from tests.property.strategies import graphs, length_bounds, thetas
from reference_session import PerCandidateSession, ScratchSession, reference_run

engines = st.sampled_from(sorted(available_engines()))
fallback_fractions = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def edit_scripts(draw, max_edits: int = 8):
    """A graph plus a feasible sequence of alternating random edits.

    Each entry is ``("remove" | "insert", edge)``; feasibility (edges exist /
    are absent at that point) is guaranteed by replaying the script while it
    is generated.
    """
    graph = draw(graphs(max_vertices=10))
    working = graph.copy()
    script = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edits))):
        edges = working.edge_list()
        non_edges = sorted(working.non_edges())
        choices = []
        if edges:
            choices.append("remove")
        if non_edges:
            choices.append("insert")
        if not choices:
            break
        kind = draw(st.sampled_from(choices))
        pool = edges if kind == "remove" else non_edges
        edge = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        if kind == "remove":
            working.remove_edge(*edge)
        else:
            working.add_edge(*edge)
        script.append((kind, edge))
    return graph, script


class TestDistanceSessionProperties:
    @given(edit_scripts(), length_bounds, engines, fallback_fractions)
    @settings(max_examples=40, deadline=None)
    def test_applied_edits_track_scratch_matrices(self, script_case, length,
                                                  engine, fallback):
        graph, script = script_case
        session = DistanceSession(graph, length, engine=engine,
                                  fallback_row_fraction=fallback)
        for kind, edge in script:
            if kind == "remove":
                session.apply(removals=[edge])
            else:
                session.apply(insertions=[edge])
            expected = bounded_distance_matrix(graph, length, engine=engine)
            assert np.array_equal(session.distances, expected)

    @given(edit_scripts(max_edits=4), length_bounds, fallback_fractions)
    @settings(max_examples=40, deadline=None)
    def test_previews_match_scratch_and_leave_no_trace(self, script_case,
                                                       length, fallback):
        graph, script = script_case
        session = DistanceSession(graph, length, fallback_row_fraction=fallback)
        for kind, edge in script:
            before = graph.edge_set()
            matrix_before = session.distances.copy()
            delta = session.preview(
                removals=[edge] if kind == "remove" else (),
                insertions=[edge] if kind == "insert" else ())
            assert graph.edge_set() == before
            assert np.array_equal(session.distances, matrix_before)
            if delta.from_scratch:
                materialized = delta.new_rows
            else:
                materialized = session.distances.copy()
                if delta.rows.size:
                    materialized[delta.rows, :] = delta.new_rows
                    materialized[:, delta.rows] = delta.new_rows.T
            if kind == "remove":
                graph.remove_edge(*edge)
            else:
                graph.add_edge(*edge)
            assert np.array_equal(materialized, bounded_distance_matrix(graph, length))
            session.refresh()


class TestOpacitySessionProperties:
    @given(edit_scripts(), length_bounds, engines)
    @settings(max_examples=40, deadline=None)
    def test_session_state_matches_from_scratch_evaluation(self, script_case,
                                                           length, engine):
        graph, script = script_case
        typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, length, engine=engine)
        session = OpacitySession(computer, graph)
        for kind, edge in script:
            session.apply_edit(
                removals=[edge] if kind == "remove" else (),
                insertions=[edge] if kind == "insert" else ())
            expected = computer.evaluate(graph)
            observed = session.current()
            assert observed.max_fraction == expected.max_fraction
            assert observed.types_at_max == expected.types_at_max
            assert dict(observed.per_type) == dict(expected.per_type)

    @given(edit_scripts(max_edits=5), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_tentative_evaluations_match_scratch_mode(self, script_case, length):
        graph, script = script_case
        typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, length)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        for kind, edge in script:
            removals = [edge] if kind == "remove" else ()
            insertions = [edge] if kind == "insert" else ()
            assert incremental.evaluate_edit(removals, insertions) == \
                scratch.evaluate_edit(removals, insertions)
            incremental.apply_edit(removals, insertions)
            scratch.apply_edit(removals, insertions)


class TestEndToEndModeEquivalence:
    @given(graphs(max_vertices=9), length_bounds, thetas,
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_edge_removal_runs_identically(self, graph, length, theta, seed):
        self._assert_identical(
            EdgeRemovalAnonymizer,
            dict(length_threshold=length, theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), thetas, st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_edge_removal_insertion_runs_identically(self, graph, theta, seed):
        self._assert_identical(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=2, theta=theta, seed=seed), graph)

    # Look-ahead levels >= 2 stream their k-edge combinations through the
    # stacked removal slab in batched mode; a cap of 3 combinations per
    # level also exercises the sampled-combination path.
    @given(graphs(max_vertices=9, edge_probability=0.45),
           st.sampled_from([2, 3]), thetas,
           st.integers(min_value=0, max_value=3), st.sampled_from([3, 100_000]))
    @settings(max_examples=20, deadline=None)
    def test_edge_removal_lookahead_runs_identically(self, graph, lookahead,
                                                     theta, seed, cap):
        self._assert_identical(
            EdgeRemovalAnonymizer,
            dict(length_threshold=2, lookahead=lookahead, theta=theta,
                 seed=seed, max_combinations=cap), graph)

    @given(graphs(max_vertices=8, edge_probability=0.45),
           st.sampled_from([2, 3]), thetas,
           st.integers(min_value=0, max_value=3), st.sampled_from([3, 100_000]))
    @settings(max_examples=15, deadline=None)
    def test_edge_removal_insertion_lookahead_runs_identically(
            self, graph, lookahead, theta, seed, cap):
        self._assert_identical(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=2, lookahead=lookahead, theta=theta,
                 seed=seed, max_combinations=cap), graph)

    @given(graphs(max_vertices=8), thetas, st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_gaded_max_runs_identically(self, graph, theta, seed):
        self._assert_identical(GadedMaxAnonymizer,
                               dict(theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), thetas, st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_gaded_rand_runs_identically(self, graph, theta, seed):
        self._assert_identical(GadedRandAnonymizer,
                               dict(theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_gades_runs_identically(self, graph, seed):
        self._assert_identical(
            GadesAnonymizer,
            dict(theta=0.5, seed=seed, max_steps=3, swap_sample_size=50), graph)

    @staticmethod
    def _assert_identical(algorithm, params, graph):
        reference = reference_run(algorithm(**params), graph, ScratchSession)
        for factory in (OpacitySession, PerCandidateSession):
            observed = reference_run(algorithm(**params), graph, factory)
            assert [(step.operation, step.edges) for step in observed.steps] == \
                   [(step.operation, step.edges) for step in reference.steps]
            assert observed.final_opacity == reference.final_opacity
            assert observed.evaluations == reference.evaluations
            assert observed.distortion == reference.distortion
            assert observed.anonymized_graph == reference.anonymized_graph


@st.composite
def candidate_scans(draw, max_candidates: int = 12):
    """A graph plus a list of independent single-candidate edits.

    Each candidate is ``(removals, insertions)`` evaluated against the *same*
    graph state — exactly the scans the greedy algorithms batch.  The list is
    drawn homogeneous (all single-edge removals, all single-edge insertions)
    or mixed (multi-edge swaps included) to exercise both the stacked and
    the sequential-fallback batch paths.
    """
    graph = draw(graphs(max_vertices=10))
    edges = graph.edge_list()
    non_edges = sorted(graph.non_edges())
    shape = draw(st.sampled_from(["removals", "insertions", "mixed"]))
    count = draw(st.integers(min_value=0, max_value=max_candidates))
    candidates = []
    for _ in range(count):
        if shape == "removals" and edges:
            pool = draw(st.integers(min_value=0, max_value=len(edges) - 1))
            candidates.append(((edges[pool],), ()))
        elif shape == "insertions" and non_edges:
            pool = draw(st.integers(min_value=0, max_value=len(non_edges) - 1))
            candidates.append(((), (non_edges[pool],)))
        elif shape == "mixed" and len(edges) >= 2 and len(non_edges) >= 2:
            removal_pair = draw(st.permutations(range(len(edges))))[:2]
            insertion_pair = draw(st.permutations(range(len(non_edges))))[:2]
            candidates.append((tuple(edges[p] for p in removal_pair),
                               tuple(non_edges[p] for p in insertion_pair)))
    return graph, candidates


class TestEvaluateEditsProperties:
    @given(candidate_scans(), length_bounds, fallback_fractions)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_candidate_exactly(self, scan_case, length,
                                                 fallback):
        graph, candidates = scan_case
        computer = OpacityComputer(DegreePairTyping(graph), length)
        session = OpacitySession(computer, graph,
                                 fallback_row_fraction=fallback)
        expected = [session.evaluate_edit(removals, insertions)
                    for removals, insertions in candidates]
        observed = session.evaluate_edits(candidates)
        assert observed == expected

    @given(candidate_scans(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scratch_mode(self, scan_case, length):
        graph, candidates = scan_case
        computer = OpacityComputer(DegreePairTyping(graph), length)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        assert incremental.evaluate_edits(candidates) == \
            scratch.evaluate_edits(candidates)

    @given(candidate_scans(max_candidates=6), length_bounds, engines,
           fallback_fractions)
    @settings(max_examples=30, deadline=None)
    def test_preview_batch_matches_sequential_previews(self, scan_case, length,
                                                       engine, fallback):
        graph, candidates = scan_case
        single_removals = [removals[0] for removals, insertions in candidates
                           if len(removals) == 1 and not insertions]
        single_insertions = [insertions[0] for removals, insertions in candidates
                             if len(insertions) == 1 and not removals]
        sequential = DistanceSession(graph.copy(), length, engine=engine,
                                     fallback_row_fraction=fallback)
        expected = [sequential.preview(removals=[edge])
                    for edge in single_removals]
        expected += [sequential.preview(insertions=[edge])
                     for edge in single_insertions]
        batch = DistanceSession(graph, length, engine=engine,
                                fallback_row_fraction=fallback)
        observed = batch.preview_batch(removals=single_removals,
                                       insertions=single_insertions)
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert got.removals == want.removals
            assert got.insertions == want.insertions
            # Only sequential removal previews fall back; compare the
            # matrices both deltas imply there.
            assert not got.from_scratch
            if want.from_scratch:
                implied = batch.distances.copy()
                implied[got.rows, :] = got.new_rows
                implied[:, got.rows] = got.new_rows.T
                assert np.array_equal(implied, want.new_rows)
            else:
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)
                assert got.new_rows.dtype == want.new_rows.dtype


#: A count base beyond 2**40: ``m / (q m + s)`` and ``(m + 1) / (q (m + 1) + s)``
#: are float-equal yet exactly different for ``s > 0``.
_HUGE = 2 ** 45 + 7


@st.composite
def ratio_scans(draw, max_types: int = 16, max_candidates: int = 6):
    """Per-type ``(withins, totals)`` plus candidate change dicts.

    Shapes: small counts; counts beyond 2**40 whose ratios are float-equal
    but exactly different (or exactly ``1/q``, one big tie group); all
    ratios zero.  Each candidate changes a random subset of types, every
    type, or exactly the types of the top exact ratio, to new counts in
    ``[0, total]`` (a zero change included).
    """
    shape = draw(st.sampled_from(["small", "huge", "zeros"]))
    count = draw(st.integers(0, max_types))
    withins, totals = [], []
    for _ in range(count):
        if shape == "huge":
            base = _HUGE + draw(st.integers(0, 4))
            q, s = draw(st.integers(1, 3)), draw(st.integers(0, 2))
            withins.append(base)
            totals.append(q * base + s)
        else:
            total = draw(st.integers(1, 12))
            totals.append(total)
            withins.append(0 if shape == "zeros" else
                           draw(st.integers(0, total)))
    top = max((Fraction(w, t) for w, t in zip(withins, totals)), default=None)
    candidates = []
    for _ in range(draw(st.integers(0, max_candidates))):
        subset = draw(st.sampled_from(["some", "all", "top"]))
        if subset == "all":
            touched = list(range(count))
        elif subset == "top":
            touched = [index for index in range(count)
                       if Fraction(withins[index], totals[index]) == top]
        else:
            touched = draw(st.lists(st.integers(0, max(0, count - 1)),
                                    unique=True)) if count else []
        changes = {}
        for index in touched:
            within, total = withins[index], totals[index]
            target = draw(st.sampled_from(
                [0, total, within, max(0, within - 1), min(total, within + 1),
                 draw(st.integers(0, total))]))
            changes[index] = target - within
        candidates.append(changes)
    return withins, totals, candidates


def brute_force_summary(withins, totals, changes):
    """``Fraction`` max, its tie count and the left-to-right float total."""
    counts = list(withins)
    for index, change in changes.items():
        counts[index] += change
    ratios = [Fraction(within, total) for within, total in zip(counts, totals)]
    best = max(ratios, default=Fraction(0))
    total_opacity = 0.0
    for within, total in zip(counts, totals):
        total_opacity += within / total
    return best, sum(1 for ratio in ratios if ratio == best), total_opacity


class TestRatioOrderProperties:
    """The sparse exact summarize against a ``Fraction`` brute force."""

    @given(ratio_scans())
    @example(([_HUGE, _HUGE + 1, _HUGE],
              [3 * _HUGE + 1, 3 * _HUGE + 4, 3 * _HUGE + 1], [{}, {1: -1}]))
    @example(([1, 1, 0], [2, 2, 2], [{0: -1}, {0: -1, 1: -1}, {2: 2}]))
    @settings(max_examples=200, deadline=None)
    def test_summaries_match_fraction_brute_force(self, case):
        withins, totals, candidates = case
        order = RatioOrder(np.asarray(withins, dtype=np.int64),
                           np.asarray(totals, dtype=np.int64))
        evaluations = order.summarize(candidates)
        assert len(evaluations) == len(candidates)
        for changes, evaluation in zip(candidates, evaluations):
            best, ties, total = brute_force_summary(withins, totals, changes)
            assert evaluation.fraction == best
            assert evaluation.types_at_max == ties
            assert evaluation.total_opacity == total
