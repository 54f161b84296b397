"""Unit tests for the stateful opacity session.

Differential suites compare it with the test-side references of
:mod:`reference_session`: the copy-evaluate-restore :class:`ScratchSession`
and the one-candidate-at-a-time :class:`PerCandidateSession`.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.api.progress import NullObserver
from repro.baselines import (
    GadedMaxAnonymizer,
    GadedRandAnonymizer,
    GadesAnonymizer,
)
from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    ExplicitPairTyping,
    OpacityComputer,
    OpacitySession,
)
from repro.core.opacity_session import _BatchTotals
from repro.graph import Graph, erdos_renyi_graph
from repro.graph.distance_delta import (
    DistanceSession,
    _CSROverlayAdjacency,
    _DenseAdjacency,
)
from repro.graph.distance_store import StoreConfig
from reference_session import PerCandidateSession, ScratchSession, reference_run

#: The two session factories of the evaluation-strategy differentials.
SESSIONS = {"incremental": OpacitySession, "scratch": ScratchSession}

#: The batched scans of the shipped session and the per-candidate reference.
SCANS = {"batched": OpacitySession, "per_candidate": PerCandidateSession}

ALL_ALGORITHMS = [
    (EdgeRemovalAnonymizer, dict(length_threshold=2, theta=0.4, seed=0)),
    (EdgeRemovalInsertionAnonymizer,
     dict(length_threshold=2, theta=0.5, seed=1, insertion_candidate_cap=40)),
    (GadedRandAnonymizer, dict(theta=0.4, seed=0)),
    (GadedMaxAnonymizer, dict(theta=0.4, seed=0)),
    (GadesAnonymizer, dict(theta=0.55, seed=0, max_steps=4, swap_sample_size=200)),
]


def assert_results_identical(first, second):
    assert [(step.operation, step.edges, step.max_opacity_after)
            for step in first.steps] == \
           [(step.operation, step.edges, step.max_opacity_after)
            for step in second.steps]
    assert first.final_opacity == second.final_opacity
    assert first.evaluations == second.evaluations
    assert first.success == second.success
    assert first.stop_reason == second.stop_reason
    assert first.anonymized_graph == second.anonymized_graph
    assert first.distortion == second.distortion


class TestSessionBasics:
    def test_rejects_the_retired_mode_keyword(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        with pytest.raises(TypeError):
            OpacitySession(computer, paper_example_graph, mode="scratch")

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_current_matches_stateless_evaluator(self, paper_example_graph, mode):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = SESSIONS[mode](computer, paper_example_graph)
        expected = computer.evaluate(paper_example_graph)
        observed = session.current()
        assert observed.max_fraction == expected.max_fraction
        assert observed.types_at_max == expected.types_at_max
        assert dict(observed.per_type) == dict(expected.per_type)

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_evaluate_edit_leaves_no_trace(self, paper_example_graph, mode):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = SESSIONS[mode](computer, paper_example_graph)
        before = paper_example_graph.edge_set()
        session.evaluate_edit(removals=[(0, 1)])
        session.evaluate_edit(insertions=[(0, 6)])
        assert paper_example_graph.edge_set() == before

    def test_evaluate_edit_matches_scratch_reference(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, 2)
        incremental = OpacitySession(computer, paper_example_graph.copy())
        scratch = ScratchSession(computer, paper_example_graph.copy())
        for edge in list(paper_example_graph.edges()):
            left = incremental.evaluate_edit(removals=[edge])
            right = scratch.evaluate_edit(removals=[edge])
            assert left == right
        for edge in list(paper_example_graph.non_edges()):
            left = incremental.evaluate_edit(insertions=[edge])
            right = scratch.evaluate_edit(insertions=[edge])
            assert left == right

    def test_apply_edit_keeps_state_in_sync(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, 2)
        session = OpacitySession(computer, paper_example_graph)
        session.apply_edit(removals=[(0, 1)])
        session.apply_edit(insertions=[(0, 6)])
        expected = computer.evaluate(paper_example_graph)
        observed = session.current()
        assert observed.max_fraction == expected.max_fraction
        assert dict(observed.per_type) == dict(expected.per_type)

    def test_explicit_typing_deltas(self):
        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        typing = ExplicitPairTyping({(0, 2): "near", (0, 4): "far", (1, 3): "near"})
        computer = OpacityComputer(typing, 2)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        assert incremental.evaluate_edit(removals=[(1, 2)]) == \
            scratch.evaluate_edit(removals=[(1, 2)])
        assert incremental.evaluate_edit(insertions=[(0, 4)]) == \
            scratch.evaluate_edit(insertions=[(0, 4)])
        incremental.apply_edit(removals=[(1, 2)])
        expected = computer.evaluate(incremental.graph)
        assert incremental.current().max_fraction == expected.max_fraction


class TestModeEquivalence:
    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_end_to_end_runs_are_bit_identical(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        incremental = algorithm(**params).anonymize(graph)
        scratch = reference_run(algorithm(**params), graph)
        assert_results_identical(incremental, scratch)


class _StopAfterEvaluations(NullObserver):
    """Stop the run once ``limit`` tentative evaluations have been observed."""

    def __init__(self, limit):
        self.limit = limit
        self.seen = 0

    def on_evaluation(self, evaluations):
        self.seen = evaluations

    def should_stop(self):
        return self.seen >= self.limit


class TestObserverParity:
    """Cancellation latency is unchanged by the session refactor: observers
    are still polled after *every* tentative evaluation inside a scan, so an
    eval-count stop fires at the same point in both modes (satellite #6)."""

    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    @pytest.mark.parametrize("limit", [3, 17])
    def test_stop_mid_scan_is_mode_independent(self, algorithm, params, limit):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        outcomes = {}
        for mode in ("incremental", "scratch"):
            observer = _StopAfterEvaluations(limit)
            result = reference_run(algorithm(**params), graph, SESSIONS[mode],
                                   observer=observer)
            outcomes[mode] = (result.evaluations, result.stop_reason,
                              [step.edges for step in result.steps],
                              result.anonymized_graph.edge_set())
        assert outcomes["incremental"] == outcomes["scratch"]
        # The stop happened promptly: no more than one full step beyond the
        # evaluation budget was recorded.
        assert outcomes["incremental"][1] in ("observer", None)

    def test_stop_interrupts_within_a_single_scan(self):
        graph = erdos_renyi_graph(25, 0.3, seed=2)
        limit = 5
        for mode in ("incremental", "scratch"):
            observer = _StopAfterEvaluations(limit)
            result = reference_run(
                EdgeRemovalAnonymizer(length_threshold=2, theta=0.0, seed=0),
                graph, SESSIONS[mode], observer=observer)
            assert result.stop_reason == "observer"
            # The scan for a single step spans |E| evaluations, so stopping
            # at 5 proves per-evaluation polling survived the refactor.
            assert result.evaluations <= limit + 2

    @pytest.mark.parametrize("algorithm", [EdgeRemovalAnonymizer,
                                           EdgeRemovalInsertionAnonymizer])
    def test_stop_inside_a_lookahead_level_is_scan_mode_independent(
            self, algorithm):
        # Level 1 of this graph's first step (at most |E| = 32 single
        # removals) does not improve, so the step escalates to its ~500
        # pairs; a stop at 300 evaluations lands inside level 2, in the
        # middle of a batched chunk whose outcomes were computed in one
        # stacked pass but not yet reported.
        graph = erdos_renyi_graph(16, 0.3, seed=1)
        edges_before = graph.edge_set()
        limit = 300
        assert graph.num_edges < limit
        outcomes = {}
        for scan_mode, factory in (("batched", OpacitySession),
                                   ("per_candidate", PerCandidateSession)):
            observer = _StopAfterEvaluations(limit)
            result = reference_run(
                algorithm(length_threshold=2, theta=0.0, lookahead=2, seed=0,
                          insertion_candidate_cap=10),
                graph, factory, observer=observer)
            assert result.stop_reason == "observer"
            # The stop lands on the limit-th evaluation; the greedy loop then
            # re-evaluates the (restored) graph once.
            assert result.evaluations == limit + 1
            assert result.steps == []
            assert result.anonymized_graph.edge_set() == edges_before
            assert graph.edge_set() == edges_before
            outcomes[scan_mode] = result.evaluations
        assert outcomes["batched"] == outcomes["per_candidate"]


class TestEvaluateEdits:
    """The batched scan API must reproduce per-candidate evaluation exactly."""

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_single_edge_batches_match_per_candidate(self, paper_example_graph, mode):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = SESSIONS[mode](computer, paper_example_graph)
        removals = [((edge,), ()) for edge in paper_example_graph.edges()]
        insertions = [((), (edge,)) for edge in paper_example_graph.non_edges()]
        for candidates in (removals, insertions):
            expected = [session.evaluate_edit(r, i) for r, i in candidates]
            assert session.evaluate_edits(candidates) == expected

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_multi_edge_candidates_match_per_candidate(self, mode):
        graph = erdos_renyi_graph(14, 0.3, seed=5)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = SESSIONS[mode](computer, graph)
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        candidates = [((edges[0], edges[1]), (absent[0], absent[1])),
                      ((edges[2],), (absent[2],)),
                      ((), (absent[3], absent[4]))]
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert session.evaluate_edits(candidates) == expected

    def test_batch_leaves_no_trace(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph)
        before = paper_example_graph.edge_set()
        current = session.current()
        session.evaluate_edits([((edge,), ()) for edge in before])
        assert paper_example_graph.edge_set() == before
        assert session.current().max_fraction == current.max_fraction

    def test_empty_candidate_list(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph)
        assert session.evaluate_edits([]) == []

    def test_explicit_typing_batches_match_per_candidate(self):
        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        typing = ExplicitPairTyping({(0, 2): "near", (0, 4): "far", (1, 3): "near"})
        computer = OpacityComputer(typing, 2)
        session = OpacitySession(computer, graph)
        candidates = [((edge,), ()) for edge in graph.edges()]
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert session.evaluate_edits(candidates) == expected

    def test_batches_interleaved_with_applied_edits(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph)
        for _ in range(3):
            candidates = [((edge,), ()) for edge in session.graph.edges()]
            evaluations = session.evaluate_edits(candidates)
            expected = [session.evaluate_edit(r, i) for r, i in candidates]
            assert evaluations == expected
            best = min(range(len(evaluations)),
                       key=lambda pos: evaluations[pos].fraction)
            session.apply_edit(*candidates[best])


class TestNoRemovalSlab:
    """Batched scans work on cells; no full-width row is recomputed.

    The adjacency mirror's frontier product serves only the removal
    repair's neighbour counts ``K``: once per level and committed state on
    the dense tier, at most once per (chunk, level) on the tiled tier, and
    never for insertions.
    """

    @pytest.mark.parametrize("length", [2, 3])
    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    def test_batched_scans_match_per_candidate_without_the_slab(
            self, monkeypatch, length, tier):
        graph = erdos_renyi_graph(18, 0.3, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), length)
        session = OpacitySession(computer, graph, store_config=StoreConfig(
            tier=tier, budget_bytes=1 << 12, tile_rows=4))
        edges = list(graph.edges())
        scans = [  # rem-ins: removals, then insertions; look-ahead level 2
            [((edge,), ()) for edge in edges],
            [((), (edge,)) for edge in list(graph.non_edges())[:40]],
            [(pair, ()) for pair in list(combinations(edges, 2))[:300]],
        ]
        expected = [[session.evaluate_edit(removals, insertions)
                     for removals, insertions in scan] for scan in scans]

        def forbidden(*args, **kwargs):
            raise AssertionError("a batched scan ran the full-width slab")

        expansions = []
        mirror = _CSROverlayAdjacency if tier == "tiled" else _DenseAdjacency
        original_expand = mirror.expand

        def counted(self, frontier):
            expansions.append(frontier.shape[0])
            return original_expand(self, frontier)

        monkeypatch.setattr(DistanceSession, "_rows_block_chunk", forbidden)
        monkeypatch.setattr(mirror, "expand", counted)
        distance = session._distance
        calls = []
        for scan, want in zip(scans, expected):
            before = len(expansions)
            assert session.evaluate_edits(scan) == want
            calls.append(len(expansions) - before)
        removals, insertions, combos = calls
        assert insertions == 0
        if tier == "dense":
            # One n-row product per level, memoized across both scans.
            assert (removals, combos) == (length - 1, 0)
            assert expansions == [graph.num_vertices] * (length - 1)
        else:
            for scan, used in ((scans[0], removals), (scans[2], combos)):
                chunk = distance._batch_chunk_size(len(scan[0][0]))
                chunks = -(-len(scan) // chunk)
                assert used <= chunks * (length - 1)
        session.close()


class TestPurePreviews:
    """Batched scans only read the graph: no edge is added or removed.

    ``Graph.add_edge``/``remove_edge`` raise while the scans run; the
    expected outcomes come from :meth:`OpacitySession.evaluate_edit`
    beforehand (a sequential preview applies and reverts its edit).
    """

    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    def test_batched_scans_never_mutate_the_graph(self, monkeypatch, length,
                                                  tier):
        graph = erdos_renyi_graph(16, 0.3, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), length)
        session = OpacitySession(computer, graph, store_config=StoreConfig(
            tier=tier, budget_bytes=1 << 12, tile_rows=4))
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        scans = [  # rem-ins removals and insertions, a look-ahead level 2
            [((edge,), ()) for edge in edges],
            [((), (edge,)) for edge in absent[:40]],
            [(pair, ()) for pair in list(combinations(edges, 2))[:200]],
        ]
        if length == 1:  # the L = 1 tally takes GADES swaps too
            scans.append([((edges[0], edges[1]), (absent[0], absent[1])),
                          ((edges[2],), (absent[2],))])
        expected = [[session.evaluate_edit(removals, insertions)
                     for removals, insertions in scan] for scan in scans]

        def forbidden(self, u, v):
            raise AssertionError(f"a batched scan mutated edge ({u}, {v})")

        before = graph.edge_set()
        monkeypatch.setattr(Graph, "add_edge", forbidden)
        monkeypatch.setattr(Graph, "remove_edge", forbidden)
        for scan, want in zip(scans, expected):
            assert session.evaluate_edits(scan) == want
        assert graph.edge_set() == before
        session.close()


class TestLazyTotals:
    """``total_opacity`` is computed per batch, and only when it is read."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """Every batch whose totals get computed, in order."""
        batches = []
        original = _BatchTotals._compute

        def recording(self):
            batches.append(self)
            return original(self)

        monkeypatch.setattr(_BatchTotals, "_compute", recording)
        return batches

    @pytest.mark.parametrize("scan_mode", ["batched", "per_candidate"])
    @pytest.mark.parametrize("length", [1, 2])
    def test_rem_ins_scans_compute_no_totals(self, computed, scan_mode,
                                             length):
        graph = erdos_renyi_graph(20, 0.25, seed=3)
        result = reference_run(EdgeRemovalInsertionAnonymizer(
            length_threshold=length, theta=0.3, seed=0, max_steps=3,
            insertion_candidate_cap=30), graph, SCANS[scan_mode])
        assert result.evaluations > 0
        assert computed == []

    @pytest.mark.parametrize("scan_mode", ["batched", "per_candidate"])
    def test_gaded_max_computes_each_batch_at_most_once(self, computed,
                                                        scan_mode):
        graph = erdos_renyi_graph(25, 0.2, seed=2)
        result = reference_run(GadedMaxAnonymizer(theta=0.4, seed=0), graph,
                               SCANS[scan_mode])
        assert result.num_steps > 0
        assert computed
        assert len({id(batch) for batch in computed}) == len(computed)

    def test_totals_read_after_an_apply_see_the_scanned_state(self):
        graph = erdos_renyi_graph(14, 0.3, seed=5)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        candidates = [((edge,), ()) for edge in graph.edges()]
        lazy = incremental.evaluate_edits(candidates)
        incremental.apply_edit(*candidates[0])
        assert [evaluation.total_opacity for evaluation in lazy] == \
            [evaluation.total_opacity
             for evaluation in scratch.evaluate_edits(candidates)]


class TestViolatingPairIndices:
    def _max_types(self, session):
        current = session.current()
        return {key for key, entry in current.per_type.items()
                if entry.fraction == current.max_fraction}

    def test_incremental_mask_tracks_scratch_across_edits(self):
        graph = erdos_renyi_graph(16, 0.25, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        for _ in range(6):
            max_types = self._max_types(incremental)
            left = incremental.violating_pair_indices(max_types)
            right = scratch.violating_pair_indices(max_types)
            assert left[0].tolist() == right[0].tolist()
            assert left[1].tolist() == right[1].tolist()
            edges = list(incremental.graph.edges())
            if not edges:
                break
            incremental.apply_edit(removals=[edges[0]])
            scratch.apply_edit(removals=[edges[0]])

    def test_mask_survives_from_scratch_fallback_deltas(self):
        graph = erdos_renyi_graph(16, 0.25, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy(),
                                     fallback_row_fraction=0.0)
        scratch = ScratchSession(computer, graph.copy())
        max_types = self._max_types(incremental)
        incremental.violating_pair_indices(max_types)  # materialize the mask
        for edge in list(graph.edges())[:4]:
            incremental.apply_edit(removals=[edge])
            scratch.apply_edit(removals=[edge])
        max_types = self._max_types(incremental)
        left = incremental.violating_pair_indices(max_types)
        right = scratch.violating_pair_indices(max_types)
        assert left[0].tolist() == right[0].tolist()
        assert left[1].tolist() == right[1].tolist()


class TestScanModeEquivalence:
    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_end_to_end_runs_are_bit_identical(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        batched = algorithm(**params).anonymize(graph)
        sequential = reference_run(algorithm(**params), graph,
                                   PerCandidateSession)
        assert_results_identical(batched, sequential)

    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_stop_mid_scan_is_scan_mode_independent(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        outcomes = {}
        for scan_mode in ("per_candidate", "batched"):
            observer = _StopAfterEvaluations(9)
            result = reference_run(algorithm(**params), graph,
                                   SCANS[scan_mode], observer=observer)
            outcomes[scan_mode] = (result.evaluations, result.stop_reason,
                                   [step.edges for step in result.steps],
                                   result.anonymized_graph.edge_set())
        assert outcomes["per_candidate"] == outcomes["batched"]

    def test_rejects_the_retired_scan_mode_keyword(self):
        with pytest.raises(TypeError):
            EdgeRemovalAnonymizer(scan_mode="per_candidate")
        with pytest.raises(TypeError):
            GadesAnonymizer(scan_mode="per_candidate")


class TestLengthOneFastPath:
    """At L = 1 a batched scan skips the distance machinery entirely; its
    results (and the graph left behind) must match the slow paths exactly."""

    def test_l1_batch_matches_per_candidate_and_scratch(self):
        graph = erdos_renyi_graph(16, 0.3, seed=9)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        candidates = ([((edge,), ()) for edge in edges[:8]]
                      + [((), (edge,)) for edge in absent[:5]]
                      # a GADES-style swap: two removals plus two insertions
                      + [((edges[0], edges[1]), (absent[5], absent[6]))])
        batched = incremental.evaluate_edits(candidates)
        assert batched == [incremental.evaluate_edit(r, i) for r, i in candidates]
        assert batched == scratch.evaluate_edits(candidates)

    def test_l1_batch_leaves_no_trace(self):
        graph = erdos_renyi_graph(12, 0.3, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph)
        before = graph.edge_set()
        session.evaluate_edits([((edge,), ()) for edge in before])
        assert graph.edge_set() == before

    def test_l1_batch_after_applied_edits(self):
        graph = erdos_renyi_graph(12, 0.35, seed=6)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph)
        for _ in range(2):
            candidates = [((edge,), ()) for edge in session.graph.edges()]
            evaluations = session.evaluate_edits(candidates)
            assert evaluations == [session.evaluate_edit(r, i)
                                   for r, i in candidates]
            best = min(range(len(evaluations)),
                       key=lambda pos: evaluations[pos].fraction)
            session.apply_edit(*candidates[best])
