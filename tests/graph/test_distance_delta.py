"""Unit tests for the incremental distance session (delta evaluation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, InvalidEdgeError
from repro.graph import Graph, erdos_renyi_graph
from repro.graph import distance_delta
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession


def apply_delta(session, delta):
    """Materialize a previewed delta into a full matrix (for comparison)."""
    if delta.from_scratch:
        return delta.new_rows.copy()
    matrix = session.distances.copy()
    if delta.rows.size:
        matrix[delta.rows, :] = delta.new_rows
        matrix[:, delta.rows] = delta.new_rows.T
    return matrix


def reference_after(graph, removals, insertions, length):
    for u, v in removals:
        graph.remove_edge(u, v)
    for u, v in insertions:
        graph.add_edge(u, v)
    try:
        return bounded_distance_matrix(graph, length)
    finally:
        for u, v in insertions:
            graph.remove_edge(u, v)
        for u, v in removals:
            graph.add_edge(u, v)


class TestPreview:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_single_removal_matches_scratch(self, paper_example_graph, length):
        session = DistanceSession(paper_example_graph, length)
        for edge in list(paper_example_graph.edges()):
            delta = session.preview(removals=[edge])
            expected = reference_after(paper_example_graph, [edge], [], length)
            assert np.array_equal(apply_delta(session, delta), expected)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_single_insertion_matches_scratch(self, paper_example_graph, length):
        session = DistanceSession(paper_example_graph, length)
        for edge in list(paper_example_graph.non_edges()):
            delta = session.preview(insertions=[edge])
            expected = reference_after(paper_example_graph, [], [edge], length)
            assert np.array_equal(apply_delta(session, delta), expected)

    def test_combination_edit_matches_scratch(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        removals = [(0, 1), (4, 5)]
        insertions = [(0, 6), (3, 6)]
        delta = session.preview(removals=removals, insertions=insertions)
        expected = reference_after(paper_example_graph, removals, insertions, 2)
        assert np.array_equal(apply_delta(session, delta), expected)

    def test_preview_leaves_no_trace(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before_edges = paper_example_graph.edge_set()
        before_matrix = session.distances.copy()
        session.preview(removals=[(0, 1)], insertions=[(0, 6)])
        assert paper_example_graph.edge_set() == before_edges
        assert np.array_equal(session.distances, before_matrix)

    def test_empty_preview_is_empty_delta(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        delta = session.preview()
        assert delta.num_affected_rows == 0
        assert not delta.from_scratch

    def test_fallback_produces_full_scratch_matrix(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2, fallback_row_fraction=0.0)
        delta = session.preview(removals=[(0, 1)])
        assert delta.from_scratch
        expected = reference_after(paper_example_graph, [(0, 1)], [], 2)
        assert np.array_equal(delta.new_rows, expected)
        # The graph is restored even on the fallback path.
        assert paper_example_graph.has_edge(0, 1)


class TestApply:
    @pytest.mark.parametrize("fallback", [0.0, 0.5, 1.0])
    def test_random_edit_sequence_stays_exact(self, fallback):
        graph = erdos_renyi_graph(30, 0.2, seed=5)
        session = DistanceSession(graph, 2, fallback_row_fraction=fallback)
        for index in range(25):
            edges = list(graph.edges())
            non_edges = list(graph.non_edges())
            if index % 2 == 0 and edges:
                session.apply(removals=[edges[index % len(edges)]])
            elif non_edges:
                session.apply(insertions=[non_edges[index % len(non_edges)]])
            assert np.array_equal(session.distances,
                                  bounded_distance_matrix(graph, 2))

    def test_apply_accepts_matching_preview(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        delta = session.preview(removals=[(0, 1)])
        session.apply(removals=[(0, 1)], delta=delta)
        assert not paper_example_graph.has_edge(0, 1)
        assert np.array_equal(session.distances,
                              bounded_distance_matrix(paper_example_graph, 2))

    def test_apply_rejects_mismatched_delta(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        delta = session.preview(removals=[(0, 1)])
        with pytest.raises(ConfigurationError):
            session.apply(removals=[(1, 2)], delta=delta)

    def test_refresh_resyncs_after_out_of_band_edit(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        paper_example_graph.remove_edge(0, 1)
        session.refresh()
        assert np.array_equal(session.distances,
                              bounded_distance_matrix(paper_example_graph, 2))


class TestFallbackTransition:
    def test_mid_sequence_fallback_after_incremental_op(self):
        # n must exceed the threshold floor of 16 affected rows for the
        # fallback to be reachable at all; a dense L=3 sample guarantees a
        # removal's affected region blows past it.
        graph = erdos_renyi_graph(40, 0.3, seed=11)
        session = DistanceSession(graph, 3, fallback_row_fraction=0.05)
        removal = next(edge for edge in graph.edges()
                       if session.preview(removals=[edge]).from_scratch)
        insertion = next(iter(graph.non_edges()))
        # Insertions never fall back, so the first op is processed
        # incrementally and the removal then flips the preview to scratch.
        delta = session.preview(removals=[removal], insertions=[insertion])
        assert delta.from_scratch
        expected = reference_after(graph, [removal], [insertion], 3)
        assert np.array_equal(delta.new_rows, expected)
        # The same transition through the permanent-application path.
        session.apply(removals=[removal], insertions=[insertion])
        assert np.array_equal(session.distances,
                              bounded_distance_matrix(graph, 3))

    def test_mixed_incremental_and_fallback_sequence_stays_exact(self):
        graph = erdos_renyi_graph(40, 0.3, seed=12)
        session = DistanceSession(graph, 3, fallback_row_fraction=0.05)
        for index in range(12):
            edges = list(graph.edges())
            non_edges = list(graph.non_edges())
            if index % 2 == 0 and edges:
                session.apply(removals=[edges[index % len(edges)]])
            elif non_edges:
                session.apply(insertions=[non_edges[index % len(non_edges)]])
            assert np.array_equal(session.distances,
                                  bounded_distance_matrix(graph, 3))


class TestWideFrontiers:
    def test_256_wide_frontier_is_not_truncated(self):
        # Regression: a uint8 matmul accumulator wraps at 256 common
        # neighbors, silently reporting reachable vertices as UNREACHABLE.
        hub, sink = 1, 258
        leaves = range(2, 258)  # exactly 256 intermediate vertices
        edges = [(0, hub)]
        edges += [(hub, leaf) for leaf in leaves]
        edges += [(leaf, sink) for leaf in leaves]
        graph = Graph(259, edges=edges)
        reference = bounded_distance_matrix(graph, 3, engine="bfs")
        assert reference[0, sink] == 3
        assert np.array_equal(bounded_distance_matrix(graph, 3, engine="numpy"),
                              reference)
        session = DistanceSession(graph, 3, fallback_row_fraction=1.0)
        session.apply(removals=[(0, hub)])
        session.apply(insertions=[(0, hub)])
        assert np.array_equal(session.distances, reference)


class TestValidation:
    def test_rejects_bad_length(self):
        with pytest.raises(ConfigurationError):
            DistanceSession(Graph(3), 0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            DistanceSession(Graph(3), 1, fallback_row_fraction=1.5)

    def test_preview_of_present_edge_insertion_raises_and_restores(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before = paper_example_graph.edge_set()
        with pytest.raises(InvalidEdgeError):
            # (0, 1) is already present, so the removal is undone and the
            # offending insertion never sticks.
            session.preview(removals=[(4, 5)], insertions=[(0, 1)])
        assert paper_example_graph.edge_set() == before


class TestPreviewBatch:
    """The stacked batch pass must equal the sequential previews bit for bit."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("fallback", [0.0, 0.5, 1.0])
    def test_removal_batch_matches_sequential_previews(self, paper_example_graph,
                                                       length, fallback):
        edges = list(paper_example_graph.edges())
        sequential_session = DistanceSession(paper_example_graph.copy(), length,
                                             fallback_row_fraction=fallback)
        expected = [sequential_session.preview(removals=[edge]) for edge in edges]
        batch_session = DistanceSession(paper_example_graph, length,
                                        fallback_row_fraction=fallback)
        observed = batch_session.preview_batch(removals=edges)
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert got.removals == want.removals
            assert got.insertions == want.insertions
            # The batch repairs cells and never falls back; where the
            # sequential preview did, compare the matrices both imply.
            assert not got.from_scratch
            if want.from_scratch:
                assert np.array_equal(apply_delta(batch_session, got),
                                      want.new_rows)
            else:
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)
                assert got.new_rows.dtype == want.new_rows.dtype

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_insertion_batch_matches_sequential_previews(self, paper_example_graph,
                                                         length):
        edges = list(paper_example_graph.non_edges())
        sequential_session = DistanceSession(paper_example_graph.copy(), length)
        expected = [sequential_session.preview(insertions=[edge]) for edge in edges]
        observed = DistanceSession(paper_example_graph, length).preview_batch(
            insertions=edges)
        for got, want in zip(observed, expected):
            assert got.insertions == want.insertions
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.new_rows, want.new_rows)

    def test_batch_on_random_graphs_matches_scratch_matrices(self):
        for seed in range(4):
            graph = erdos_renyi_graph(18, 0.2, seed=seed)
            session = DistanceSession(graph, 2)
            edges = list(graph.edges())
            for edge, delta in zip(edges, session.preview_batch(removals=edges)):
                expected = reference_after(graph, [edge], [], 2)
                assert np.array_equal(apply_delta(session, delta), expected)
            non_edges = list(graph.non_edges())[:40]
            for edge, delta in zip(non_edges,
                                   session.preview_batch(insertions=non_edges)):
                expected = reference_after(graph, [], [edge], 2)
                assert np.array_equal(apply_delta(session, delta), expected)

    def test_batch_leaves_no_trace(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before_edges = paper_example_graph.edge_set()
        before_matrix = session.distances.copy()
        session.preview_batch(removals=list(paper_example_graph.edges()),
                              insertions=list(paper_example_graph.non_edges()))
        assert paper_example_graph.edge_set() == before_edges
        assert np.array_equal(session.distances, before_matrix)

    def test_empty_batch_returns_no_deltas(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        assert session.preview_batch() == []

    def test_single_edges_and_one_edge_combinations_agree(
            self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        edges = list(paper_example_graph.edges())
        as_edges = session.preview_batch(removals=edges)
        as_combos = session.preview_batch(removals=[(edge,) for edge in edges])
        assert len(as_combos) == len(as_edges) == len(edges)
        for edge, got, want in zip(edges, as_combos, as_edges):
            assert got.removals == want.removals == (edge,)
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.new_rows, want.new_rows)

    def test_removal_combinations_must_share_their_size(
            self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        first, second, third = list(paper_example_graph.edges())[:3]
        with pytest.raises(ConfigurationError):
            session.preview_batch(removals=[(first, second), (third,)])
        with pytest.raises(ConfigurationError):
            session.preview_batch(removals=[()])

    def test_forced_fallback_yields_from_scratch_deltas(self, paper_example_graph):
        # The fallback routes sequential previews only; the batch's cell
        # repair implies the same matrices.
        session = DistanceSession(paper_example_graph, 2,
                                  fallback_row_fraction=0.0)
        edges = list(paper_example_graph.edges())
        previews = [session.preview(removals=[edge]) for edge in edges]
        assert all(delta.from_scratch for delta in previews)
        deltas = session.preview_batch(removals=edges)
        assert not any(delta.from_scratch for delta in deltas)
        for edge, preview, delta in zip(edges, previews, deltas):
            expected = reference_after(paper_example_graph, [edge], [], 2)
            assert np.array_equal(preview.new_rows, expected)
            assert np.array_equal(apply_delta(session, delta), expected)

    def test_small_slab_chunks_do_not_change_results(self, monkeypatch):
        graph = erdos_renyi_graph(16, 0.25, seed=1)
        session = DistanceSession(graph, 2)
        edges = list(graph.edges())
        non_edges = list(graph.non_edges())
        expected = session.preview_batch(removals=edges, insertions=non_edges)
        # A cell budget of 1 puts every candidate in a chunk of its own.
        monkeypatch.setattr(distance_delta, "_BATCH_CHUNK_CELLS", 1)
        chunked = session.preview_batch(removals=edges, insertions=non_edges)
        for got, want in zip(chunked, expected):
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.new_rows, want.new_rows)
            assert got.new_rows.dtype == want.new_rows.dtype


class TestInitialDistances:
    """A session seeded with a precomputed matrix behaves like a cold one."""

    def test_adopts_precomputed_matrix_without_engine_run(self, paper_example_graph):
        precomputed = bounded_distance_matrix(paper_example_graph, 2)
        session = DistanceSession(paper_example_graph, 2,
                                  initial_distances=precomputed)
        assert np.array_equal(session.distances, precomputed)

    def test_seeded_session_produces_identical_deltas(self, paper_example_graph):
        cold = DistanceSession(paper_example_graph.copy(), 2)
        seeded = DistanceSession(
            paper_example_graph, 2,
            initial_distances=bounded_distance_matrix(paper_example_graph, 2))
        for edge in list(paper_example_graph.edges()):
            a = cold.preview(removals=[edge])
            b = seeded.preview(removals=[edge])
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.new_rows, b.new_rows)

    def test_shape_mismatch_rejected(self, paper_example_graph):
        with pytest.raises(ConfigurationError):
            DistanceSession(paper_example_graph, 2,
                            initial_distances=np.zeros((3, 3), dtype=np.int32))


class TestNeighbourCountMemo:
    """The dense tier's ``K`` memo follows every committed state change."""

    LENGTH = 3

    @staticmethod
    def _session(fraction=None):
        graph = erdos_renyi_graph(16, 0.3, seed=4)
        return DistanceSession(graph, TestNeighbourCountMemo.LENGTH,
                               fallback_row_fraction=fraction)

    def _assert_fresh(self, session):
        """A removal scan's memo equals fresh products; batch = sequential."""
        edges = list(session.graph.edges())
        batched = session.preview_batch(removals=edges)
        for level in range(2, self.LENGTH + 1):
            fresh = session._mirror.expand(session.distances <= level - 1)
            assert np.array_equal(session._counts[level], fresh)
        for edge, got in zip(edges, batched):
            want = session.preview(removals=[edge])
            assert np.array_equal(apply_delta(session, got),
                                  apply_delta(session, want))

    def test_apply_drops_the_memo(self):
        session = self._session()
        self._assert_fresh(session)
        session.apply(removals=[next(iter(session.graph.edges()))])
        self._assert_fresh(session)
        edge = next(iter(session.graph.edges()))
        session.apply(removals=[edge],
                      delta=session.preview(removals=[edge]))
        self._assert_fresh(session)
        edge = next(iter(session.graph.non_edges()))
        session.apply(insertions=[edge],
                      delta=session.preview(insertions=[edge]))
        self._assert_fresh(session)

    def test_stage_and_commit_drop_the_memo(self):
        session = self._session()
        self._assert_fresh(session)
        session.commit(session.stage(
            removals=[next(iter(session.graph.edges()))]))
        self._assert_fresh(session)

    def test_from_scratch_commit_drops_the_memo(self):
        session = self._session(fraction=0.0)
        self._assert_fresh(session)
        delta = session.apply(removals=[next(iter(session.graph.edges()))])
        assert delta.from_scratch
        self._assert_fresh(session)

    def test_refresh_drops_the_memo(self):
        session = self._session()
        self._assert_fresh(session)
        session.graph.remove_edge(*next(iter(session.graph.edges())))
        session.refresh()
        self._assert_fresh(session)


class TestFusedPreviewBatch:
    """skip_unchanged=True drops flip-free candidates to None, nothing else."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_none_exactly_where_no_membership_flips(self, paper_example_graph,
                                                    length):
        session = DistanceSession(paper_example_graph, length)
        edges = list(paper_example_graph.edges())
        non_edges = list(paper_example_graph.non_edges())
        plain = session.preview_batch(removals=edges, insertions=non_edges)
        fused = session.preview_batch(removals=edges, insertions=non_edges,
                                      skip_unchanged=True)
        assert len(plain) == len(fused)
        for full_delta, fused_delta in zip(plain, fused):
            if fused_delta is None:
                # Skipped candidates flip no cell across the L boundary.
                assert not full_delta.from_scratch
                old = session.distances[full_delta.rows]
                assert np.array_equal(old <= length,
                                      full_delta.new_rows <= length)
            else:
                assert np.array_equal(full_delta.rows, fused_delta.rows)
                assert np.array_equal(full_delta.new_rows, fused_delta.new_rows)
                assert full_delta.from_scratch == fused_delta.from_scratch

    def test_fused_pass_leaves_no_trace(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before_edges = paper_example_graph.edge_set()
        before = session.distances.copy()
        session.preview_batch(removals=list(paper_example_graph.edges()),
                              insertions=list(paper_example_graph.non_edges()),
                              skip_unchanged=True)
        assert paper_example_graph.edge_set() == before_edges
        assert np.array_equal(session.distances, before)

    def test_triangle_removal_at_l2_is_skipped(self):
        # Removing one triangle edge at L = 2 lengthens its pair to 2 via
        # the third vertex: distances change but nothing crosses L, so the
        # fused scan materializes no delta at all.
        triangle = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
        session = DistanceSession(triangle, 2)
        fused = session.preview_batch(removals=[(0, 1)], skip_unchanged=True)
        assert fused == [None]
        plain = session.preview_batch(removals=[(0, 1)])
        assert plain[0].rows.size > 0  # the plain path does see the change

    def test_removal_at_l1_always_flips(self):
        triangle = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
        session = DistanceSession(triangle, 1)
        fused = session.preview_batch(removals=[(0, 1)], skip_unchanged=True)
        assert fused[0] is not None


class TestBatchValidation:
    """Batched previews reject exactly the edits ``Graph`` would reject.

    Rejected: a removal of an absent edge, an insertion of a present edge
    (unless the same candidate removes it), an edge repeated within a
    combination, and a self-loop.  The graph is left unchanged.
    """

    @pytest.fixture
    def graph(self):
        return erdos_renyi_graph(12, 0.3, seed=2)

    def _assert_rejected(self, graph, call):
        before = graph.edge_set()
        with pytest.raises(InvalidEdgeError):
            call()
        assert graph.edge_set() == before

    @pytest.mark.parametrize("length", [1, 2])
    def test_preview_batch_rejects_invalid_removals(self, graph, length):
        session = DistanceSession(graph, length)
        edges = sorted(graph.edges())
        absent = sorted(graph.non_edges())
        for removals in ([edges[0], absent[0]],              # absent edge
                         [(3, 3)],                           # self-loop
                         [(edges[0], edges[1]), (edges[2], edges[2])],
                         [(edges[0], absent[0])],            # absent in a pair
                         [(edges[1], (4, 4))]):              # self-loop in a pair
            self._assert_rejected(
                graph, lambda: session.preview_batch(removals=removals))
            self._assert_rejected(
                graph, lambda: session.preview_batch(removals=removals,
                                                     skip_unchanged=True))

    @pytest.mark.parametrize("length", [1, 2])
    def test_preview_batch_rejects_invalid_insertions(self, graph, length):
        session = DistanceSession(graph, length)
        edges = sorted(graph.edges())
        absent = sorted(graph.non_edges())
        for insertions in ([absent[0], edges[0]], [(5, 5)]):
            self._assert_rejected(
                graph, lambda: session.preview_batch(insertions=insertions))

    @pytest.mark.parametrize("length", [1, 2])
    def test_evaluate_edits_rejects_invalid_candidates(self, graph, length):
        from repro.core import DegreePairTyping, OpacityComputer, OpacitySession

        session = OpacitySession(OpacityComputer(DegreePairTyping(graph),
                                                 length), graph)
        edges = sorted(graph.edges())
        absent = sorted(graph.non_edges())
        scans = [
            [((edges[0],), ()), ((absent[0],), ())],         # absent removal
            [((), (absent[0],)), ((), (edges[0],))],         # present insertion
            [(((6, 6),), ())],                               # self-loop
            [((), ((7, 7),))],
        ]
        if length > 1:
            scans += [
                [((edges[0], edges[1]), ()), ((edges[2], edges[2]), ())],
                [((edges[0], absent[0]), ())],               # look-ahead pair
                [((edges[0],), (edges[1],))],                # swap, present
            ]
        for candidates in scans:
            self._assert_rejected(
                graph, lambda: session.evaluate_edits(candidates))
        # Removing and re-inserting the same edge is one valid candidate.
        both = [((edges[0],), (edges[0],))]
        assert session.evaluate_edits(both) == \
            [session.evaluate_edit(*both[0])]
        assert graph.edge_set() == set(edges)
