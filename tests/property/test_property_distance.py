"""Property-based tests for the distance engines."""

from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import distance_delta
from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.distance_store import StoreConfig
from repro.graph.graph import Graph
from repro.graph.matrices import unreachable_value
from tests.property.strategies import graphs, graphs_with_edge, length_bounds


class TestEngineEquivalence:
    @given(graphs(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_all_engines_produce_identical_matrices(self, graph, length_bound):
        reference = bounded_distance_matrix(graph, length_bound, engine="floyd-warshall")
        for engine in available_engines():
            candidate = bounded_distance_matrix(graph, length_bound, engine=engine)
            assert np.array_equal(candidate, reference), engine


class TestDistanceMatrixProperties:
    @given(graphs(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_zero_diagonal(self, graph, length_bound):
        distances = bounded_distance_matrix(graph, length_bound)
        assert np.array_equal(distances, distances.T)
        assert (np.diag(distances) == 0).all()

    @given(graphs(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_values_are_valid_distances(self, graph, length_bound):
        distances = bounded_distance_matrix(graph, length_bound)
        off_diagonal = distances[~np.eye(graph.num_vertices, dtype=bool)]
        finite = off_diagonal[off_diagonal != unreachable_value(distances.dtype)]
        assert ((finite >= 1) & (finite <= length_bound)).all()

    @given(graphs(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_distance_one_iff_edge(self, graph, length_bound):
        distances = bounded_distance_matrix(graph, length_bound)
        for u, v in graph.edges():
            assert distances[u, v] == 1
        ones = np.argwhere(distances == 1)
        for u, v in ones:
            assert graph.has_edge(int(u), int(v))

    @given(graphs_with_edge(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_edge_removal_never_shortens_distances(self, graph_and_edge, length_bound):
        graph, edge = graph_and_edge
        before = bounded_distance_matrix(graph, length_bound).astype(np.int64)
        graph.remove_edge(*edge)
        after = bounded_distance_matrix(graph, length_bound).astype(np.int64)
        # UNREACHABLE is the largest representable value, so >= holds pointwise.
        assert (after >= before).all()

    @given(graphs(), length_bounds)
    @settings(max_examples=30, deadline=None)
    def test_larger_bound_reveals_no_shorter_distances(self, graph, length_bound):
        tight_raw = bounded_distance_matrix(graph, length_bound)
        loose_raw = bounded_distance_matrix(graph, length_bound + 1)
        tight_sentinel = unreachable_value(tight_raw.dtype)
        loose_sentinel = unreachable_value(loose_raw.dtype)
        tight = tight_raw.astype(np.int64)
        loose = loose_raw.astype(np.int64)
        visible = tight != tight_sentinel
        assert (loose[visible] == tight[visible]).all()
        newly_visible = (tight == tight_sentinel) & (loose != loose_sentinel)
        assert (loose[newly_visible] == length_bound + 1).all()


@st.composite
def removal_combinations(draw, max_combinations: int = 6):
    """A graph, a combination size k ∈ {2, 3} and k-edge removal candidates.

    Every combination holds k distinct edges of the graph.  When some vertex
    has k incident edges, one combination is drawn from them, so edges that
    share an endpoint are covered; every endpoint is itself an affected
    source row of its combination's slab.
    """
    graph = draw(graphs(min_vertices=4, max_vertices=12, edge_probability=0.45))
    size = draw(st.sampled_from([2, 3]))
    for u, v in ((0, 1), (1, 2), (2, 3)):
        if graph.num_edges < size and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    edges = graph.edge_list()
    indices = st.lists(st.integers(0, len(edges) - 1), min_size=size,
                       max_size=size, unique=True)
    combos = [tuple(edges[i] for i in draw(indices))
              for _ in range(draw(st.integers(1, max_combinations)))]
    stars = [vertex for vertex in range(graph.num_vertices)
             if graph.degree(vertex) >= size]
    if stars and draw(st.booleans()):
        center = draw(st.sampled_from(stars))
        incident = [edge for edge in edges if center in edge]
        combos.append(tuple(draw(st.permutations(incident))[:size]))
    return graph, combos


def _materialize(session: DistanceSession, delta) -> np.ndarray:
    if delta.from_scratch:
        return delta.new_rows
    matrix = session.distances.copy()
    matrix[delta.rows, :] = delta.new_rows
    matrix[:, delta.rows] = delta.new_rows.T
    return matrix


class TestStackedCombinationRemovals:
    """The k-edge removal slab of ``preview_batch`` against sequential previews."""

    @given(removal_combinations(), st.sampled_from([2, 3]),
           st.sampled_from([None, 0.0, 1.0]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_stacked_combinations_match_sequential_previews(
            self, case, length, fallback, tiny_caps):
        graph, combos = case
        sequential = DistanceSession(graph.copy(), length,
                                     fallback_row_fraction=fallback)
        expected = [sequential.preview(removals=combo) for combo in combos]
        batch = DistanceSession(graph, length, fallback_row_fraction=fallback)
        edges_before = graph.edge_set()
        with ExitStack() as stack:
            if tiny_caps:
                stack.enter_context(patch.object(
                    distance_delta, "_BATCH_CHUNK_CELLS", 1))
            observed = batch.preview_batch(removals=combos)
        assert graph.edge_set() == edges_before
        assert len(observed) == len(combos)
        for combo, got, want in zip(combos, observed, expected):
            assert got.removals == want.removals == tuple(combo)
            # The fallback routes sequential previews only; the batch's
            # cell repair implies the same matrix.
            assert want.from_scratch == (fallback == 0.0)
            assert not got.from_scratch
            if want.from_scratch:
                assert np.array_equal(_materialize(batch, got), want.new_rows)
            else:
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)
                assert got.new_rows.dtype == want.new_rows.dtype
            edited = graph.copy()
            for edge in combo:
                edited.remove_edge(*edge)
            assert np.array_equal(_materialize(batch, got),
                                  bounded_distance_matrix(edited, length))

    @given(removal_combinations(), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_tiled_tier_matches_dense_tier(self, case, length):
        graph, combos = case
        dense = DistanceSession(graph.copy(), length).preview_batch(
            removals=combos)
        tiled_config = StoreConfig(tier="tiled", budget_bytes=1 << 12,
                                   tile_rows=3)
        tiled_session = DistanceSession(graph, length, store_config=tiled_config)
        try:
            tiled = tiled_session.preview_batch(removals=combos)
        finally:
            tiled_session.close()
        for got, want in zip(tiled, dense):
            assert got.removals == want.removals
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.new_rows, want.new_rows)

    @given(removal_combinations(), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_fused_scan_skips_exactly_the_flipless_combinations(self, case,
                                                               length):
        graph, combos = case
        session = DistanceSession(graph.copy(), length)
        plain = session.preview_batch(removals=combos)
        fused = DistanceSession(graph, length).preview_batch(
            removals=combos, skip_unchanged=True)
        for got, want in zip(fused, plain):
            flips = ((want.new_rows <= length)
                     != (session.rows(want.rows) <= length)).any()
            if got is None:
                assert not flips
            else:
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)


@st.composite
def insertion_batches(draw, max_insertions: int = 8):
    """A graph of two disjoint parts plus single-edge insertion candidates.

    One candidate always joins the two parts, so its relaxation lowers
    cells that start at the unreachable sentinel.  Every candidate's
    endpoints are themselves affected source rows (distance 0 ≤ L - 1).
    """
    left = draw(graphs(max_vertices=7))
    right = draw(graphs(max_vertices=6))
    offset = left.num_vertices
    graph = Graph(offset + right.num_vertices,
                  edges=left.edge_list() + [(u + offset, v + offset)
                                            for u, v in right.edge_list()])
    non_edges = sorted(graph.non_edges())
    picks = draw(st.lists(st.integers(0, len(non_edges) - 1),
                          max_size=max_insertions))
    bridge = (draw(st.integers(0, offset - 1)),
              draw(st.integers(offset, graph.num_vertices - 1)))
    return graph, [bridge] + [non_edges[pick] for pick in picks]


def full_width_relaxation(distances: np.ndarray, edge, length: int):
    """Reference insertion relax: affected rows widened to int64, all columns.

    ``min(D[a, b], D[a, u] + 1 + D[v, b], D[a, v] + 1 + D[u, b])`` over
    every row within L - 1 of an endpoint, truncated at L; returns the rows
    that change and their new values in the matrix dtype.
    """
    u, v = edge
    matrix = distances.astype(np.int64)
    rows = np.nonzero(np.minimum(matrix[:, u], matrix[:, v]) <= length - 1)[0]
    block = np.minimum(matrix[rows],
                       (matrix[rows, u] + 1)[:, None] + matrix[v][None, :])
    block = np.minimum(block,
                       (matrix[rows, v] + 1)[:, None] + matrix[u][None, :])
    block[block > length] = unreachable_value(distances.dtype)
    block = block.astype(distances.dtype)
    changed = (block != distances[rows]).any(axis=1)
    return rows[changed], block[changed]


class TestBallRestrictedInsertionRelax:
    """The restricted insertion relax against the full-width formula."""

    @given(insertion_batches(), st.sampled_from([1, 2, 3, 4]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_batch_and_preview_match_full_width_relaxation(self, case, length,
                                                           tiny_caps):
        graph, edges = case
        session = DistanceSession(graph, length)
        before = session.distances.copy()
        with ExitStack() as stack:
            if tiny_caps:
                # One candidate per batch chunk, one row per sequential
                # relax pass.
                stack.enter_context(patch.object(
                    distance_delta, "_BATCH_CHUNK_CELLS", 1))
                stack.enter_context(patch.object(
                    DistanceSession, "_batch_slab_row_cap", lambda self: 1))
            batch = session.preview_batch(insertions=edges)
            sequential = [session.preview(insertions=[edge]) for edge in edges]
        assert np.array_equal(session.distances, before)
        for edge, got, single in zip(edges, batch, sequential):
            rows, new_rows = full_width_relaxation(before, edge, length)
            for delta in (got, single):
                assert delta.insertions == (edge,)
                assert not delta.from_scratch
                assert np.array_equal(delta.rows, rows)
                assert np.array_equal(delta.new_rows, new_rows)
                assert delta.new_rows.dtype == before.dtype
            edited = graph.copy()
            edited.add_edge(*edge)
            assert np.array_equal(_materialize(session, got),
                                  bounded_distance_matrix(edited, length))

    @given(insertion_batches(), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_tiled_tier_matches_dense_tier(self, case, length):
        graph, edges = case
        dense = DistanceSession(graph.copy(), length).preview_batch(
            insertions=edges)
        tiled_config = StoreConfig(tier="tiled", budget_bytes=1 << 12,
                                   tile_rows=3)
        tiled_session = DistanceSession(graph, length, store_config=tiled_config)
        try:
            tiled = tiled_session.preview_batch(insertions=edges)
        finally:
            tiled_session.close()
        for got, want in zip(tiled, dense):
            assert got.insertions == want.insertions
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.new_rows, want.new_rows)
            assert got.new_rows.dtype == want.new_rows.dtype


class TestInsertionCells:
    """Cell-form insertion deltas against the edited graph's exact matrix.

    A changed pair reached through the new edge from both ends has
    ``max(A, B) ≥ min(A, B) + 4`` (triangle inequality on the old
    distances), so the mirror rule only matters from L = 5 on, and the
    ``B`` term only from L = 6 on; the bounds below reach both.
    """

    @given(insertion_batches(), st.sampled_from([1, 2, 3, 4, 5, 6]),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_cells_imply_the_edited_matrix(self, case, length, tiny_budget):
        graph, edges = case
        session = DistanceSession(graph, length)
        before = session.distances.copy()
        with ExitStack() as stack:
            if tiny_budget:
                stack.enter_context(patch.object(
                    distance_delta, "_BATCH_CHUNK_CELLS", 1))
            fused = session.preview_batch(insertions=edges,
                                          skip_unchanged=True)
            plain = session.preview_batch(insertions=edges)
        assert np.array_equal(session.distances, before)
        assert fused[0] is not None  # the bridge joins the two parts
        for edge, cell_delta, row_delta in zip(edges, fused, plain):
            edited = graph.copy()
            edited.add_edge(*edge)
            expected = bounded_distance_matrix(edited, length)
            assert (row_delta.removals, row_delta.insertions) == ((), (edge,))
            row, col, old, new = row_delta.cells
            assert old.dtype == new.dtype == before.dtype
            # One entry per changed unordered pair, off the diagonal.
            assert (row != col).all()
            pairs = set(zip(np.minimum(row, col).tolist(),
                            np.maximum(row, col).tolist()))
            assert len(pairs) == row.size
            assert np.array_equal(old, before[row, col])
            assert (new < old).all()
            implied = before.copy()
            implied[row, col] = new
            implied[col, row] = new
            assert np.array_equal(implied, expected)
            # The materialized rows are the changed cells' endpoints.
            assert np.array_equal(row_delta.rows,
                                  np.unique(np.concatenate([row, col])))
            assert np.array_equal(_materialize(session, row_delta), expected)
            joins = (before > length) & (expected <= length)
            if cell_delta is None:
                assert not joins.any()
            else:
                assert joins.any()
                for got, want in zip(cell_delta.cells, row_delta.cells):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("length, cells", [
        (4, [(0, 2, 2, 1), (3, 2, 3, 2)]),
        (5, [(0, 2, 2, 1), (3, 2, 3, 2)]),
        (6, [(0, 2, 2, 1), (2, 3, 3, 2)]),
    ])
    def test_pairs_reached_from_both_ends(self, length, cells):
        # Path 3 - 0 - 1 - 2 plus the edge {0, 2}, cells (row, col, old,
        # new).  From L = 5 on the pair {0, 2} is also enumerated from 2
        # (A = 5); from L = 6 on the pair {2, 3} is also enumerated from 2
        # (A = 6) and kept as (2, 3), whose value comes from B = 2.
        graph = Graph(4, edges=[(0, 1), (1, 2), (0, 3)])
        session = DistanceSession(graph, length)
        delta, = session.preview_batch(insertions=[(0, 2)])
        found = sorted(zip(*(part.tolist() for part in delta.cells)))
        assert found == cells

    @given(insertion_batches(), st.sampled_from([1, 2, 3, 4, 5, 6]))
    @settings(max_examples=40, deadline=None)
    def test_tiled_tier_matches_dense_tier(self, case, length):
        graph, edges = case
        dense = DistanceSession(graph.copy(), length).preview_batch(
            insertions=edges, skip_unchanged=True)
        tiled_config = StoreConfig(tier="tiled", budget_bytes=1 << 12,
                                   tile_rows=3)
        tiled_session = DistanceSession(graph, length, store_config=tiled_config)
        try:
            tiled = tiled_session.preview_batch(insertions=edges,
                                                skip_unchanged=True)
            for got, want in zip(tiled, dense):
                assert (got is None) == (want is None)
                if got is None:
                    continue
                for got_part, want_part in zip(got.cells, want.cells):
                    assert np.array_equal(got_part, want_part)
                    assert got_part.dtype == want_part.dtype
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)
        finally:
            tiled_session.close()


@st.composite
def sparse_removal_cases(draw, max_combinations: int = 5):
    """A graph with a pendant path, a size k ∈ {1, 2, 3} and k-edge removals.

    The path hangs off vertex 0, so each of its edges is a bridge: the
    first combination always removes one, which disconnects pairs and
    yields sentinel cells.  When some vertex has k incident edges, one
    combination is drawn from them, so its edges share an endpoint.  The
    endpoints of every removed edge are themselves source rows of cells.
    """
    core = draw(graphs(min_vertices=3, max_vertices=10, edge_probability=0.45))
    tail = draw(st.integers(1, 3))
    base = core.num_vertices
    path = [(0, base)] + [(base + j, base + j + 1) for j in range(tail - 1)]
    graph = Graph(base + tail, edges=core.edge_list() + path)
    size = draw(st.sampled_from([1, 2, 3]))
    for u, v in ((0, 1), (1, 2)):
        if graph.num_edges < size and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    edges = graph.edge_list()
    others = [edge for edge in edges if edge != path[0]]
    first = [path[0]] + draw(st.permutations(others))[:size - 1]
    indices = st.lists(st.integers(0, len(edges) - 1), min_size=size,
                       max_size=size, unique=True)
    combos = [tuple(first)] + [
        tuple(edges[i] for i in draw(indices))
        for _ in range(draw(st.integers(0, max_combinations)))]
    stars = [vertex for vertex in range(graph.num_vertices)
             if graph.degree(vertex) >= size]
    if stars and draw(st.booleans()):
        center = draw(st.sampled_from(stars))
        incident = [edge for edge in edges if center in edge]
        combos.append(tuple(draw(st.permutations(incident))[:size]))
    return graph, combos


def _edited_reference(graph: Graph, combo, length: int) -> np.ndarray:
    edited = graph.copy()
    for edge in combo:
        edited.remove_edge(*edge)
    return bounded_distance_matrix(edited, length)


class TestSparseRemovalRepair:
    """Cell-form removal deltas against the edited graph's exact matrix."""

    @given(sparse_removal_cases(), st.sampled_from([1, 2, 3, 4]),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cells_imply_the_edited_matrix(self, case, length, tiny_budget):
        graph, combos = case
        session = DistanceSession(graph, length)
        before = session.distances.copy()
        sentinel = unreachable_value(before.dtype)
        with ExitStack() as stack:
            if tiny_budget:
                stack.enter_context(patch.object(
                    distance_delta, "_BATCH_CHUNK_CELLS", 1))
            fused = session.preview_batch(removals=combos, skip_unchanged=True)
            plain = session.preview_batch(removals=combos)
        assert np.array_equal(session.distances, before)
        for combo, cell_delta, row_delta in zip(combos, fused, plain):
            expected = _edited_reference(graph, combo, length)
            row, col, old, new = row_delta.cells
            assert old.dtype == new.dtype == before.dtype
            assert np.array_equal(old, before[row, col])
            # One entry per changed unordered pair, and nothing else.
            pairs = set(zip(np.minimum(row, col).tolist(),
                            np.maximum(row, col).tolist()))
            assert len(pairs) == row.size
            assert (before[row, col] != new).all()
            implied = before.copy()
            implied[row, col] = new
            implied[col, row] = new
            assert np.array_equal(implied, expected)
            # The materialized rows are the changed cells' endpoints.
            assert np.array_equal(row_delta.rows,
                                  np.unique(np.concatenate([row, col])))
            assert np.array_equal(_materialize(session, row_delta), expected)
            leaves = (before <= length) & (expected > length)
            if combo == combos[0]:
                assert (new == sentinel).any()  # the bridge disconnects
            if cell_delta is None:
                assert not leaves.any()
            else:
                assert leaves.any()
                for got, want in zip(cell_delta.cells, row_delta.cells):
                    assert np.array_equal(got, want)

    @given(sparse_removal_cases(), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_tiled_tier_matches_dense_tier(self, case, length):
        graph, combos = case
        dense = DistanceSession(graph.copy(), length).preview_batch(
            removals=combos, skip_unchanged=True)
        tiled_config = StoreConfig(tier="tiled", budget_bytes=1 << 12,
                                   tile_rows=3)
        tiled_session = DistanceSession(graph, length, store_config=tiled_config)
        try:
            tiled = tiled_session.preview_batch(removals=combos,
                                                skip_unchanged=True)
            for got, want in zip(tiled, dense):
                assert (got is None) == (want is None)
                if got is None:
                    continue
                for got_part, want_part in zip(got.cells, want.cells):
                    assert np.array_equal(got_part, want_part)
                    assert got_part.dtype == want_part.dtype
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)
        finally:
            tiled_session.close()
