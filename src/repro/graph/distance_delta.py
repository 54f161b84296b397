"""Incremental maintenance of L-bounded distance matrices.

The greedy heuristics spend almost all of their runtime asking "what would
the distances be after this one edit?" — and a single edge edit only
perturbs the distances of pairs whose geodesic passes near the edited edge
(the structural insight behind dynamic all-pairs shortest-path algorithms,
e.g. Demetrescu & Italiano).  Under the L-truncation this repository works
with, the affected region is even smaller: an edit to edge ``{u, v}`` can
only change cells of rows whose distance to ``u`` or ``v`` is below L.

:class:`DistanceSession` owns the current bounded matrix of a working graph
— held behind a :class:`~repro.graph.distance_store.DistanceStore`, so the
dense tier keeps today's in-RAM matrix while the tiled tier streams row
tiles under a byte budget — and turns a tentative removal/insertion (or a
look-ahead combination) into a :class:`DistanceDelta` — the affected rows
plus their new values — without a from-scratch recomputation:

* **Insertion** of ``{u, v}``: distances only shrink, and every improved
  path decomposes as ``i → u — v → j`` (or the mirror image) with legs that
  avoid the new edge, so the new rows follow from the *old* matrix by the
  relaxation ``min(D[i, j], D[i, u] + 1 + D[v, j], D[i, v] + 1 + D[u, j])``,
  truncated at L.  A term can only win where it is ≤ L, so row ``i`` is
  relaxed only over the ``(L - 1 - D[i, u])``-ball of ``v`` and the
  ``(L - 1 - D[i, v])``-ball of ``u``, enumerated from a distance-sorted
  gather of the endpoint's row; the rows keep the store dtype.  Batched
  insertions skip the rows altogether and enumerate the changed *cells*:
  ``(i, b)`` with ``i`` in the ``(L - 1)``-ball of ``u`` and ``b`` in the
  ``(L - 1 - D[i, u])``-ball of ``v``, at ``min(A, B, D[i, b])`` for the two
  crossing directions ``A = D[i, u] + 1 + D[v, b]`` and ``B = D[b, u] + 1
  + D[v, i]``, one cell per unordered pair.  Exact, no graph traversal.
* **Removal** of ``{u, v}``: distances only grow, and a cell ``(i, b)``
  can only change when every shortest ≤ L path between its endpoints
  crossed the edge.  A sequential preview recomputes the affected rows —
  those with ``|D[i, u] - D[i, v]| = 1`` and ``min(D[i, u], D[i, v]) ≤
  L - 1`` — by vectorized frontier expansion on the edited graph (the
  ``numpy`` engine's recurrence on an ``|rows| × n`` slab), falling back
  to an exact from-scratch recomputation when the affected region exceeds
  a size heuristic.  Batched removals repair *cells* instead: for each
  removed edge ``{x, y}`` (both orientations) the cells that can lengthen
  are the rows ``i`` with ``D[i, x] ≤ L - 1`` and ``D[i, y] = D[i, x] +
  1``, paired with the columns ``b`` of the ``(L - 1 - D[i, x])``-ball of
  ``y`` whose shortest path runs through the edge.  Those cells are
  resolved level by level on the edited graph: ``(i, b)`` reaches level
  ``s`` when ``b`` keeps a neighbour within ``s - 1`` of ``i`` — the
  neighbour count ``K_s[i, b]`` of the committed graph (memoized per state
  on the dense tier) minus sparse corrections for the removed edges and
  for the cells already lengthened — and come back as a cell-form delta.

Every matrix access is phrased in row blocks (columns are rows transposed —
the matrix is symmetric), which is exactly the store seam's contract; only
the batched passes on the dense tier read single cells of the matrix in
place.  The adjacency mirror follows the same split: the dense tier keeps the
BLAS-friendly float32 matrix, the tiled tier works off a CSR snapshot with
an edit-override set, producing bit-identical frontier booleans through
exact integer neighbor counts.

:meth:`DistanceSession.preview` (and :meth:`~DistanceSession.stage` /
:meth:`~DistanceSession.apply`) process a multi-edge edit sequentially,
tracking intermediate state in a sparse row overlay (changed cells always
have both endpoints among the affected rows, so overlaid rows compose
consistently) — which keeps every step exact without copying the matrix
per candidate.  Both code paths yield matrices identical to
:func:`repro.graph.distance.bounded_distance_matrix` on the edited graph;
the property suite asserts this bit-for-bit.

:meth:`DistanceSession.preview_batch` evaluates *many independent
candidates* of the same kind in one batched pass: all removal candidates —
single edges or look-ahead combinations of k edges each — share one
sparse-cell repair (a combination's cells are the union of its edges'),
and all single-edge insertion candidates share one cell enumeration; both
yield cell-form deltas.  The batch yields the same values as the
equivalent sequence of :meth:`preview` calls, but it only *reads* the
graph: every candidate is validated against it (:func:`check_edit`) and
none is ever applied.  Its deltas never take the from-scratch route.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DistanceMemoryError, InvalidEdgeError
from repro.graph.distance import DistanceEngine, bounded_distance_matrix
from repro.graph.distance_store import (
    CSRAdjacency,
    DenseStore,
    DistanceStore,
    StoreConfig,
    TiledStore,
)
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.matrices import distance_dtype


class DistanceDelta:
    """Effect of one (tentative) edit on the bounded distance matrix.

    ``rows`` lists the affected row indices and ``new_rows`` their updated
    values; every cell outside ``rows × V ∪ V × rows`` is unchanged, and the
    symmetric counterpart of each listed cell changes identically.  When the
    affected region exceeded the session's fallback heuristic (sequential
    :meth:`DistanceSession.preview` / :meth:`~DistanceSession.stage` only),
    ``from_scratch`` is set and ``new_rows`` is the full recomputed matrix
    (with ``rows`` spanning every vertex).

    Batched candidates (:meth:`DistanceSession.preview_batch`) come in
    *cell form*: ``cells`` holds ``(row, col, old, new)`` arrays in the
    store dtype, with one entry per changed unordered pair, and ``rows`` /
    ``new_rows`` are materialized from the store on first read — the rows
    are the endpoints of the changed cells, so the values equal the row
    form's.  Row-form deltas (sequential previews) have ``cells`` set to
    ``None``.
    """

    __slots__ = ("removals", "insertions", "from_scratch", "cells",
                 "_rows", "_new_rows", "_store")

    def __init__(self, removals: Tuple[Edge, ...], insertions: Tuple[Edge, ...],
                 rows: Optional[np.ndarray] = None,
                 new_rows: Optional[np.ndarray] = None,
                 from_scratch: bool = False,
                 cells: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]] = None,
                 store: Optional[DistanceStore] = None) -> None:
        self.removals = removals
        self.insertions = insertions
        self.from_scratch = from_scratch
        self.cells = cells
        self._rows = rows
        self._new_rows = new_rows
        self._store = store

    @property
    def rows(self) -> np.ndarray:
        """Affected row indices, ascending."""
        if self._rows is None:
            self._materialize()
        return self._rows

    @property
    def new_rows(self) -> np.ndarray:
        """Updated values of :attr:`rows` (store dtype)."""
        if self._new_rows is None:
            self._materialize()
        return self._new_rows

    @property
    def num_affected_rows(self) -> int:
        """Number of rows whose values change under this edit."""
        return int(self.rows.size)

    def _materialize(self) -> None:
        """Row form of a cell-form delta: the store's rows, cells patched."""
        row, col, _, new = self.cells
        rows = np.unique(np.concatenate([row, col]))
        block = self._store.rows(rows)
        block[np.searchsorted(rows, row), col] = new
        block[np.searchsorted(rows, col), row] = new
        self._rows, self._new_rows = rows, block
        self._store = None


#: Cell budget of the batched scans: a chunk of removal or insertion
#: candidates gathers at most this many endpoint-row cells, and each level of
#: the removal repair walks at most this many (cell, neighbour) pairs at a
#: time.
_BATCH_CHUNK_CELLS = 1 << 15


def _budget_slices(weights: np.ndarray, budget: int
                   ) -> Iterator[Tuple[int, int]]:
    """Consecutive ``(start, stop)`` ranges whose weights sum to ≤ budget.

    Every range holds at least one item, so an item heavier than the
    budget gets a range of its own.
    """
    total = np.cumsum(weights)
    start = 0
    while start < weights.size:
        base = total[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(total, base + budget,
                                                  side="right")))
        yield start, stop
        start = stop


def check_edit(graph: Graph, removals: Sequence[Edge],
               insertions: Sequence[Edge] = ()) -> None:
    """Raise :class:`InvalidEdgeError` unless the edit applies to ``graph``.

    A read-only stand-in for applying the edit (removals first, then
    insertions) and reverting it: it accepts exactly the edits that
    sequence of :meth:`~repro.graph.graph.Graph.remove_edge` /
    :meth:`~repro.graph.graph.Graph.add_edge` calls accepts.  Rejected are
    self-loops, a removal of an absent edge, an edge listed twice, and an
    insertion of a present edge the same edit does not remove.
    """
    removed = set()
    for u, v in removals:
        edge = normalize_edge(u, v)
        if edge in removed or not graph.has_edge(*edge):
            raise InvalidEdgeError(f"edge {edge} not present")
        removed.add(edge)
    inserted = set()
    for u, v in insertions:
        edge = normalize_edge(u, v)
        if edge in inserted or (graph.has_edge(*edge) and edge not in removed):
            raise InvalidEdgeError(f"edge {edge} already present")
        inserted.add(edge)


def _as_combination(candidate: Union[Edge, Sequence[Edge]]
                    ) -> Tuple[Edge, ...]:
    """A removal candidate as its normalized edges (one edge is k = 1)."""
    if candidate and isinstance(candidate[0], (int, np.integer)):
        candidate = (candidate,)
    return tuple(normalize_edge(u, v) for u, v in candidate)


class _DenseAdjacency:
    """Dense-tier adjacency mirror: the historical float32 matrix.

    float32 keeps the 0/1 dot products exact (up to 2**24 neighbors; a
    uint8 accumulator would wrap at 256) and stays BLAS-friendly.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._matrix = graph.adjacency_matrix(dtype=np.float32)

    def block(self, rows: np.ndarray) -> np.ndarray:
        """Fresh writable boolean adjacency rows."""
        return self._matrix[rows].astype(np.bool_)

    def expand(self, frontier: np.ndarray) -> np.ndarray:
        """Per-row neighbor weights of a boolean frontier (``> 0`` = reach)."""
        return frontier.astype(np.float32) @ self._matrix

    def set_edge(self, u: int, v: int, present: bool) -> None:
        self._matrix[u, v] = self._matrix[v, u] = 1.0 if present else 0.0

    def rebuild(self) -> None:
        self._matrix = self._graph.adjacency_matrix(dtype=np.float32)


class _CSROverlayAdjacency:
    """Tiled-tier adjacency mirror: CSR snapshot plus an edit-override set.

    No ``n × n`` matrix anywhere: frontier expansion gathers neighbors from
    the CSR arrays and counts them with an exact integer ``bincount``, so
    the ``> 0`` reachability booleans equal the dense float32 product bit
    for bit.  Edits accumulate in small add/remove override sets (previews
    cancel their own overrides on revert); once the net override count
    passes a threshold the snapshot is rebuilt from the graph — every call
    site mutates the graph *before* :meth:`set_edge`, so the graph is
    always the source of truth.
    """

    _REBUILD_THRESHOLD = 256

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._snapshot = CSRAdjacency.from_graph(graph)
        self._added: set = set()
        self._removed: set = set()

    def block(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        n = self._snapshot.num_vertices
        out = np.zeros((rows.size, n), dtype=np.bool_)
        rep, neighbors = self._snapshot.gather(rows)
        out[rep, neighbors] = True
        for (a, b), present in self._override_items():
            out[rows == a, b] = present
            out[rows == b, a] = present
        return out

    def expand(self, frontier: np.ndarray) -> np.ndarray:
        num_rows, n = frontier.shape
        rows_idx, vertices = np.nonzero(frontier)
        rep, neighbors = self._snapshot.gather(vertices)
        counts = np.bincount(rows_idx[rep] * n + neighbors,
                             minlength=num_rows * n).reshape(num_rows, n)
        for (a, b), present in self._override_items():
            sign = 1 if present else -1
            counts[:, b] += sign * frontier[:, a]
            counts[:, a] += sign * frontier[:, b]
        return counts

    def _override_items(self):
        for edge in self._added:
            yield edge, True
        for edge in self._removed:
            yield edge, False

    def set_edge(self, u: int, v: int, present: bool) -> None:
        edge = (u, v) if u < v else (v, u)
        if present:
            if edge in self._removed:
                self._removed.discard(edge)
            else:
                self._added.add(edge)
        else:
            if edge in self._added:
                self._added.discard(edge)
            else:
                self._removed.add(edge)
        if len(self._added) + len(self._removed) > self._REBUILD_THRESHOLD:
            self.rebuild()

    def rebuild(self) -> None:
        self._snapshot = CSRAdjacency.from_graph(self._graph)
        self._added.clear()
        self._removed.clear()


class DistanceSession:
    """Stateful owner of a working graph's L-bounded distance matrix.

    The session holds a *reference* to ``graph``; all mutations of the graph
    must go through :meth:`apply` (or be followed by :meth:`refresh`) so the
    matrix stays in sync.  :meth:`preview` answers tentative edits without
    leaving any lasting change on either the graph or the matrix.

    Parameters
    ----------
    graph:
        The working graph (shared, not copied).
    length_bound:
        The L truncation of the distance matrix.
    engine:
        Distance engine used for the initial computation and for the
        from-scratch fallback (dense tier).
    fallback_row_fraction:
        When a sequential removal (:meth:`preview`, :meth:`stage`,
        :meth:`apply`) would touch more than ``max(16, fraction * n)``
        rows, it recomputes the full matrix instead of the affected slab
        (the slab path would cost more than it saves).  ``None`` (default)
        derives the fraction from the graph's measured density × L — the
        expected L-ball size — and keeps *recalibrating* it from the
        affected-row counts the batched scans observe, so the heuristic
        tracks the graph instead of a hard-coded 0.5.  An explicit float
        pins the fraction; ``0.0`` forces the from-scratch path on every
        sequential removal (useful for testing).  Either way the chosen
        value only routes between two value-identical code paths (slab vs
        from-scratch), so results never depend on it; batched removals
        repair cells and never consult it.  The tiled tier pins the
        fraction to ``1.0``: a from-scratch fallback would materialize the
        dense matrix the tier exists to avoid, and the slab path is
        bit-identical by the property-suite contract.
    initial_distances:
        Optional precomputed L-bounded distances of ``graph`` — either a
        matrix (e.g. a thresholded slice of a shared
        :class:`~repro.graph.distance_cache.LMaxDistanceCache`) or a
        :class:`~repro.graph.distance_store.DistanceStore` served by the
        tier-aware cache.  The session takes ownership (the payload is
        mutated in place by :meth:`commit`); it must equal
        ``bounded_distance_matrix(graph, length_bound)`` or every delta
        downstream is wrong.
    store_config:
        Scale-tier policy consulted only when ``initial_distances`` is
        ``None``; defaults to ``auto`` under the default budget (dense for
        every historical workload).
    """

    def __init__(self, graph: Graph, length_bound: int,
                 engine: DistanceEngine = "numpy",
                 fallback_row_fraction: Optional[float] = None,
                 initial_distances: Union[np.ndarray, DistanceStore, None] = None,
                 store_config: Optional[StoreConfig] = None) -> None:
        if length_bound < 1:
            raise ConfigurationError(f"length_bound must be >= 1, got {length_bound}")
        if fallback_row_fraction is not None \
                and not 0.0 <= fallback_row_fraction <= 1.0:
            raise ConfigurationError(
                f"fallback_row_fraction must be in [0, 1], got {fallback_row_fraction}")
        self._graph = graph
        self._length = int(length_bound)
        self._engine = engine
        self._requested_fraction = fallback_row_fraction
        self._auto_fraction = fallback_row_fraction is None
        self._fallback_fraction = (self._estimate_fraction()
                                   if self._auto_fraction
                                   else float(fallback_row_fraction))
        self._observed_rows = 0
        self._observed_candidates = 0
        self._csr: Optional[CSRAdjacency] = None
        self._counts: Dict[int, np.ndarray] = {}  # dense-tier K memo
        self._store = self._init_store(initial_distances, store_config)
        if isinstance(self._store, TiledStore):
            self._fallback_fraction = 1.0
            self._auto_fraction = False
            self._mirror = _CSROverlayAdjacency(graph)
        else:
            self._mirror = _DenseAdjacency(graph)

    def _estimate_fraction(self) -> float:
        """Initial auto fraction: the expected relative L-ball size.

        A removal's affected rows live within L of an endpoint, so the
        density-derived ball size ``degree^(L-1)`` (doubled for the two
        endpoints, with generous 8x headroom before the from-scratch path
        can pay off) estimates the fraction of rows a typical removal
        touches; the batched scans keep refining it with measured counts.
        """
        n = max(1, self._graph.num_vertices)
        return min(1.0, max(0.05, 8.0 * self._expected_ball() / n))

    def _expected_ball(self) -> float:
        """Density-derived rows a single removal touches: ``2 degree^(L-1)``."""
        n = max(1, self._graph.num_vertices)
        degree = max(1.0, 2.0 * self._graph.num_edges / n)
        return min(float(n), 2.0 * degree ** max(0, self._length - 1))

    def _init_store(self,
                    initial_distances: Union[np.ndarray, DistanceStore, None],
                    store_config: Optional[StoreConfig]) -> DistanceStore:
        n = self._graph.num_vertices
        if isinstance(initial_distances, DistanceStore):
            if initial_distances.num_vertices != n:
                raise ConfigurationError(
                    f"initial store covers {initial_distances.num_vertices} "
                    f"vertices, the graph has {n}")
            if initial_distances.length_bound != self._length:
                raise ConfigurationError(
                    f"initial store is bounded at "
                    f"{initial_distances.length_bound}, the session needs "
                    f"{self._length}")
            return initial_distances
        if initial_distances is not None:
            if initial_distances.shape != (n, n):
                raise ConfigurationError(
                    f"initial_distances must be {n}x{n}, "
                    f"got {initial_distances.shape}")
            matrix = np.ascontiguousarray(initial_distances)
            if matrix.dtype != distance_dtype(self._length):
                # Legacy int32 payloads: renormalize the sentinel into the
                # contract dtype (values ≤ L are untouched, so the result
                # stays bit-identical to the engine output at L).
                from repro.graph.distance_cache import threshold_distances
                matrix = threshold_distances(matrix, self._length)
            return DenseStore(matrix, self._length)
        config = store_config or StoreConfig()
        tier = config.resolve(n, distance_dtype(self._length))
        if tier == "tiled":
            return TiledStore(self._graph, self._length,
                              tile_rows=config.tile_rows,
                              budget_bytes=config.budget_bytes,
                              spill_dir=config.spill_dir)
        matrix = bounded_distance_matrix(self._graph, self._length,
                                         engine=self._engine)
        return DenseStore(matrix, self._length)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The working graph this session tracks."""
        return self._graph

    @property
    def length_bound(self) -> int:
        """The L truncation."""
        return self._length

    @property
    def store(self) -> DistanceStore:
        """The distance store backing this session (row-block reads)."""
        return self._store

    @property
    def fallback_row_fraction(self) -> float:
        """The currently effective fallback fraction (auto-recalibrated)."""
        return self._fallback_fraction

    @property
    def requested_fallback_fraction(self) -> Optional[float]:
        """The constructor's fraction (``None`` = auto-derived)."""
        return self._requested_fraction

    def observe_affected_rows(self, rows_total: int, candidates: int) -> None:
        """Feed measured affected-row counts into the auto fraction.

        The batched scans call this with their per-chunk totals (parallel
        shards ship their workers' totals through the same hook); once
        enough candidates have been observed the fraction is re-derived
        from the measured mean so the heuristic tracks the *actual* graph
        instead of the density estimate.  Routing-only: recalibration never
        changes any result.
        """
        if candidates <= 0:
            return
        self._observed_rows += int(rows_total)
        self._observed_candidates += int(candidates)
        if not self._auto_fraction or self._observed_candidates < 16:
            return
        n = max(1, self._graph.num_vertices)
        mean_rows = self._observed_rows / self._observed_candidates
        self._fallback_fraction = min(1.0, max(0.05, 8.0 * mean_rows / n))

    def take_observed_stats(self) -> Tuple[int, int]:
        """Return and reset ``(affected rows, candidates)`` observed so far.

        The scan-pool workers drain their counters through this after every
        shard so the parent can fold them into its own auto fraction.
        """
        stats = (self._observed_rows, self._observed_candidates)
        self._observed_rows = 0
        self._observed_candidates = 0
        return stats

    def close(self) -> None:
        """Release store resources (tiled spill files); idempotent."""
        if isinstance(self._store, TiledStore):
            self._store.close()

    @property
    def distances(self) -> np.ndarray:
        """The current dense matrix (dense tier only; treat as read-only).

        The tiled tier never materializes ``n × n`` — stream through
        :meth:`rows` / :meth:`row_blocks` instead.
        """
        if isinstance(self._store, DenseStore):
            return self._store.array
        raise DistanceMemoryError(
            "this session runs on the tiled scale tier and has no dense "
            "matrix; read row blocks via session.rows()/row_blocks()")

    def rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` distance rows (columns by symmetry)."""
        return self._store.rows(block)

    def row_blocks(self) -> Iterator[Tuple[int, int]]:
        """Contiguous ``(start, stop)`` row ranges sized for this store."""
        return self._store.row_blocks()

    # ------------------------------------------------------------------
    # delta evaluation
    # ------------------------------------------------------------------
    def preview(self, removals: Sequence[Edge] = (),
                insertions: Sequence[Edge] = ()) -> DistanceDelta:
        """Return the delta of tentatively applying the edit, leaving no trace.

        Removals are processed before insertions, each against the state
        produced by its predecessors, exactly mirroring how the greedy
        algorithms apply a chosen combination.  The edit is applied to the
        graph and reverted before returning; the from-scratch fallback
        reads the edited graph.
        """
        removals = tuple(normalize_edge(u, v) for u, v in removals)
        insertions = tuple(normalize_edge(u, v) for u, v in insertions)
        applied = []
        try:
            return self._compute_delta(removals, insertions, applied)
        finally:
            self._revert(applied)

    def preview_batch(self, removals: Sequence[Union[Edge, Sequence[Edge]]] = (),
                      insertions: Sequence[Edge] = (),
                      skip_unchanged: bool = False) -> List[DistanceDelta | None]:
        """Deltas of *independent* candidates, one stacked pass per kind.

        Unlike :meth:`preview` — where the listed edges form one combined
        edit — every entry here is its own candidate.  A removal candidate
        is one edge or a combination of edges removed together (a
        look-ahead level); all removal candidates of one call have the same
        number k of edges, a single edge counting as k = 1.  The result is
        bit-identical in value to ``[preview(removals=c) for c in
        removals] + [preview(insertions=[e]) for e in insertions]``, but all
        removal candidates share one sparse-cell repair and all insertion
        candidates share one cell enumeration, eliminating the
        per-candidate numpy call overhead that dominates the greedy scans.
        Both kinds come in cell form (:class:`DistanceDelta`), computed in
        chunks sized by one cell budget: removals resolve only the cells a
        removal can lengthen, level by level on the edited graph, from
        per-state neighbour counts; insertions enumerate the cells the new
        edge shortens from its endpoint balls.  Neither gathers a
        full-width row per candidate or takes the from-scratch route a
        sequential preview may (both yield the same matrix).  Here the
        rows are materialized from the cells before returning; the fused
        variant leaves that to the first read.  The graph is never
        mutated: each candidate is validated against it up front
        (:func:`check_edit`), so an invalid one raises
        :class:`~repro.errors.InvalidEdgeError` before any work is done.

        ``skip_unchanged=True`` is the fused-scan variant for consumers
        that only tally *within-L membership flips* (the opacity sessions):
        candidates whose edit flips no cell across the L boundary — e.g. a
        removal whose every perturbed pair stays within L via an alternate
        path — yield ``None`` instead of a :class:`DistanceDelta`, so no
        per-candidate delta object is materialized for no-op candidates.
        """
        combos = [_as_combination(candidate) for candidate in removals]
        sizes = {len(combo) for combo in combos}
        if len(sizes) > 1 or 0 in sizes:
            raise ConfigurationError(
                "removal candidates of one batch must each remove the same, "
                "nonzero number of edges")
        singles = [(normalize_edge(u, v),) for u, v in insertions]
        for combo in combos:
            check_edit(self._graph, combo)
        for single in singles:
            check_edit(self._graph, (), single)
        return (self._batch_deltas(combos, False, skip_unchanged)
                + self._batch_deltas(singles, True, skip_unchanged))

    def _batch_slab_row_cap(self) -> int:
        """Rows per sequential slab pass, bounding the workspace to ~32 MB.

        A sequential removal's slab recompute keeps ~16 bytes of
        frontier-expansion workspace per slab cell (the int64 expansion
        counts plus the boolean frontier/reached planes); a sequential
        insertion relax keeps one int64 index triple per *relaxed* cell,
        at most one per slab cell and usually far fewer (a ball, not a
        row).  On the tiled tier the cap is additionally bounded by the
        store's byte budget: capping rows at ``budget // (16 n)`` keeps the
        transient slabs inside the same envelope the tile cache honours —
        instead of densifying per-candidate slabs past
        ``scale_budget_bytes``.
        """
        n = max(1, self._graph.num_vertices)
        cap = max(256, (1 << 22) // n)
        if isinstance(self._store, TiledStore):
            cap = min(cap, self._store.budget_bytes // (16 * n))
        return max(16, cap)

    def _batch_chunk_size(self, size: int) -> int:
        """Candidates of ``size`` edges per batched chunk, from the cell budget.

        A chunk gathers both endpoint rows of each of its candidates'
        edges (``2 k n`` cells a candidate); on the tiled tier the budget
        is further capped by the store's byte budget.
        """
        cells = _BATCH_CHUNK_CELLS
        if isinstance(self._store, TiledStore):
            cells = min(cells, self._store.budget_bytes // 16)
        return max(1, cells // (2 * size * max(1, self._graph.num_vertices)))

    def _committed_csr(self) -> CSRAdjacency:
        """CSR snapshot of the committed graph, rebuilt after edits."""
        if self._csr is None:
            self._csr = CSRAdjacency.from_graph(self._graph)
        return self._csr

    def _drop_committed_state(self) -> None:
        """Forget the caches of the committed graph state (CSR, ``K`` memo)."""
        self._csr = None
        self._counts = {}

    def _batch_deltas(self, combos: List[Tuple[Edge, ...]], insertion: bool,
                      skip_unchanged: bool) -> List[DistanceDelta | None]:
        """Cell-form deltas of same-size candidates, one chunk at a time.

        Each chunk computes all of its candidates' changed cells in one
        pass, :meth:`_insertion_cells` or :meth:`_removal_repair`, from the
        committed store and CSR snapshot; the graph is not touched.
        """
        deltas: List[DistanceDelta | None] = [None] * len(combos)
        if not combos:
            return deltas
        length = self._length
        chunk = self._batch_chunk_size(len(combos[0]))
        for start in range(0, len(combos), chunk):
            part = combos[start:start + chunk]
            edges = np.asarray(part, dtype=np.int64)
            candidate, row, col, old, new = (
                self._insertion_cells(edges[:, 0]) if insertion
                else self._removal_repair(edges, self._committed_csr()))
            bounds = np.searchsorted(candidate,
                                     np.arange(len(part) + 1)).tolist()
            if skip_unchanged:
                # Only candidates with a cell crossing L flip a membership.
                flipped = (old <= length) != (new <= length)
                live = np.unique(candidate[flipped]).tolist()
            else:
                live = range(len(part))
            for local in live:
                low, high = bounds[local], bounds[local + 1]
                delta = DistanceDelta(
                    () if insertion else part[local],
                    part[local] if insertion else (),
                    cells=(row[low:high], col[low:high], old[low:high],
                           new[low:high]),
                    store=self._store)
                if not skip_unchanged:
                    delta._materialize()
                deltas[start + local] = delta
        return deltas

    def _insertion_cells(self, edges: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
        """Changed cells of a chunk of single-edge insertion candidates.

        ``edges`` is a ``(candidates, 2)`` array of ``{u, v}``.  Returns
        ``(candidate, row, col, old, new)`` — one entry per changed
        unordered pair, grouped by candidate in ascending order, ``old``
        and ``new`` in the store dtype.

        Every improved path crosses the new edge once, so a changed cell
        is enumerated as ``(i, b)`` with ``i`` in the ``(L - 1)``-ball of
        ``u`` and ``b`` in the ``(L - 1 - D[i, u])``-ball of ``v`` (the
        path ``i → u — v → b``, or the mirror path read from the other
        end).  Its new value is ``min(A, B, old)`` with ``A = D[i, u] + 1 +
        D[v, b]`` and ``B = D[b, u] + 1 + D[v, i]``.  ``(b, i)`` is
        enumerated too exactly when ``B ≤ L``, so keeping ``i < b or B >
        L`` leaves one cell per unordered pair.
        """
        length = self._length
        ends, index = np.unique(edges, return_inverse=True)
        index = index.reshape(edges.shape)
        end_rows = self._store.rows(ends)
        balls = self._far_balls(end_rows)
        owner, row, d_near = self._ball_entries(
            balls, index[:, 0], np.full(edges.shape[0], length - 1))
        entry, col, d_far = self._ball_entries(
            balls, index[owner, 1], length - 1 - d_near)
        candidate, row = owner[entry], row[entry]
        u_end, v_end = index[candidate, 0], index[candidate, 1]
        forward = d_near[entry] + 1 + d_far  # A: i → u — v → b
        backward = end_rows[u_end, col].astype(np.int64) + 1 \
            + end_rows[v_end, row]  # B: b → u — v → i
        old = self._old_values(row)(row, col)
        new = np.minimum(np.minimum(forward, backward), old)
        keep = (new < old) & ((row < col) | (backward > length))
        return (candidate[keep], row[keep], col[keep], old[keep],
                new[keep].astype(self._store.dtype))

    def _removal_repair(self, edges: np.ndarray, csr: CSRAdjacency
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
        """Changed cells of a chunk of k-edge removal candidates.

        ``edges`` is a ``(candidates, k, 2)`` array.  Returns ``(candidate,
        row, col, old, new)`` — one entry per changed unordered pair,
        grouped by candidate in ascending order, ``old`` and ``new`` in the
        store dtype.

        A distance can only grow when every shortest ≤ L path crossed a
        removed edge, so for each edge ``{x, y}`` (both orientations) the
        candidate cells are the rows ``i`` with ``D[i, x] ≤ L - 1`` and
        ``D[i, y] = D[i, x] + 1``, paired with the columns ``b`` of the
        ``(L - 1 - D[i, x])``-ball of ``y`` where ``D[i, b] = D[i, x] + 1 +
        D[y, b]``; a combination's set is the union over its edges.  Those
        cells are then resolved level by level on the edited graph
        (:meth:`_repair_levels`); every other cell keeps its value.
        """
        count, size, _ = edges.shape
        length = self._length
        n = self._graph.num_vertices
        near_end = np.concatenate([edges[:, :, 0].ravel(), edges[:, :, 1].ravel()])
        far_end = np.concatenate([edges[:, :, 1].ravel(), edges[:, :, 0].ravel()])
        owner = np.tile(np.repeat(np.arange(count), size), 2)
        ends, index = np.unique(np.concatenate([near_end, far_end]),
                                return_inverse=True)
        end_rows = self._store.rows(ends)
        near_index, far_index = index[:near_end.size], index[near_end.size:]
        balls = self._far_balls(end_rows)
        # Rows within L - 1 of each oriented edge's near endpoint x.
        ball_edge, ball_row, ball_distance = self._ball_entries(
            balls, near_index, np.full(near_index.size, length - 1))
        qualifies = end_rows[far_index[ball_edge], ball_row] \
            == ball_distance + 1
        self.observe_affected_rows(int(np.count_nonzero(qualifies)),
                                   count * size)
        oriented, source = ball_edge[qualifies], ball_row[qualifies]
        near = ball_distance[qualifies]
        entry, col, far = self._ball_entries(balls, far_index[oriented],
                                             length - 1 - near)
        row = source[entry]
        old = near[entry] + 1 + far
        within = self._old_values(row)(row, col) == old
        candidate = owner[oriented[entry[within]]]
        row, col, old = row[within], col[within], old[within]
        # One cell per unordered pair per candidate, oriented low → high;
        # the oriented keys come out sorted by candidate.
        low, high = np.minimum(row, col), np.maximum(row, col)
        key, first = np.unique((candidate * n + low) * n + high,
                               return_index=True)
        candidate, row, col, old = (candidate[first], low[first],
                                    high[first], old[first])
        # Correction (a) entries: a row i within L - 1 of a removed edge's
        # endpoint x names the cell (i, y) of its other endpoint y.
        lookup = (owner[ball_edge] * n + ball_row) * n + far_end[ball_edge]
        position = np.minimum(np.searchsorted(key, lookup), key.size - 1)
        hit = key[position] == lookup
        new = self._repair_levels(
            key, candidate, row, col, old, edges[:, :, 0] * n + edges[:, :, 1],
            csr, self._count_values(row), position[hit], ball_distance[hit])
        changed = new != old
        new = np.where(new > length, self._store.sentinel, new)
        dtype = self._store.dtype
        return (candidate[changed], row[changed], col[changed],
                old[changed].astype(dtype), new[changed].astype(dtype))

    def _old_values(self, rows: np.ndarray):
        """Reader of committed values ``D[i, b]`` for source rows ``i``.

        The dense tier indexes its matrix; the tiled tier gathers the
        chunk's unique source rows once.
        """
        if isinstance(self._store, DenseStore):
            matrix = self._store.array
            return lambda row, col: matrix[row, col]
        unique = np.unique(rows)
        block = self._store.rows(unique)
        return lambda row, col: block[np.searchsorted(unique, row), col]

    def _count_values(self, rows: np.ndarray):
        """Reader of neighbour counts ``K_s[i, b]`` for source rows ``i``.

        ``K_s[i, b] = #{w ∈ N(b) : D[i, w] ≤ s - 1}`` over the committed
        graph, read as ``reader(s, row, col)``.  The dense tier indexes its
        per-state memo (:meth:`_neighbour_counts`); the tiled tier gathers
        the chunk's unique source rows once and expands the rows a level
        reads through the adjacency mirror.
        """
        if isinstance(self._store, DenseStore):
            return lambda level, row, col: \
                self._neighbour_counts(level)[row, col]
        unique = np.unique(rows)
        block = self._store.rows(unique)

        def read(level: int, row: np.ndarray, col: np.ndarray) -> np.ndarray:
            needed, inverse = np.unique(row, return_inverse=True)
            frontier = block[np.searchsorted(unique, needed)] <= level - 1
            return self._mirror.expand(frontier)[inverse, col]
        return read

    def _neighbour_counts(self, level: int) -> np.ndarray:
        """Dense-tier ``K_level`` of the committed graph, memoized per state.

        Built in row blocks from the adjacency mirror's exact float32
        product, stored as ``uint16`` (``uint32`` past 65,536 vertices) —
        ``2 n²`` bytes a level beside the mirror's ``4 n²``.  Every state
        change drops the memo (:meth:`_drop_committed_state`).
        """
        counts = self._counts.get(level)
        if counts is None:
            n = self._graph.num_vertices
            matrix = self._store.array
            counts = np.empty((n, n), dtype=np.uint16 if n <= 1 << 16
                              else np.uint32)
            step = max(1, (1 << 22) // max(1, n))
            for start in range(0, n, step):
                counts[start:start + step] = self._mirror.expand(
                    matrix[start:start + step] <= level - 1)
            self._counts[level] = counts
        return counts

    def _repair_levels(self, key: np.ndarray, candidate: np.ndarray,
                       row: np.ndarray, col: np.ndarray, old: np.ndarray,
                       edge_keys: np.ndarray, csr: CSRAdjacency, counts,
                       removed_cell: np.ndarray, removed_distance: np.ndarray
                       ) -> np.ndarray:
        """New values of the candidate cells on each candidate's edited graph.

        ``key`` holds the sorted oriented cell keys ``(candidate * n + row)
        * n + col``; ``edge_keys`` each candidate's removed edges as ``u *
        n + v``.  Level 1: a cell with old value 1 is an edge and stays 1
        unless its candidate removed it.  Level ``s = 2..L``: a pending
        cell ``(i, b)`` (unresolved, old ≤ s) resolves to ``s`` when ``b``
        keeps a neighbour ``w`` with new ``d(i, w) ≤ s - 1`` — the count
        ``K_s[i, b]`` (``counts``) minus two sparse corrections:

        * (a) each removed edge ``{b, w}`` with ``D[i, w] ≤ s - 1``
          (precomputed as ``removed_cell`` / ``removed_distance``);
        * (b) each *lengthened* cell ``(i, w)`` — old ≤ s - 1, still
          unresolved after level s - 1 — for every kept neighbour ``b`` of
          ``w``, found by ``searchsorted`` over ``key``.

        Cells unresolved after level L come back as ``L + 1``.
        """
        length = self._length
        n = self._graph.num_vertices
        new = np.full(key.size, length + 1, dtype=np.int64)
        ones = np.nonzero(old == 1)[0]
        removed = (edge_keys[candidate[ones]]
                   == (row[ones] * n + col[ones])[:, None]).any(axis=1)
        new[ones[~removed]] = 1
        degree = np.diff(csr.indptr)
        for level in range(2, length + 1):
            deficit = np.bincount(
                removed_cell[removed_distance <= level - 1],
                minlength=key.size)
            lengthened = np.nonzero((old <= level - 1) & (new > length))[0]
            near = np.concatenate([row[lengthened], col[lengthened]])
            far = np.concatenate([col[lengthened], row[lengthened]])
            owner = np.tile(candidate[lengthened], 2)
            for low, high in _budget_slices(degree[far], _BATCH_CHUNK_CELLS):
                rep, neighbor = csr.gather(far[low:high])
                source = near[low:high][rep]
                target = far[low:high][rep]
                cell_owner = owner[low:high][rep]
                pair = np.minimum(target, neighbor) * n \
                    + np.maximum(target, neighbor)
                kept = ~(edge_keys[cell_owner] == pair[:, None]).any(axis=1)
                lookup = (cell_owner * n + source) * n + neighbor
                position = np.minimum(np.searchsorted(key, lookup),
                                      key.size - 1)
                hit = kept & (key[position] == lookup)
                deficit += np.bincount(position[hit], minlength=key.size)
            pending = np.nonzero((new > length) & (old <= level))[0]
            reach = counts(level, row[pending], col[pending]).astype(np.int64)
            new[pending[reach > deficit[pending]]] = level
        return new

    def _far_balls(self, far_rows: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (L-1)-balls of edge endpoints, columns sorted by distance.

        ``far_rows`` holds one distance row per endpoint.  Returns
        ``(columns, distances, starts, ends)``: endpoint ``f``'s ball of
        radius ``r`` is ``columns[starts[f]:starts[f] + ends[f, r]]``, with
        the matching ``distances``.
        """
        reach = self._length
        owner, columns = np.nonzero(far_rows <= reach - 1)
        distances = far_rows[owner, columns].astype(np.int64)
        key = owner * reach + distances
        order = np.argsort(key, kind="stable")
        counts = np.bincount(key, minlength=far_rows.shape[0] * reach
                             ).reshape(far_rows.shape[0], reach)
        sizes = counts.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        return columns[order], distances[order], starts, np.cumsum(counts,
                                                                   axis=1)

    def _relax_balls(self, block: np.ndarray, near: np.ndarray,
                     balls: Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray],
                     far_index: np.ndarray) -> None:
        """Relax ``block`` in place through one orientation of the new edge.

        Row ``i`` sits at distance ``near[i]`` from the near endpoint; the
        new edge can only lower its cells ``b`` with ``near[i] + 1 +
        d(far, b) <= L``, i.e. the ``(L - 1 - near[i])``-ball of the far
        endpoint ``far_index[i]``, so only those cells are gathered and
        compared.  Relaxed values are at most L, so no sentinel fix-up is
        needed and the block keeps its dtype.
        """
        near = near.astype(np.int64)
        live = np.nonzero(near <= self._length - 1)[0]
        entry, cells, distances = self._ball_entries(
            balls, far_index[live], self._length - 1 - near[live])
        slab_row = live[entry]
        block[slab_row, cells] = np.minimum(block[slab_row, cells],
                                            near[slab_row] + 1 + distances)

    @staticmethod
    def _ball_entries(balls: Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray],
                      far_index: np.ndarray, radius: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Enumerate the ``radius[k]``-ball of far endpoint ``far_index[k]``.

        Returns ``(entry, columns, distances)``: one item per ball member,
        ``entry`` naming the ``k`` it belongs to (a ragged ``arange`` over
        the distance-sorted gather of :meth:`_far_balls`).
        """
        columns, distances, starts, ends = balls
        lengths = ends[far_index, radius]
        entry = np.repeat(np.arange(far_index.size), lengths)
        offsets = np.cumsum(lengths) - lengths
        flat = np.arange(int(lengths.sum())) \
            + np.repeat(starts[far_index] - offsets, lengths)
        return entry, columns[flat], distances[flat]

    def stage(self, removals: Sequence[Edge] = (),
              insertions: Sequence[Edge] = ()) -> DistanceDelta:
        """Apply the edit to the graph and return its delta, matrix untouched.

        Two-phase counterpart of :meth:`preview` for *permanent* edits: the
        graph (and adjacency mirror) are mutated exactly once, while the
        distance matrix still holds pre-edit values until :meth:`commit`
        folds the delta in — callers can diff counts against the old matrix
        in between.
        """
        removals = tuple(normalize_edge(u, v) for u, v in removals)
        insertions = tuple(normalize_edge(u, v) for u, v in insertions)
        self._drop_committed_state()
        applied = []
        try:
            return self._compute_delta(removals, insertions, applied)
        except BaseException:
            self._revert(applied)
            raise

    def commit(self, delta: DistanceDelta) -> None:
        """Fold a :meth:`stage`-d delta into the store."""
        if delta.from_scratch:
            self._store.replace(delta.new_rows)
        elif delta.rows.size:
            self._store.write_rows(delta.rows, delta.new_rows)

    def apply(self, removals: Sequence[Edge] = (),
              insertions: Sequence[Edge] = (),
              delta: DistanceDelta | None = None) -> DistanceDelta:
        """Apply the edit to the graph and fold its delta into the matrix.

        ``delta`` may carry the result of a matching :meth:`preview` to avoid
        recomputing it; it must describe exactly the same edit.
        """
        norm_removals = tuple(normalize_edge(u, v) for u, v in removals)
        norm_insertions = tuple(normalize_edge(u, v) for u, v in insertions)
        if delta is None:
            delta = self.stage(norm_removals, norm_insertions)
        else:
            if (delta.removals, delta.insertions) != (norm_removals, norm_insertions):
                raise ConfigurationError("delta does not describe the requested edit")
            self._drop_committed_state()
            for u, v in norm_removals:
                self._graph.remove_edge(u, v)
                self._mirror.set_edge(u, v, False)
            for u, v in norm_insertions:
                self._graph.add_edge(u, v)
                self._mirror.set_edge(u, v, True)
        self.commit(delta)
        return delta

    def _compute_delta(self, removals: Tuple[Edge, ...],
                       insertions: Tuple[Edge, ...],
                       applied: list) -> DistanceDelta:
        """Build the delta, applying ops to graph/adjacency as it goes.

        Every applied op is recorded in ``applied`` (for the caller to
        revert, or keep); the distance matrix itself is never written.

        Multi-op sequences track intermediate state in a sparse *row
        overlay* instead of a full matrix copy: every changed cell has both
        endpoints among its op's affected rows, so a base row not in the
        overlay is guaranteed untouched by earlier ops and reads compose
        consistently.
        """
        ops = [("remove", edge) for edge in removals]
        ops += [("insert", edge) for edge in insertions]
        n = self._graph.num_vertices
        if not ops:
            return DistanceDelta(removals, insertions,
                                 np.empty(0, dtype=np.int64),
                                 np.empty((0, n), dtype=self._store.dtype))
        overlay: dict = {}  # row index -> updated store-dtype row

        def column(j: int) -> np.ndarray:
            col = self._store.rows(np.asarray([j], dtype=np.int64))[0]
            col = col.astype(np.int64)
            for i, row in overlay.items():
                col[i] = row[j]
            return col

        scratch = False
        for kind, (u, v) in ops:
            if kind == "remove":
                self._graph.remove_edge(u, v)
                self._mirror.set_edge(u, v, False)
            else:
                self._graph.add_edge(u, v)
                self._mirror.set_edge(u, v, True)
            applied.append((kind, (u, v)))
            if scratch:
                continue
            du, dv = column(u), column(v)
            if kind == "remove":
                rows = self._removal_rows(du, dv)
                self.observe_affected_rows(int(rows.size), 1)
                if rows.size > self._fallback_threshold(n):
                    scratch = True
                    continue
                block = self._rows_block(rows)
            else:
                rows = np.nonzero(np.minimum(du, dv) <= self._length - 1)[0]
                if rows.size == 0:
                    continue
                base = self._store.rows(rows)
                for position, index in enumerate(rows.tolist()):
                    if index in overlay:
                        base[position] = overlay[index]
                block = self._relax_insertion(base, du, dv, rows)
            for position, index in enumerate(rows.tolist()):
                overlay[index] = block[position]
        if scratch:
            full = bounded_distance_matrix(self._graph, self._length,
                                           engine=self._engine)
            return DistanceDelta(removals, insertions,
                                 np.arange(n, dtype=np.int64), full,
                                 from_scratch=True)
        rows = np.fromiter(sorted(overlay), dtype=np.int64, count=len(overlay))
        block = (np.stack([overlay[int(i)] for i in rows])
                 if rows.size else np.empty((0, n), dtype=self._store.dtype))
        # Drop rows that did not actually change, so downstream count
        # deltas only walk genuinely perturbed cells.
        if rows.size:
            changed = (block != self._store.rows(rows)).any(axis=1)
            rows = rows[changed]
            block = block[changed]
        return DistanceDelta(removals, insertions, rows,
                             np.ascontiguousarray(block,
                                                  dtype=self._store.dtype))

    def _revert(self, applied: list) -> None:
        """Undo applied ops: insertions first, then removals, forward order."""
        for kind, (u, v) in applied:
            if kind == "insert":
                self._graph.remove_edge(u, v)
                self._mirror.set_edge(u, v, False)
        for kind, (u, v) in applied:
            if kind == "remove":
                self._graph.add_edge(u, v)
                self._mirror.set_edge(u, v, True)

    def refresh(self) -> None:
        """Recompute the distances from scratch (after out-of-band graph edits)."""
        if isinstance(self._store, TiledStore):
            old = self._store
            self._store = TiledStore(self._graph, self._length,
                                     tile_rows=old.tile_rows,
                                     budget_bytes=old.budget_bytes,
                                     spill_dir=old.spill_dir)
            old.close()
        else:
            self._store = DenseStore(
                bounded_distance_matrix(self._graph, self._length,
                                        engine=self._engine),
                self._length)
        self._mirror.rebuild()
        self._drop_committed_state()

    # ------------------------------------------------------------------
    # per-edit machinery
    # ------------------------------------------------------------------
    def _fallback_threshold(self, n: int) -> int:
        if self._fallback_fraction == 0.0:
            return 0
        return max(16, int(n * self._fallback_fraction))

    def _removal_rows(self, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Rows that can change when the edge between the columns is removed.

        ``du`` / ``dv`` are the (pre-removal) int64 distance columns of the
        edge's endpoints.  A shortest ≤L path from ``i`` crossing the edge
        reaches one endpoint at distance ``d`` and the other at ``d + 1``
        with ``d ≤ L - 1``; rows violating either condition are untouched.
        """
        near = np.minimum(du, dv) <= self._length - 1
        return np.nonzero(near & (np.abs(du - dv) == 1))[0]

    def _rows_block(self, rows: np.ndarray) -> np.ndarray:
        """Recompute ``rows`` of the matrix on the current (edited) graph.

        Vectorized multi-source frontier expansion — the ``numpy`` engine's
        recurrence restricted to an ``|rows| × n`` slab, so the cost scales
        with the affected region instead of the whole vertex set.  Rows are
        independent sources, so oversized slabs stream through the row cap
        in chunks (bit-identical, workspace bounded).
        """
        cap = self._batch_slab_row_cap()
        if rows.size > cap:
            return np.concatenate(
                [self._rows_block_chunk(rows[start:start + cap])
                 for start in range(0, rows.size, cap)], axis=0)
        return self._rows_block_chunk(rows)

    def _rows_block_chunk(self, rows: np.ndarray) -> np.ndarray:
        n = self._graph.num_vertices
        sentinel = self._store.sentinel
        block = np.full((rows.size, n), sentinel, dtype=self._store.dtype)
        source_index = np.arange(rows.size)
        block[source_index, rows] = 0
        reached = np.zeros((rows.size, n), dtype=np.bool_)
        reached[source_index, rows] = True
        frontier = self._mirror.block(rows)
        step = 1
        while step <= self._length and frontier.any():
            new = frontier & ~reached
            block[new & (block == sentinel)] = step
            reached |= new
            if step == self._length:
                break
            frontier = self._mirror.expand(new) > 0
            step += 1
        return block

    def _relax_insertion(self, base: np.ndarray, du: np.ndarray,
                         dv: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """New values of ``rows`` after inserting the edge between the columns.

        ``base`` holds the pre-insertion values of ``rows`` and is relaxed
        in place; only rows within L - 1 of an endpoint can gain a new ≤L
        path, and their new values follow from the single-edge relaxation
        (every improved shortest path is simple, so it crosses the new edge
        exactly once), restricted to the endpoints' balls as in
        :meth:`_relax_balls`.  Rows stream through the row cap in chunks,
        bounding the per-cell index workspace.
        """
        balls = self._far_balls(np.stack([dv, du]))
        cap = self._batch_slab_row_cap()
        for start in range(0, rows.size, cap):
            chunk = rows[start:start + cap]
            block = base[start:start + cap]
            far_v = np.zeros(chunk.size, dtype=np.int64)
            self._relax_balls(block, du[chunk], balls, far_v)
            self._relax_balls(block, dv[chunk], balls, far_v + 1)
        return base
