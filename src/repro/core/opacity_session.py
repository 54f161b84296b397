"""Stateful, delta-evaluated opacity sessions.

:class:`repro.core.opacity.OpacityComputer` stays the stateless Algorithm 1
evaluator; :class:`OpacitySession` adds the state the candidate scans need
to answer "what would ``maxLO`` be after this edit?" thousands of times per
greedy step without a from-scratch recount.

A session owns a working graph together with

* a :class:`repro.graph.distance_delta.DistanceSession` maintaining the
  L-bounded distance matrix, and
* the per-type within-L counts of the *current* graph, kept in the frozen
  typing's iteration order.

A tentative edit then costs one distance delta plus a count delta over the
flipped cells — for :class:`~repro.core.pair_types.DegreePairTyping` a
vectorized bincount over the changed pairs; at L = 1 a batched scan skips
the distance machinery entirely (a flipped cell is exactly an edited edge,
so the tally reduces to a bincount over the candidates' own edges).  The
session reproduces the stateless evaluator *bit-identically*: the same
``Fraction`` maxima, the same ``types_at_max`` tie-break counts, and (for
GADED-Max) the same float-summed total opacity as the paper's
copy-evaluate-restore loop, which the test suite keeps as its reference.

Whole candidate scans go through :meth:`OpacitySession.evaluate_edits`,
which stacks the distance deltas of all single-edge candidates (or of one
look-ahead level's k-edge removal combinations) into one
:meth:`~repro.graph.distance_delta.DistanceSession.preview_batch` pass and
tallies every candidate with a single grouped bincount (batched removals
and insertions arrive as changed cells, tallied without any row gather),
bit-identical to one :meth:`OpacitySession.evaluate_edit` per candidate
(DESIGN.md §6).  A batched scan only reads the working graph: its
candidates are validated against it, never applied.  Every candidate is
then summarized against one :class:`RatioOrder` of the current per-type
ratios, so its exact maximum and tie count cost O(types it changes); the
float total is left lazy and computed per batch only when read
(GADED-Max).  The session also maintains the pruning pass's within-L
violating-pair mask incrementally (:meth:`violating_pair_indices`).
"""

from __future__ import annotations

import logging
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.opacity import (
    OpacityComputer,
    OpacityResult,
    decode_degree_pair,
    encode_degree_pairs,
)
from repro.core.pair_types import DegreePairTyping, TypeKey
from repro.graph.distance_delta import DistanceDelta, DistanceSession, check_edit
from repro.graph.distance_store import DenseStore, DistanceStore, StoreConfig
from repro.graph.graph import Edge, Graph
from repro.graph.matrices import triu_pair_indices

_LOG = logging.getLogger(__name__)

#: One candidate edit: the removals and insertions applied together.
EditCandidate = Tuple[Sequence[Edge], Sequence[Edge]]


class EditEvaluation:
    """Outcome of one tentative edit — exactly what the candidate scans need.

    ``fraction`` is the exact ``maxLO`` after the edit and ``types_at_max``
    the number of types attaining it.  ``total_opacity`` is the float sum
    of per-type opacities in typing order (GADED-Max's secondary
    objective), accumulated left to right over the stateless evaluator's
    ``per_type`` entries.  It is computed lazily: the evaluations of one
    summarized batch share one :class:`_BatchTotals`, and the first read of
    any member's total computes the whole batch's totals in one vectorized
    pass, so scans that never read it (rem, rem-ins) never pay for it.
    Equality compares all three values.
    """

    __slots__ = ("fraction", "types_at_max", "_total", "_batch", "_position")

    def __init__(self, fraction: Fraction, types_at_max: int,
                 total_opacity: Optional[float] = None,
                 batch: Optional["_BatchTotals"] = None,
                 position: int = 0) -> None:
        self.fraction = fraction
        self.types_at_max = types_at_max
        self._total = total_opacity
        self._batch = batch
        self._position = position

    @property
    def total_opacity(self) -> float:
        """Float sum of per-type opacities after the edit (GADED-Max key)."""
        if self._total is None:
            self._total = self._batch.total(self._position)
            self._batch = None
        return self._total

    @property
    def max_opacity(self) -> float:
        """``maxLO`` after the edit, as a float."""
        return float(self.fraction)

    def _key(self) -> Tuple[Fraction, int, float]:
        return (self.fraction, self.types_at_max, self.total_opacity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EditEvaluation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"EditEvaluation(fraction={self.fraction!r}, "
                f"types_at_max={self.types_at_max!r}, "
                f"total_opacity={self.total_opacity!r})")


class _BatchTotals:
    """The total opacities of one summarized batch, computed on first read.

    Holds the base per-type counts (never mutated: :meth:`OpacitySession.
    apply_edit` replaces the array) and the batch's change dicts.  The
    float ratio matrix is tiled for the whole batch and summed with
    ``cumsum``, which accumulates element by element, left to right, like
    a plain loop over the stateless evaluator's ``per_type`` entries.
    """

    __slots__ = ("_withins", "_totals", "_changes", "_values")

    def __init__(self, withins: np.ndarray, totals: np.ndarray,
                 changes_list: List[Dict[int, int]]) -> None:
        self._withins = withins
        self._totals = totals
        self._changes = changes_list
        self._values: Optional[List[float]] = None

    def total(self, position: int) -> float:
        if self._values is None:
            self._values = self._compute()
            self._changes = None
        return self._values[position]

    def _compute(self) -> List[float]:
        count = len(self._changes)
        if self._withins.size == 0:
            return [0.0] * count
        withins = np.tile(self._withins, (count, 1))
        for row, changes in enumerate(self._changes):
            for index, change in changes.items():
                withins[row, index] += change
        ratios = withins / self._totals[None, :]
        return np.cumsum(ratios, axis=1)[:, -1].tolist()


class RatioOrder:
    """Exact ``max`` / tie summaries of per-type ratios under sparse changes.

    Built once per base state (``withins[t] / totals[t]`` per type ``t``):
    the types sorted by exact ratio, descending, and grouped by equal exact
    ratio, with every group's size and reduced ratio and every type's
    group.  A candidate that changes a few types' counts is then summarized
    in O(types it changes): the largest *unchanged* ratio is the first
    group the candidate's changed types do not exhaust, its tie count is
    that group's size minus the candidate's changed members in it, and each
    changed type's new ratio is merged in by integer cross-multiplication
    (the ordering ``Fraction`` induces).  The result equals a full
    ``Fraction`` scan over every type.

    The order is built with one ``argsort`` of the float ratios.
    Correctly-rounded float division is monotone, so only float-equal
    neighbours can be out of exact order; such runs are split by reduced
    numerator/denominator and re-sorted exactly when they hold distinct
    exact ratios (counts beyond 2**40 can make that happen).
    """

    __slots__ = ("_withins", "_totals", "_within_list", "_total_list",
                 "_group_of", "_sizes", "_nums", "_dens")

    def __init__(self, withins: np.ndarray, totals: np.ndarray) -> None:
        self._withins = withins
        self._totals = totals
        self._within_list: List[int] = withins.tolist()
        self._total_list: List[int] = totals.tolist()
        if withins.size == 0:
            self._group_of: List[int] = []
            self._sizes: List[int] = []
            self._nums: List[int] = []
            self._dens: List[int] = []
            return
        ratios = withins / totals
        order = np.argsort(-ratios, kind="stable")
        ratios = ratios[order]
        divisor = np.gcd(withins, totals)[order]
        nums = withins[order] // divisor
        dens = totals[order] // divisor
        float_split = ratios[1:] != ratios[:-1]
        exact_split = (nums[1:] != nums[:-1]) | (dens[1:] != dens[:-1])
        if (exact_split & ~float_split).any():
            order, nums, dens = self._sort_float_runs(order, nums, dens,
                                                      float_split, exact_split)
            exact_split = (nums[1:] != nums[:-1]) | (dens[1:] != dens[:-1])
        group = np.concatenate(([0], np.cumsum(exact_split)))
        group_of = np.empty(order.size, dtype=np.int64)
        group_of[order] = group
        firsts = np.concatenate(([0], np.nonzero(exact_split)[0] + 1))
        self._group_of = group_of.tolist()
        self._sizes = np.bincount(group).tolist()
        self._nums = nums[firsts].tolist()
        self._dens = dens[firsts].tolist()

    @staticmethod
    def _sort_float_runs(order: np.ndarray, nums: np.ndarray, dens: np.ndarray,
                         float_split: np.ndarray, exact_split: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re-sort, by exact ratio, every float-equal run of distinct ratios."""
        bounds = np.concatenate(([0], np.nonzero(float_split)[0] + 1,
                                 [order.size])).tolist()
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if not exact_split[start:stop - 1].any():
                continue
            run = sorted(range(start, stop),
                         key=lambda p: Fraction(int(nums[p]), int(dens[p])),
                         reverse=True)
            order[start:stop] = order[run]
            nums[start:stop] = nums[run]
            dens[start:stop] = dens[run]
        return order, nums, dens

    def summarize(self, changes_list: List[Dict[int, int]]
                  ) -> List[EditEvaluation]:
        """One :class:`EditEvaluation` per change dict (type index → delta).

        Totals are not computed here: the returned evaluations share one
        lazy :class:`_BatchTotals`.
        """
        batch = _BatchTotals(self._withins, self._totals, changes_list)
        group_of, sizes = self._group_of, self._sizes
        nums, dens = self._nums, self._dens
        withins, totals = self._within_list, self._total_list
        groups = len(sizes)
        evaluations = []
        for position, changes in enumerate(changes_list):
            touched: Dict[int, int] = {}
            for index in changes:
                group = group_of[index]
                touched[group] = touched.get(group, 0) + 1
            group = 0
            while group < groups and touched.get(group, 0) == sizes[group]:
                group += 1
            if group < groups:
                best_num, best_den = nums[group], dens[group]
                ties = sizes[group] - touched.get(group, 0)
            else:
                best_num, best_den, ties = 0, 1, 0
            for index, change in changes.items():
                num = withins[index] + change
                den = totals[index]
                ordering = num * best_den - best_num * den
                if ordering > 0:
                    best_num, best_den, ties = num, den, 1
                elif ordering == 0:
                    ties += 1
            evaluations.append(EditEvaluation(
                Fraction(best_num, best_den), ties, batch=batch,
                position=position))
        return evaluations


class OpacitySession:
    """Evaluate and apply edge edits against a working graph.

    All graph mutations of an anonymization run must go through
    :meth:`apply_edit` so the incremental state stays in sync; tentative
    candidates go through :meth:`evaluate_edits` (or :meth:`evaluate_edit`),
    which leave no trace.

    Parameters
    ----------
    computer:
        The stateless evaluator fixing typing, L, and the distance engine.
    graph:
        The working graph (shared, not copied).
    fallback_row_fraction:
        Passed to :class:`DistanceSession` — sequential removal previews
        (applied edits, GADES swaps) touching more than this fraction of
        rows fall back to a from-scratch matrix.
        ``None`` (default) derives and keeps recalibrating the fraction
        from measured density × L; the chosen value is routing-only and
        never changes results.
    scan_workers:
        Size of the parallel scan pool (resolved by
        :func:`repro.core.scan_pool.resolve_scan_workers`).  With a
        value > 1, :meth:`evaluate_edits` shards large candidate scans
        across that many worker processes attached to a shared-memory
        publication of this session's state; 0/1 keeps every scan serial.
        Any pool failure falls back to the serial scan permanently —
        results are bit-identical either way.
    initial_distances:
        Optional precomputed L-bounded distances of ``graph`` — a matrix
        (e.g. a thresholded slice of a shared
        :class:`~repro.graph.distance_cache.LMaxDistanceCache`) or a
        :class:`~repro.graph.distance_store.DistanceStore` served by the
        tier-aware cache — adopted as the incremental session's starting
        state so construction skips the from-scratch engine run.  The
        session takes ownership of the payload.
    store_config:
        Scale-tier policy for a session that must compute its own
        distances (ignored when ``initial_distances`` is given).
    """

    def __init__(self, computer: OpacityComputer, graph: Graph,
                 fallback_row_fraction: Optional[float] = None,
                 initial_distances: Optional[np.ndarray | DistanceStore] = None,
                 store_config: Optional[StoreConfig] = None,
                 scan_workers: int = 0) -> None:
        self._computer = computer
        self._graph = graph
        self._current: Optional[OpacityResult] = None
        # Lazy pruning-pass state: frozen degree-pair codes of every upper-
        # triangle pair, and the maintained within-L mask.
        self._triu_codes: Optional[np.ndarray] = None
        self._triu_code_span: int = 1
        self._within_pairs: Optional[np.ndarray] = None
        # Parallel-scan state: the pool is started lazily on the first
        # large-enough scan and torn down permanently on any failure.
        self._scan_workers = max(0, int(scan_workers))
        self._scan_pool = None
        self._scan_failed = False
        self.parallel_scans = 0
        self._distance = DistanceSession(
            graph, computer.length_threshold, engine=computer.engine,
            fallback_row_fraction=fallback_row_fraction,
            initial_distances=initial_distances,
            store_config=store_config)
        self._init_counts()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def computer(self) -> OpacityComputer:
        """The stateless evaluator this session wraps."""
        return self._computer

    @property
    def graph(self) -> Graph:
        """The working graph."""
        return self._graph

    @property
    def scan_workers(self) -> int:
        """The configured parallel-scan pool size (0 = serial scans)."""
        return self._scan_workers

    @property
    def scan_parallelism(self) -> int:
        """How many processes a candidate scan currently spans (>= 1)."""
        if self._scan_workers > 1 and not self._scan_failed \
                and self._computer.length_threshold > 1:
            return self._scan_workers
        return 1

    @property
    def fallback_row_fraction(self) -> float:
        """The distance session's effective fallback fraction (debug hook)."""
        return self._distance.fallback_row_fraction

    def distance_rows(self, block: Sequence[int]) -> np.ndarray:
        """Fresh ``|block| × n`` distance rows.

        Columns follow by symmetry; this is the tier-independent way to
        read distances, sized to the store's tile budget.
        """
        return self._distance.rows(block)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def current(self) -> OpacityResult:
        """Full Algorithm 1 result for the current graph state."""
        if self._current is None:
            counts = {key: int(within)
                      for key, within in zip(self._type_keys, self._withins)}
            self._current = self._computer.result_from_counts(counts)
        return self._current

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> EditEvaluation:
        """Opacity outcome after tentatively applying the edit (no trace left).

        The sequential reference of :meth:`evaluate_edits`: one
        :meth:`~repro.graph.distance_delta.DistanceSession.preview`, which
        applies the edit to the graph and reverts it.
        """
        delta = self._distance.preview(removals, insertions)
        return self._summarize([self._count_changes(delta)])[0]

    def evaluate_edits(self, candidates: Sequence[EditCandidate]) -> List[EditEvaluation]:
        """Outcomes of many *independent* tentative edits, batch-evaluated.

        Bit-identical to ``[self.evaluate_edit(r, i) for r, i in candidates]``
        — same ``Fraction`` maxima, tie counts and float totals — but a
        homogeneous scan of single-edge removals (resp. insertions)
        computes all distance deltas in one stacked
        :meth:`~repro.graph.distance_delta.DistanceSession.preview_batch`
        pass and tallies every candidate's count deltas with a single
        grouped bincount over the stacked flipped cells.  Look-ahead combinations of
        k removals share one sparse-cell removal repair the same way; mixed
        remove+insert candidates (GADES swaps) fall back to sequential
        previews but still share the grouped count stage.  Batched paths
        never mutate the graph; an edit that does not apply to it raises
        :class:`~repro.errors.InvalidEdgeError` and leaves it unchanged.
        """
        pairs = [(tuple(removals), tuple(insertions))
                 for removals, insertions in candidates]
        if self._computer.length_threshold == 1:
            # At L = 1 the within-L pairs are exactly the edges, so a
            # candidate's flipped cells are its edited edges themselves —
            # no distance delta is needed at all, only a count tally.
            return self._summarize([self._l1_changes(removals, insertions)
                                          for removals, insertions in pairs])
        if self._use_parallel_scan(pairs):
            return self._summarize(self._parallel_changes(pairs))
        return self._summarize(self._collect_changes(pairs))

    def collect_edit_changes(self, pairs: Sequence[EditCandidate]
                             ) -> List[Dict[int, int]]:
        """Per-candidate count-change dicts of a shard (scan-pool workers).

        The worker-side half of the parallel scan: exactly the serial
        batched collection over ``pairs`` against this session's state,
        returning the raw per-type change dicts (keyed by frozen type
        index) for the parent to concatenate and summarize.
        """
        pairs = [(tuple(removals), tuple(insertions))
                 for removals, insertions in pairs]
        return self._collect_changes(pairs)

    def take_scan_stats(self) -> Tuple[int, int]:
        """Drain the distance session's ``(affected rows, candidates)``."""
        return self._distance.take_observed_stats()

    def _collect_changes(self, pairs: List[EditCandidate]
                         ) -> List[Dict[int, int]]:
        # Deltas are consumed into (small) per-type change dicts group by
        # group, so peak retained memory is bounded by ~128 MB of delta
        # cells: a sequential preview (a mixed remove+insert swap) holds its
        # changed rows, or a full n × n matrix when it hits the from-scratch
        # fallback, while batched removal and insertion deltas are cell
        # form.  Grouping does not change the per-candidate math.
        n = self._graph.num_vertices
        group = max(1, (1 << 25) // max(1, n * n))
        changes: List[Dict[int, int]] = []
        for start in range(0, len(pairs), group):
            deltas = self._preview_deltas(pairs[start:start + group])
            changes.extend(self._count_changes_batch(deltas))
        return changes

    # ------------------------------------------------------------------
    # parallel scan machinery
    # ------------------------------------------------------------------
    def _use_parallel_scan(self, pairs: List[EditCandidate]) -> bool:
        return (self._scan_workers > 1
                and not self._scan_failed
                and len(pairs) > self._scan_workers)

    def _ensure_scan_pool(self):
        if self._scan_pool is None and not self._scan_failed:
            from repro.core.scan_pool import ScanPool

            self._scan_pool = ScanPool.start(
                self._computer, self._graph, self._distance.store,
                self._distance.requested_fallback_fraction,
                self._scan_workers)
            if self._scan_pool is None:
                self._scan_failed = True
        return self._scan_pool

    def _parallel_changes(self, pairs: List[EditCandidate]
                          ) -> List[Dict[int, int]]:
        """Shard the scan across the pool; serial fallback on any failure.

        On success the concatenated worker changes are exactly what
        :meth:`_collect_changes` would have produced (distance values are
        canonical, shards preserve candidate order), and the workers'
        observed affected-row stats are folded into the parent's auto
        fallback fraction.
        """
        pool = self._ensure_scan_pool()
        if pool is not None:
            outcome = pool.scan(pairs)
            if outcome is not None:
                changes, stats = outcome
                for rows_total, candidates in stats:
                    self._distance.observe_affected_rows(rows_total,
                                                         candidates)
                self.parallel_scans += 1
                return changes
            self._teardown_scan_pool("a scan worker failed mid-scan")
        return self._collect_changes(pairs)

    def _teardown_scan_pool(self, failure: Optional[str] = None) -> None:
        """Close the pool; a ``failure`` cause also retires it for good."""
        if self._scan_pool is not None:
            self._scan_pool.close()
            self._scan_pool = None
        if failure is not None:
            _LOG.warning("scan pool torn down (%s); scanning serially from "
                         "now on", failure)
            self._scan_failed = True

    def close(self) -> None:
        """Release pool workers and store resources (idempotent)."""
        self._teardown_scan_pool()
        self._distance.close()

    def apply_edit(self, removals: Sequence[Edge] = (),
                   insertions: Sequence[Edge] = ()) -> None:
        """Permanently apply the edit, keeping all session state in sync."""
        # Two-phase: stage mutates the graph exactly once, count deltas are
        # diffed against the still-pre-edit matrix, then the delta is folded
        # in.
        delta = self._distance.stage(removals, insertions)
        if delta.from_scratch:
            changes = self._count_changes(delta)
            if self._within_pairs is not None:
                rows, cols = triu_pair_indices(self._graph.num_vertices)
                self._within_pairs = (
                    delta.new_rows[rows, cols] <= self._computer.length_threshold)
        else:
            cells = self._flipped_cells(delta)
            changes = {} if cells is None else self._changes_from_cells(*cells)
            if self._within_pairs is not None and cells is not None:
                self._update_pair_mask(*cells)
        self._distance.commit(delta)
        # A fresh array: lazy batch totals keep reading the old counts.
        withins = self._withins.copy()
        for index, change in changes.items():
            withins[index] += change
        self._withins = withins
        self._current = None
        self._ratio_order = None
        if self._scan_pool is not None \
                and not self._scan_pool.apply(removals, insertions):
            self._teardown_scan_pool("forwarding an applied edit failed")

    def resync(self) -> None:
        """Rebuild all incremental state from scratch (testing / recovery)."""
        self._distance.refresh()
        self._init_counts()
        self._within_pairs = None

    # ------------------------------------------------------------------
    # pruning support
    # ------------------------------------------------------------------
    def violating_pair_indices(self, max_types) -> Tuple[np.ndarray, np.ndarray]:
        """Upper-triangle ``(i, j)`` pairs within L whose type is in ``max_types``.

        The candidate-pruning pass of the removal heuristics asks this every
        step.  The within-L mask is *maintained* across applied edits (only
        the flipped cells of each step's delta are touched) and the frozen
        per-pair type codes are computed once, so a query costs one
        vectorized membership test instead of a per-pair Python scan.
        """
        n = self._graph.num_vertices
        rows, cols = triu_pair_indices(n)
        if rows.size == 0:
            return rows, cols
        self._ensure_pair_mask()
        within = self._within_pairs
        typing = self._computer.typing
        if isinstance(typing, DegreePairTyping):
            codes = self._ensure_triu_codes()
            span = self._triu_code_span
            wanted = np.unique(np.fromiter(
                (g * span + h for g, h in max_types), dtype=np.int64,
                count=len(max_types)))
            mask = within & np.isin(codes, wanted) if wanted.size else \
                np.zeros(rows.size, dtype=bool)
        else:
            candidate_positions = np.nonzero(within)[0]
            member = np.fromiter(
                (typing.type_of(int(rows[p]), int(cols[p])) in max_types
                 for p in candidate_positions),
                dtype=bool, count=candidate_positions.size)
            mask = np.zeros(rows.size, dtype=bool)
            mask[candidate_positions[member]] = True
        return rows[mask], cols[mask]

    def _ensure_triu_codes(self) -> np.ndarray:
        if self._triu_codes is None:
            typing = self._computer.typing
            assert isinstance(typing, DegreePairTyping)
            rows, cols = triu_pair_indices(self._graph.num_vertices)
            self._triu_codes, self._triu_code_span = encode_degree_pairs(
                typing.degrees, rows, cols)
        return self._triu_codes

    def _ensure_pair_mask(self) -> None:
        if self._within_pairs is None:
            rows, cols = triu_pair_indices(self._graph.num_vertices)
            length = self._computer.length_threshold
            store = self._distance.store
            if isinstance(store, DenseStore):
                self._within_pairs = store.array[rows, cols] <= length
                return
            # Tiled tier: stream the triu gather block by block.  The triu
            # row array is sorted ascending, so each block's pairs form one
            # contiguous slice found by binary search.
            mask = np.empty(rows.size, dtype=bool)
            for start, stop in store.row_blocks():
                low = np.searchsorted(rows, start, side="left")
                high = np.searchsorted(rows, stop, side="left")
                if low == high:
                    continue
                slab = store.rows(np.arange(start, stop))
                mask[low:high] = (slab[rows[low:high] - start, cols[low:high]]
                                  <= length)
            self._within_pairs = mask

    def _update_pair_mask(self, row_idx: np.ndarray, col_idx: np.ndarray,
                          gained: np.ndarray) -> None:
        """Fold one applied delta's flipped cells into the within-L mask."""
        n = self._graph.num_vertices
        i = np.minimum(row_idx, col_idx)
        j = np.maximum(row_idx, col_idx)
        flat = i * (2 * n - i - 1) // 2 + (j - i - 1)
        self._within_pairs[flat] = gained

    # ------------------------------------------------------------------
    # incremental machinery
    # ------------------------------------------------------------------
    def _init_counts(self) -> None:
        typing = self._computer.typing
        store = self._distance.store
        if isinstance(store, DenseStore):
            counts = self._computer.within_counts(store.array)
        else:
            counts = self._computer.within_counts_store(store)
        type_keys: List[TypeKey] = []
        totals: List[int] = []
        withins: List[int] = []
        for key in typing.types():
            total = typing.pair_count(key)
            if total == 0:
                continue
            type_keys.append(key)
            totals.append(total)
            withins.append(counts.get(key, 0))
        self._type_keys = type_keys
        self._totals = np.asarray(totals, dtype=np.int64)
        self._withins = np.asarray(withins, dtype=np.int64)
        self._type_index: Dict[TypeKey, int] = {
            key: index for index, key in enumerate(type_keys)}
        self._current = None
        self._ratio_order: Optional[RatioOrder] = None

    def _l1_changes(self, removals: Sequence[Edge],
                    insertions: Sequence[Edge]) -> Dict[int, int]:
        """Count changes of one candidate at L = 1, no distance delta needed.

        A removal flips exactly its own cell from within-L to outside (the
        edge was at distance 1), an insertion the reverse, so the tally
        reduces to the edited edges themselves.  The graph is only read:
        the edit is validated against it, never applied.
        """
        check_edit(self._graph, removals, insertions)
        count = len(removals) + len(insertions)
        if count == 0:
            return {}
        row_idx = np.fromiter((edge[0] for edge in removals), dtype=np.int64,
                              count=len(removals))
        col_idx = np.fromiter((edge[1] for edge in removals), dtype=np.int64,
                              count=len(removals))
        if insertions:
            row_idx = np.concatenate([row_idx, np.fromiter(
                (edge[0] for edge in insertions), dtype=np.int64,
                count=len(insertions))])
            col_idx = np.concatenate([col_idx, np.fromiter(
                (edge[1] for edge in insertions), dtype=np.int64,
                count=len(insertions))])
        gained = np.zeros(count, dtype=bool)
        gained[len(removals):] = True
        return self._changes_from_cells(row_idx, col_idx, gained)

    def _count_changes(self, delta: DistanceDelta) -> Dict[int, int]:
        """Per-type within-L count deltas implied by a distance delta.

        Returns a mapping from type *index* (position in the frozen typing
        order) to the signed change of its within-L pair count.
        """
        if delta.from_scratch:
            new_counts = self._computer.within_counts(delta.new_rows)
            changes = {}
            for index, key in enumerate(self._type_keys):
                change = new_counts.get(key, 0) - self._withins[index]
                if change:
                    changes[index] = change
            return changes
        cells = self._flipped_cells(delta)
        if cells is None:
            return {}
        return self._changes_from_cells(*cells)

    def _flipped_cells(self, delta: DistanceDelta
                       ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Cells whose within-L membership flips under a (non-scratch) delta.

        Returns ``(row_idx, col_idx, gained)`` with exactly one
        representative per unordered pair, or ``None`` when nothing flips.
        """
        length = self._computer.length_threshold
        if delta.cells is not None:
            _, row, col, gained = self._stacked_cell_flips([(0, delta)])
            return (row, col, gained) if row.size else None
        rows = delta.rows
        old_within = self._distance.rows(rows) <= length
        new_within = delta.new_rows <= length
        flips = old_within != new_within
        if not flips.any():
            return None
        # Each changed cell appears in its row and (when both endpoints are
        # affected rows) again transposed; keep exactly one representative.
        n = self._graph.num_vertices
        in_rows = np.zeros(n, dtype=bool)
        in_rows[rows] = True
        columns = np.arange(n)
        keep = flips & (~in_rows[None, :] | (columns[None, :] > rows[:, None]))
        row_pos, col_idx = np.nonzero(keep)
        if row_pos.size == 0:
            return None
        return rows[row_pos], col_idx, new_within[row_pos, col_idx]

    def _changes_from_cells(self, row_idx: np.ndarray, col_idx: np.ndarray,
                            gained: np.ndarray) -> Dict[int, int]:
        """Tally one candidate's flipped cells into per-type count changes."""
        typing = self._computer.typing
        changes: Dict[int, int] = {}
        if isinstance(typing, DegreePairTyping):
            encoded, span = encode_degree_pairs(typing.degrees, row_idx, col_idx)
            for codes, sign in ((encoded[gained], 1), (encoded[~gained], -1)):
                if codes.size == 0:
                    continue
                counted = np.bincount(codes)
                for code in np.nonzero(counted)[0]:
                    index = self._type_index.get(decode_degree_pair(code, span))
                    if index is None:
                        continue
                    changes[index] = changes.get(index, 0) + sign * int(counted[code])
        else:
            for i, j, is_gain in zip(row_idx.tolist(), col_idx.tolist(),
                                     gained.tolist()):
                key = typing.type_of(i, j)
                if key is None:
                    continue
                index = self._type_index.get(key)
                if index is None:
                    continue
                changes[index] = changes.get(index, 0) + (1 if is_gain else -1)
        return {index: change for index, change in changes.items() if change}

    def _preview_deltas(self, pairs: List[Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]]
                        ) -> List[Optional[DistanceDelta]]:
        """Distance deltas of independent candidates, stacked when possible.

        Removal-only lists whose candidates all remove the same number of
        edges (single edges, or one look-ahead level's combinations) and
        single-edge insertion lists each take one batched pass that yields
        cell-form deltas; mixed remove+insert edits (GADES swaps) take
        sequential previews.  The batched paths run fused
        (``skip_unchanged=True``): candidates whose edit flips no distance
        cell come back as ``None`` instead of an empty
        :class:`DistanceDelta`, so the grouped bincount downstream never
        allocates per-candidate delta objects for no-op candidates.
        """
        if pairs and all(removals and not insertions
                         for removals, insertions in pairs) \
                and len({len(removals) for removals, _ in pairs}) == 1:
            return self._distance.preview_batch(
                removals=[removals for removals, _ in pairs],
                skip_unchanged=True)
        if pairs and all(not removals and len(insertions) == 1
                         for removals, insertions in pairs):
            return self._distance.preview_batch(
                insertions=[insertions[0] for _, insertions in pairs],
                skip_unchanged=True)
        return [self._distance.preview(removals, insertions)
                for removals, insertions in pairs]

    def _count_changes_batch(self, deltas: List[Optional[DistanceDelta]]
                             ) -> List[Dict[int, int]]:
        """Per-candidate count changes, one grouped bincount over all flips.

        Cell-form deltas (batched removals and insertions) contribute their
        cells that cross L directly, without any row gather
        (:meth:`_stacked_cell_flips`); the row-form deltas of sequential
        previews (GADES swaps) come from one stacked comparison over their
        concatenated rows (:meth:`_stacked_row_flips`).  All of them are
        tallied in a single ``bincount`` over ``(candidate, type-code,
        sign)`` groups — the per-candidate results are exactly what
        :meth:`_count_changes` returns for each delta alone.  ``None``
        entries (fused no-op candidates) contribute empty changes without
        any delta object; from-scratch fallbacks and non-degree typings
        take the per-candidate path.
        """
        changes_list: List[Dict[int, int]] = [{} for _ in deltas]
        batchable = isinstance(self._computer.typing, DegreePairTyping)
        stacked: List[Tuple[int, DistanceDelta]] = []
        celled: List[Tuple[int, DistanceDelta]] = []
        for position, delta in enumerate(deltas):
            if delta is None:
                continue
            if delta.from_scratch or not batchable:
                changes_list[position] = self._count_changes(delta)
            elif delta.cells is not None:
                celled.append((position, delta))
            elif delta.rows.size:
                stacked.append((position, delta))
        parts = [self._stacked_cell_flips(celled)] if celled else []
        if stacked:
            parts.append(self._stacked_row_flips(stacked))
        if not parts:
            return changes_list
        candidate, row_idx, col_idx, gained = (np.concatenate(column)
                                               for column in zip(*parts))
        if candidate.size == 0:
            return changes_list
        encoded, span = encode_degree_pairs(self._computer.typing.degrees,
                                            row_idx, col_idx)
        codes, inverse = np.unique(encoded, return_inverse=True)
        type_of_code = [self._type_index.get(decode_degree_pair(int(code), span))
                        for code in codes]
        grouped = (candidate * codes.size + inverse) * 2 + gained.astype(np.int64)
        counts = np.bincount(grouped, minlength=len(deltas) * codes.size * 2)
        net = counts.reshape(len(deltas), codes.size, 2)
        net = net[:, :, 1].astype(np.int64) - net[:, :, 0]
        positions, code_positions = np.nonzero(net)
        for position, code_pos, change in zip(
                positions.tolist(), code_positions.tolist(),
                net[positions, code_positions].tolist()):
            index = type_of_code[code_pos]
            if index is None:
                continue
            changes_list[position][index] = change
        return changes_list

    def _stacked_cell_flips(self, celled: List[Tuple[int, DistanceDelta]]
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
        """``(candidate, row, col, gained)`` flips of cell-form deltas.

        One rule for both edit kinds: a cell flips when ``(old ≤ L) !=
        (new ≤ L)``, and the flip is a gain when ``new ≤ L``.
        """
        rows, cols, olds, news = zip(*(delta.cells for _, delta in celled))
        candidate = np.repeat(
            np.fromiter((position for position, _ in celled), dtype=np.int64,
                        count=len(celled)),
            [row.size for row in rows])
        length = self._computer.length_threshold
        gained = np.concatenate(news) <= length
        flipped = (np.concatenate(olds) <= length) != gained
        return (candidate[flipped], np.concatenate(rows)[flipped],
                np.concatenate(cols)[flipped], gained[flipped])

    def _stacked_row_flips(self, stacked: List[Tuple[int, DistanceDelta]]
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
        """``(candidate, row, col, gained)`` flips of row-form deltas.

        One stacked comparison over the concatenated delta rows.  Each
        changed cell appears in its candidate's row and (when both
        endpoints are that candidate's affected rows) again transposed;
        exactly one representative per candidate is kept — the same dedupe
        rule as :meth:`_flipped_cells`, with the affected-row membership
        looked up per candidate group.
        """
        length = self._computer.length_threshold
        n = self._graph.num_vertices
        rows_cat = np.concatenate([delta.rows for _, delta in stacked])
        new_cat = np.concatenate([delta.new_rows for _, delta in stacked], axis=0)
        group_of_row = np.repeat(np.arange(len(stacked)),
                                 [delta.rows.size for _, delta in stacked])
        old_within = self._distance.rows(rows_cat) <= length
        new_within = new_cat <= length
        flips = old_within != new_within
        in_rows = np.zeros((len(stacked), n), dtype=bool)
        in_rows[group_of_row, rows_cat] = True
        columns = np.arange(n)
        keep = flips & (~in_rows[group_of_row]
                        | (columns[None, :] > rows_cat[:, None]))
        slab_pos, col_idx = np.nonzero(keep)
        position_of_group = np.fromiter((position for position, _ in stacked),
                                        dtype=np.int64, count=len(stacked))
        return (position_of_group[group_of_row[slab_pos]], rows_cat[slab_pos],
                col_idx, new_within[slab_pos, col_idx])

    def _summarize(self, changes_list: List[Dict[int, int]]
                         ) -> List[EditEvaluation]:
        """Exact max/tie summaries of every candidate, totals left lazy.

        The :class:`RatioOrder` of the current counts is built on the first
        summary after an applied edit and reused by every scan until the
        next one, so a candidate costs O(types it changes).
        """
        if self._ratio_order is None:
            self._ratio_order = RatioOrder(self._withins, self._totals)
        return self._ratio_order.summarize(changes_list)
