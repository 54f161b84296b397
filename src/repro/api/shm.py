"""Zero-copy shared-memory data plane for parallel θ-groups.

A grid sample group is dominated by two artifacts: the loaded sample graph
and the dense ``n × n`` L_max bounded-distance matrix.  Before this module
the grid engine kept its single-load / single-compute guarantee by
*serializing* every θ-sweep group of a sample group onto one worker — a
single-sample grid sweeping algorithm × L × look-ahead × θ ran on one
core.  The arena breaks that trade-off: the **parent** resolves the graph
and runs the distance engine once, publishes the edge array and the L_max
matrix (one per engine) into :mod:`multiprocessing.shared_memory`
segments, and fans the θ-groups across the pool carrying only an
:class:`ArenaDescriptor` — segment names, dtypes, shapes, and per-engine
L_max bounds.  Workers attach read-only views, rebuild the
:class:`~repro.graph.graph.Graph` from the shared edge array with zero
disk I/O, and derive their own ``length_threshold`` matrix by thresholding
the shared L_max view — the same monotone-restriction argument the serial
path uses (DESIGN.md §9), with the one unavoidable copy deferred to the
moment a :class:`~repro.graph.distance_delta.DistanceSession` takes
ownership of its (mutable) matrix.

Ownership rules (DESIGN.md §9):

* the parent that calls :meth:`SharedSampleArena.publish` owns the
  segments and is the only process that ever calls
  :meth:`~SharedSampleArena.unlink` — inside a ``finally`` block, so a
  worker dying mid-group (even SIGKILL) cannot leak ``/dev/shm`` entries;
* workers attach via :func:`attach_arena` and hold *read-only* NumPy views
  (``writeable=False``); attachments are dropped by reference counting —
  closing an attached segment while views exist would raise
  ``BufferError``, so :class:`AttachedArena` simply releases its
  references and lets the last view close the mapping;
* an unlinked segment stays mapped in workers that already attached it
  (POSIX semantics), so the parent may unlink the moment every future of
  the sample group has completed.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.distance_store import CSRAdjacency, TiledStore
from repro.graph.graph import Graph

__all__ = [
    "ArenaDescriptor",
    "AttachedArena",
    "SHM_NAME_PREFIX",
    "SharedSampleArena",
    "TiledMatrixSpec",
    "attach_arena",
    "publish_session_store",
]

#: Prefix of every segment name this module creates; the crash-safety
#: tests scan ``/dev/shm`` for it to prove the parent leaked nothing.
SHM_NAME_PREFIX = "repro-arena"

_EDGE_DTYPE = np.int64
_CSR_DTYPE = np.int64


@dataclass(frozen=True)
class TiledMatrixSpec:
    """One engine's tiled-tier publication request (parent side).

    In the tiled scale tier there is no dense L_max matrix to publish —
    the whole point is never materializing it.  The parent instead
    publishes the sample's CSR adjacency (shared by every engine) plus
    this spec: the geometry workers need to rebuild an equivalent
    :class:`~repro.graph.distance_store.TiledStore`, and optionally the
    parent's *hot tiles* — already-computed L_max tiles seeded into the
    worker's cache so they are not recomputed per worker.  A typical grid
    parent computes no tiles at all (workers do the lazy work), so
    ``hot_tiles`` defaults to empty.
    """

    l_max: int
    budget_bytes: int
    tile_rows: Optional[int] = None
    hot_tiles: Mapping[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class ArenaDescriptor:
    """Everything a worker needs to attach a published sample group.

    A descriptor is a few hundred bytes of plain data — it crosses the
    process boundary instead of the pickled graph and matrices.  ``token``
    identifies the arena (workers cache attachments by it), ``matrices``
    maps each dense-tier engine to its ``(segment_name, l_max, dtype)``
    entry, ``tiled`` carries the tiled-tier engines — store geometry plus
    ``(tile_id, segment_name)`` hot-tile names over the shared CSR arrays
    named by ``csr_segments`` — and the remaining fields carry the array
    geometry needed to rebuild the NumPy views.
    """

    token: str
    num_vertices: int
    num_edges: int
    edges_segment: Optional[str]
    #: Dense tier: (engine, segment, l_max, dtype string).
    matrices: Tuple[Tuple[str, str, int, str], ...] = ()
    #: Tiled tier: (indptr segment, indices segment), shared per sample.
    csr_segments: Optional[Tuple[str, str]] = None
    #: Tiled tier: (engine, l_max, budget_bytes, tile_rows,
    #: ((tile_id, segment), ...)).
    tiled: Tuple[Tuple[str, int, int, int,
                       Tuple[Tuple[int, str], ...]], ...] = ()

    def l_max_for(self, engine: str) -> Optional[int]:
        """The published L_max bound of ``engine``, or ``None``."""
        for name, _segment, l_max, _dtype in self.matrices:
            if name == engine:
                return l_max
        for name, l_max, _budget, _tile_rows, _tiles in self.tiled:
            if name == engine:
                return l_max
        return None


def _create_segment(name: str, data: np.ndarray) -> shared_memory.SharedMemory:
    """Create a segment holding a copy of ``data`` (C-contiguous)."""
    segment = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, data.nbytes))
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
    view[...] = data
    return segment


def _attach_view(name: str, shape: Tuple[int, ...],
                 dtype) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach ``name`` and expose it as a read-only NumPy view."""
    segment = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
    view.flags.writeable = False
    return segment, view


class SharedSampleArena:
    """Parent-owned shared-memory home of one sample group's artifacts.

    Build one with :meth:`publish`; hand :attr:`descriptor` to workers;
    call :meth:`unlink` (idempotent) when every θ-group of the sample
    group has completed — and unconditionally from a ``finally`` block, so
    crashed workers cannot leak segments.
    """

    def __init__(self, token: str,
                 segments: Dict[str, shared_memory.SharedMemory],
                 descriptor: ArenaDescriptor) -> None:
        self._token = token
        self._segments = segments
        self.descriptor = descriptor
        self._unlinked = False

    @classmethod
    def publish(cls, graph: Graph,
                matrices: Optional[Mapping[str, Tuple[np.ndarray, int]]] = None,
                tiled: Optional[Mapping[str, TiledMatrixSpec]] = None
                ) -> "SharedSampleArena":
        """Publish ``graph`` (and per-engine distance payloads) to shm.

        ``matrices`` maps a dense-tier engine name to
        ``(l_max_matrix, l_max)``; each matrix must be the full ``n × n``
        bounded matrix computed at that engine's group-wide L_max, in
        whatever dtype the engine chose (recorded in the descriptor).
        ``tiled`` maps a tiled-tier engine name to a
        :class:`TiledMatrixSpec`; any tiled entry additionally publishes
        the sample's CSR adjacency arrays (once, shared by every tiled
        engine) instead of a dense matrix.  All data is *copied* into the
        segments — the caller may release its own references immediately
        afterwards.
        """
        overlap = sorted(set(matrices or ()) & set(tiled or ()))
        if overlap:
            raise ConfigurationError(
                f"engines {overlap} published as both dense and tiled")
        token = f"{SHM_NAME_PREFIX}-{uuid.uuid4().hex[:12]}"
        segments: Dict[str, shared_memory.SharedMemory] = {}
        try:
            edges = np.asarray(graph.edge_list(), dtype=_EDGE_DTYPE)
            edges = edges.reshape(graph.num_edges, 2)
            edges_segment = None
            if graph.num_edges:
                edges_segment = f"{token}-edges"
                segments[edges_segment] = _create_segment(edges_segment, edges)
            n = graph.num_vertices
            entries = []
            for index, (engine, (matrix, l_max)) in enumerate(
                    sorted((matrices or {}).items())):
                if matrix.shape != (n, n):
                    raise ConfigurationError(
                        f"matrix for engine {engine!r} has shape "
                        f"{matrix.shape}, expected {(n, n)}")
                segment_name = f"{token}-m{index}"
                data = np.ascontiguousarray(matrix)
                segments[segment_name] = _create_segment(segment_name, data)
                entries.append((engine, segment_name, int(l_max),
                                data.dtype.str))
            csr_segments = None
            tiled_entries = []
            if tiled:
                csr = CSRAdjacency.from_graph(graph)
                indptr_name = f"{token}-csr-indptr"
                indices_name = f"{token}-csr-indices"
                segments[indptr_name] = _create_segment(
                    indptr_name, np.ascontiguousarray(csr.indptr,
                                                      dtype=_CSR_DTYPE))
                segments[indices_name] = _create_segment(
                    indices_name, np.ascontiguousarray(csr.indices,
                                                       dtype=_CSR_DTYPE))
                csr_segments = (indptr_name, indices_name)
                for index, (engine, spec) in enumerate(sorted(tiled.items())):
                    if spec.hot_tiles and spec.tile_rows is None:
                        raise ConfigurationError(
                            f"tiled engine {engine!r} publishes hot tiles "
                            f"without fixing tile_rows")
                    tile_entries = []
                    for tile_id, tile in sorted(spec.hot_tiles.items()):
                        segment_name = f"{token}-t{index}-{int(tile_id)}"
                        segments[segment_name] = _create_segment(
                            segment_name, np.ascontiguousarray(tile))
                        tile_entries.append((int(tile_id), segment_name))
                    tiled_entries.append(
                        (engine, int(spec.l_max), int(spec.budget_bytes),
                         0 if spec.tile_rows is None else int(spec.tile_rows),
                         tuple(tile_entries)))
        except BaseException:
            for segment in segments.values():
                _release_segment(segment, unlink=True)
            raise
        descriptor = ArenaDescriptor(token=token,
                                     num_vertices=graph.num_vertices,
                                     num_edges=graph.num_edges,
                                     edges_segment=edges_segment,
                                     matrices=tuple(entries),
                                     csr_segments=csr_segments,
                                     tiled=tuple(tiled_entries))
        return cls(token, segments, descriptor)

    @property
    def token(self) -> str:
        """Unique identity of this arena (prefix of its segment names)."""
        return self._token

    def unlink(self) -> None:
        """Release and remove every segment (idempotent, never raises).

        Workers that already attached keep their mappings until their own
        references die; ``/dev/shm`` entries disappear immediately.
        """
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments.values():
            _release_segment(segment, unlink=True)
        self._segments = {}


def publish_session_store(graph: Graph, engine: str,
                          store) -> SharedSampleArena:
    """Publish a live session's current graph + distance store as an arena.

    The intra-group scan pool's publication path: unlike the grid plane —
    which publishes a *pristine* sample before any edit — this captures a
    session mid-run.  Correctness rests on distance values being canonical:
    a dense store's current matrix is copied as-is, and a tiled store is
    published as the *current* graph's CSR adjacency plus store geometry,
    so tiles a worker computes lazily equal the parent's incrementally
    maintained ones bit for bit.  The tiled path additionally ships the
    parent's in-RAM cached tiles as hot tiles, sparing each worker their
    recomputation.
    """
    from repro.graph.distance_store import DenseStore

    length = store.length_bound
    if isinstance(store, TiledStore):
        hot: Dict[int, np.ndarray] = {}
        for tile_id in store.cached_tiles():
            start = tile_id * store.tile_rows
            stop = min(store.num_vertices, start + store.tile_rows)
            hot[tile_id] = store.rows(np.arange(start, stop, dtype=np.int64))
        spec = TiledMatrixSpec(l_max=length,
                               budget_bytes=store.budget_bytes,
                               tile_rows=store.tile_rows,
                               hot_tiles=hot)
        return SharedSampleArena.publish(graph, tiled={engine: spec})
    if not isinstance(store, DenseStore):
        raise ConfigurationError(
            f"cannot publish a {type(store).__name__} store")
    return SharedSampleArena.publish(graph,
                                     matrices={engine: (store.array, length)})


def _release_segment(segment: shared_memory.SharedMemory,
                     unlink: bool) -> None:
    """Close (and optionally unlink) one segment, swallowing races."""
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover — double unlink race
            pass
    try:
        segment.close()
    except BufferError:  # pragma: no cover — a live view pins the mapping
        pass


@dataclass
class AttachedArena:
    """A worker's read-only window onto a published sample group.

    ``graph`` is rebuilt from the shared edge array (O(E) set
    construction, no disk I/O, no n² copy); ``caches`` wraps each shared
    L_max matrix in a :class:`~repro.graph.distance_cache.LMaxDistanceCache`
    whose ``compute_count`` stays 0 — thresholded *copies* are only made
    when a session takes ownership.  The segment handles are kept solely
    to pin the mappings; dropping the ``AttachedArena`` releases them via
    reference counting.
    """

    token: str
    graph: Graph
    caches: Dict[str, LMaxDistanceCache]
    segments: Tuple[shared_memory.SharedMemory, ...] = field(repr=False,
                                                             default=())


def attach_arena(descriptor: ArenaDescriptor) -> AttachedArena:
    """Attach a published arena and rebuild its graph and distance caches."""
    segments = []
    edges: Tuple[Tuple[int, int], ...] = ()
    if descriptor.edges_segment is not None:
        segment, view = _attach_view(descriptor.edges_segment,
                                     (descriptor.num_edges, 2), _EDGE_DTYPE)
        segments.append(segment)
        edges = [(int(u), int(v)) for u, v in view]
    graph = Graph(descriptor.num_vertices, edges=edges)
    caches: Dict[str, LMaxDistanceCache] = {}
    n = descriptor.num_vertices
    for engine, segment_name, l_max, dtype_str in descriptor.matrices:
        segment, view = _attach_view(segment_name, (n, n),
                                     np.dtype(dtype_str))
        segments.append(segment)
        caches[engine] = LMaxDistanceCache.from_matrix(graph, view, l_max,
                                                       engine=engine)
    if descriptor.tiled:
        indptr_name, indices_name = descriptor.csr_segments
        segment, indptr = _attach_view(indptr_name, (n + 1,), _CSR_DTYPE)
        segments.append(segment)
        segment, indices = _attach_view(
            indices_name, (int(indptr[-1]),), _CSR_DTYPE)
        segments.append(segment)
        csr = CSRAdjacency(indptr, indices)
        for engine, l_max, budget_bytes, tile_rows, tiles in descriptor.tiled:
            base = TiledStore(None, l_max, csr=csr,
                              budget_bytes=budget_bytes,
                              tile_rows=tile_rows or None)
            for tile_id, tile_segment in tiles:
                start = tile_id * base.tile_rows
                stop = min(n, start + base.tile_rows)
                segment, tile = _attach_view(tile_segment, (stop - start, n),
                                             base.dtype)
                segments.append(segment)
                base.preload_tile(tile_id, tile)
            caches[engine] = LMaxDistanceCache.from_tiled_base(graph, base,
                                                              engine=engine)
    return AttachedArena(token=descriptor.token, graph=graph, caches=caches,
                         segments=tuple(segments))
