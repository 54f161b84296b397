"""Reference evaluators the differential suites compare the engine against.

The package ships one evaluator, the incremental
:class:`~repro.core.opacity_session.OpacitySession` with batched scans.
This module keeps the two slower strategies it replaced, as test oracles
with the same surface the anonymizers use:

* :class:`ScratchSession` — the paper's copy-evaluate-restore loop: every
  candidate is applied to the graph, evaluated from scratch by the
  stateless :class:`~repro.core.opacity.OpacityComputer`, and reverted.
* :class:`PerCandidateSession` — the incremental session, but every scan
  walks its candidates one :meth:`~OpacitySession.evaluate_edit` at a time
  instead of one stacked :meth:`~OpacitySession.evaluate_edits` pass.

:func:`use_session` swaps either one in for the session every anonymizer
builds (rem, rem-ins and the GADED/GADES baselines), so a whole run can be
repeated on the reference and compared bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.opacity import OpacityComputer, OpacityResult
from repro.core.opacity_session import EditEvaluation, OpacitySession
from repro.graph.graph import Edge, Graph

#: Modules whose ``OpacitySession`` name builds each run's session.
SESSION_MODULES = ("repro.core.anonymizer", "repro.baselines.gaded",
                   "repro.baselines.gades")


class ScratchSession:
    """Copy-evaluate-restore reference with the ``OpacitySession`` surface.

    Constructor arguments the incremental session uses for its distance
    state (initial distances, store policy, pool size) are accepted and
    ignored: every query recomputes from the graph.
    """

    def __init__(self, computer: OpacityComputer, graph: Graph,
                 **_ignored) -> None:
        self.computer = computer
        self.graph = graph
        self.scan_workers = 0
        self.scan_parallelism = 1
        self.parallel_scans = 0
        self.fallback_row_fraction = None

    def current(self) -> OpacityResult:
        return self.computer.evaluate(self.graph)

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> EditEvaluation:
        applied: List[Tuple[str, Edge]] = []
        try:
            for u, v in removals:
                self.graph.remove_edge(u, v)
                applied.append(("remove", (u, v)))
            for u, v in insertions:
                self.graph.add_edge(u, v)
                applied.append(("insert", (u, v)))
            outcome = self.computer.evaluate(self.graph)
        finally:
            for kind, (u, v) in reversed(applied):
                if kind == "insert":
                    self.graph.remove_edge(u, v)
                else:
                    self.graph.add_edge(u, v)
        # Left to right (``sum`` of floats is compensated from Python 3.12).
        total = 0.0
        for entry in outcome.per_type.values():
            total += entry.opacity
        return EditEvaluation(outcome.max_fraction, outcome.types_at_max,
                              total_opacity=total)

    def evaluate_edits(self, candidates) -> List[EditEvaluation]:
        return [self.evaluate_edit(removals, insertions)
                for removals, insertions in candidates]

    def apply_edit(self, removals: Sequence[Edge] = (),
                   insertions: Sequence[Edge] = ()) -> None:
        for u, v in removals:
            self.graph.remove_edge(u, v)
        for u, v in insertions:
            self.graph.add_edge(u, v)

    def distances(self) -> np.ndarray:
        return self.computer.distances(self.graph)

    def distance_rows(self, block: Sequence[int]) -> np.ndarray:
        return self.distances()[np.asarray(block, dtype=np.int64)]

    def violating_pair_indices(self, max_types
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Upper-triangle pairs within L whose type is in ``max_types``."""
        rows, cols = np.triu_indices(self.graph.num_vertices, k=1)
        within = self.distances()[rows, cols] <= self.computer.length_threshold
        typing = self.computer.typing
        keep = np.fromiter(
            (bool(near) and typing.type_of(int(i), int(j)) in max_types
             for i, j, near in zip(rows, cols, within)),
            dtype=bool, count=rows.size)
        return rows[keep], cols[keep]

    def close(self) -> None:
        pass


class PerCandidateSession(OpacitySession):
    """The incremental session with every scan walked one candidate at a time."""

    def evaluate_edits(self, candidates) -> List[EditEvaluation]:
        return [self.evaluate_edit(removals, insertions)
                for removals, insertions in candidates]


@contextmanager
def use_session(factory) -> Iterator[None]:
    """Build every anonymizer's session with ``factory`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        for module in SESSION_MODULES:
            patch.setattr(f"{module}.OpacitySession", factory)
        yield


def reference_run(anonymizer, graph: Graph, factory=ScratchSession, **kwargs):
    """``anonymizer.anonymize(graph, **kwargs)`` on the reference session."""
    with use_session(factory):
        return anonymizer.anonymize(graph, **kwargs)
