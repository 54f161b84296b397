"""The look-ahead combination search used by both heuristics (Section 5).

The default greedy step considers single-edge moves.  With look-ahead
``la > 1``, whenever no single move strictly improves the current maximum
opacity the search widens to combinations of two edges, then three, up to
``la`` edges, evaluating each combination on the fly (the paper's recursive
combination generator).  If no combination improves at any size, the best
single-size candidate found is returned so the greedy loop still progresses.

Every level streams its combinations through a batch evaluator, which the
heuristics back with the session's stacked scan: a level of k-edge removal
combinations is previewed chunk by chunk in one sparse-cell removal repair
(see :mod:`repro.graph.distance_delta`), bit-identical to previewing each
combination on its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.anonymizer import CandidateOutcome, TieBreaker
from repro.graph.graph import Edge

#: Batch evaluator: maps one level's combinations (a lazy iterable) to
#: their outcomes (an iterator, so evaluation accounting interleaves per
#: candidate).
EvaluateComboBatch = Callable[[Iterable[Tuple[Edge, ...]]],
                              Iterator[CandidateOutcome]]


def _combinations_capped(candidates: Sequence[Edge], size: int, cap: int,
                         rng: random.Random) -> Iterable[Tuple[Edge, ...]]:
    """All combinations of ``size`` edges, or a uniform sample of ``cap`` of them.

    The exact number of combinations can explode for large candidate sets and
    look-ahead levels; beyond ``cap`` a random subset keeps the step tractable
    (documented deviation, see DESIGN.md §5).  The count is computed exactly
    with :func:`math.comb` — a running partial product overestimates it
    (``C(30, k)`` peaks at ``k = 15`` before falling back to ``C(30, 28) =
    435``), and acting on that overestimate would leave the rejection-
    sampling loop below asking for more distinct combinations than exist,
    never terminating.
    """
    total = comb(len(candidates), size)
    if total <= cap:
        return combinations(candidates, size)
    pool = list(candidates)
    sampled: List[Tuple[Edge, ...]] = []
    seen = set()
    while len(sampled) < cap:
        combo = tuple(sorted(rng.sample(pool, size)))
        if combo not in seen:
            seen.add(combo)
            sampled.append(combo)
    return sampled


def search_best_combination(candidates: Sequence[Edge],
                            evaluate_batch: EvaluateComboBatch,
                            current_fraction: Fraction,
                            lookahead: int,
                            rng: random.Random,
                            max_combinations: int
                            ) -> Optional[CandidateOutcome]:
    """Find the best edge combination of size 1..lookahead.

    Sizes are explored in increasing order; as soon as a size yields a
    candidate that strictly lowers the current maximum opacity, the best
    candidate of that size is returned (ties broken per Algorithm 4).  If no
    size improves, the best candidate observed overall is returned; ``None``
    is returned only when there are no candidates at all.

    ``evaluate_batch`` handles every level: it receives the level's
    combinations as a lazy iterable and the session it wraps computes them
    chunk by chunk, each chunk in one stacked pass against the shared
    distance state (single edges and k-edge combinations alike).  Its
    outcomes still arrive one combination at a time, so stop checks stay
    per evaluation, and are offered to the tie-breakers in combination
    order.
    """
    if not candidates:
        return None
    overall = TieBreaker(rng)
    for size in range(1, min(lookahead, len(candidates)) + 1):
        level = TieBreaker(rng)
        combos = _combinations_capped(candidates, size, max_combinations, rng)
        for outcome in evaluate_batch(combos):
            level.offer(outcome)
            overall.offer(outcome)
        best_at_level = level.best
        if best_at_level is not None and best_at_level.fraction < current_fraction:
            return best_at_level
    return overall.best
