"""Unit tests for the look-ahead combination search."""

import random
from fractions import Fraction

import pytest

from repro.core.anonymizer import CandidateOutcome
from repro.core.lookahead import _combinations_capped, search_best_combination


def _make_evaluator(scores):
    """Build a batch evaluator from a mapping frozenset(edges) -> fraction.

    ``calls`` records every combination as the evaluator consumes it, one
    at a time, across all levels.
    """
    calls = []

    def evaluate(combos):
        for combo in combos:
            calls.append(tuple(combo))
            yield CandidateOutcome(edges=tuple(combo),
                                   fraction=scores[frozenset(combo)],
                                   types_at_max=1)

    evaluate.calls = calls
    return evaluate


class TestSearchBestCombination:
    def test_single_improving_move_is_taken_without_escalation(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(1, 2),
            frozenset({(0, 2)}): Fraction(3, 4),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == ((0, 1),)
        # No size-2 combination should have been evaluated.
        assert all(len(call) == 1 for call in evaluate.calls)

    def test_escalates_to_pairs_when_singles_do_not_improve(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(1),
            frozenset({(0, 2)}): Fraction(1),
            frozenset({(0, 1), (0, 2)}): Fraction(1, 3),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert set(best.edges) == {(0, 1), (0, 2)}

    def test_lookahead_one_never_evaluates_pairs(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        scores = {frozenset({edge}): Fraction(1) for edge in edges}
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                       lookahead=1, rng=random.Random(0),
                                       max_combinations=100)
        assert len(best.edges) == 1
        assert all(len(call) == 1 for call in evaluate.calls)

    def test_returns_best_overall_when_nothing_improves(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(4, 5),
            frozenset({(0, 2)}): Fraction(9, 10),
            frozenset({(0, 1), (0, 2)}): Fraction(1),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1, 2),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == ((0, 1),)

    def test_empty_candidate_list_returns_none(self):
        best = search_best_combination([], lambda combos: iter(()),
                                       current_fraction=Fraction(1), lookahead=2,
                                       rng=random.Random(0), max_combinations=100)
        assert best is None


class TestCombinationCapping:
    def test_exact_enumeration_below_cap(self):
        edges = [(0, i) for i in range(1, 6)]
        combos = list(_combinations_capped(edges, 2, cap=100, rng=random.Random(0)))
        assert len(combos) == 10
        assert len(set(map(frozenset, combos))) == 10

    def test_sampling_beyond_cap(self):
        edges = [(0, i) for i in range(1, 30)]
        combos = list(_combinations_capped(edges, 3, cap=50, rng=random.Random(0)))
        assert len(combos) == 50
        assert len(set(combos)) == 50
        assert all(len(combo) == 3 for combo in combos)


class TestCappedSamplingNearPoolSize:
    """Regression tests for the overestimating partial-product bug: with
    ``size`` close to the pool, a running product of partial binomials peaks
    mid-way (e.g. C(30, 15) for pool=30) and wrongly trips the cap, making
    the rejection-sampling loop ask for more distinct combinations than
    exist — an infinite loop.  The count is now exact."""

    def test_size_near_pool_enumerates_exactly(self):
        # C(30, 28) = 435 <= cap, but the old partial product exceeded it.
        edges = [(0, i) for i in range(1, 31)]
        combos = list(_combinations_capped(edges, 28, cap=1000,
                                           rng=random.Random(0)))
        assert len(combos) == 435
        assert len(set(map(frozenset, combos))) == 435

    def test_size_equal_to_pool_is_single_combination(self):
        edges = [(0, i) for i in range(1, 21)]
        combos = list(_combinations_capped(edges, 20, cap=5,
                                           rng=random.Random(0)))
        assert combos == [tuple(edges)]

    def test_sampling_just_under_distinct_count_terminates(self):
        # cap one below the exact count: sampling must collect cap distinct
        # combinations and stop (the old code could never have).
        edges = [(0, i) for i in range(1, 31)]
        combos = list(_combinations_capped(edges, 28, cap=434,
                                           rng=random.Random(3)))
        assert len(combos) == 434
        assert len(set(combos)) == 434

    def test_sampling_is_seed_deterministic(self):
        edges = [(0, i) for i in range(1, 31)]
        first = list(_combinations_capped(edges, 28, cap=100,
                                          rng=random.Random(7)))
        second = list(_combinations_capped(edges, 28, cap=100,
                                           rng=random.Random(7)))
        assert first == second

    def test_search_with_lookahead_near_pool_size(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        scores = {}
        for size in range(1, 5):
            from itertools import combinations as iter_combinations
            for combo in iter_combinations(edges, size):
                scores[frozenset(combo)] = Fraction(1)
        scores[frozenset(edges)] = Fraction(1, 4)
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate,
                                       current_fraction=Fraction(1),
                                       lookahead=4, rng=random.Random(0),
                                       max_combinations=3)
        # Every level is capped at 3 sampled combinations; the search must
        # terminate and return a candidate even when C(4, size) > 3.
        assert best is not None

    def test_search_near_pool_size_is_seed_deterministic(self):
        edges = [(0, i) for i in range(1, 9)]
        scores = {}
        from itertools import combinations as iter_combinations
        for size in range(1, 9):
            for combo in iter_combinations(edges, size):
                scores[frozenset(combo)] = Fraction(len(combo), len(combo) + 1)
        runs = []
        for _ in range(2):
            evaluate = _make_evaluator(scores)
            best = search_best_combination(edges, evaluate,
                                           current_fraction=Fraction(1, 10),
                                           lookahead=7, rng=random.Random(11),
                                           max_combinations=5)
            runs.append((best.edges, tuple(evaluate.calls)))
        assert runs[0] == runs[1]


def _make_batch_evaluator(scores):
    """Build an evaluate_batch() hook recording each call's combinations.

    The hook receives one level's combinations as a lazy iterable, so it
    materializes them exactly once before yielding outcomes in order.
    """
    calls = []

    def evaluate_batch(combos):
        combos = [tuple(combo) for combo in combos]
        calls.append(combos)
        for combo in combos:
            yield CandidateOutcome(edges=combo,
                                   fraction=scores[frozenset(combo)],
                                   types_at_max=1)

    evaluate_batch.calls = calls
    return evaluate_batch


class TestBatchEvaluation:
    def test_size_one_level_uses_the_batch_evaluator(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(1, 2),
            frozenset({(0, 2)}): Fraction(3, 4),
        }
        evaluate_batch = _make_batch_evaluator(scores)
        best = search_best_combination(edges, evaluate_batch,
                                       current_fraction=Fraction(1),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == ((0, 1),)
        assert evaluate_batch.calls == [[((0, 1),), ((0, 2),)]]

    _ESCALATING_SCORES = {
        frozenset({(0, 1)}): Fraction(1),
        frozenset({(0, 2)}): Fraction(1),
        frozenset({(1, 2)}): Fraction(1),
        frozenset({(0, 1), (0, 2)}): Fraction(1),
        frozenset({(0, 1), (1, 2)}): Fraction(1),
        frozenset({(0, 2), (1, 2)}): Fraction(1),
        frozenset({(0, 1), (0, 2), (1, 2)}): Fraction(1, 3),
    }

    def test_every_level_uses_the_batch_evaluator_in_order(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        evaluate_batch = _make_batch_evaluator(self._ESCALATING_SCORES)
        best = search_best_combination(edges, evaluate_batch,
                                       current_fraction=Fraction(1),
                                       lookahead=3, rng=random.Random(0),
                                       max_combinations=100)
        assert set(best.edges) == {(0, 1), (0, 2), (1, 2)}
        # One call per level, each in combination order.
        assert evaluate_batch.calls == [
            [((0, 1),), ((0, 2),), ((1, 2),)],
            [((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))],
            [((0, 1), (0, 2), (1, 2))],
        ]

    def test_every_level_streams_combinations_one_at_a_time(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        streaming = _make_evaluator(self._ESCALATING_SCORES)
        best = search_best_combination(edges, streaming,
                                       current_fraction=Fraction(1),
                                       lookahead=3, rng=random.Random(0),
                                       max_combinations=100)
        assert set(best.edges) == {(0, 1), (0, 2), (1, 2)}
        assert streaming.calls == [
            ((0, 1),), ((0, 2),), ((1, 2),),
            ((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2)),
            ((0, 1), (0, 2), (1, 2)),
        ]
