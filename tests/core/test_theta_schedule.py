"""Unit tests for the checkpointed θ-schedule engine (core layer)."""

import pytest

from repro.api.progress import CallbackObserver
from repro.baselines import GadedMaxAnonymizer, GadedRandAnonymizer, GadesAnonymizer
from repro.core import (
    AnonymizerConfig,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    validate_theta_schedule,
)
from repro.errors import ConfigurationError, InfeasibleError
from repro.graph import erdos_renyi_graph

#: One factory per registered algorithm, all seeded.
ALGORITHM_FACTORIES = {
    "rem": lambda theta, **kw: EdgeRemovalAnonymizer(theta=theta, seed=0, **kw),
    "rem-ins": lambda theta, **kw: EdgeRemovalInsertionAnonymizer(theta=theta, seed=0, **kw),
    "gaded-rand": lambda theta, **kw: GadedRandAnonymizer(theta=theta, seed=0, **kw),
    "gaded-max": lambda theta, **kw: GadedMaxAnonymizer(theta=theta, seed=0, **kw),
    "gades": lambda theta, **kw: GadesAnonymizer(theta=theta, seed=0,
                                                 swap_sample_size=100, **kw),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(30, 0.2, seed=11)


class TestValidateThetaSchedule:
    def test_sorts_descending_and_dedupes(self):
        assert validate_theta_schedule([0.5, 0.9, 0.7, 0.9]) == (0.9, 0.7, 0.5)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_theta_schedule([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_theta_schedule([0.5, 1.5])

    def test_config_has_no_sweep_mode_knob(self):
        # Every schedule runs as one checkpointed pass; the knob is gone.
        with pytest.raises(TypeError):
            AnonymizerConfig(sweep_mode="independent")


class TestScheduleResults:
    def test_single_theta_schedule_equals_anonymize(self, graph):
        anonymizer = EdgeRemovalAnonymizer(theta=0.5, seed=0)
        single = anonymizer.anonymize(graph)
        scheduled = anonymizer.anonymize_schedule(graph, (0.5,))
        assert len(scheduled) == 1
        run = scheduled[0]
        assert run.config == single.config
        assert run.final_opacity == single.final_opacity
        assert [s.edges for s in run.steps] == [s.edges for s in single.steps]
        assert run.evaluations == single.evaluations
        assert run.anonymized_graph == single.anonymized_graph

    def test_results_come_back_in_descending_theta_order(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize_schedule(
            graph, (0.6, 0.9, 0.5))
        assert [run.config.theta for run in results] == [0.9, 0.6, 0.5]

    def test_lower_theta_steps_extend_higher_theta_steps(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize_schedule(
            graph, (0.9, 0.7, 0.5))
        for higher, lower in zip(results, results[1:]):
            assert len(higher.steps) <= len(lower.steps)
            assert lower.steps[:len(higher.steps)] == higher.steps
            assert higher.removed_edges <= lower.removed_edges

    def test_step_records_split_removals_and_insertions(self, graph):
        result = EdgeRemovalInsertionAnonymizer(theta=0.6, seed=0).anonymize(graph)
        for step in result.steps:
            assert step.edges == step.removals + step.insertions
            if step.operation == "remove+insert":
                assert step.removals and step.insertions

    def test_checkpoint_runtime_split_is_monotone(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize_schedule(
            graph, (0.9, 0.7, 0.5))
        elapsed = [run.runtime_seconds for run in results]
        assert elapsed == sorted(elapsed)

    @pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
    def test_schedule_matches_independent_runs(self, graph, name):
        make = ALGORITHM_FACTORIES[name]
        thetas = (0.9, 0.7, 0.5)
        scheduled = make(0.5).anonymize_schedule(graph, thetas)
        for theta, run in zip(thetas, scheduled):
            independent = make(theta).anonymize(graph)
            assert run.config.theta == theta
            assert [(s.operation, s.edges) for s in run.steps] == \
                   [(s.operation, s.edges) for s in independent.steps]
            assert run.final_opacity == independent.final_opacity
            assert run.evaluations == independent.evaluations
            assert run.removed_edges == independent.removed_edges
            assert run.inserted_edges == independent.inserted_edges
            assert run.anonymized_graph == independent.anonymized_graph
            assert run.success == independent.success
            assert run.stop_reason == independent.stop_reason

    @pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
    def test_seeded_schedule_matches_independent_runs(self, graph, name):
        # The grid engine seeds each pass with the sample's precomputed
        # L-bounded matrix; the reference runs compute their own.
        from repro.graph.distance import bounded_distance_matrix

        make = ALGORITHM_FACTORIES[name]
        thetas = (0.8, 0.6)
        checkpointed = make(0.6).anonymize_schedule(
            graph, thetas, initial_distances=bounded_distance_matrix(graph, 1))
        independent = [make(theta).anonymize(graph) for theta in thetas]
        for a, b in zip(checkpointed, independent):
            assert a.config.theta == b.config.theta
            assert [s.edges for s in a.steps] == [s.edges for s in b.steps]
            assert a.final_opacity == b.final_opacity
            assert a.evaluations == b.evaluations
            assert a.anonymized_graph == b.anonymized_graph


class TestStopPropagation:
    def test_max_steps_fills_remaining_grid_points(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.0, seed=0, max_steps=1)\
            .anonymize_schedule(graph, (0.9, 0.2, 0.1))
        # One removal cannot reach 0.2 on this sample: the unreached grid
        # points must report the stop reason, matching independent runs.
        by_theta = {run.config.theta: run for run in results}
        independent = EdgeRemovalAnonymizer(theta=0.1, seed=0, max_steps=1)\
            .anonymize(graph)
        assert by_theta[0.1].stop_reason == independent.stop_reason == "max_steps"
        assert by_theta[0.1].success is False
        assert by_theta[0.1].num_steps == independent.num_steps == 1

    def test_exhausted_fills_remaining_grid_points(self):
        # A graph whose maximum opacity cannot reach 0: removing everything
        # still leaves the empty-graph disclosure at 0, so "exhausted" can
        # only come from an unimprovable step; a single edge suffices.
        from repro.graph.graph import Graph
        graph = Graph(3, edges=[(0, 1)])
        results = GadesAnonymizer(theta=0.0, seed=0).anonymize_schedule(
            graph, (0.9, 0.0))
        assert results[-1].stop_reason == "exhausted"
        independent = GadesAnonymizer(theta=0.0, seed=0).anonymize(graph)
        assert independent.stop_reason == "exhausted"
        assert results[-1].final_opacity == independent.final_opacity

    def test_observer_stop_reports_remaining_as_observer(self, graph):
        observer = CallbackObserver(should_stop=lambda: True)
        results = EdgeRemovalAnonymizer(theta=0.0, seed=0).anonymize_schedule(
            graph, (0.2, 0.1), observer=observer)
        assert all(run.stop_reason == "observer" for run in results)

    def test_strict_schedule_raises_on_unreachable_theta(self, graph):
        with pytest.raises(InfeasibleError):
            EdgeRemovalAnonymizer(theta=0.0, seed=0, max_steps=1, strict=True)\
                .anonymize_schedule(graph, (0.9, 0.0))
