"""Tests for θ sweeps as one-axis grids (grouping and the shared pass)."""

import pytest

from repro.api import (
    AnonymizationRequest,
    GridRequest,
    GridResponse,
    anonymize,
    run_grid,
    sweep,
)
from repro.api.sweeps import execute_sweep_group, group_requests

BASE = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0,
                            include_utility=True)
THETAS = (0.9, 0.7, 0.5)


class TestSweepAsGrid:
    def test_from_axes_expands_grid(self):
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=THETAS)
        assert len(request.requests) == 6

    def test_response_json_round_trip(self):
        request = GridRequest.from_axes(BASE, thetas=(0.8, 0.6))
        response = run_grid(request)
        assert GridResponse.from_json(response.to_json()) == response


class TestGrouping:
    def test_groups_by_everything_but_theta(self):
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=THETAS)
        groups = request.groups()
        assert [len(group) for group in groups] == [3, 3]
        algorithms = {request.requests[group[0]].algorithm for group in groups}
        assert algorithms == {"rem", "gaded-max"}

    def test_request_id_does_not_split_groups(self):
        requests = [BASE.with_overrides(theta=theta, request_id=f"job-{theta}")
                    for theta in THETAS]
        assert group_requests(requests) == [[0, 1, 2]]

    def test_different_seeds_split_groups(self):
        requests = [BASE.with_overrides(theta=theta, seed=seed)
                    for seed in (0, 1) for theta in THETAS]
        assert [len(group) for group in group_requests(requests)] == [3, 3]


class TestExecution:
    @pytest.mark.parametrize("algorithm",
                             ("rem", "rem-ins", "gaded-rand", "gaded-max", "gades"))
    def test_group_responses_match_independent_requests(self, algorithm):
        requests = [BASE.with_overrides(algorithm=algorithm, theta=theta)
                    for theta in THETAS]
        grouped = execute_sweep_group(requests)
        for request, response in zip(requests, grouped):
            reference = anonymize(request)
            assert response.success == reference.success
            assert response.final_opacity == reference.final_opacity
            assert response.distortion == reference.distortion
            assert response.num_steps == reference.num_steps
            assert response.evaluations == reference.evaluations
            assert response.anonymized_edges == reference.anonymized_edges
            assert response.metrics == reference.metrics
            assert response.stop_reason == reference.stop_reason

    def test_sweep_matches_per_request_anonymize(self):
        checkpointed = sweep(BASE, thetas=THETAS)
        independent = [anonymize(BASE.with_overrides(theta=theta))
                       for theta in THETAS]
        for ours, theirs in zip(checkpointed, independent):
            assert ours.final_opacity == theirs.final_opacity
            assert ours.anonymized_edges == theirs.anonymized_edges
            assert ours.evaluations == theirs.evaluations

    def test_responses_in_request_order(self):
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=(0.5, 0.9))
        response = run_grid(request)
        observed = [(entry.request.algorithm, entry.request.theta)
                    for entry in response.responses]
        assert observed == [("rem", 0.5), ("rem", 0.9),
                            ("gaded-max", 0.5), ("gaded-max", 0.9)]

    def test_group_failure_is_isolated(self):
        # An unknown dataset fails at graph resolution inside its group;
        # the other group must still complete.
        bad = AnonymizationRequest(dataset="no-such-dataset", sample_size=10,
                                   theta=0.7)
        good = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        response = run_grid(GridRequest(requests=(bad, *good)))
        assert response.responses[0].error is not None
        assert response.responses[1].ok and response.responses[2].ok

    def test_parallel_groups_match_serial(self):
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=(0.8, 0.6))
        serial = run_grid(request)
        parallel = run_grid(request, max_workers=2)
        assert parallel.num_groups == 2
        for ours, theirs in zip(parallel.responses, serial.responses):
            assert ours.final_opacity == theirs.final_opacity
            assert ours.anonymized_edges == theirs.anonymized_edges
            assert ours.evaluations == theirs.evaluations

    def test_timeout_bounds_the_shared_pass(self):
        # A zero-ish timeout stops the pass immediately; every grid point
        # still receives a response with the observer stop reason.
        requests = [BASE.with_overrides(theta=theta, timeout_seconds=1e-9,
                                        dataset="google", sample_size=40,
                                        length_threshold=2)
                    for theta in (0.3, 0.2)]
        responses = execute_sweep_group(requests)
        assert all(response.ok for response in responses)
        assert any(response.stop_reason == "observer" for response in responses)
