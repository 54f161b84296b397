"""Grid engine cache ablation: shared sample loads and L_max distance reuse.

A figure6-style grid job — one sample, several L values, a θ grid per L —
used to pay one sample load *per θ-sweep group* and one full
bounded-distance computation *per distinct L*.  The grid engine
(:mod:`repro.api.sweeps`, DESIGN.md §9) collapses both: the sample group
loads its graph once through an :class:`~repro.api.cache.ExecutionCache`,
and a single engine run at the group's maximum L serves every smaller L by
thresholding.

The cache counters are deterministic properties of the engine (not
timings), so they are asserted under the CI smoke knob as well:

* exactly **1 sample load** for the whole grid (the per-worker cache
  eliminates the per-group reloads), and
* exactly **1 full distance computation** for the L-sweep group (the
  L_max matrix serves both L = 1 and L = 2 by thresholding),

with responses bit-identical to independent ``anonymize()`` runs.
"""

import pytest

from benchmarks.conftest import smoke
from repro.api import AnonymizationRequest, ExecutionCache, GridRequest, anonymize
from repro.api.sweeps import execute_sample_group

DATASET = "gnutella"
SAMPLE_SIZE = smoke(60, 40)
LENGTHS = (1, 2)
THETAS = smoke((0.9, 0.8, 0.7, 0.6, 0.5), (0.8, 0.6))
SEED = 0

#: Response fields compared against independent runs (runtime aside).
PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "anonymized_edges", "stop_reason")


def _grid() -> GridRequest:
    base = AnonymizationRequest(dataset=DATASET, sample_size=SAMPLE_SIZE,
                                seed=SEED)
    return GridRequest.from_axes(base, length_thresholds=LENGTHS,
                                 thetas=THETAS)


def bench_grid_cache(benchmark):
    grid = _grid()
    cache = ExecutionCache()
    benchmark.group = f"grid cache, {DATASET} n={SAMPLE_SIZE} L={LENGTHS}"
    responses = benchmark.pedantic(
        execute_sample_group, args=(list(grid.requests),),
        kwargs={"cache": cache}, rounds=1, iterations=1)

    groups = grid.groups()
    print(f"\n  grid: {len(grid.requests)} configs in {len(groups)} theta "
          f"group(s) over {len(grid.sample_groups())} sample group(s)"
          f"\n  sample loads: {cache.sample_loads} (naive: {len(groups)})"
          f"\n  full distance computations: {cache.distance_computes} "
          f"(naive: {len(LENGTHS)})")

    # The acceptance contract: one load, one L_max computation, parity.
    assert len(groups) == len(LENGTHS) > 1
    assert cache.sample_loads == 1
    assert cache.distance_computes == 1
    for request, response in zip(grid.requests, responses):
        assert response.ok
        reference = anonymize(request)
        for field in PARITY_FIELDS:
            assert getattr(response, field) == getattr(reference, field), field


def bench_grid_cache_repeat_groups(benchmark):
    """Re-running more groups against a warm cache adds no loads/computes."""
    grid = _grid()
    cache = ExecutionCache()
    execute_sample_group(list(grid.requests), cache=cache)
    loads, computes = cache.sample_loads, cache.distance_computes

    extra = GridRequest.from_axes(
        AnonymizationRequest(dataset=DATASET, sample_size=SAMPLE_SIZE,
                             seed=SEED, lookahead=2),
        length_thresholds=(min(LENGTHS),), thetas=THETAS[-1:])
    benchmark.pedantic(execute_sample_group, args=(list(extra.requests),),
                       kwargs={"cache": cache}, rounds=1, iterations=1)
    print(f"\n  after warm re-run: loads {cache.sample_loads} "
          f"(was {loads}), computes {cache.distance_computes} (was {computes})")
    assert cache.sample_loads == loads
    assert cache.distance_computes == computes
