"""Runs the engine workloads: one ``anonymize()`` call per subject process.

A run first spawns a few import-only subjects (set-up probes), then runs
repetitions of the workload's request, each in a fresh subject process,
until the next repetition would overrun ``--seconds`` (at least two, so
``evaluations`` and ``num_steps`` can be compared across repetitions of the
seed).  The request carries the sample as an explicit edge list, which
the subject builds the graph from.  The traced run makes exactly one
untraced and one traced repetition; their wall times give the tracing
overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 8
MIN_REPS = 2
REP_TIMEOUT_S = 150.0


def _spawn(ctx) -> "tuple[subprocess.Popen, float]":
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "subject.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=ctx.stderr, env=ctx.env, cwd=ctx.root, text=True)
    ready = proc.stdout.readline()
    if not ready or not json.loads(ready).get("ready"):
        proc.kill()
        proc.wait()
        raise RuntimeError("subject did not start; see "
                           + ctx.stderr_path)
    return proc, time.perf_counter() - started


def probe_setup(ctx) -> float:
    proc, setup = _spawn(ctx)
    proc.communicate("", timeout=REP_TIMEOUT_S)
    return setup


def run_rep(ctx, request: dict, trace: bool, run_id: str) -> dict:
    proc, setup = _spawn(ctx)
    job = {"request": request, "trace": trace, "run_id": run_id,
           "spans": os.path.join(ctx.out_dir, f"spans-{ctx.workload}.csv")}
    try:
        out, _ = proc.communicate(json.dumps(job) + "\n",
                                  timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"subject exited with {proc.returncode}; see "
                           + ctx.stderr_path)
    rep = json.loads(out.strip().splitlines()[-1])
    rep["setup_s"] = setup
    return rep


def run(ctx, workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    from repro.datasets import load_sample

    workload = dict(workload)
    original = load_sample(workload.pop("dataset"), workload.pop("sample_size"),
                           seed=workload.pop("sample_seed"))
    original_edges = list(original.edges())
    request = dict(workload, edges=original_edges,
                   num_vertices=original.num_vertices, seed=seed)
    started = time.perf_counter()
    setups: List[float] = []
    reps: List[dict] = []
    if trace:
        reps.append(run_rep(ctx, request, False, "untraced"))
        reps.append(run_rep(ctx, request, True, "traced"))
    else:
        setups = [probe_setup(ctx) for _ in range(SETUP_PROBES)]
        while True:
            rep_started = time.perf_counter()
            reps.append(run_rep(ctx, request, False, f"rep{len(reps)}"))
            rep_cost = time.perf_counter() - rep_started
            if (len(reps) >= MIN_REPS and time.perf_counter() - started
                    + rep_cost > seconds):
                break
    failed = 0
    notes = []
    first = reps[0]["response"]
    for index, rep in enumerate(reps):
        response = rep["response"]
        problem = checks.check_response(response, original_edges,
                                        original.num_vertices)
        if problem is None and index and any(
                response[key] != first[key]
                for key in ("evaluations", "num_steps", "removed_edges",
                            "inserted_edges", "final_opacity")):
            problem = "repetition of the seed differs from the first"
        if problem is not None:
            failed += 1
            notes.append(f"rep {index}: {problem}")
    setups += [rep["setup_s"] for rep in reps]
    walls = [rep["wall_s"] for rep in reps]
    result: Dict = {
        "attempted": len(reps), "failed": failed, "notes": notes,
        "digest": checks.digest([first]),
        "counts": {
            "reps": len(reps),
            "rep_wall_s": [round(wall, 3) for wall in walls],
            "evaluations": first["evaluations"],
            "steps": first["num_steps"],
            "removed": len(first["removed_edges"]),
            "inserted": len(first["inserted_edges"]),
            "final_opacity": first["final_opacity"],
        },
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(
                rep["maxrss_kb"] for rep in reps) / 1024.0, "MB"),
        },
    }
    if trace:
        untraced, traced = reps
        layers = dict(traced["layers"])
        layers["core.steps"] = first["num_steps"]
        layers["core.evals_per_s"] = first["evaluations"] / untraced["wall_s"]
        layers["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"]
                                         - 1.0)
        result["layers"] = layers
    return result
