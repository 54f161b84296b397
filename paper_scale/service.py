"""Runs ``fig-grid-serve``: one closed-loop HTTP client against ``serve``.

The client holds one keep-alive connection.  It submits the grid, polls the
job until it is done, and fetches the result: that is ``wall_s``.  Then it
re-submits the identical grid ``REPLAYS`` times; each replay is the
deduplicated ``POST /jobs`` plus ``GET /jobs/{id}/result``, timed until the
body is read (the client parses no records inside the timing).

Every server runs on a fresh database in its own directory.  It is stopped
with SIGINT and waited for.  The run fails if a ``/dev/shm/repro-arena*``
segment, a child process or a database file is left behind.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_WORKERS = 2
REPLAYS = 100
SETUP_PROBES = 6
POLL_S = 0.1
JOB_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
SHM_GLOB = "/dev/shm/repro-arena*"


def _children() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def _tree(pid: int) -> List[int]:
    """``pid`` and every live descendant."""
    children = _children()
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(children.get(current, ()))
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One subject ``serve`` process on a fresh database."""

    def __init__(self, ctx, traced: bool, tag: str) -> None:
        self.ctx = ctx
        self.dir = os.path.join(ctx.out_dir, f"serve-{os.getpid()}-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        db = os.path.join(self.dir, "runs.db")
        self.spans = os.path.join(ctx.out_dir, f"spans-{ctx.workload}.csv")
        self.summary = os.path.join(self.dir, "summary.json")
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve_host.py"),
                       "--db", db, "--max-workers", str(MAX_WORKERS),
                       "--spans", self.spans, "--summary", self.summary]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve",
                       "--host", "127.0.0.1", "--port", "0", "--db", db,
                       "--max-workers", str(MAX_WORKERS)]
        self.seen: set = set()
        self.peak_kb = 0
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=ctx.stderr, env=ctx.env,
                                     cwd=ctx.root, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on http://"):
            self.kill()
            raise RuntimeError("serve did not start; see " + ctx.stderr_path)
        host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
        while True:
            try:
                if self.call("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                self.conn.close()
                time.sleep(0.005)
            if time.perf_counter() - started > 60:
                self.kill()
                raise RuntimeError("serve never answered /healthz")
        self.setup_s = time.perf_counter() - started

    def call(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        answer = self.conn.getresponse()
        return answer.status, answer.read()

    def sample_memory(self) -> None:
        for pid in _tree(self.proc.pid):
            self.seen.add(pid)
            self.peak_kb = max(self.peak_kb, _hwm_kb(pid))

    def kill(self) -> None:
        for pid in _tree(self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)

    def stop(self) -> List[str]:
        """SIGINT, wait, and list what was left behind."""
        self.sample_memory()
        self.conn.close()
        problems = []
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append("serve ignored SIGINT")
            self.kill()
        if self.proc.returncode != 0:
            problems.append(f"serve exited with {self.proc.returncode}")
        self.proc.stdout.close()
        deadline = time.monotonic() + 5.0
        left = [pid for pid in self.seen if pid != self.proc.pid]
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [pid for pid in left if _alive(pid)]
        for pid in left:
            problems.append(f"child process {pid} left behind")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        layers = None
        if os.path.exists(self.summary):
            with open(self.summary, encoding="utf-8") as handle:
                layers = json.load(handle)
            os.remove(self.summary)
        self.layers = layers
        os.remove(os.path.join(self.dir, "runs.db"))
        leftovers = sorted(os.listdir(self.dir))
        if leftovers:
            problems.append(f"database files left behind: {leftovers}")
        shutil.rmtree(self.dir, ignore_errors=True)
        return problems


#: The grid's samples are fixed: across sample seeds 21-25 its evaluations
#: ranged from 308k to 462k, which would swamp the spread between runs.
GRID_SAMPLE_SEED = 0


def build_grid(seed: int) -> dict:
    """The 75-point Fig-6-style grid (n = 100, θ from 0.9 down to 0.5).

    ``seed`` only labels the points (``request_id``), which grouping and
    deduplication ignore, so every run does the same work.
    """
    from repro.api.requests import AnonymizationRequest
    from repro.api.sweeps import GridRequest

    thetas = (0.9, 0.8, 0.7, 0.6, 0.5)
    points = [(dataset, algorithm, 1)
              for dataset in ("wikipedia", "google", "enron")
              for algorithm in ("rem", "gaded-max", "gades")]
    points += [(dataset, algorithm, length)
               for length in (2, 3)
               for dataset, algorithm in (("enron", "rem"),
                                          ("gnutella", "rem"),
                                          ("gnutella", "rem-ins"))]
    configs = [(dataset, algorithm, length, theta)
               for dataset, algorithm, length in points for theta in thetas]
    requests = [AnonymizationRequest(
                    algorithm=algorithm, dataset=dataset, sample_size=100,
                    seed=GRID_SAMPLE_SEED, length_threshold=length,
                    theta=theta, request_id=f"seed{seed}-{index}")
                for index, (dataset, algorithm, length, theta)
                in enumerate(configs)]
    return GridRequest(requests=tuple(requests)).to_dict()


def _session(server: Server, payload: bytes, replays: int) -> dict:
    """Submit, poll to done, fetch; then ``replays`` deduplicated replays."""
    polls = 0
    started = time.perf_counter()
    status, body = server.call("POST", "/jobs", payload)
    if status != 201:
        raise RuntimeError(f"grid submit answered {status}: {body[:200]!r}")
    job_id = json.loads(body)["job_id"]
    while True:
        time.sleep(POLL_S)
        status, body = server.call("GET", f"/jobs/{job_id}")
        polls += 1
        server.sample_memory()
        state = json.loads(body)["status"]
        if state in ("done", "error", "cancelled"):
            break
        if time.perf_counter() - started > JOB_TIMEOUT_S:
            raise RuntimeError(f"grid job still {state} after "
                               f"{JOB_TIMEOUT_S} s")
    session = {"state": state, "polls": polls, "result": None,
               "replay_s": [], "replay_ok": []}
    if state != "done":
        return session
    status, session["result"] = server.call("GET", f"/jobs/{job_id}/result")
    session["wall_s"] = time.perf_counter() - started
    deduped = {"job_id": job_id, "status": "done", "deduped": True}
    for _ in range(replays):
        replay_started = time.perf_counter()
        status, body = server.call("POST", "/jobs", payload)
        answer_status, answer = server.call("GET", f"/jobs/{job_id}/result")
        session["replay_s"].append(time.perf_counter() - replay_started)
        session["replay_ok"].append(
            status == 200 and json.loads(body) == deduped
            and answer_status == 200 and answer == session["result"])
    return session


def _check_grid(session: dict, grid: dict) -> List[str]:
    from repro.datasets import load_sample

    if session["state"] != "done":
        return [f"grid job ended {session['state']}"]
    result = json.loads(session["result"])["result"]
    responses = result["responses"]
    problems = []
    if len(responses) != len(grid["requests"]):
        problems.append(f"{len(responses)} responses for "
                        f"{len(grid['requests'])} grid points")
    if not (result["num_sample_loads"] == result["num_distance_computes"] == 4):
        problems.append(
            f"sample loads {result['num_sample_loads']} / distance computes "
            f"{result['num_distance_computes']}, expected 4 / 4")
    originals = {}
    for request, response in zip(grid["requests"], responses):
        if response["request"] != request:
            problems.append(f"response for {request['request_id']} echoes "
                            f"another request")
            continue
        dataset = request["dataset"]
        if dataset not in originals:
            graph = load_sample(dataset, 100, seed=GRID_SAMPLE_SEED)
            originals[dataset] = (list(graph.edges()), graph.num_vertices)
        problem = checks.check_response(response, *originals[dataset])
        if problem is not None:
            problems.append(f"{dataset} {response['request']['algorithm']} "
                            f"L={response['request']['length_threshold']} "
                            f"theta={response['request']['theta']}: {problem}")
    return problems


def _served(ctx, traced: bool, tag: str, payload: Optional[bytes] = None,
            replays: int = 0) -> Tuple[Server, Optional[dict], List[str]]:
    """Start a server, run one session on it (if ``payload``), stop it."""
    server = Server(ctx, traced, tag)
    try:
        session = _session(server, payload, replays) if payload else None
    except BaseException:
        server.kill()
        raise
    return server, session, server.stop()


def run(ctx, seed: int, trace: bool) -> dict:
    """One grid plus its replays; the run's work does not depend on time."""
    grid = build_grid(seed)
    payload = json.dumps({"kind": "grid", "request": grid}).encode("utf-8")
    shm_before = set(glob.glob(SHM_GLOB))
    setups: List[float] = []
    problems: List[str] = []
    tally = {"attempted": 0, "failed": 0}

    def account(found: List[str]) -> None:
        """One checked operation; ``found`` lists what went wrong."""
        tally["attempted"] += 1
        tally["failed"] += bool(found)
        problems.extend(found)

    if trace:
        # Untraced reference for the overhead: the grid only, no replays.
        _, reference, stopped = _served(ctx, False, "reference", payload)
        account(stopped)
        account(_check_grid(reference, grid))
    else:
        for index in range(SETUP_PROBES):
            server, _, stopped = _served(ctx, False, f"probe{index}")
            setups.append(server.setup_s)
            account(stopped)
    server, session, stopped = _served(ctx, trace, "main", payload, REPLAYS)
    setups.append(server.setup_s)
    account(stopped)
    account(_check_grid(session, grid))
    for matches in session["replay_ok"]:
        account([] if matches else ["a replay differs from the first result"])
    leaked = sorted(set(glob.glob(SHM_GLOB)) - shm_before)
    account([f"shared-memory segment left behind: {path}" for path in leaked])
    for path in leaked:
        os.remove(path)
    record = (json.loads(session["result"])["result"] if session["result"]
              else {"responses": [], "num_groups": None,
                    "num_sample_loads": None, "num_distance_computes": None})
    responses = record["responses"]
    replay_ms = [1000.0 * value for value in session["replay_s"]]
    outcome: Dict = {
        **tally, "notes": problems,
        "digest": checks.digest(responses),
        "counts": {
            "grid_points": len(responses),
            "groups": record["num_groups"],
            "sample_loads": record["num_sample_loads"],
            "distance_computes": record["num_distance_computes"],
            "evaluations": sum(response["evaluations"]
                               for response in responses),
            "inserted": sum(len(response["inserted_edges"])
                            for response in responses),
            "polls": session["polls"],
            "replays": len(replay_ms),
            "replay_p50_ms": tracing.percentile(replay_ms, 0.5),
            "replay_p90_ms": tracing.percentile(replay_ms, 0.9),
        },
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (session.get("wall_s", 0.0), "s"),
            "peak_rss_mb": (server.peak_kb / 1024.0, "MB"),
        },
    }
    if trace:
        layers = dict(server.layers or {})
        layers.update({
            "api.sample_loads": record["num_sample_loads"] or 0,
            "api.distance_computes": record["num_distance_computes"] or 0,
            "api.groups": record["num_groups"] or 0,
            "core.steps": sum(response["num_steps"] for response in responses),
            "service.replay_p50_ms": tracing.percentile(replay_ms, 0.5),
            "service.replay_p90_ms": tracing.percentile(replay_ms, 0.9),
            "service.replays": len(replay_ms),
            "trace.overhead_frac": (
                session["wall_s"] / reference["wall_s"] - 1.0
                if "wall_s" in session and "wall_s" in reference else 0.0),
        })
        outcome["layers"] = layers
    return outcome
