"""Correctness gate for every response the benchmark receives.

The opacity check is an independent reference, written here rather than
taken from the package: breadth-first search bounded at L, degree-pair types
frozen from the original graph, and exact ``Fraction`` ratios.  A response
passes when

* it carries no error,
* original − removed + inserted equals the anonymized edge set (removed
  edges were present, inserted ones absent), and
* the reference ``max_T LO(T)`` of the anonymized graph, as a float, equals
  the response's ``final_opacity`` exactly.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def _adjacency(num_vertices: int, edges: Iterable[Edge]) -> List[set]:
    adjacency: List[set] = [set() for _ in range(num_vertices)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def exact_max_opacity(num_vertices: int, original: Iterable[Edge],
                      anonymized: Iterable[Edge], length: int) -> Fraction:
    """``max_T LO(T)`` of ``anonymized`` under the degree typing of ``original``."""
    degrees = [len(neighbours)
               for neighbours in _adjacency(num_vertices, original)]
    per_degree = Counter(degrees)
    totals: Dict[Tuple[int, int], int] = {}
    for g in per_degree:
        for h in per_degree:
            if g < h:
                totals[(g, h)] = per_degree[g] * per_degree[h]
            elif g == h and per_degree[g] > 1:
                totals[(g, g)] = per_degree[g] * (per_degree[g] - 1) // 2
    within: Counter = Counter()
    adjacency = _adjacency(num_vertices, anonymized)
    for source in range(num_vertices):
        seen = {source}
        frontier = [source]
        for _ in range(length):
            reached = []
            for vertex in frontier:
                for neighbour in adjacency[vertex]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        reached.append(neighbour)
            frontier = reached
        for target in seen:
            if target > source:
                g, h = degrees[source], degrees[target]
                within[(g, h) if g <= h else (h, g)] += 1
    return max((Fraction(within[key], total) for key, total in totals.items()),
               default=Fraction(0))


def _edges(payload: Sequence) -> set:
    return {(int(u), int(v)) for u, v in payload}


def check_response(response: dict, original: Sequence[Edge],
                   num_vertices: int) -> Optional[str]:
    """``None`` when ``response`` (a response dict) passes, else the reason."""
    if response.get("error"):
        return f"error: {response['error']}"
    if response["num_vertices"] != num_vertices:
        return (f"num_vertices {response['num_vertices']} != "
                f"{num_vertices}")
    before = _edges(original)
    removed = _edges(response["removed_edges"])
    inserted = _edges(response["inserted_edges"])
    after = _edges(response["anonymized_edges"])
    if not removed <= before or inserted & before:
        return "edit accounting: removed edge absent or inserted edge present"
    if (before - removed) | inserted != after:
        return "edit accounting: original - removed + inserted != anonymized"
    length = response["request"]["length_threshold"]
    exact = exact_max_opacity(num_vertices, before, after, length)
    if float(exact) != response["final_opacity"]:
        return (f"final_opacity {response['final_opacity']!r} != reference "
                f"{float(exact)!r} ({exact})")
    return None


def digest(responses: Iterable[dict]) -> str:
    """Hash of everything deterministic in ``responses`` (not runtimes)."""
    hasher = hashlib.sha256()
    for response in responses:
        record = {key: response[key] for key in (
            "final_opacity", "num_steps", "evaluations", "stop_reason",
            "success", "error")}
        record["removed"] = sorted(map(list, response["removed_edges"]))
        record["inserted"] = sorted(map(list, response["inserted_edges"]))
        hasher.update(json.dumps(record, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()[:16]
