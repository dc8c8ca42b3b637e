"""Answer checks that share no code with the program under test.

Two independent checks decide whether a job's answer is correct:

* :func:`check_schedule` re-derives the paper's feasibility rules from the
  input graph the benchmark built and the plain-JSON answer
  (``JobResult.answer_dict()``): every node scheduled exactly once, every
  edge from an earlier cycle to a later one, each cycle's colors inside the
  chosen pattern, patterns no larger than the capacity and at most ``pdef``
  of them.  It never calls ``verify_schedule`` or any other repro checker.
* :func:`answer_digest` hashes the whole answer; ``expected.json`` pins the
  digest of every fixed job spec and the error type of every infeasible
  one, so a change to any answer bit is caught, not only an infeasible one.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from typing import Any

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def answer_digest(answer: "dict[str, Any]") -> str:
    """SHA-256 of the canonical JSON form of an ``answer_dict()``."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_schedule(graph: Any, answer: "dict[str, Any]", *, capacity: int, pdef: int) -> "list[str]":
    """Every way ``answer`` breaks the schedule rules for ``graph``.

    ``graph`` is the benchmark's own description of the input
    (:class:`workloads.Graph`): ``nodes`` as ``(name, color)`` pairs and
    ``edges`` as ``(u, v)`` pairs.  An empty list means the answer is valid.
    """
    problems: "list[str]" = []
    colors = dict(graph.nodes)
    schedule = answer["schedule"]
    patterns = schedule["library"]["patterns"]
    if len(patterns) > pdef:
        problems.append(f"library holds {len(patterns)} patterns, pdef is {pdef}")
    for i, pattern in enumerate(patterns):
        if len(pattern) > capacity:
            problems.append(f"pattern {i} has {len(pattern)} slots, capacity is {capacity}")

    cycle_of: "dict[str, int]" = {}
    for number, record in enumerate(schedule["cycles"], start=1):
        if record["cycle"] != number:
            problems.append(f"cycle record {number} is numbered {record['cycle']}")
        chosen = record["chosen"]
        if not (isinstance(chosen, int) and 0 <= chosen < len(patterns)):
            problems.append(f"cycle {number} chose pattern {chosen!r}, library has {len(patterns)}")
            continue
        used: "Counter[str]" = Counter()
        for node in record["scheduled"]:
            if node not in colors:
                problems.append(f"cycle {number} schedules unknown node {node!r}")
                continue
            if node in cycle_of:
                problems.append(f"node {node!r} scheduled in cycles {cycle_of[node]} and {number}")
                continue
            cycle_of[node] = number
            used[colors[node]] += 1
        overflow = used - Counter(patterns[chosen])
        if overflow:
            problems.append(
                f"cycle {number} needs {dict(overflow)} beyond pattern {patterns[chosen]}"
            )

    missing = [name for name in colors if name not in cycle_of]
    if missing:
        problems.append(f"{len(missing)} nodes never scheduled, e.g. {missing[0]!r}")
    for u, v in graph.edges:
        if u in cycle_of and v in cycle_of and not cycle_of[u] < cycle_of[v]:
            problems.append(f"edge {u}->{v} runs from cycle {cycle_of[u]} to {cycle_of[v]}")
    if schedule["assignment"] != cycle_of:
        problems.append("assignment disagrees with the cycle trace")

    echoed = answer["dfg"]
    if [(n["name"], n["color"]) for n in echoed["nodes"]] != list(graph.nodes) or sorted(
        map(tuple, echoed["edges"])
    ) != sorted(graph.edges):
        problems.append("the answer's graph is not the submitted graph")
    return problems


def load_expected(path: str = EXPECTED_PATH) -> "dict[str, dict[str, Any]]":
    """Spec id → ``{"sha256", "length"}`` or ``{"error"}``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["answers"]
