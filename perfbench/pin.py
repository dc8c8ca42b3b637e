"""Rewrite ``expected.json``: the pinned answers of every fixed job spec.

Run on purpose only (``python3 perfbench/run.py --pin``), on a commit whose
answers are known good: every answer is first checked by the independent
schedule oracle, and the fleet reference session is pinned from plain
in-process builds, so a sharded run must match them bit for bit.
"""

from __future__ import annotations

import json

from oracle import EXPECTED_PATH, answer_digest, check_schedule
from workloads import COLD_FIXED, INFEASIBLE, REFERENCE_SESSION, SERVED_SPECS, Spec


def pinned_specs() -> "list[Spec]":
    reference = [
        Spec(f"{REFERENCE_SESSION.key}/{n}", 5, 4, graph=graph)
        for n, graph in enumerate(REFERENCE_SESSION.graphs())
    ]
    return list(dict.fromkeys(COLD_FIXED + SERVED_SPECS)) + reference


def pin() -> int:
    from repro.service import SchedulerService

    answers: "dict[str, dict]" = {}
    with SchedulerService() as service:
        for spec in pinned_specs():
            service.clear_caches()
            result = service.submit(spec.request())
            answer = result.answer_dict()
            problems = check_schedule(spec.input_graph(), answer, capacity=spec.capacity, pdef=spec.pdef)
            if problems:
                print(f"refusing to pin {spec.key}: {problems}")
                return 1
            answers[spec.key] = {"sha256": answer_digest(answer), "length": result.length}
            print(f"pinned {spec.key}: {result.length} cycles")
        service.clear_caches()
        try:
            service.submit(INFEASIBLE.request())
        except Exception as exc:  # the error type is what gets pinned
            answers[INFEASIBLE.key] = {"error": type(exc).__name__}
            print(f"pinned {INFEASIBLE.key}: {type(exc).__name__}")
        else:
            print(f"refusing to pin {INFEASIBLE.key}: it returned an answer")
            return 1
    doc = {
        "about": "Pinned answers: SHA-256 of JobResult.answer_dict() as canonical JSON, "
        "or the exception type of an infeasible spec. Written by run.py --pin.",
        "answers": answers,
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0
