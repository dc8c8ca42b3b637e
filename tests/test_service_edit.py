"""Service-level incremental-edit tests (ISSUE 6 tentpole).

Contract: ``SchedulerService.submit_edit`` resolves the base job, applies
the edits and rebuilds the catalog *incrementally* — partitions whose
subgraph digest survived the edit are served from the shard-partial cache
with **zero DFS**, the rest re-enumerate and merge in ascending-seed
order — and the result is **bit-identical** (catalog, selection, Counter
insertion order, schedule) to a cold full rebuild of the edited graph.
The cache level reports ``edit`` whenever at least one partition was
reused; over HTTP that is the ``X-Repro-Cache: edit`` header of
``POST /v1/jobs:edit``.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectionConfig
from repro.core.selection import PatternSelector
from repro.dfg.edit import DfgEdit, apply_edits
from repro.dfg.graph import DFG
from repro.dfg.io import subgraph_digest
from repro.exceptions import JobValidationError
from repro.exec.process import plan_seed_partitions
from repro.service import (
    AsyncServiceServer,
    EditRequest,
    JobRequest,
    SchedulerService,
    ServiceClient,
)
from repro.service.serialize import catalog_to_dict
from repro.service.service import EDIT_PARTITIONS
from repro.workloads.fft import radix2_fft
from repro.workloads.synthetic import layered_dag, random_dag
from tests.conftest import reference_build_catalog

CFG = SelectionConfig(span_limit=1)

COMMON = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _interning_stable_recolor(dfg: DFG, *, earliest: bool = True) -> DfgEdit:
    """A recolor that provably keeps ``color_labels`` interning order.

    Picks a node that is not the first occurrence of its old color and
    whose new color already appeared earlier — the earliest such node
    when ``earliest`` (smallest dirty region; supports only look upward).
    """
    labels, colors = dfg.color_labels()
    names = list(dfg.nodes)
    first: dict[str, int] = {}
    for i in range(dfg.n_nodes):
        first.setdefault(colors[labels[i]], i)
    indices = range(dfg.n_nodes) if earliest else range(dfg.n_nodes - 1, -1, -1)
    for i in indices:
        old = colors[labels[i]]
        if first[old] == i:
            continue
        for cand in colors:
            if cand != old and first[cand] < i:
                return DfgEdit.recolor(names[i], cand)
    raise AssertionError("workload has no interning-stable recolor")


# --------------------------------------------------------------------------- #
# EditRequest wire form + validation
# --------------------------------------------------------------------------- #
class TestEditRequest:
    def test_round_trips_through_json(self):
        request = EditRequest(
            job=JobRequest(capacity=4, pdef=3, workload="fft8", config=CFG),
            edits=(DfgEdit.recolor("a1", "b"), DfgEdit.add_node("z9", "c")),
        )
        again = EditRequest.from_json(request.to_json())
        assert again == request
        assert json.loads(request.to_json())["edits"][0]["op"] == "recolor"

    def test_job_must_be_a_job_request(self):
        with pytest.raises(JobValidationError, match="job"):
            EditRequest(job={"capacity": 4}, edits=(DfgEdit.recolor("a", "b"),))

    def test_edits_must_be_nonempty_dfg_edits(self):
        job = JobRequest(capacity=4, pdef=3, workload="fft8")
        with pytest.raises(JobValidationError, match="at least one edit"):
            EditRequest(job=job, edits=())
        with pytest.raises(JobValidationError, match="DfgEdit"):
            EditRequest(job=job, edits=({"op": "recolor"},))

    def test_from_dict_rejects_unknown_fields_and_bad_edits(self):
        job = JobRequest(capacity=4, pdef=3, workload="fft8")
        good = EditRequest(
            job=job, edits=(DfgEdit.recolor("a1", "b"),)
        ).to_dict()
        with pytest.raises(JobValidationError):
            EditRequest.from_dict({**good, "extra": 1})
        bad = dict(good)
        bad["edits"] = [{"op": "paint"}]
        with pytest.raises(JobValidationError, match="invalid edit"):
            EditRequest.from_dict(bad)


# --------------------------------------------------------------------------- #
# incremental rebuild: bit-identity + partition survival
# --------------------------------------------------------------------------- #
class TestIncrementalRebuild:
    def test_edit_level_reported_and_result_bit_identical(self):
        job = JobRequest(capacity=4, pdef=3, workload="fft8", config=CFG)
        edit = EditRequest(
            job=job, edits=(_interning_stable_recolor(radix2_fft(8)),)
        )
        with SchedulerService() as svc:
            svc.submit(job)
            svc.clear_caches(keep_shard_partials=True)
            outcome = svc.submit_edit_outcome(edit)
            assert outcome.cache == "edit"
            assert svc.stats.edit_jobs == 1
            assert svc.stats.partition_hits > 0
        with SchedulerService() as cold:
            edited = apply_edits(radix2_fft(8), edit.edits)
            reference = cold.submit(
                dataclasses.replace(job, workload=None, dfg=edited)
            )
        assert reference.answer_dict() == outcome.result.answer_dict()

    def test_untouched_partitions_run_zero_dfs(self, monkeypatch):
        # Every partition whose subgraph digest survived the edit must be
        # answered from the partial cache — the DFS must never see its
        # seeds again.  (Digest equality is the cache's truth; dirty_mask
        # is per-seed and strictly finer.)
        import repro.exec.process as process_mod

        enumerated: list[tuple[int, ...]] = []
        original = process_mod.classify_partition_rows

        def spy(enum, labels, partitions, size, span_limit, max_count, **kw):
            enumerated.extend(tuple(seeds) for seeds in partitions)
            return original(
                enum, labels, partitions, size, span_limit, max_count, **kw
            )

        monkeypatch.setattr(process_mod, "classify_partition_rows", spy)

        base = radix2_fft(8)
        edit_op = _interning_stable_recolor(base)
        edited = apply_edits(base, [edit_op])
        job = JobRequest(capacity=4, pdef=3, workload="fft8", config=CFG)
        with SchedulerService() as svc:
            svc.submit(job)
            assert enumerated, "cold build must enumerate"
            enumerated.clear()
            svc.clear_caches(keep_shard_partials=True)
            outcome = svc.submit_edit_outcome(
                EditRequest(job=job, edits=(edit_op,))
            )
            assert outcome.cache == "edit"

        partitions = [
            tuple(seeds)
            for seeds in plan_seed_partitions(edited, EDIT_PARTITIONS)[0]
        ]
        clean = [
            seeds
            for seeds in partitions
            if subgraph_digest(base, seeds) == subgraph_digest(edited, seeds)
        ]
        assert clean, "an early recolor must leave some partition clean"
        for seeds in clean:
            assert seeds not in enumerated, (
                f"clean partition {seeds[:3]}... was re-enumerated"
            )
        # and the dirty partitions are exactly what ran
        assert set(enumerated) == set(partitions) - set(clean)

    def test_partitioned_build_matches_fused_catalog_bit_for_bit(self):
        # The in-service partitioned build (the thing partial reuse rides
        # on) must itself be bit-identical to the sequential reference.
        dfg = radix2_fft(8)
        selector = PatternSelector(4, config=CFG)
        with SchedulerService() as svc:
            catalog, hits, misses = svc._build_catalog(
                dfg, selector, svc._classify_here(dfg)
            )
            assert (hits, misses) == (0, EDIT_PARTITIONS)
        reference = reference_build_catalog(selector, dfg)
        assert catalog_to_dict(catalog) == catalog_to_dict(reference)

    def test_edit_of_unknown_base_node_is_typed(self):
        job = JobRequest(capacity=4, pdef=3, workload="fft8", config=CFG)
        with SchedulerService() as svc:
            with pytest.raises(Exception, match="unknown node"):
                svc.submit_edit(
                    EditRequest(job=job, edits=(DfgEdit.recolor("nope", "a"),))
                )

    def test_clear_caches_can_keep_shard_partials(self):
        job = JobRequest(capacity=4, pdef=3, workload="fft8", config=CFG)
        with SchedulerService() as svc:
            svc.submit(job)
            svc.clear_caches(keep_shard_partials=True)
            # result/catalog caches are gone...
            outcome = svc.submit_outcome(job)
            assert outcome.cache == "edit"  # ...but every partial survived
            assert svc.stats.partition_misses == EDIT_PARTITIONS
            svc.clear_caches()
            outcome = svc.submit_outcome(job)
            assert outcome.cache == "none"  # full clear drops partials too


# --------------------------------------------------------------------------- #
# property: random edit sequences match cold rebuilds bit for bit
# --------------------------------------------------------------------------- #
def _random_valid_edits(rng: random.Random, dfg: DFG, count: int):
    """Schedulable-by-construction edit sequences (no empty graphs)."""
    names = list(dfg.nodes)
    colors = ["a", "b", "c"]
    edits = []
    for _ in range(count):
        op = rng.choice(["recolor", "recolor", "recolor", "add_edge"])
        if op == "recolor":
            edits.append(
                DfgEdit.recolor(rng.choice(names), rng.choice(colors))
            )
        else:
            i, j = sorted(rng.sample(range(len(names)), 2))
            edits.append((names[i], names[j]))  # placeholder, fixed below
    # materialise edge edits against the *current* edge set, keeping the
    # graph acyclic (only forward edges in insertion order) and fresh
    out = []
    edges = set(dfg.edges())
    for e in edits:
        if isinstance(e, DfgEdit):
            out.append(e)
        else:
            if e not in edges:
                edges.add(e)
                out.append(DfgEdit.add_edge(*e))
    return out


class TestEditSequenceProperty:
    @COMMON
    @given(
        params=st.tuples(st.integers(0, 5_000), st.integers(6, 14)),
        n_edits=st.integers(1, 3),
    )
    def test_random_dag_edit_results_bit_identical_to_cold(
        self, params, n_edits
    ):
        seed, n = params
        base = random_dag(seed, n, 0.3)
        rng = random.Random(seed ^ 0xBEEF)
        edits = _random_valid_edits(rng, base, n_edits)
        if not edits:
            return
        self._check(base, edits)

    @COMMON
    @given(
        params=st.tuples(
            st.integers(0, 5_000), st.integers(2, 3), st.integers(2, 4)
        ),
        n_edits=st.integers(1, 3),
    )
    def test_layered_dag_edit_results_bit_identical_to_cold(
        self, params, n_edits
    ):
        seed, layers, width = params
        base = layered_dag(seed, layers, width)
        rng = random.Random(seed ^ 0xFACE)
        edits = _random_valid_edits(rng, base, n_edits)
        if not edits:
            return
        self._check(base, edits)

    def test_fft16_edit_sequence_bit_identical_to_cold(self):
        base = radix2_fft(16)
        edits = [
            _interning_stable_recolor(base),
            _interning_stable_recolor(base, earliest=False),
        ]
        self._check(
            base,
            edits,
            config=SelectionConfig(span_limit=1, max_pattern_size=3),
            capacity=5,
        )

    @staticmethod
    def _check(base, edits, *, config=CFG, capacity=4):
        job = JobRequest(capacity=capacity, pdef=3, dfg=base, config=config)
        request = EditRequest(job=job, edits=tuple(edits))
        edited = apply_edits(base, edits)
        with SchedulerService() as warm:
            warm.submit(job)
            warm.clear_caches(keep_shard_partials=True)
            incremental = warm.submit_edit(request)
        with SchedulerService() as cold:
            reference = cold.submit(
                dataclasses.replace(job, workload=None, dfg=edited)
            )
        # answer_dict drops timings only: selection library,
        # schedule, metrics and every Counter's insertion order remain.
        assert incremental.answer_dict() == reference.answer_dict()


# --------------------------------------------------------------------------- #
# HTTP: POST /v1/jobs:edit
# --------------------------------------------------------------------------- #
class TestEditOverHttp:
    def test_edit_route_reports_edit_and_matches_fresh_server(self):
        base = radix2_fft(8)
        edit_op = _interning_stable_recolor(base)
        job = JobRequest(capacity=4, pdef=3, workload="fft8", config=CFG)
        request = EditRequest(job=job, edits=(edit_op,))

        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            client = ServiceClient(server.url)
            client.submit(job)
            warm = client.submit_edit(request)
            assert client.last_cache == "edit"
        finally:
            server.shutdown()

        fresh = AsyncServiceServer(port=0)
        fresh.start_background()
        try:
            cold_client = ServiceClient(fresh.url)
            edited = apply_edits(base, [edit_op])
            cold = cold_client.submit(
                dataclasses.replace(job, workload=None, dfg=edited)
            )
        finally:
            fresh.shutdown()
        assert warm.answer_dict() == cold.answer_dict()

    def test_invalid_edit_is_http_400_with_field(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            client = ServiceClient(server.url)
            import urllib.request

            req = urllib.request.Request(
                server.url + "/v1/jobs:edit",
                data=b'{"job": {"capacity": 4, "pdef": 3, '
                b'"workload": "fft8"}, "edits": [{"op": "paint"}]}',
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(JobValidationError, match="invalid edit"):
                try:
                    urllib.request.urlopen(req)
                except urllib.error.HTTPError as exc:
                    detail = json.loads(exc.read().decode("utf-8"))["error"]
                    assert exc.code == 400
                    assert detail["field"] == "edits"
                    raise JobValidationError(
                        detail["message"], field=detail["field"]
                    ) from exc
        finally:
            server.shutdown()
