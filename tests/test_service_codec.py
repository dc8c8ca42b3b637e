"""Result codec tests: encode once, decode interned.

Pins the :class:`~repro.service.jobs.JobResult` codec contract:

* the memoised compact ``to_json()`` is byte-identical to
  ``json.dumps(r.to_dict())`` for fresh, warm-hit, disk-reloaded and edit
  results, and a warm hit returns the very same string;
* ``from_json(to_json(r))`` reproduces ``answer_dict()`` over random
  layered and Erdős–Rényi DAGs plus the registered workloads, Counter
  insertion order included;
* :func:`~repro.service.serialize.pattern_from_list` interns valid bags,
  validating each distinct one once, yet still rejects every malformed
  bag with :class:`~repro.exceptions.JobValidationError`, on its first
  and on any repeated occurrence;
* the batch route (``submit_many``) decodes through the same path, and its
  body is built from the memoised encodings.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SelectionConfig
from repro.dfg.edit import DfgEdit
from repro.exceptions import JobValidationError
from repro.service import (
    AsyncServiceServer,
    EditRequest,
    JobRequest,
    SchedulerService,
    ServiceClient,
)
from repro.service.jobs import JobResult, results_json
from repro.service.serialize import pattern_from_list
from repro.workloads.synthetic import layered_dag, random_dag

CFG = SelectionConfig(span_limit=1)

#: Registered workloads whose span-1 build takes well under a second.
REGISTERED = (
    "small-example",
    "3dft",
    "3dft-winograd",
    "5dft",
    "fir8",
    "iir2",
    "dot8",
    "matvec4",
    "dct4",
    "fft8",
)

#: Malformed bag payloads, each with the reason it is rejected.
BAD_BAGS = [
    pytest.param("ab", id="string-not-list"),
    pytest.param(("a", "b"), id="tuple-not-list"),
    pytest.param([], id="empty-list"),
    pytest.param(["a", 1], id="non-str-color"),
    pytest.param(["a", ["b"]], id="unhashable-color"),
    pytest.param(["a", ""], id="empty-string-color"),
    pytest.param(["a", "-"], id="dummy-color"),
]


def _job(workload="3dft", **kwargs) -> JobRequest:
    kwargs.setdefault("config", CFG)
    kwargs.setdefault("pdef", 4)
    return JobRequest(capacity=5, workload=workload, **kwargs)


@pytest.fixture(scope="module")
def service():
    return SchedulerService()


def _compact(result: JobResult) -> str:
    return json.dumps(result.to_dict())


def _wire(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


# --------------------------------------------------------------------------- #
# encode once
# --------------------------------------------------------------------------- #
class TestEncodeOnce:
    def test_fresh_result_matches_dumps(self):
        result = SchedulerService().submit(_job())
        assert result.to_json() == _compact(result)

    def test_warm_hit_returns_the_same_string(self):
        service = SchedulerService()
        cold = service.submit_outcome(_job())
        warm = service.submit_outcome(_job())
        assert (cold.cache, warm.cache) == ("none", "result")
        text = cold.result.to_json()
        assert warm.result.to_json() is text
        assert text == _compact(warm.result)

    def test_disk_reloaded_result_matches_dumps(self, tmp_path):
        first = SchedulerService(cache_dir=tmp_path).submit(_job())
        reloaded = SchedulerService(cache_dir=tmp_path).submit_outcome(_job())
        assert reloaded.cache == "result"
        assert reloaded.result.to_json() == _compact(reloaded.result)
        assert reloaded.result.to_json() == first.to_json()

    def test_edit_result_matches_dumps(self):
        service = SchedulerService()
        edit = EditRequest(job=_job("fft8"), edits=(DfgEdit.recolor("a1", "b"),))
        result = service.submit_edit(edit)
        assert result.to_json() == _compact(result)
        assert service.submit_edit(edit).to_json() is result.to_json()

    def test_memo_is_not_a_field(self, service):
        result = service.submit(_job())
        result.to_json()
        assert "_json" not in {f.name for f in dataclasses.fields(JobResult)}
        twin = dataclasses.replace(result)
        assert "_json" not in twin.__dict__
        assert twin == result and twin.to_json() == result.to_json()

    def test_indented_form_is_not_memoised(self, service):
        result = service.submit(_job())
        assert result.to_json(indent=2) == json.dumps(result.to_dict(), indent=2)
        assert result.to_json() == _compact(result)

    def test_concurrent_first_encodes_agree(self, service):
        # Pool threads may race to encode one fresh result; each must see
        # the compact form, and the memo must end up holding it.
        result = dataclasses.replace(service.submit(_job("fft8")))
        expected = _compact(result)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                texts = list(pool.map(lambda _: result.to_json(), range(32)))
        finally:
            sys.setswitchinterval(interval)
        assert all(text == expected for text in texts)
        assert result.to_json() == expected

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_batch_body_matches_dumps(self, service, count):
        results = [service.submit(_job(pdef=p)) for p in range(1, count + 1)]
        expected = json.dumps({"results": [r.to_dict() for r in results]})
        assert results_json(results) == expected


# --------------------------------------------------------------------------- #
# interned decode round trip
# --------------------------------------------------------------------------- #
def _assert_round_trip(result: JobResult) -> None:
    back = JobResult.from_json(result.to_json())
    # Node attrs built in-process may hold tuples where JSON has lists,
    # so the fresh result is compared in its wire form; a decoded result
    # must reproduce itself exactly.
    assert _wire(back.answer_dict()) == _wire(result.answer_dict())
    assert JobResult.from_json(back.to_json()).answer_dict() == back.answer_dict()
    assert back.to_json() == result.to_json()
    # Eq. 8 sums floats in Counter insertion order: keys and per-node
    # counts must come back in the order they were encoded.
    ours, theirs = result.selection.catalog, back.selection.catalog
    assert list(theirs.frequencies) == list(ours.frequencies)
    for pattern, counter in ours.frequencies.items():
        assert list(theirs.frequencies[pattern].items()) == list(counter.items())
    for mine, other in zip(result.selection.rounds, back.selection.rounds):
        assert list(other.priorities.items()) == list(mine.priorities.items())
    # Interned decode: equal bags decode to one Pattern object.
    interned = {}
    bags = [*back.schedule.library, *back.selection.library, *theirs.frequencies]
    for pattern in bags:
        assert interned.setdefault(pattern.key, pattern) is pattern


ROUND_TRIP = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestInternedRoundTrip:
    @ROUND_TRIP
    @given(
        st.integers(0, 10_000),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(3, 5),  # ≥ 3 slots cover the three colors
        st.integers(1, 4),
    )
    def test_layered_dags(self, service, seed, layers, width, capacity, pdef):
        dfg = layered_dag(seed, layers, width)
        request = JobRequest(capacity=capacity, pdef=pdef, dfg=dfg, config=CFG)
        _assert_round_trip(service.submit(request))

    @ROUND_TRIP
    @given(
        st.integers(0, 10_000),
        st.integers(2, 12),
        st.sampled_from([0.1, 0.25, 0.5]),
        st.integers(3, 5),  # ≥ 3 slots cover the three colors
        st.integers(1, 4),
    )
    def test_erdos_renyi_dags(self, service, seed, n, density, capacity, pdef):
        dfg = random_dag(seed, n, density)
        request = JobRequest(capacity=capacity, pdef=pdef, dfg=dfg, config=CFG)
        _assert_round_trip(service.submit(request))

    @pytest.mark.parametrize("workload", REGISTERED)
    def test_registered_workloads(self, service, workload):
        _assert_round_trip(service.submit(_job(workload)))


# --------------------------------------------------------------------------- #
# malformed bags
# --------------------------------------------------------------------------- #
class TestMalformedBags:
    @pytest.mark.parametrize("bad", BAD_BAGS)
    def test_rejects_every_occurrence(self, bad):
        pattern_from_list(["a", "b"])
        for _ in range(2):
            with pytest.raises(JobValidationError):
                pattern_from_list(bad)

    def test_reuses_validated_bags(self):
        first = pattern_from_list(["a", "b", "a"])
        assert pattern_from_list(["a", "b", "a"]) is first
        assert pattern_from_list(["a", "a", "b"]) == first

    def _payload(self, service) -> dict:
        return json.loads(service.submit(_job()).to_json())

    @pytest.mark.parametrize("bad", BAD_BAGS)
    def test_first_occurrence_in_result(self, service, bad):
        payload = self._payload(service)
        payload["schedule"]["library"]["patterns"][0] = bad
        with pytest.raises(JobValidationError):
            JobResult.from_dict(payload)

    @pytest.mark.parametrize("bad", BAD_BAGS)
    def test_repeated_occurrence_in_result(self, service, bad):
        # The malformed bag comes after every valid bag has been interned
        # (and, in the rounds, twice in a row).
        payload = self._payload(service)
        catalog = payload["selection"]["catalog"]
        catalog["antichain_counts"][-1][0] = bad
        with pytest.raises(JobValidationError):
            JobResult.from_dict(payload)
        payload = self._payload(service)
        payload["selection"]["rounds"][-1]["deleted"].append(bad)
        payload["selection"]["rounds"][-1]["deleted"].append(bad)
        with pytest.raises(JobValidationError):
            JobResult.from_dict(payload)

    def test_list_spelled_as_tuple_after_interning(self, service):
        payload = self._payload(service)
        first = payload["schedule"]["library"]["patterns"][0]
        payload["selection"]["library"]["patterns"][0] = tuple(first)
        with pytest.raises(JobValidationError):
            JobResult.from_dict(payload)


class TestMalformedGraph:
    """A result's embedded graph fails as the request's does: typed, on ``dfg``."""

    def _payload(self, service) -> dict:
        return json.loads(service.submit(_job()).to_json())

    def test_node_without_a_color(self, service):
        payload = self._payload(service)
        del payload["dfg"]["nodes"][0]["color"]
        with pytest.raises(JobValidationError) as exc:
            JobResult.from_dict(payload)
        assert exc.value.field == "dfg"

    def test_edge_to_an_unknown_node(self, service):
        payload = self._payload(service)
        payload["dfg"]["edges"].append([payload["dfg"]["nodes"][0]["name"], "zz"])
        with pytest.raises(JobValidationError) as exc:
            JobResult.from_dict(payload)
        assert exc.value.field == "dfg"


# --------------------------------------------------------------------------- #
# batch decode
# --------------------------------------------------------------------------- #
def _batch(server_url: str) -> "tuple[list[JobResult], bytes]":
    requests = [_job(pdef=2), _job(pdef=3), _job(pdef=2)]
    with ServiceClient(server_url, timeout=30) as client:
        results = client.submit_many(requests)
    host, port = server_url.rsplit("/", 1)[-1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        body = json.dumps({"jobs": [r.to_dict() for r in requests]})
        conn.request("POST", "/v1/jobs:batch", body=body.encode("utf-8"))
        raw = conn.getresponse().read()
    finally:
        conn.close()
    return results, raw


class TestSubmitMany:
    def test_batch_decodes_interned(self):
        server = AsyncServiceServer(port=0)
        server.start_background()
        try:
            results, raw = _batch(server.url)
        finally:
            server.shutdown()
        assert results[0] == results[2] and results[0] != results[1]
        for result in results:
            _assert_round_trip(result)
        # The body is the memoised encodings joined: decoding and
        # re-encoding each entry reproduces it byte for byte.
        decoded = [JobResult.from_dict(e) for e in json.loads(raw)["results"]]
        assert decoded == results
        assert raw.decode("utf-8") == results_json(decoded)
