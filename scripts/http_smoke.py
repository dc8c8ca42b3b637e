#!/usr/bin/env python
"""End-to-end HTTP smoke test of the scheduling service (CI gate).

Starts a real ``AsyncServiceServer`` (the ``repro serve`` core) on an
ephemeral port, drives it through the :class:`~repro.service.ServiceClient`
exactly like a remote caller would, and checks the service contract:

1. ``/healthz`` answers;
2. a cold job submit returns a valid, verifiable schedule;
3. re-submitting the same job is served from the result cache
   (``X-Repro-Cache: result``) and rides the same persistent keep-alive
   connection; the client's repeat revalidates (``If-None-Match`` →
   ``304 Not Modified`` carrying the first ``ETag``, no body) and returns
   the answer it holds, while a header-less POST still ships the cold
   answer's exact bytes;
4. a batch ``pdef`` sweep dedups and shares one catalog;
5. a malformed request comes back as a typed HTTP 400, not a stack trace;
6. the server can act as a remote shard: a catalog built through
   ``POST /v1/catalog:shard:stream`` partitions merges bit-identical to
   the in-process catalog;
7. a streamed shard claim (one ``ShardTask``: the graph and bounds once,
   plus its seed ranges) answers one slot per range with exactly the
   in-process rows, and shard partials are content-addressed:
   re-streaming a range is answered from the partial cache (cache level
   ``shard``) with identical rows, and a fresh coordinator over the warm
   server rebuilds the catalog bit-identically with zero server-side DFS;
8. graph edits are incremental: recoloring one node of a submitted job
   through ``POST /v1/jobs:edit`` is answered ``X-Repro-Cache: edit``
   (only dirty partitions re-enumerated) and the answer is bit-identical
   to a fresh server cold-rebuilding the edited graph;
9. per-client quotas answer 429 with ``Retry-After`` while other clients
   proceed, and a graceful drain answers 503 for new work while reads
   keep serving;
10. the fleet survives losing a shard: with three real ``repro serve``
   subprocesses, SIGKILLing one mid-job must open its circuit breaker,
   fail its partitions over to the survivors, and still merge a catalog
   bit-identical to the single-instance build;
11. the partition plan does not depend on the fleet: over one real
   ``repro serve``, a one-shard coordinator build and then a three-shard
   build of the same job — every slot of the second answers ``cache:
   shard``, the server runs no new DFS, and the catalogs are
   bit-identical;
12. a result survives a restart: a second server over the first one's
   ``--cache-dir`` answers the job ``X-Repro-Cache: result`` (a disk-only
   hit, answered through the compute pool) with the cold answer's exact
   bytes.

Usage::

    PYTHONPATH=src python scripts/http_smoke.py
"""

from __future__ import annotations

import errno
import hashlib
import sys

from repro.service import AsyncServiceServer, JobRequest, ServiceClient


def start_server(**kwargs) -> AsyncServiceServer:
    """A started server on an OS-assigned free port (never a fixed one).

    ``port=0`` asks the kernel for a free ephemeral port, so the smoke
    test cannot collide with another service on a busy CI runner.  A
    single ``EADDRINUSE`` retry papers over the one race that remains on
    some platforms (the kernel handing out a port another process grabs
    between selection and bind).
    """
    server = AsyncServiceServer(port=0, **kwargs)
    try:
        server.start_background()
    except OSError as exc:
        server.shutdown()
        if exc.errno != errno.EADDRINUSE:
            raise
        server = AsyncServiceServer(port=0, **kwargs)
        server.start_background()
    return server


def main() -> int:
    server = start_server()
    client = ServiceClient(server.url, timeout=30)
    try:
        health = client.health()
        assert health["status"] == "ok", health
        print(f"healthz ok ({health['kernel']}) at {server.url}")

        request = JobRequest(capacity=5, pdef=4, workload="3dft")
        cold = client.submit(request)
        assert client.last_cache == "none", client.last_cache
        cold.schedule.verify()
        print(f"cold submit ok: {cold.length} cycles, cache={client.last_cache}")

        warm = client.submit(request)
        assert client.last_cache == "result", client.last_cache
        assert warm is cold, "the revalidated repeat did not return the held answer"
        assert client.stats()["stats"]["not_modified"] == 1
        # Health check, both submits and the stats read rode one pooled
        # keep-alive connection.
        assert len(client._conns) == 1, len(client._conns)
        # The wire bytes, header-less: the cold answer's, tagged by their
        # hash; the tag revalidates to a bodiless 304 carrying it.
        body = request.to_json().encode()
        status, cache, raw, tag = post_job(server, body)
        assert (status, cache) == (200, "result"), (status, cache)
        assert raw == cold.to_json().encode(), "warm wire bytes differ"
        assert tag == f'"{hashlib.sha256(raw).hexdigest()}"', tag
        ((first_tag, _),) = client._held.values()  # the cold 200's ETag
        assert tag == first_tag, (tag, first_tag)
        assert post_job(server, body, tag) == (304, "result", b"", tag)
        print("warm submit ok: revalidated with a 304 carrying the first "
              "ETag over one persistent connection; header-less bytes "
              "bit-identical")

        sweep = client.submit_many(
            [
                JobRequest(capacity=5, pdef=p, workload="5dft")
                for p in (2, 3, 3)
            ]
        )
        assert len(sweep) == 3 and sweep[1] == sweep[2]
        stats = client.stats()["stats"]
        assert stats["deduped"] >= 1, stats
        print(f"batch sweep ok: {[r.length for r in sweep]} cycles, "
              f"{stats['deduped']} deduped")

        # Malformed request straight onto the wire: must come back as a
        # typed 400 payload, which the client re-raises as the same
        # exception a local submit would have produced.
        import json
        import urllib.error
        import urllib.request

        try:
            urllib.request.urlopen(
                urllib.request.Request(
                    server.url + "/v1/jobs",
                    data=b'{"capacity": 0, "pdef": 1, "workload": "3dft"}',
                    headers={"Content-Type": "application/json"},
                    method="POST",
                ),
                timeout=30,
            )
        except urllib.error.HTTPError as exc:
            assert exc.code == 400, exc.code
            detail = json.loads(exc.read())["error"]
            assert detail["type"] == "JobValidationError", detail
            assert detail["field"] == "capacity", detail
            print(f"validation ok: typed 400 envelope ({detail['message']})")
        else:
            raise AssertionError("malformed request was accepted")

        # Remote shard: the server classifies seed partitions over HTTP
        # and the merged catalog is bit-identical to a local build.
        from repro.core.config import SelectionConfig
        from repro.core.selection import PatternSelector
        from repro.service import ShardCoordinator
        from repro.service.serialize import catalog_to_dict
        from repro.workloads import three_point_dft_paper

        cfg = SelectionConfig(span_limit=1)
        dfg = three_point_dft_paper()
        reference = PatternSelector(5, config=cfg).build_catalog(dfg)
        with ShardCoordinator([server.url]) as coord:
            sharded = coord.build_catalog(dfg, 5, config=cfg, workload="3dft")
        assert json.dumps(catalog_to_dict(sharded)) == json.dumps(
            catalog_to_dict(reference)
        ), "remote shard catalog is not bit-identical"
        print("remote shard ok: merged catalog bit-identical to the local build")

        # Streamed shard slots carry exactly the in-process rows, and
        # re-streaming a task is answered from the server's
        # content-addressed partial cache (cache level "shard").
        import dataclasses

        from repro.exec.process import plan_seed_partitions
        from repro.service import SchedulerService, ShardTask

        claim = ShardTask(
            size=2, span_limit=1, max_count=None,
            ranges=plan_seed_partitions(dfg, 3)[0], workload="3dft",
        )
        streamed = {
            slot: rows
            for slot, rows, _cache in client.classify_shard_stream(claim)
        }
        with SchedulerService() as local:
            in_process = local.classify_shard(claim)
        assert [streamed[i] for i in range(len(claim.ranges))] == in_process, (
            "streamed shard rows differ from in-process classification"
        )
        [(_, warm_rows, warm_cache)] = client.classify_shard_stream(
            dataclasses.replace(claim, ranges=claim.ranges[:1])
        )
        assert warm_cache == "shard", warm_cache
        assert warm_rows == in_process[0], "cached partial differs"
        stats = client.stats()["stats"]
        assert stats["shard_hits"] >= 1, stats
        print(f"shard stream ok: a {len(claim.ranges)}-range claim streams "
              f"the in-process rows; a repeat is a partial-cache hit")

        # A fresh coordinator over the warm server: bit-identical catalog,
        # every dispatched partition a remote partial hit, zero new DFS.
        misses_before = stats["shard_misses"]
        with ShardCoordinator([server.url]) as coord:
            rebuilt = coord.build_catalog(dfg, 5, config=cfg, workload="3dft")
            coord_stats = coord.stats
        assert json.dumps(catalog_to_dict(rebuilt)) == json.dumps(
            catalog_to_dict(reference)
        ), "warm shard catalog is not bit-identical"
        assert coord_stats.dispatched > 0, coord_stats.to_dict()
        assert (
            coord_stats.remote_partial_hits == coord_stats.dispatched
        ), coord_stats.to_dict()
        assert client.stats()["stats"]["shard_misses"] == misses_before, (
            "warm shard rebuild ran a server-side DFS"
        )
        print(
            f"warm shard ok: {coord_stats.dispatched} partitions served "
            f"from the partial cache (cache level shard), zero DFS"
        )

        # Edit path: recolor one node of an already-submitted job.  The
        # warm server answers X-Repro-Cache: edit (only dirty partitions
        # re-enumerated) and the result must be bit-identical to a fresh
        # server cold-rebuilding the locally-edited graph.
        from repro.dfg.edit import DfgEdit, apply_edits
        from repro.service import EditRequest
        from repro.workloads import radix2_fft

        fft8 = radix2_fft(8)
        edit_cfg = SelectionConfig(span_limit=1)
        base_job = JobRequest(capacity=4, pdef=4, dfg=fft8, config=edit_cfg)
        client.submit(base_job)
        labels, colors = fft8.color_labels()
        names = list(fft8.nodes)
        first: dict[str, int] = {}
        for i in range(fft8.n_nodes):
            first.setdefault(colors[labels[i]], i)
        edit_op = next(
            DfgEdit.recolor(names[i], cand)
            for i in range(fft8.n_nodes)
            if first[colors[labels[i]]] != i
            for cand in colors
            if cand != colors[labels[i]] and first[cand] < i
        )
        edited_result = client.submit_edit(
            EditRequest(job=base_job, edits=(edit_op,))
        )
        assert client.last_cache == "edit", client.last_cache
        edited_result.schedule.verify()

        fresh = start_server()
        try:
            fresh_client = ServiceClient(fresh.url, timeout=30)
            edited_dfg = apply_edits(fft8, [edit_op])
            cold_edited = fresh_client.submit(
                JobRequest(capacity=4, pdef=4, dfg=edited_dfg, config=edit_cfg)
            )
            assert fresh_client.last_cache == "none", fresh_client.last_cache
        finally:
            fresh.shutdown()
        assert (
            edited_result.answer_dict() == cold_edited.answer_dict()
        ), "incremental edit result differs from a cold rebuild"
        print(
            f"edit ok: recolor {edit_op.node}->{edit_op.color} served "
            f"X-Repro-Cache: edit, bit-identical to a cold rebuild"
        )
    finally:
        server.shutdown()
    quota_and_drain_leg()
    fault_leg()
    topology_leg()
    restart_leg()
    print("http smoke OK")
    return 0


def post_job(
    server: AsyncServiceServer, body: bytes, etag: "str | None" = None
) -> "tuple[int, str, bytes, str]":
    """``(status, X-Repro-Cache, raw body, ETag)`` of one ``/v1/jobs`` POST,
    sent with ``If-None-Match: etag`` when a tag is given."""
    import http.client

    headers = {"Content-Type": "application/json"}
    if etag is not None:
        headers["If-None-Match"] = etag
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        assert resp.status in (200, 304), (resp.status, raw[:200])
        return (
            resp.status,
            resp.getheader("X-Repro-Cache"),
            raw,
            resp.getheader("ETag"),
        )
    finally:
        conn.close()


def restart_leg() -> None:
    """A disk-only result hit after a restart returns the cold bytes."""
    import tempfile

    body = JobRequest(capacity=5, pdef=4, workload="3dft").to_json().encode()
    with tempfile.TemporaryDirectory() as cache_dir:
        first = start_server(cache_dir=cache_dir)
        try:
            status, cache, cold, _ = post_job(first, body)
            assert (status, cache) == (200, "none"), (status, cache)
        finally:
            first.shutdown()
        second = start_server(cache_dir=cache_dir)
        try:
            for _ in range(2):  # from disk, then from the memory front
                status, cache, warm, _ = post_job(second, body)
                assert (status, cache) == (200, "result"), (status, cache)
                assert warm == cold, "restarted server's answer differs"
        finally:
            second.shutdown()
    print("restart ok: a second server over the cache dir answers "
          "X-Repro-Cache: result with the cold bytes")


def quota_and_drain_leg() -> None:
    """Per-client quotas (429 + Retry-After) and graceful drain."""
    from repro.exceptions import ServiceOverloadedError, ServiceUnavailableError

    server = start_server(quota_rps=0.1, quota_burst=4)
    try:
        client = ServiceClient(server.url, timeout=30, client_id="smoke")
        with client:
            request = JobRequest(capacity=5, pdef=4, workload="3dft")
            client.submit(request)

            # Burst exhausted → typed 429 with a retry hint; another
            # client id still gets through.
            overloaded = None
            for _ in range(8):
                try:
                    client.submit(JobRequest(capacity=5, pdef=3,
                                             workload="3dft"))
                except ServiceOverloadedError as exc:
                    overloaded = exc
                    break
            assert overloaded is not None, "quota never tripped"
            assert overloaded.http_status == 429
            assert overloaded.retry_after and overloaded.retry_after > 0
            with ServiceClient(server.url, timeout=30,
                               client_id="other") as other:
                other.submit(JobRequest(capacity=5, pdef=3, workload="3dft"))
            print(f"quota ok: 429 after burst "
                  f"(Retry-After {overloaded.retry_after}s), other clients "
                  f"unaffected")

            # Drain: refuse new work with 503, reads keep serving.
            info = client.drain()
            assert info == {"draining": True}, info
            try:
                with ServiceClient(server.url, timeout=30) as late:
                    late.submit(request)
            except ServiceUnavailableError as exc:
                assert exc.http_status == 503
            else:
                raise AssertionError("drained server accepted work")
            assert client.health()["status"] == "draining"
            print("drain ok: new work answers 503, reads still served")
    finally:
        server.shutdown()


def fault_leg() -> None:
    """Kill a shard mid-job: the fleet must degrade, not fail.

    Three real ``repro serve`` subprocesses behind one coordinator; the
    first is SIGKILLed as soon as the job is genuinely in flight.  The
    coordinator must retry, open the dead shard's breaker, fail its
    partitions over to the two survivors, and the merged catalog must
    still be bit-identical to the single-instance build.
    """
    import json
    import signal
    import threading
    import time

    from repro.core.config import SelectionConfig
    from repro.core.selection import PatternSelector
    from repro.service import RetryPolicy, ShardCoordinator
    from repro.service.serialize import catalog_to_dict
    from repro.workloads import radix2_fft

    procs, urls = [], []
    try:
        for _ in range(3):
            spawn_serve(procs, urls)

        cfg = SelectionConfig(span_limit=1)
        dfg = radix2_fft(8)
        reference = PatternSelector(5, config=cfg).build_catalog(dfg)
        # threshold=1 ejects the victim on its first whole-call failure;
        # the long cooldown keeps the breaker visibly open afterwards.
        retry = RetryPolicy(
            connect_timeout=2.0,
            read_timeout=60.0,
            retries=1,
            backoff_base=0.01,
            backoff_cap=0.05,
            breaker_threshold=1,
            breaker_cooldown=300.0,
        )
        outcome: dict = {}
        with ShardCoordinator(urls, retry=retry) as coord:

            def build() -> None:
                try:
                    outcome["catalog"] = coord.build_catalog(
                        dfg, 5, config=cfg, workload="fft8"
                    )
                except BaseException as exc:  # surfaced on the main thread
                    outcome["error"] = exc

            worker = threading.Thread(target=build)
            worker.start()
            # Strike once the job is provably in flight (a first claim
            # has completed somewhere) but long before it drains.
            deadline = time.time() + 30.0
            while (
                time.time() < deadline
                and sum(coord.stats.tasks_per_shard) == 0
                and worker.is_alive()
            ):
                time.sleep(0.005)
            procs[0].send_signal(signal.SIGKILL)
            killed_at = time.time()
            worker.join(timeout=180.0)
            assert not worker.is_alive(), "sharded build hung after the kill"
            stats = coord.stats
            health = coord.describe()["health"]
        if "error" in outcome:
            raise outcome["error"]
        assert json.dumps(catalog_to_dict(outcome["catalog"])) == json.dumps(
            catalog_to_dict(reference)
        ), "degraded catalog is not bit-identical to the local build"
        assert stats.retries + stats.failovers > 0, stats.to_dict()
        assert health[0]["state"] == "open", health[0]
        assert health[0]["opens"] >= 1, health[0]
        # The survivors carried the job — no in-process last resort.
        assert stats.local_fallbacks == 0, stats.to_dict()
        assert stats.tasks_per_shard[1] + stats.tasks_per_shard[2] > 0, (
            stats.to_dict()
        )
        print(
            f"fault ok: shard killed mid-job ({time.time() - killed_at:.1f}s "
            f"to recover), {stats.retries} retries, {stats.failovers} "
            f"failovers, breaker open, catalog bit-identical"
        )
    finally:
        stop_serves(procs)


def topology_leg() -> None:
    """One plan for every fleet size, over one real ``repro serve``.

    A one-shard coordinator builds a job; a fresh three-shard coordinator
    (the same server three times) builds it again.  The fresh
    coordinator's completion cache is cold, so every partition is
    dispatched — and the server must answer every slot from its partial
    cache (``cache: shard``), run no new DFS, and the catalogs must be
    bit-identical.
    """
    import json

    from repro.core.config import SelectionConfig
    from repro.core.selection import PatternSelector
    from repro.service import ShardCoordinator
    from repro.service.serialize import catalog_to_dict
    from repro.workloads import radix2_fft

    cfg = SelectionConfig(span_limit=1)
    dfg = radix2_fft(8)
    reference = json.dumps(
        catalog_to_dict(PatternSelector(5, config=cfg).build_catalog(dfg))
    )
    procs, urls = [], []
    try:
        spawn_serve(procs, urls)
        client = ServiceClient(urls[0], timeout=30)
        builds = []
        for shards in (1, 3):
            misses_before = client.stats()["stats"]["shard_misses"]
            with ShardCoordinator(urls * shards) as coord:
                catalog = coord.build_catalog(
                    dfg, 5, config=cfg, workload="fft8"
                )
                stats = coord.stats
            builds.append(json.dumps(catalog_to_dict(catalog)))
        misses_after = client.stats()["stats"]["shard_misses"]
        client.close()
        assert builds == [reference, reference], (
            "fleet catalogs are not bit-identical across sizes"
        )
        assert stats.dispatched == stats.planned > 0, stats.to_dict()
        assert stats.remote_partial_hits == stats.dispatched, stats.to_dict()
        assert misses_after == misses_before, (
            "the three-shard rebuild ran a server-side DFS"
        )
        print(
            f"topology ok: a 3-shard rebuild answered all "
            f"{stats.dispatched} slots 'shard' from a 1-shard build's "
            f"partials, zero DFS, bit-identical"
        )
    finally:
        stop_serves(procs)


def spawn_serve(procs: list, urls: list) -> None:
    """Start one ``repro serve --port 0`` subprocess; record it and its URL."""
    import os
    import re
    import subprocess
    import threading
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    procs.append(proc)
    line = proc.stdout.readline()
    m = re.search(r"http://[\d.]+:\d+", line or "")
    assert m, f"shard server failed to start (got {line!r})"
    urls.append(m.group(0))
    # Drain per-request logs so the pipe never fills and blocks.
    threading.Thread(target=proc.stdout.read, daemon=True).start()


def stop_serves(procs: list) -> None:
    """Terminate every spawned server, killing any that hangs."""
    import subprocess

    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
