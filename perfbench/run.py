#!/usr/bin/env python3
"""The repo benchmark: three seeded closed-loop workloads over the public API.

One run (the last stdout line is JSON):

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a traced run.  Other modes (see ``perfbench/README.md``):

    python3 perfbench/run.py --all               # every workload, one table
    python3 perfbench/run.py --steadiness        # two sets of runs vs the bounds
    python3 perfbench/run.py --pin               # rewrite expected.json
    python3 perfbench/selftest.py                # the benchmark's unit tests

Run from the repository root; the program is imported from ``src/``.  Work
files (server logs, span dumps, cache directories) live in
``.perfbench-work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Iterator

from metrics import END_TO_END, EXTRA_END_TO_END, PER_LAYER, latency_ms, p99_reported, per_layer, ratio
from oracle import answer_digest, check_schedule, load_expected
from tracer import Tracer, covered_seconds, layer_totals, load_spans, root_durations
from workloads import (
    COLD_FIXED,
    EDITS_PER_SESSION,
    PARAMETERS,
    SERVED_SPECS,
    cold_decks,
    fleet_sessions,
    priming_graph,
    served_decks,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
SERVER_START_TIMEOUT = 60.0
SETUP_REPEATS = 5
#: Fleet-churn sessions per deck (5 jobs each), the unit of jobs_per_s.
SESSIONS_PER_DECK = 4
#: Decks after which peak_rss_mb is read: the caches grow with every new
#: input, so reading it at the end would charge a faster program more.
RSS_DECKS = 8
#: Iterations of the host-speed probe loop.
PROBE_LOOPS = 20_000
#: The probe's thread CPU time on the reference machine in a quiet minute.
REFERENCE_PROBE_S = 1.5e-3

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


# --------------------------------------------------------------- host speed
def probe_s() -> float:
    """Thread CPU time of a fixed pure-Python loop.

    On a shared host the same loop takes from 1.3 to 2.3 times its quiet
    time, switching within seconds, and the guest's CPU clocks slow down
    with it.  Thread CPU time leaves out time this thread waits (for the
    GIL, or for a CPU another guest process holds), so only the host's
    speed moves it.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.thread_time() - t0


class HostSpeed:
    """The host's speed factor: ``REFERENCE_PROBE_S`` over the probe's time.

    A timing multiplied by the factor reads as it would on the reference
    machine in a quiet minute.  Every timed end-to-end metric is scaled
    this way, job by job (and set-up by set-up), by the mean factor of
    probes taken just before and just after it.
    """

    def __init__(self) -> None:
        self.factors: "list[float]" = []

    def probe(self) -> float:
        factor = REFERENCE_PROBE_S / min(probe_s(), probe_s())
        self.factors.append(factor)
        return factor

    def around(self, setup: Callable[[], tuple]) -> tuple:
        """Run ``setup()``, whose result ends with the seconds it took, and
        scale those by the mean factor of probes just before and after."""
        before = self.probe()
        *value, seconds = setup()
        return (*value, seconds * (before + self.probe()) / 2)


# ------------------------------------------------------------------ samples
@dataclasses.dataclass
class Phase:
    """The timed jobs of one loop: latencies, failures, answers seen.

    ``latencies`` and ``busy_s`` are scaled by the host's speed factor;
    ``raw`` keeps the caller-observed latencies as they were.
    """

    latencies: "list[float]" = dataclasses.field(default_factory=list)
    raw: "list[float]" = dataclasses.field(default_factory=list)
    busy_s: float = 0.0
    failed: int = 0
    problems: "list[str]" = dataclasses.field(default_factory=list)
    windows: "dict[int, tuple[float, float]]" = dataclasses.field(default_factory=dict)
    lengths: "dict[str, int]" = dataclasses.field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    steals: int = 0
    #: Per deck: (jobs completed, scaled seconds spent in them).
    decks: "list[tuple[int, float]]" = dataclasses.field(default_factory=list)
    host: HostSpeed = dataclasses.field(default_factory=HostSpeed)
    #: The host factor of the job last timed by :func:`timed_call`.
    factor: float = 1.0
    #: Peak resident memory after a fixed number of decks (see :func:`timed_loop`).
    rss_mb: "float | None" = None

    def record(self, t0: float, t1: float, problem: "str | None") -> None:
        self.windows[len(self.windows)] = (t0, t1)
        scaled = (t1 - t0) * self.factor
        self.busy_s += scaled
        if problem is None:
            self.latencies.append(scaled)
            self.raw.append(t1 - t0)
        else:
            self.failed += 1
            self.latencies.append(math.inf)
            self.raw.append(math.inf)
            if len(self.problems) < 20:
                self.problems.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def p50_ms(self) -> float:
        return latency_ms(self.latencies, 0.5)


def timed_loop(
    phase: Phase, seconds: float, decks: Iterator[list], run_job: Callable, rss: "Callable[[], float] | None"
) -> Phase:
    """Run whole decks until ``seconds`` have passed; ``run_job`` times one job.

    ``rss()`` is read once :data:`RSS_DECKS` decks are done (or at the end,
    if fewer are), so peak memory measures the same work however fast it ran.
    """
    phase.start = clock()
    deadline = phase.start + seconds
    while clock() < deadline:
        done, busy = phase.attempted - phase.failed, phase.busy_s
        for item in next(decks):
            run_job(item)
        phase.decks.append((phase.attempted - phase.failed - done, phase.busy_s - busy))
        if rss is not None and len(phase.decks) == RSS_DECKS:
            phase.rss_mb = rss()
    phase.end = clock()
    if rss is not None and phase.rss_mb is None:
        phase.rss_mb = rss()
    return phase


def timed_call(phase: Phase, tracer: Any, call: Callable[[], Any]) -> "tuple[Any, Any, float, float]":
    """``call()`` timed as the phase's next job: ``(result, error, t0, t1)``."""
    before = phase.host.probe()
    if tracer is not None:
        tracer.begin_job(len(phase.windows))
    result = error = None
    t0 = clock()
    try:
        result = call()
    except Exception as exc:  # a failed job is a measurement, not a crash
        error = exc
    t1 = clock()
    if tracer is not None:
        tracer.end_job()
    phase.factor = (before + phase.host.probe()) / 2
    return result, error, t0, t1


def describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:200]}"


# ------------------------------------------------------------------ servers
class Server:
    """One ``repro serve`` subprocess (through the tracing launcher if asked)."""

    def __init__(self, run: "Run", *, cache_dir: "str | None" = None, traced: bool = False) -> None:
        tag = run.next_tag()
        self.spans = os.path.join(run.workdir, f"spans-{tag}.jsonl") if traced else None
        cmd = [sys.executable, "-u"]
        if traced:
            cmd += [os.path.join(HERE, "launch.py"), self.spans]
        else:
            cmd += ["-m", "repro.cli"]
        cmd += ["serve", "--port", "0"]
        if cache_dir is not None:
            cmd += ["--cache-dir", cache_dir]
        self.log_path = os.path.join(run.workdir, f"server-{tag}.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True, env=run.env, cwd=ROOT
        )
        run.children.append(self)
        self.url: "str | None" = None
        self._reader: "threading.Thread | None" = None

    def ready(self) -> str:
        """Wait for the listening banner; returns the base URL."""
        readable, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT)
        line = self.proc.stdout.readline() if readable else ""
        match = re.search(r"http://[\d.]+:\d+", line)
        if not match:
            raise BenchError(f"server did not start (got {line!r}); log: {self.log_path}")
        self.url = match.group(0)
        # Keep reading so the server never blocks on a full pipe.
        self._reader = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._reader.start()
        return self.url

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (drain, dump spans, exit) and wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()


class Run:
    """One benchmark run: work directory, child processes, environment."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=SRC if not pythonpath else SRC + os.pathsep + pythonpath,
            TMPDIR=self.workdir,
        )
        self.children: "list[Server]" = []
        self.setup_problems: "list[str]" = []
        self.expected = load_expected()
        self._tags = itertools.count(1)

    def next_tag(self) -> str:
        """A fresh name for a child's files in the work directory."""
        return str(next(self._tags))

    def check_answer(self, key: "str | None", graph: Any, result: Any, capacity: int, pdef: int) -> "str | None":
        """Oracle verdict on one answer, and the pinned digest when ``key`` is set."""
        answer = result.answer_dict()
        problems = check_schedule(graph, answer, capacity=capacity, pdef=pdef)
        if problems:
            return f"{graph.name}: " + "; ".join(problems[:3])
        if key is not None and answer_digest(answer) != self.pinned(key).get("sha256"):
            return f"{key}: answer differs from the pinned answer"
        return None

    def check_error(self, spec: Any, exc: "BaseException | None") -> "str | None":
        """Verdict on an infeasible spec: it must raise exactly its pinned error."""
        want = self.pinned(spec.key).get("error")
        if exc is None:
            return f"{spec.key}: expected {want}, got an answer"
        if type(exc).__name__ != want:
            return f"{spec.key}: expected {want}, got {describe_error(exc)}"
        return None

    def pinned(self, key: str) -> "dict[str, Any]":
        if key not in self.expected:
            raise BenchError(f"no pinned answer for {key!r}; run --pin")
        return self.expected[key]

    def close(self) -> None:
        for child in self.children:
            child.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def runner_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- cold-compile
PROBE = (
    "from repro.service import JobRequest, SchedulerService\n"
    "service = SchedulerService()\n"
    "service.submit(JobRequest(capacity=5, pdef=4, workload='small-example'))\n"
    "print('ready', flush=True)\n"
)


def launch_probe(run: Run) -> float:
    """Seconds from launch to a service that has answered its first job."""
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE], stdout=subprocess.PIPE, text=True, env=run.env, cwd=ROOT
    )
    try:
        line = proc.stdout.readline()
        elapsed = clock() - t0
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def cold_phase(
    run: Run, service: Any, decks: Iterator[list], seconds: float,
    tracer: Any = None,
    rss: "Callable[[], float] | None" = None,
) -> Phase:
    phase = Phase()

    def run_job(spec: Any) -> None:
        request = spec.request()
        service.clear_caches()
        gc.collect()
        outcome, error, t0, t1 = timed_call(phase, tracer, lambda: service.submit_outcome(request))
        if spec.error is not None:
            problem = run.check_error(spec, error)
        elif error is not None:
            problem = describe_error(error)
        elif outcome.cache != "none":
            problem = f"cold job answered from the {outcome.cache!r} cache"
        else:
            problem = run.check_answer(spec.key, spec.input_graph(), outcome.result, spec.capacity, spec.pdef)
            if problem is None and spec.key is not None:
                phase.lengths[spec.key] = outcome.result.length
        phase.record(t0, t1, problem)

    return timed_loop(phase, seconds, decks, run_job, rss)


def run_cold(run: Run) -> dict:
    from repro.service import SchedulerService

    host = HostSpeed()
    setups = [] if run.trace else [host.around(lambda: (launch_probe(run),))[0] for _ in range(SETUP_REPEATS)]
    with SchedulerService() as service:
        service.submit(COLD_FIXED[0].request())  # load lazy imports before timing
        if not run.trace:
            phase = cold_phase(run, service, cold_decks(run.seed), run.seconds, rss=runner_peak_rss_mb)
            return end_to_end(run, phase, setups, [s.key for s in COLD_FIXED])
        # Both halves run the same inputs, so their p50 difference is the
        # tracing overhead.
        plain = cold_phase(run, service, cold_decks(run.seed), run.seconds / 2)
        tracer = Tracer()
        before = service.stats.to_dict()
        tracer.install()
        try:
            traced = cold_phase(run, service, cold_decks(run.seed), run.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        after = service.stats.to_dict()
    records = [r for r in tracer.records if r[5] is not None]
    jobs = traced.attempted
    counters = service_counters(before, after)
    counters.update(idle_counters("shard", "retry", "wire"))
    counters.update(coverage_counters(records, traced))
    counters.update(overhead_counters(plain, traced))
    return per_layer_result(run, [plain, traced], layer_totals(records), jobs, counters)


# -------------------------------------------------------------- served-warm
def served_setup(run: Run, traced: bool) -> "tuple[Server, Any, float]":
    """Start a server and prime every served spec; returns the set-up time."""
    from repro.service import ServiceClient

    t0 = clock()
    server = Server(run, traced=traced)
    client = ServiceClient(server.ready(), timeout=120)
    primed = [(spec, client.submit(spec.request())) for spec in SERVED_SPECS]
    elapsed = clock() - t0
    for spec, result in primed:
        problem = run.check_answer(spec.key, spec.input_graph(), result, spec.capacity, spec.pdef)
        if problem:
            run.setup_problems.append(f"priming {problem}")
    return server, client, elapsed


def served_phase(
    run: Run, client: Any, decks: Iterator[list], seconds: float,
    tracer: Any = None,
    rss: "Callable[[], float] | None" = None,
) -> Phase:
    phase = Phase()
    requests = {spec.key: spec.request() for spec in SERVED_SPECS}

    def run_job(spec: Any) -> None:
        request = requests[spec.key]
        result, error, t0, t1 = timed_call(phase, tracer, lambda: client.submit(request))
        if error is not None:
            problem = describe_error(error)
        elif client.last_cache != "result":
            problem = f"{spec.key}: answered from the {client.last_cache!r} cache, not 'result'"
        else:
            problem = run.check_answer(spec.key, spec.input_graph(), result, spec.capacity, spec.pdef)
            if problem is None:
                phase.lengths[spec.key] = result.length
        phase.record(t0, t1, problem)

    return timed_loop(phase, seconds, decks, run_job, rss)


def run_served(run: Run) -> dict:
    if not run.trace:
        host = HostSpeed()
        setups = []
        for repeat in range(SETUP_REPEATS):
            server, client, elapsed = host.around(lambda: served_setup(run, traced=False))
            setups.append(elapsed)
            if repeat < SETUP_REPEATS - 1:
                client.close()
                server.stop()
        phase = served_phase(run, client, served_decks(run.seed), run.seconds, rss=server.peak_rss_mb)
        client.close()
        return end_to_end(run, phase, setups, [s.key for s in SERVED_SPECS])
    server, client, _ = served_setup(run, traced=False)
    plain = served_phase(run, client, served_decks(run.seed), run.seconds / 2)
    server.stop()
    client.close()

    server, client, _ = served_setup(run, traced=True)
    tracer = Tracer()
    before = client.stats()["stats"]
    tracer.install()
    try:
        traced = served_phase(run, client, served_decks(run.seed), run.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    after = client.stats()["stats"]
    client.close()
    server.stop()
    server_records = in_window(load_spans(server.spans), traced)
    local = tracer.records
    jobs = traced.attempted
    totals = merge_totals(layer_totals(local), layer_totals(server_records))
    roundtrip = root_durations(local, "service.client.roundtrip")
    decode = sum(r[3] - r[2] for r in local if r[1] == "service.serialize.result_decode")
    server_roots = root_durations(server_records)
    counters = service_counters(before, after)
    counters.update(idle_counters("shard", "retry"))
    counters["service.client.roundtrip_ms"] = roundtrip * 1e3 / jobs
    counters["service.wire_ms"] = (roundtrip - server_roots - decode) * 1e3 / jobs
    counters.update(coverage_counters(local, traced))
    counters.update(overhead_counters(plain, traced))
    return per_layer_result(run, [plain, traced], totals, jobs, counters)


# -------------------------------------------------------------- fleet-churn
@dataclasses.dataclass
class Fleet:
    servers: "list[Server]"
    coordinator: Any
    service: Any
    clients: "list[Any]"

    def stop(self) -> None:
        self.coordinator.close()
        self.service.close()
        for client in self.clients:
            client.close()
        for server in self.servers:
            server.stop()


def fleet_setup(run: Run, traced: bool) -> "tuple[Fleet, float]":
    """Two shard servers and a coordinator on one fresh cache directory."""
    from repro.service import JobRequest, SchedulerService, ServiceClient
    from repro.service.shard import ShardCoordinator

    t0 = clock()
    cache_dir = os.path.join(run.workdir, f"cache-{run.next_tag()}")
    os.makedirs(cache_dir)
    servers = [Server(run, cache_dir=cache_dir, traced=traced) for _ in range(2)]
    urls = [server.ready() for server in servers]
    service = SchedulerService(cache_dir=cache_dir)
    coordinator = ShardCoordinator(urls, service=service)
    coordinator.submit_outcome(JobRequest(capacity=5, pdef=4, dfg=priming_graph().to_dfg()))
    elapsed = clock() - t0
    return Fleet(servers, coordinator, service, [ServiceClient(u) for u in urls]), elapsed


def fleet_phase(
    run: Run, fleet: Fleet, sessions: Iterator[Any], seconds: float,
    tracer: Any = None,
    rss: "Callable[[], float] | None" = None,
) -> Phase:
    from repro.dfg.edit import DfgEdit
    from repro.service import EditRequest, JobRequest

    phase = Phase()
    coordinator = fleet.coordinator

    def timed(call: Callable[[], Any]) -> "tuple[Any, Any, float, float]":
        shard_tasks = list(coordinator.stats.tasks_per_shard)
        dispatched = coordinator.stats.dispatched
        timing = timed_call(phase, tracer, call)
        delta = [b - a for a, b in zip(shard_tasks, coordinator.stats.tasks_per_shard)]
        sent = coordinator.stats.dispatched - dispatched
        if sent:
            share = -(-sent // len(delta))
            phase.steals += sum(max(0, c - share) for c in delta)
        return timing

    def run_session(session: Any) -> None:
        graph = session.base
        request = JobRequest(capacity=5, pdef=4, dfg=graph.to_dfg())
        steps = [(graph, lambda request=request: coordinator.submit_outcome(request))]
        for node, color in session.edits:
            base = JobRequest(capacity=5, pdef=4, dfg=graph.to_dfg())
            edit = EditRequest(job=base, edits=(DfgEdit.recolor(node, color),))
            graph = graph.recolor(node, color)
            steps.append((graph, lambda edit=edit: coordinator.submit_edit_outcome(edit)))
        for number, (graph, call) in enumerate(steps):
            outcome, error, t0, t1 = timed(call)
            key = None if session.key is None else f"{session.key}/{number}"
            if error is not None:
                problem = describe_error(error)
            else:
                problem = run.check_answer(key, graph, outcome.result, 5, 4)
                if problem is None and key is not None:
                    phase.lengths[key] = outcome.result.length
            phase.record(t0, t1, problem)

    decks = (list(itertools.islice(sessions, SESSIONS_PER_DECK)) for _ in itertools.count())
    return timed_loop(phase, seconds, decks, run_session, rss)


def run_fleet(run: Run) -> dict:
    reference = [f"fleet-reference/{n}" for n in range(EDITS_PER_SESSION + 1)]
    if not run.trace:
        host = HostSpeed()
        setups = []
        for repeat in range(SETUP_REPEATS):
            fleet, elapsed = host.around(lambda: fleet_setup(run, traced=False))
            setups.append(elapsed)
            if repeat < SETUP_REPEATS - 1:
                fleet.stop()
        def rss() -> float:
            return sum(s.peak_rss_mb() for s in fleet.servers) + runner_peak_rss_mb()

        phase = fleet_phase(run, fleet, fleet_sessions(run.seed), run.seconds, rss=rss)
        fleet.stop()
        return end_to_end(run, phase, setups, reference)
    fleet, _ = fleet_setup(run, traced=False)
    plain = fleet_phase(run, fleet, fleet_sessions(run.seed), run.seconds / 2)
    fleet.stop()

    fleet, _ = fleet_setup(run, traced=True)
    tracer = Tracer()
    before = fleet.service.stats.to_dict()
    shards_before = [c.stats()["stats"] for c in fleet.clients]
    coord_before = fleet.coordinator.stats.to_dict()
    tracer.install()
    try:
        traced = fleet_phase(run, fleet, fleet_sessions(run.seed), run.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    after = fleet.service.stats.to_dict()
    shards_after = [c.stats()["stats"] for c in fleet.clients]
    coord_after = fleet.coordinator.stats.to_dict()
    fleet.stop()
    server_records = []
    for server in fleet.servers:
        server_records += in_window(load_spans(server.spans), traced)
    records = [r for r in tracer.records if r[5] is not None]
    jobs = traced.attempted
    totals = merge_totals(layer_totals(records), layer_totals(server_records))

    counters = service_counters(before, after, shards_before, shards_after)
    delta = {k: coord_after[k] - coord_before[k] for k in coord_after if isinstance(coord_after[k], int)}
    counters.update(
        {
            "service.shard.dispatched": delta["dispatched"] / jobs,
            "service.shard.claim_rounds": delta["claim_rounds"] / jobs,
            "service.shard.partial_hit_ratio": ratio(delta["partial_hits"], delta["planned"]),
            "service.shard.remote_partial_hits": delta["remote_partial_hits"] / jobs,
            "service.shard.steals": traced.steals / jobs,
            "service.retry.retries": delta["retries"] / jobs,
            "service.retry.failovers": delta["failovers"] / jobs,
            "service.retry.local_fallbacks": delta["local_fallbacks"] / jobs,
        }
    )
    counters.update(idle_counters("wire"))
    counters.update(coverage_counters(records, traced))
    counters.update(overhead_counters(plain, traced))
    return per_layer_result(run, [plain, traced], totals, jobs, counters)


# -------------------------------------------------------------- aggregation
def in_window(records: "list[tuple]", phase: Phase) -> "list[tuple]":
    """Server spans that started inside the phase's timed window."""
    return [r for r in records if phase.start <= r[2] <= phase.end]


def merge_totals(*parts: "dict[str, dict[str, float]]") -> "dict[str, dict[str, float]]":
    out: "dict[str, dict[str, float]]" = {}
    for part in parts:
        for layer, row in part.items():
            acc = out.setdefault(layer, {"self_s": 0.0, "calls": 0, "value": 0})
            for field in acc:
                acc[field] += row[field]
    return out


def service_counters(
    before: dict, after: dict, shards_before: "list[dict]" = (), shards_after: "list[dict]" = ()
) -> "dict[str, float]":
    """Cache hit ratios over the window from ``ServiceStats`` deltas."""

    def delta(name: str) -> int:
        return after[name] - before[name]

    out = {
        f"service.cache_hit_ratio.{level}": ratio(
            delta(f"{level}_hits"), delta(f"{level}_hits") + delta(f"{level}_misses")
        )
        for level in ("result", "catalog", "selection")
    }
    hits = delta("partition_hits")
    probes = hits + delta("partition_misses")
    for old, new in zip(shards_before, shards_after):
        hits += new["shard_hits"] - old["shard_hits"]
        probes += new["shard_tasks"] - old["shard_tasks"]
    out["service.partition_hit_ratio"] = ratio(hits, probes)
    return out


def idle_counters(*groups: str) -> "dict[str, float]":
    """Zeros for counter groups a workload never exercises."""
    names = {
        "shard": (
            "service.shard.dispatched",
            "service.shard.claim_rounds",
            "service.shard.partial_hit_ratio",
            "service.shard.remote_partial_hits",
            "service.shard.steals",
        ),
        "retry": ("service.retry.retries", "service.retry.failovers", "service.retry.local_fallbacks"),
        "wire": ("service.client.roundtrip_ms", "service.wire_ms"),
    }
    return {name: 0.0 for group in groups for name in names[group]}


def coverage_counters(records: "list[tuple]", phase: Phase) -> "dict[str, float]":
    wall = sum(t1 - t0 for t0, t1 in phase.windows.values())
    covered = covered_seconds(records, phase.windows)
    return {
        "unattributed_ms": (wall - covered) * 1e3 / phase.attempted,
        "trace.coverage_ratio": ratio(covered, wall),
    }


def overhead_counters(plain: Phase, traced: Phase) -> "dict[str, float]":
    return {
        "trace.job_p50_ms": traced.p50_ms(),
        "trace.overhead_ms": traced.p50_ms() - plain.p50_ms(),
    }


def end_to_end(run: Run, phase: Phase, setups: "list[float]", fixed: "list[str]") -> dict:
    missing = [key for key in fixed if key not in phase.lengths]
    if missing:
        run.setup_problems.append(f"no valid answer for fixed specs {missing}")
    n = phase.attempted
    values = {
        "setup_s": statistics.median(setups),
        "job_p50_ms": latency_ms(phase.latencies, 0.5),
        "job_p90_ms": latency_ms(phase.latencies, 0.9),
        "jobs_per_s": statistics.median(jobs / busy for jobs, busy in phase.decks),
        "schedule_cycles_total": sum(phase.lengths.get(key, 0) for key in fixed),
        "peak_rss_mb": phase.rss_mb,
    }
    extra = {
        "failed_frac": phase.failed / n,
        "raw_job_p50_ms": latency_ms(phase.raw, 0.5),
        "raw_job_p90_ms": latency_ms(phase.raw, 0.9),
        "host_factor": statistics.median(phase.host.factors),
    }
    if p99_reported(n):
        extra["job_p99_ms"] = latency_ms(phase.latencies, 0.99)
    samples = {"setup_s": len(setups), "job_p50_ms": n, "job_p90_ms": n, "job_p99_ms": n,
               "jobs_per_s": len(phase.decks), "failed_frac": n, "schedule_cycles_total": len(fixed),
               "peak_rss_mb": 1, "raw_job_p50_ms": n, "raw_job_p90_ms": n,
               "host_factor": len(phase.host.factors)}
    units = {**END_TO_END, **EXTRA_END_TO_END}
    report = {name: {"value": v, "unit": units[name], "samples": samples[name]}
              for name, v in {**values, **extra}.items()}
    return finish(run, [phase], {k: report[k] for k in END_TO_END}, report)


def per_layer_result(run: Run, phases: "list[Phase]", totals: dict, jobs: int, counters: dict) -> dict:
    values = per_layer(totals, jobs=jobs, counters=counters)
    report = {name: {"value": v, "unit": PER_LAYER[name], "samples": jobs} for name, v in values.items()}
    return finish(run, phases, {k: report[k] for k in PER_LAYER}, report)


def finish(run: Run, phases: "list[Phase]", metrics: dict, report: dict) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = run.setup_problems + [m for p in phases for m in p.problems]
    return {
        "correct": failed == 0 and not run.setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        "report": report,
        "problems": problems,
    }


# ------------------------------------------------------------------ output
def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Shared hosts drift; printing this before and after each run shows
    whether a difference between runs came from the host, not the program.
    """
    samples = []
    for _ in range(5):
        t0 = clock()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(clock() - t0)
    return statistics.median(samples) * 1e3


def environment(host_ms: "tuple[float, float]") -> "dict[str, Any]":
    from repro.exec.bitset import bitset_availability

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "bitset": bitset_availability(),
        "host_loop_ms": list(host_ms),
    }


def print_report(workload: str, seed: int, trace: bool, result: dict, env: dict) -> None:
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  "
          f"cpus {env['cpus']}  python {env['python']}  bitset: {env['bitset']}")
    print("# host loop ms before/after: " + " / ".join(f"{v:.2f}" for v in env["host_loop_ms"]))
    print(f"# inputs {json.dumps(PARAMETERS[workload], sort_keys=True)}")
    for name, row in result["report"].items():
        print(f"  {name:<40} {row['value']:>14.6g} {row['unit']:<15} n={row['samples']}")
    print(f"# attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print("REPORT " + json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                                  "environment": env, "result": result}))


RUNNERS = {"cold-compile": run_cold, "served-warm": run_served, "fleet-churn": run_fleet}


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # A SIGTERM unwinds through the finally below, so no server outlives us.
    signal.signal(signal.SIGTERM, _terminate)
    run = Run(workload, seed, seconds, trace)
    host_before = host_loop_ms()
    try:
        result = RUNNERS[workload](run)
    finally:
        run.close()
    print_report(workload, seed, trace, result, environment((host_before, host_loop_ms())))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in RUNNERS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("REPORT ")]
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload, both modes")
    mode.add_argument("--steadiness", action="store_true", help="two sets of runs vs the bounds")
    mode.add_argument("--pin", action="store_true", help="rewrite expected.json from this code")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (--steadiness)")
    parser.add_argument("--workloads", default=",".join(RUNNERS), help="subset (--steadiness)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.pin:
        from pin import pin

        return pin()
    if args.steadiness:
        from steady import steadiness

        return steadiness(args.workloads.split(","), args.runs, args.seconds)
    if args.seconds is None:
        from steady import load_benchmark

        args.seconds = load_benchmark()["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required (or one of --all/--steadiness/--pin)")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
