"""``service-mixed``: what a synthesis-service client waits for.

``repro serve`` runs as a subprocess with its shipped defaults (two
worker threads, threaded front door, queue depth 64), a fresh store
and an empty JIT cache, on port 0.  Two client threads run a closed
loop, each on one keep-alive HTTP connection: submit, then poll
``GET /jobs/<id>/result`` every :data:`POLL_S` until the result is
there.  ``ServiceClient.wait`` is not used: its back-off from 50 ms to
1 s would snap a ~30 ms job's latency to the poll schedule.

Each thread's round is twelve jobs in seeded order:

- two *pairs*: both threads submit the same never-seen request at
  once, so the second submission coalesces onto the first's
  in-flight job;
- four *repeats* of the thread's own hot stencil requests (memo and
  store reads after their first run);
- four *fresh* stencil requests, each unique (model evaluations and
  store writes);
- the thread's two hot ``blur-sobel-threshold`` programs (864
  candidates each, on library-sized grids).

Pairs and programs sit at the same seeded positions in both threads'
rounds, and the threads meet at a barrier before each of them and
before each round.  Programs thus overlap each other and never a
stencil job, so the contention a job meets, and with it the latency
distribution, stays the same from seed to seed; and since all program
jobs cost alike, the tail percentile falls inside one group of jobs.

Round 0 warms the server up (every hot request runs once) and is not
timed; the timed rounds then see the steady mix.

Hot sets are per thread, so only the pairs coalesce and the number of
jobs and dedups is a function of the seed.  A 429 is honoured (the
client sleeps ``Retry-After``) and counts as a failed operation.

Oracle: every distinct request, run in this process through
``repro.api.synthesize`` on a fresh evaluator, must give a result
payload byte-identical to the service's.  After the run the server
gets SIGTERM and its drain summary must account for every request.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.program.library import get_program
from repro.service.core import program_result_payload, result_payload
from repro.service.routes import to_json_bytes
from repro.stencil.library import get_benchmark
from repro.stencil.sources import KERNEL_SOURCES

import harness

#: Client poll interval on ``GET /jobs/<id>/result``.
POLL_S = 0.002
#: Client-side bound on one job, submit to result.
JOB_TIMEOUT_S = 60.0
THREADS = 2
#: Steps each thread runs in its own seeded order.
FREE_STEPS = ("repeat",) * 4 + ("fresh",) * 4
#: Steps both threads start together, after a barrier: the pairs, and
#: the programs (which then overlap each other, never a stencil job).
SYNCED_STEPS = ("pair", "pair", "program", "program")
SYNCED = frozenset(SYNCED_STEPS)
HOT_STENCILS = 4
#: Nominal time of one round (24 jobs) on a 2-core container.
ROUND_S = 3.3

_READY = re.compile(r"listening on http://([0-9.]+):(\d+)")
_DRAINED = re.compile(
    r"Drained: (\d+) completed, (\d+) failed, (\d+) cancelled "
    r"\((\d+) deduped, (\d+) rejected of (\d+) requests\)"
)


# -- the server ---------------------------------------------------------------


class Server:
    """``repro serve`` on port 0 with a fresh store, as a subprocess."""

    def __init__(self, root: str, workdir: str, tag: str):
        env = harness.child_env(root, workdir)
        store = os.path.join(workdir, f"store-{tag}")
        # A file, not a pipe: nobody reads stderr while the server runs.
        self.log = os.path.join(workdir, f"serve-{tag}.log")
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments", "serve",
                 "--port", "0", "--store", store],
                env=env, cwd=workdir, text=True,
                stdout=subprocess.PIPE, stderr=log,
            )
        line = self.proc.stdout.readline()
        match = _READY.search(line)
        if match is None:
            self.proc.kill()
            self.proc.communicate(timeout=30)
            raise RuntimeError(
                f"repro serve did not start: {line!r} {self._log_tail()}"
            )
        self.host, self.port = match.group(1), int(match.group(2))
        # ``repro serve`` prints its ready line before it installs the
        # SIGTERM handler, so a SIGTERM sent right after that line can
        # kill it undrained.  Only the serving loop answers a request,
        # and it starts after the handler is in place: one answered
        # request means the server is ready and can be drained.
        conn = self.connect()
        try:
            _call(conn, "GET", "/perfbench-ready")
        except BaseException:
            self.proc.kill()
            self.proc.communicate(timeout=30)
            raise
        finally:
            conn.close()
        self.ready_s = time.perf_counter() - start

    def _log_tail(self) -> str:
        with open(self.log) as handle:
            return handle.read()[-500:]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def stop(self) -> Dict[str, int]:
        """SIGTERM, wait for the graceful drain, parse its summary."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        match = _DRAINED.search(out)
        if self.proc.returncode != 0 or match is None:
            raise RuntimeError(
                f"repro serve exited {self.proc.returncode} without a "
                f"drain summary: {out[-500:]!r} {self._log_tail()}"
            )
        keys = ("completed", "failed", "cancelled", "deduped", "rejected",
                "requests")
        return dict(zip(keys, (int(g) for g in match.groups())))


def _call(conn, method: str, path: str, body: Optional[bytes] = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, data, response.getheader("Retry-After")


def metricsz(server: Server) -> Dict[str, Any]:
    conn = server.connect()
    try:
        status, data, _ = _call(conn, "GET", "/metricsz")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metricsz answered {status}")
    return json.loads(data)


# -- the request mix ----------------------------------------------------------


class Mix:
    """Seeded request generator; fresh requests are unique per run.

    The kernel of every stencil request walks the seven Table-2
    kernels in turn from a seeded offset, so each seed sends the same
    mix of 1-D, 2-D and 3-D work; the seed draws grids, orders and the
    offset.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.kernels = sorted(KERNEL_SOURCES)
        self.ndim = {k: get_benchmark(k).ndim for k in self.kernels}
        rng = random.Random(seed)
        self.offset = rng.randrange(len(self.kernels))
        self.hot = [
            [
                {
                    "benchmark": kernel,
                    "grid_shape": list(
                        harness.draw_grid(rng, self.ndim[kernel])
                    ),
                    "iterations": 4096 + 16 * t + i,
                }
                for i in range(HOT_STENCILS)
                for kernel in [self._kernel(HOT_STENCILS * t + i)]
            ]
            for t in range(THREADS)
        ]

        # Every program is a blur-sobel-threshold (864 candidates) on
        # a library-sized grid; the grid tells the requests apart.
        self.hot_programs = [
            [
                {"program": "blur-sobel-threshold",
                 "grid_shape": [1920 + 8 * (2 * t + k), 1080]}
                for k in range(SYNCED_STEPS.count("program"))
            ]
            for t in range(THREADS)
        ]

    def _kernel(self, index: int) -> str:
        return self.kernels[(self.offset + index) % len(self.kernels)]

    def _fresh(self, rng, index: int, unique: int) -> Dict[str, Any]:
        kernel = self._kernel(index)
        source = KERNEL_SOURCES[kernel]
        return {
            "source": source.source,
            "name": kernel,
            "field_map": dict(source.field_map),
            "aux": list(source.aux),
            "grid_shape": list(harness.draw_grid(rng, self.ndim[kernel])),
            "iterations": 128 + unique,
        }

    def round(self, r: int) -> List[List[Tuple[str, Dict[str, Any]]]]:
        """Both threads' steps for round ``r`` (synced steps aligned)."""
        rng = random.Random(f"{self.seed}/{r}")
        fresh_per_thread = FREE_STEPS.count("fresh")
        pairs = SYNCED_STEPS.count("pair")
        picks = THREADS * fresh_per_thread + pairs
        length = len(FREE_STEPS) + len(SYNCED_STEPS)
        synced = list(SYNCED_STEPS)
        rng.shuffle(synced)
        slots = sorted(rng.sample(range(length), len(synced)))
        pair_requests = [
            self._fresh(rng, picks * r + THREADS * fresh_per_thread + k,
                        3000 * r + 2900 + k)
            for k in range(pairs)
        ]
        plans = []
        for t in range(THREADS):
            free = list(FREE_STEPS)
            rng.shuffle(free)
            for slot, kind in zip(slots, synced):
                free.insert(slot, kind)
            plan = []
            fresh = repeat = pair = program = 0
            for kind in free:
                if kind == "repeat":
                    request = self.hot[t][repeat % HOT_STENCILS]
                    repeat += 1
                elif kind == "fresh":
                    index = picks * r + fresh_per_thread * t + fresh
                    unique = 3000 * r + 1000 * t + fresh
                    request = self._fresh(rng, index, unique)
                    fresh += 1
                elif kind == "pair":
                    request = pair_requests[pair]
                    pair += 1
                else:
                    request = self.hot_programs[t][program]
                    program += 1
                plan.append((kind, request))
            plans.append(plan)
        return plans


# -- the client ---------------------------------------------------------------


def run_job(conn, payload: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Submit one job and poll for its result; never raises for HTTP."""
    body = json.dumps(payload).encode("utf-8")
    start = time.perf_counter()
    with tracer.span("http.submit"):
        status, data, retry_after = _call(conn, "POST", "/jobs", body)
    if status == 429:
        time.sleep(min(float(retry_after or 1), 5.0))
        return {"error": "429", "latency_s": time.perf_counter() - start}
    if status != 202:
        return {"error": f"POST {status}: {data[:200]!r}",
                "latency_s": time.perf_counter() - start}
    submitted = json.loads(data)
    job_id = submitted["job"]["id"]
    polls = 0
    while True:
        polls += 1
        with tracer.span("http.poll"):
            status, data, _ = _call(conn, "GET", f"/jobs/{job_id}/result")
        if status != 202:
            break
        if time.perf_counter() - start > JOB_TIMEOUT_S:
            return {"error": "timeout",
                    "latency_s": time.perf_counter() - start}
        time.sleep(POLL_S)
    latency = time.perf_counter() - start
    if status != 200:
        return {"error": f"GET {status}: {data[:200]!r}", "latency_s": latency}
    answer = json.loads(data)
    return {
        "latency_s": latency,
        "job_id": job_id,
        "coalesced": bool(submitted["coalesced"]),
        "polls": polls,
        "result": answer["result"],
        "flight": answer["flight"],
    }


def drive(server: Server, mix: Mix, rounds: int, tracer,
          first_round: int = 0) -> Dict[str, Any]:
    """Run ``rounds`` whole rounds on both client threads.

    The threads start each round together, so the pairs line up;
    ``thread_s`` is the two threads' loop time summed.
    """
    plans = {r: mix.round(r) for r in range(first_round, first_round + rounds)}
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    thread_wall = [0.0] * THREADS
    gate = threading.Barrier(THREADS, timeout=2 * JOB_TIMEOUT_S)
    errors: List[BaseException] = []
    marks: List[float] = []  # round boundaries, both threads at the gate

    def client(t: int) -> None:
        conn = server.connect()
        began = time.perf_counter()
        try:
            for r, plan in plans.items():
                gate.wait()
                if t == 0:
                    marks.append(time.perf_counter())
                for i, (kind, payload) in enumerate(plan[t]):
                    if kind in SYNCED:
                        gate.wait()
                    with tracer.span("op", op=f"r{r}.t{t}.{i}", kind=kind):
                        outcome = run_job(conn, payload, tracer)
                    outcome.update(round=r, thread=t, kind=kind,
                                   request=payload)
                    with lock:
                        records.append(outcome)
            gate.wait()
            if t == 0:
                marks.append(time.perf_counter())
        except Exception as exc:  # re-raised below, after the join
            errors.append(exc)
            gate.abort()
        finally:
            thread_wall[t] = time.perf_counter() - began
            conn.close()

    threads = [threading.Thread(target=client, args=(t,), name=f"client-{t}")
               for t in range(THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return {
        "records": records,
        "rounds": rounds,
        "round_walls": [b - a for a, b in zip(marks, marks[1:])],
        "wall_s": wall,
        "thread_s": sum(thread_wall),
    }


# -- the oracle ---------------------------------------------------------------


def expected_payload(payload: Dict[str, Any]) -> bytes:
    """The request run in this process on a fresh evaluator."""
    grid = payload.get("grid_shape")
    if "program" in payload:
        program = get_program(payload["program"], grid=grid,
                              iterations=payload.get("iterations"))
        return to_json_bytes(program_result_payload(
            api.synthesize(program=program)
        ))
    synth = api.synthesize(
        source=payload.get("source"),
        benchmark=payload.get("benchmark"),
        name=payload.get("name", "user-stencil"),
        field_map=payload.get("field_map"),
        aux=payload.get("aux", ()),
        grid_shape=grid,
        iterations=payload.get("iterations"),
    )
    return to_json_bytes(result_payload(synth))


def check(records) -> List[str]:
    expected: Dict[str, bytes] = {}
    failures = []
    for rec in records:
        if "error" in rec:
            failures.append(f"job failed: {rec['error']} ({rec['kind']})")
            continue
        key = json.dumps(rec["request"], sort_keys=True)
        if key not in expected:
            expected[key] = expected_payload(rec["request"])
        if to_json_bytes(rec["result"]) != expected[key]:
            failures.append(
                f"{rec['kind']} {rec['request'].get('name') or rec['request']}"
                ": service payload differs from in-process synthesize"
            )
    return failures


# -- the workload -------------------------------------------------------------


def per_round(drove, first_round: int) -> Dict[str, list]:
    """Jobs and candidates of each round (a coalesced job counts once)."""
    ops = [0] * drove["rounds"]
    candidates = [0] * drove["rounds"]
    for rec in drove["records"]:
        i = rec["round"] - first_round
        ops[i] += 1
        if "result" in rec and not rec["coalesced"]:
            candidates[i] += rec["result"]["dse"]["evaluated"]
    return {"walls": drove["round_walls"], "ops": ops,
            "candidates": candidates}


def _delta(after, before, *path) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return float(a or 0) - float(b or 0)


def run(ctx) -> Dict[str, Any]:
    mix = Mix(ctx.seed)
    setup = []
    for tag in ("setup-0", "setup-1"):
        spare = Server(ctx.root, ctx.workdir, tag)
        setup.append(spare.ready_s)
        spare.stop()
    server = Server(ctx.root, ctx.workdir, "bench")
    setup.append(server.ready_s)
    untraced = harness.Tracer(False)
    try:
        warmup = drive(server, mix, 1, untraced)
        rounds = harness.rounds_for(ctx.seconds, ROUND_S)
        measured = drive(server, mix, rounds, untraced, first_round=1)
        after = metricsz(server)
        rss_mb = harness.peak_rss_mb(server.proc.pid)
        traced = None
        if ctx.trace:
            tracer = harness.Tracer(True)
            traced = drive(server, mix, rounds, tracer,
                           first_round=1 + rounds)
            traced_after = metricsz(server)
    finally:
        drained = server.stop()
    records = warmup["records"] + measured["records"] + (
        traced["records"] if traced else []
    )
    failures = check(records)
    failed = len(failures)
    submitted = len(records)
    coalesced = sum(1 for r in records if r.get("coalesced"))
    rejected = sum(1 for r in records if r.get("error") == "429")
    want = {
        "requests": submitted, "deduped": coalesced, "rejected": rejected,
        "completed": submitted - coalesced - rejected,
        "failed": 0, "cancelled": 0,
    }
    if drained != want:
        failures.append(f"drain summary {drained} != client view {want}")
    first = warmup["records"]
    outcome = {
        "setup": setup,
        "latencies": [r["latency_s"] for r in measured["records"]],
        "per_round": per_round(measured, first_round=1),
        "rss_mb": rss_mb,
        "attempted": submitted,
        "failed": failed,
        "failures": failures,
        "counters": {
            "submissions": len(first),
            "jobs": sum(1 for r in first if not r.get("coalesced")),
            "dedups": sum(1 for r in first if r.get("coalesced")),
            "candidates": sum(
                r["result"]["dse"]["evaluated"] for r in first
                if "result" in r and not r.get("coalesced")
            ),
        },
        "info": {"drain": drained, "poll_s": POLL_S},
    }
    if traced is not None:
        outcome["layers"] = layers(ctx, measured, traced, tracer,
                                   after, traced_after)
    return outcome


def layers(ctx, measured, traced, tracer, before, after) -> Dict[str, float]:
    """Client thread-time split by the flight record beside each result.

    Two client threads run at once, so the traced time split here is
    the sum of both threads' loop time.  Per job: queue wait and run
    come from the server's flight record, transport is the client's
    latency minus the flight's wall time; server bookkeeping, barrier
    waits and client overhead are unattributed.
    """
    done = [r for r in traced["records"] if "error" not in r]
    queue = sum(r["flight"]["queue_wait_s"] for r in done)
    run_s = sum(r["flight"]["run_s"] for r in done)
    transport = sum(r["latency_s"] - r["flight"]["wall_s"] for r in done)
    thread_s = traced["thread_s"]
    untraced_thread_s = measured["thread_s"]
    tracer.export_chrome(ctx.trace_path)
    rest = thread_s - queue - run_s - transport
    jobs = _delta(after, before, "service", "completed")
    hits = _delta(after, before, "metrics", "counters", "store.hits")
    misses = _delta(after, before, "metrics", "counters", "store.misses")
    candidates = _delta(after, before, "evaluator", "candidates")
    return {
        "trace.wall_ms": 1e3 * thread_s,
        "trace.overhead_ms": 1e3 * (thread_s - untraced_thread_s),
        "trace.overhead_ratio": (thread_s - untraced_thread_s)
        / untraced_thread_s,
        "unattributed_ms": 1e3 * rest,
        "unattributed_share": rest / thread_s,
        "service.queue_wait_ms": 1e3 * queue,
        "service.run_ms": 1e3 * run_s,
        "service.transport_ms": 1e3 * transport,
        "service.polls_per_job": sum(r["polls"] for r in done) / len(done),
        "service.dedup_ratio": _delta(after, before, "service", "deduped")
        / _delta(after, before, "service", "requests"),
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dse.cache_hit_ratio": (
            _delta(after, before, "evaluator", "cache_hits") / candidates
        ),
        "dse.evaluations_per_job": (
            _delta(after, before, "evaluator", "evaluated") / jobs
        ),
        "service.rejected": _delta(after, before, "service", "rejected"),
        "service.failed": _delta(after, before, "service", "failed"),
        "dse.candidates": candidates,
    }
