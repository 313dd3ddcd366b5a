"""Shared machinery of the benchmark: spans, statistics, set-up timing.

Nothing here imports :mod:`repro` at module load, so ``run.py`` can
time the workload process's own ``import repro``.

Spans are recorded by the benchmark itself, around calls into the
program's public functions (see :class:`Tracer`); the program's own
observability layer (:mod:`repro.obs`) stays off in every in-process
workload, so end-to-end numbers never pay for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

#: Subprocess set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: name, start/end (perf_counter s), parent, op id."""

    name: str
    start: float
    end: float
    seq: int
    parent: Optional[int]
    thread: str
    op: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-thread parent stacks.

    Spans are kept in memory and written out once, at the end of the
    run (:meth:`export_chrome`).  ``Tracer(enabled=False)`` is the
    untraced mode: :meth:`span` is a no-op and :meth:`patch` installs
    nothing, so the timed path runs the program's calls unwrapped.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0

    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None, **attrs: Any):
        """Record the enclosed block; ``op`` tags a root operation span,
        and its descendants inherit the tag."""
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        with self._lock:
            seq = self._seq
            self._seq += 1
        parent = stack[-1][0] if stack else None
        if op is None and stack:
            op = stack[-1][1]
        stack.append((seq, op))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                name, start, end, seq, parent,
                threading.current_thread().name, op, attrs,
            )
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def iterate(self, items: Iterable, name: str) -> Iterator:
        """Re-yield ``items``, recording each ``next()`` as a span."""
        iterator = iter(items)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    @contextlib.contextmanager
    def patch(self, targets: Iterable[tuple]):
        """Temporarily wrap ``(owner, attribute, span_name)`` targets.

        ``owner`` is a module, class or instance; the original
        attribute is restored on exit.  Untraced, nothing is touched.
        """
        if not self.enabled:
            yield
            return
        undo = []
        try:
            for owner, attr, name in targets:
                own = vars(owner)
                undo.append((owner, attr, attr in own, own.get(attr)))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            yield
        finally:
            for owner, attr, had_own, original in reversed(undo):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    # The wrapper shadowed a class method on an instance.
                    delattr(owner, attr)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, excluding time covered by children."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (
                    s.duration
                )
        totals: Dict[str, float] = {}
        for s in self.spans:
            own = s.duration - child_time.get(s.seq, 0.0)
            totals[s.name] = totals.get(s.name, 0.0) + own
        return totals

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def export_chrome(self, path: str) -> None:
        """Write the spans as a Chrome/Perfetto trace (repro's encoder),
        one trace id per operation, times from the first span."""
        from repro.obs.export import spans_to_chrome_events
        from repro.obs.spans import SpanRecord

        origin = min((s.start for s in self.spans), default=0.0)
        records = [
            SpanRecord(
                name=s.name,
                start_s=s.start - origin,
                end_s=s.end - origin,
                seq=s.seq,
                parent_seq=s.parent,
                thread=s.thread,
                attrs=dict(s.attrs),
                trace_id=s.op,
            )
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        trace = {
            "traceEvents": spans_to_chrome_events(records),
            "displayTimeUnit": "ms",
            "otherData": {"spans": len(records), "source": "perfbench"},
        }
        with open(path, "w") as handle:
            json.dump(trace, handle)


# -- statistics ---------------------------------------------------------------


def tail(latencies: List[float]) -> Dict[str, float]:
    """The highest percentile with at least 10 samples beyond it.

    With ``n`` sorted samples that is the sample at index ``n - 11``
    (percentile ``100 * (n - 10) / n``).  Runs with 10 samples or
    fewer have no such percentile; their tail is the maximum, recorded
    as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    return {
        "value": ordered[n - 11],
        "percentile": 100.0 * (n - 10) / n,
        "samples": n,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak RSS of this process, or of ``pid`` via ``/proc`` (Linux)."""
    if pid is not None:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up timing ------------------------------------------------------------


def child_env(root: str, workdir: str) -> Dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on the
    path, the JIT cache and temp files pinned inside ``workdir``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_JIT_CACHE"] = os.path.join(workdir, "jit")
    env["TMPDIR"] = workdir
    env.pop("REPRO_OBS", None)
    return env


def time_setup(snippet: str, root: str, workdir: str) -> List[float]:
    """Wall time of fresh interpreters running ``snippet`` to completion.

    ``snippet`` is what a user runs before their first operation (the
    imports, plus any engine warm-up).  Measured from process spawn to
    exit, :data:`SETUP_REPEATS` times.
    """
    env = child_env(root, workdir)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet],
            env=env, cwd=workdir, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


# -- seeded inputs ------------------------------------------------------------

#: Primes above the depth ladders' reach: ``2**a * p`` iteration counts
#: all yield the same candidate count, so the seed moves the answers
#: without moving the amount of work.
_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


def draw_iterations(rng: random.Random) -> int:
    return (2 ** rng.randrange(0, 4)) * rng.choice(_PRIMES)


def draw_grid(rng: random.Random, ndim: int) -> Tuple[int, ...]:
    """A grid of ``ndim`` extents around the Table-2 sizes."""
    if ndim == 1:
        return (rng.randrange(16384, 262145, 512),)
    if ndim == 2:
        return tuple(rng.randrange(512, 4097, 64) for _ in range(2))
    return tuple(rng.randrange(128, 1025, 32) for _ in range(3))


# -- the round loop -----------------------------------------------------------


def rounds_for(seconds: float, round_s: float) -> int:
    """Whole rounds a ``seconds`` run makes: ``seconds / round_s``,
    rounded, at least one.

    ``round_s`` is a workload's nominal round time on a 2-core
    container, so a run lasts about ``seconds`` there.  Fixing the
    count from the budget, not from the clock, keeps every run with
    the same ``seconds`` doing the same work: the sample count, and so
    the tail percentile, never flips with timing noise.
    """
    return max(1, round(seconds / round_s))


def run_rounds(rounds: int, run_round: Callable[[int], None]) -> List[float]:
    """Run ``rounds`` whole rounds; returns each round's wall time (s)."""
    walls = []
    for r in range(rounds):
        start = time.perf_counter()
        run_round(r)
        walls.append(time.perf_counter() - start)
    return walls


def round_rates(
    walls: List[float], ops: List[int], candidates: List[int]
) -> Dict[str, float]:
    """``ops_per_s`` and ``candidates_per_s``: medians of per-round rates.

    A round is a fixed amount of work, so the median over rounds
    discards a round the machine slowed down, where a total over the
    run would not.
    """
    return {
        "ops_per_s": median([n / w for n, w in zip(ops, walls)]),
        "candidates_per_s": median(
            [c / w for c, w in zip(candidates, walls)]
        ),
    }


# -- in-process workloads -----------------------------------------------------


@dataclass(frozen=True)
class Raised:
    """An operation's exception, kept as an outcome the oracle can match."""

    kind: str
    message: str

    @classmethod
    def of(cls, exc: BaseException) -> "Raised":
        return cls(type(exc).__name__, str(exc))


@dataclass
class Record:
    """One operation as run: its round, input, latency and outcome."""

    round: int
    op: Any
    latency_s: float
    outcome: Any


def measure_inprocess(
    ctx,
    rounds: int,
    round_ops: Callable[[int], List[Any]],
    execute: Callable[[Any, Tracer], Any],
    patch_targets: Callable[[], List[tuple]] = lambda: [],
    reset: Callable[[], None] = lambda: None,
) -> Dict[str, Any]:
    """Closed loop, one client, in this process.

    Runs ``rounds`` whole rounds of ``round_ops(r)`` untraced; with
    ``ctx.trace`` it then calls ``reset()`` (which returns process
    caches to their starting state) and replays the same rounds with
    spans on and ``patch_targets()`` wrapped.
    ``execute(op, tracer)`` returns the operation's outcome; any
    exception it raises becomes a :class:`Raised` outcome.
    """

    def loop(tracer: Tracer, sink: List[Record]) -> Callable[[int], None]:
        def one_round(r: int) -> None:
            for i, op in enumerate(round_ops(r)):
                with tracer.span("op", op=f"r{r}.{i}"):
                    start = time.perf_counter()
                    try:
                        outcome = execute(op, tracer)
                    except Exception as exc:  # the oracle judges it
                        outcome = Raised.of(exc)
                    latency = time.perf_counter() - start
                sink.append(Record(r, op, latency, outcome))

        return one_round

    records: List[Record] = []
    walls = run_rounds(rounds, loop(Tracer(False), records))
    result = {
        "records": records,
        "rounds": rounds,
        "round_walls": walls,
        "wall_s": sum(walls),
        "rss_mb": peak_rss_mb(),
    }
    if ctx.trace:
        tracer = Tracer(True)
        traced_records: List[Record] = []
        reset()
        with tracer.patch(patch_targets()):
            traced_walls = run_rounds(rounds, loop(tracer, traced_records))
        result.update(
            tracer=tracer,
            traced_records=traced_records,
            traced_wall_s=sum(traced_walls),
        )
    return result


def per_round(
    measured, candidates_of: Callable[[Any], int]
) -> Dict[str, list]:
    """Operations and candidates of each untraced round, in order."""
    ops = [0] * measured["rounds"]
    candidates = [0] * measured["rounds"]
    for rec in measured["records"]:
        ops[rec.round] += 1
        candidates[rec.round] += candidates_of(rec.outcome)
    return {"walls": measured["round_walls"], "ops": ops,
            "candidates": candidates}


def repeated_rounds(
    records: List[Record], counts: Callable[[Any], Dict[str, int]]
) -> tuple:
    """Round 0's work counters, and a failure per round that differs.

    For workloads whose rounds repeat the same inputs on fresh state:
    ``counts(outcome)`` gives one operation's work, and every round
    must add up to exactly what round 0 did.
    """
    per: Dict[int, Dict[str, int]] = {}
    for rec in records:
        entry = per.setdefault(rec.round, {})
        for key, value in counts(rec.outcome).items():
            entry[key] = entry.get(key, 0) + value
    first = per[0]
    failures = [
        f"round {r} work counters {c} differ from round 0's {first}"
        for r, c in sorted(per.items()) if c != first
    ]
    return first, failures


def layer_split(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    layers: Dict[str, str],
    trace_path: str,
) -> Dict[str, float]:
    """Per-layer self times plus the unattributed rest and overhead.

    ``layers`` maps span names to metric names ending in ``_ms`` or
    ``_s``; spans not named there (the ``op`` roots) are unattributed.
    Layer self times and ``unattributed_ms`` add up to
    ``trace.wall_ms``.  Writes the spans to ``trace_path``.
    """
    own = tracer.self_times()
    out: Dict[str, float] = {}
    attributed = 0.0
    for span_name, metric in layers.items():
        seconds = own.get(span_name, 0.0)
        attributed += seconds
        scale = 1e3 if metric.endswith("_ms") else 1.0
        out[metric] = out.get(metric, 0.0) + seconds * scale
    rest = traced_wall_s - attributed
    out.update({
        "trace.wall_ms": 1e3 * traced_wall_s,
        "unattributed_ms": 1e3 * rest,
        "unattributed_share": rest / traced_wall_s,
        "trace.overhead_ms": 1e3 * (traced_wall_s - untraced_wall_s),
        "trace.overhead_ratio": (
            (traced_wall_s - untraced_wall_s) / untraced_wall_s
        ),
    })
    tracer.export_chrome(trace_path)
    return out
