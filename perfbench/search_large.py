"""``search-large``: tiered searches over paper-scale spaces.

Closed loop, one client, in-process.  Each operation is one search
through ``SearchDriver(screen="pareto")`` on a fresh evaluator:

- ``optimize_full`` on ``jacobi-1d``, ``jacobi-2d`` and ``jacobi-3d``
  at their Table-2 grids (225, 2,025 and 14,175 candidates per design
  kind).  Every ``jacobi-3d`` candidate is infeasible, so that search
  sweeps the whole baseline space through Tier-0 alone and ends in
  ``DesignSpaceError`` -- the expected answer;
- ``optimize_program`` on ``fdtd-two-field`` with four kernels and
  depth eight per stage (a 9,216-candidate joint space), twice.

The seed draws each search's iteration count (``2**a * p`` with ``p``
a prime above the depth ladder, so the space keeps its size) and the
order.  Rounds repeat the same searches.  The other Table-2 stencils
are left out: at paper scale one tiered ``hotspot-3d`` search alone
takes about 21 s, and the exhaustive oracle of ``hotspot-2d``,
``fdtd-2d`` and ``fdtd-3d`` would not fit one run's time.

Oracle: the same search with ``screen=None`` (chunked exhaustive
scoring) must give the same best design, cycles and frontier per
design kind, or the same ``DesignSpaceError``.

``SearchDriver.report`` is replaced on every ``run()``, and
``optimize_full`` runs three; :class:`SummingDriver` sums them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.dse.evaluator import CandidateEvaluator
from repro.dse.optimizer import optimize_full
from repro.dse.search import SearchDriver, SearchFrontier
from repro.errors import DesignSpaceError
from repro.program.dse import optimize_program
from repro.program.evaluator import ProgramEvaluator
from repro.program.library import get_program
from repro.stencil.library import get_benchmark

import harness

SETUP = "import repro.api, repro.dse.search"
#: Nominal time of one round (five searches) on a 2-core container.
ROUND_S = 13.5

#: Five searches a round: the small 1-D sweep, the program search
#: twice and the two large sweeps.  The program searches sit in the
#: middle of the latency order, so the median of a run's searches is
#: the middle of four equal searches, not the mean of two unlike ones.
FULL_SEARCHES = ("jacobi-1d", "jacobi-2d", "jacobi-3d")
PROGRAM = "fdtd-two-field"
PROGRAM_SEARCHES = 2
PROGRAM_KNOBS = {"max_kernels": 4, "max_fused_depth": 8}
REPORT_SUMS = ("candidates", "infeasible", "screened", "promoted",
               "tier1_evaluations")


class SummingDriver(SearchDriver):
    """A driver whose counters add up over every ``run()``; traced, it
    times each ``next()`` on the candidate generator."""

    def __init__(self, *args, tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.totals = dict.fromkeys(REPORT_SUMS, 0)
        self.totals["peak_resident"] = 0
        self.totals["runs"] = 0

    def run(self, candidates, budget, key=None):
        if self.tracer.enabled:
            candidates = self.tracer.iterate(candidates, "dse.enumerate")
        try:
            return super().run(candidates, budget, key=key)
        finally:
            report = self.report
            for name in REPORT_SUMS:
                self.totals[name] += getattr(report, name)
            self.totals["peak_resident"] = max(
                self.totals["peak_resident"], report.peak_resident
            )
            self.totals["runs"] += 1


def make_inputs(seed: int) -> List[Dict[str, Any]]:
    rng = random.Random(seed)
    ops: List[Dict[str, Any]] = [
        {"full": name, "iterations": harness.draw_iterations(rng)}
        for name in FULL_SEARCHES
    ]
    program = {"program": PROGRAM, "iterations": harness.draw_iterations(rng)}
    ops += [program] * PROGRAM_SEARCHES
    rng.shuffle(ops)
    return ops


def _frontier(result) -> List[tuple]:
    return [
        (e.design.describe(), e.predicted_cycles, e.resources.total.bram18)
        for e in result.frontier
    ]


def search(op: Dict[str, Any], screen, tracer=None):
    """Run one search; returns (answer, summed driver counters)."""
    if "program" in op:
        engine = ProgramEvaluator()
    else:
        engine = CandidateEvaluator()
    tracer = tracer or harness.Tracer(False)
    driver = SummingDriver(evaluator=engine, screen=screen, tracer=tracer)
    with tracer.patch([
        (engine, "screen_batch", "search.tier0"),
        (engine, "evaluate_batch", "search.tier1"),
    ]):
        try:
            if "program" in op:
                program = get_program(
                    op["program"], iterations=op["iterations"]
                )
                result = optimize_program(
                    program, driver=driver, **PROGRAM_KNOBS
                )
                answer = {"program": (
                    result.best.design.describe(),
                    result.best.predicted_cycles,
                    _frontier(result),
                )}
            else:
                spec = get_benchmark(op["full"], iterations=op["iterations"])
                results = optimize_full(spec, driver=driver)
                answer = {
                    kind: (
                        r.best.design.describe(),
                        r.best.predicted_cycles,
                        _frontier(r),
                    )
                    for kind, r in results.items()
                }
        except DesignSpaceError as exc:
            answer = harness.Raised.of(exc)
    return answer, driver.totals


def run(ctx) -> Dict[str, Any]:
    setup = harness.time_setup(SETUP, ctx.root, ctx.workdir)
    inputs = make_inputs(ctx.seed)

    def execute(op, tracer):
        answer, totals = search(op, "pareto", tracer)
        return {"answer": answer, "totals": totals}

    measured = harness.measure_inprocess(
        ctx, harness.rounds_for(ctx.seconds, ROUND_S), lambda r: inputs,
        execute,
        lambda: [(SearchFrontier, "extend", "search.frontier")],
    )
    records = measured["records"] + measured.get("traced_records", [])
    failures = []
    expected: Dict[int, Any] = {}
    for rec in records:
        key = id(rec.op)
        if key not in expected:
            expected[key] = search(rec.op, None)[0]
        got = rec.outcome
        if not isinstance(got, dict) or got["answer"] != expected[key]:
            failures.append(f"{rec.op}: got {got}, exhaustive {expected[key]}")
    failed = len(failures)
    counters, mismatches = harness.repeated_rounds(measured["records"], _work)
    failures += mismatches
    outcome = {
        "setup": setup,
        "latencies": [rec.latency_s for rec in measured["records"]],
        "per_round": harness.per_round(
            measured, lambda o: _work(o)["candidates"]
        ),
        "rss_mb": measured["rss_mb"],
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "counters": counters,
    }
    if ctx.trace:
        outcome["layers"] = layers(ctx, measured)
    return outcome


def _work(outcome) -> Dict[str, int]:
    """One search's work: the search, its candidates, its Tier-1 calls."""
    totals = outcome["totals"] if isinstance(outcome, dict) else {}
    return {
        "searches": 1,
        "candidates": totals.get("candidates", 0),
        "tier1_evaluations": totals.get("tier1_evaluations", 0),
    }


def layers(ctx, measured) -> Dict[str, float]:
    out = harness.layer_split(
        measured["tracer"],
        measured["traced_wall_s"],
        measured["wall_s"],
        {
            "dse.enumerate": "dse.enumerate_s",
            "search.tier0": "search.tier0_s",
            "search.frontier": "search.frontier_s",
            "search.tier1": "search.tier1_s",
        },
        ctx.trace_path,
    )
    totals = dict.fromkeys(REPORT_SUMS, 0)
    peak = 0
    for rec in measured["traced_records"]:
        if isinstance(rec.outcome, dict):
            for name in REPORT_SUMS:
                totals[name] += rec.outcome["totals"][name]
            peak = max(peak, rec.outcome["totals"]["peak_resident"])
    for name in ("candidates", "infeasible", "promoted", "tier1_evaluations"):
        out[f"search.{name}"] = totals[name]
    out["search.promotion_ratio"] = totals["promoted"] / totals["candidates"]
    out["search.peak_resident"] = peak
    return out
