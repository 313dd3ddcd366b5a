"""``synth-suite``: the push-button path as a designer calls it.

Closed loop, one client, in-process.  Each call is
``repro.api.synthesize(source=...)`` on a Table-2 OpenCL kernel with
seeded grid, iteration, unroll and design-kind overrides, or (one
call in ten) a library program by name; every call builds its own
evaluator and emits code.

Every round holds the same mix: per kernel two heterogeneous, one
pipe-shared and one baseline request, plus two
``blur-sobel-threshold`` and one ``fdtd-two-field`` program.  Rounds
repeat the same seeded inputs; each call starts from a fresh
evaluator, so a repeat costs what the first call cost.

Oracle: the scalar ``PerformanceModel`` and ``ResourceEstimator``,
fresh and uncached, over the same candidate space (rebuilt here from
the library's builders and the library's own stencil patterns), must
pick the same best design with bitwise-equal cycles.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro import api
from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator
from repro.dse.space import fused_depth_candidates
from repro.errors import DesignSpaceError
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.resources import VIRTEX7_690T
from repro.model.predictor import PerformanceModel
from repro.program.dse import program_candidates, stage_design_options
from repro.program.library import get_program
from repro.program.model import compose_cycles, compose_resources
from repro.stencil.library import get_benchmark
from repro.stencil.sources import KERNEL_SOURCES
from repro.tiling.baseline import make_baseline_design
from repro.tiling.heterogeneous import make_heterogeneous_design
from repro.tiling.pipeshared import make_pipe_shared_design

import harness

#: Design kinds requested per kernel per round.
KINDS = ("heterogeneous", "heterogeneous", "pipe-shared", "baseline")
#: Library programs per round.
PROGRAMS = ("blur-sobel-threshold", "blur-sobel-threshold", "fdtd-two-field")
SETUP = "import repro.api"
#: Nominal time of one round (31 calls) on a 2-core container.
ROUND_S = 1.2


def make_inputs(seed: int) -> List[Dict[str, Any]]:
    """One round of requests (the same every round)."""
    rng = random.Random(seed)
    ops: List[Dict[str, Any]] = []
    for name in sorted(KERNEL_SOURCES):
        ndim = get_benchmark(name).ndim
        for kind in KINDS:
            ops.append({
                "kernel": name,
                "grid": harness.draw_grid(rng, ndim),
                "iterations": harness.draw_iterations(rng),
                "unroll": rng.choice((1, 2)),
                "design": kind,
            })
    for name in PROGRAMS:
        if name == "blur-sobel-threshold":
            grid = (rng.randrange(640, 3841, 64), rng.randrange(480, 2161, 8))
            ops.append({"program": name, "grid": grid, "iterations": None})
        else:
            grid = tuple(rng.randrange(1024, 4097, 64) for _ in range(2))
            ops.append({
                "program": name, "grid": grid,
                "iterations": harness.draw_iterations(rng),
            })
    rng.shuffle(ops)
    return ops


def synthesize(op: Dict[str, Any]):
    if "program" in op:
        return api.synthesize(
            program=get_program(op["program"], grid=op["grid"],
                                iterations=op["iterations"]),
        )
    source = KERNEL_SOURCES[op["kernel"]]
    return api.synthesize(
        source=source.source,
        name=op["kernel"],
        field_map=source.field_map,
        aux=source.aux,
        grid_shape=op["grid"],
        iterations=op["iterations"],
        unroll=op["unroll"],
        design=op["design"],
    )


def summarize(result) -> Dict[str, Any]:
    """What the oracle checks, plus the work the call did."""
    emitted = result.program if hasattr(result, "program") else result.pipeline
    return {
        "design": result.design.describe(),
        "cycles": result.predicted_cycles,
        "candidates": result.dse.evaluated,
        "feasible": result.dse.feasible,
        "codegen_bytes": len(emitted.kernel_source) + len(emitted.host_source),
    }


# -- the scalar oracle --------------------------------------------------------


def _stencil_space(op: Dict[str, Any]):
    """(budget source, candidate list) of one single-stencil request."""
    spec = get_benchmark(
        op["kernel"], grid=op["grid"], iterations=op["iterations"]
    )
    tile, counts, depth = api.default_baseline_parameters(spec)
    baseline = make_baseline_design(
        spec, tile, counts, depth, unroll=op["unroll"]
    )
    if op["design"] == "baseline":
        return baseline, [baseline]
    depths = fused_depth_candidates(
        min(4 * baseline.fused_depth + 64, spec.iterations), spec.iterations
    )
    space = []
    for h in depths:
        if op["design"] == "pipe-shared":
            space.append(make_pipe_shared_design(
                spec, baseline.slowest_tile().shape,
                baseline.tile_grid.counts, h, baseline.unroll,
            ))
            continue
        try:
            space.append(make_heterogeneous_design(
                spec, baseline.tile_grid.region_shape,
                baseline.tile_grid.counts, h, baseline.unroll,
            ))
        except DesignSpaceError:
            continue
    return baseline, space


def _scalar_best(space, fits, cycles_of):
    best = None
    feasible = 0
    for design in space:
        if not fits(design):
            continue
        feasible += 1
        cycles = cycles_of(design)
        if best is None or cycles < best[1]:
            best = (design, cycles)
    return best, feasible


def oracle(op: Dict[str, Any]) -> Dict[str, Any]:
    """Best design and cycles by fresh scalar model + estimator."""
    model = PerformanceModel()
    estimator = ResourceEstimator()
    if "program" in op:
        return _program_oracle(op, model, estimator)
    baseline, space = _stencil_space(op)
    budget = ResourceBudget.from_design(baseline, estimator)
    best, feasible = _scalar_best(
        space,
        lambda d: estimator.estimate(d).total.fits_within(budget.limit),
        lambda d: model.predict(d).total,
    )
    return {
        "design": best[0].describe(),
        "cycles": best[1],
        "candidates": len(space),
        "feasible": feasible,
    }


def _program_oracle(op, model, estimator) -> Dict[str, Any]:
    program = get_program(op["program"], grid=op["grid"],
                          iterations=op["iterations"])
    options = {
        stage.name: stage_design_options(stage.spec)
        for stage in program.stages
    }
    space = list(program_candidates(program, options))
    limit = ResourceBudget.from_device(VIRTEX7_690T).limit
    stage_res: Dict[Tuple, Any] = {}
    stage_cycles: Dict[Tuple, float] = {}

    def resources(design):
        out = []
        for _name, d in design.stage_designs:
            key = d.signature()
            if key not in stage_res:
                stage_res[key] = estimator.estimate(d)
            out.append(stage_res[key])
        return compose_resources(design.schedule, out)

    def cycles(design):
        out = []
        for _name, d in design.stage_designs:
            key = d.signature()
            if key not in stage_cycles:
                stage_cycles[key] = model.predict(d).total
            out.append(stage_cycles[key])
        return compose_cycles(design, out)

    best, feasible = _scalar_best(
        space, lambda d: resources(d).total.fits_within(limit), cycles
    )
    return {
        "design": best[0].describe(),
        "cycles": best[1],
        "candidates": len(space),
        "feasible": feasible,
    }


# -- the workload -------------------------------------------------------------


def run(ctx) -> Dict[str, Any]:
    setup = harness.time_setup(SETUP, ctx.root, ctx.workdir)
    inputs = make_inputs(ctx.seed)

    def execute(op, _tracer):
        return summarize(synthesize(op))

    def patch_targets():
        return [
            (api, "extract_features", "frontend.parse"),
            (api, "make_baseline_design", "tiling.baseline"),
            (api, "optimize_heterogeneous", "dse.explore"),
            (api, "optimize_pipe_shared", "dse.explore"),
            (api, "optimize_program", "dse.explore"),
            (CandidateEvaluator, "explore", "dse.explore"),
            (api, "generate_program", "codegen.emit"),
            (api, "generate_program_pipeline", "codegen.emit"),
        ]

    measured = harness.measure_inprocess(
        ctx, harness.rounds_for(ctx.seconds, ROUND_S), lambda r: inputs,
        execute, patch_targets,
    )
    records = measured["records"] + measured.get("traced_records", [])
    failures = check(inputs, records)
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


def check(inputs, records) -> List[str]:
    """Compare every operation with the (cached) scalar oracle."""
    expected: Dict[int, Dict[str, Any]] = {}
    index = {id(op): i for i, op in enumerate(inputs)}
    failures = []
    for rec in records:
        i = index[id(rec.op)]
        if i not in expected:
            expected[i] = oracle(rec.op)
        got = rec.outcome
        want = expected[i]
        if not isinstance(got, dict) or any(
            got[k] != want[k] for k in want
        ) or got["codegen_bytes"] <= 0:
            failures.append(f"{rec.op}: got {got}, oracle {want}")
    return failures


def _work(outcome) -> Dict[str, int]:
    """One call's work: the call, its candidates, its emitted bytes."""
    done = isinstance(outcome, dict)
    return {
        "ops": 1,
        "candidates": outcome["candidates"] if done else 0,
        "codegen_bytes": outcome["codegen_bytes"] if done else 0,
    }


def layers(ctx, measured) -> Dict[str, float]:
    out = harness.layer_split(
        measured["tracer"],
        measured["traced_wall_s"],
        measured["wall_s"],
        {
            "frontend.parse": "frontend.parse_ms",
            "tiling.baseline": "tiling.baseline_ms",
            "dse.explore": "dse.explore_ms",
            "codegen.emit": "codegen.emit_ms",
        },
        ctx.trace_path,
    )
    done = [r.outcome for r in measured["traced_records"]
            if isinstance(r.outcome, dict)]
    candidates = sum(o["candidates"] for o in done)
    out["dse.candidates"] = candidates
    out["dse.feasible_ratio"] = sum(o["feasible"] for o in done) / candidates
    out["codegen.bytes"] = sum(o["codegen_bytes"] for o in done)
    return out
