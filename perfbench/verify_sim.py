"""``verify-sim``: synthesize, execute, simulate, compare.

Closed loop, one client, in-process.  One operation verifies one
Table-2 kernel at a reduced grid (4096, 256x256 or 48x48x48):

1. ``repro.api.synthesize(source=...)`` picks the design;
2. ``repro.sim.run_functional`` executes it on the default backend
   (the JIT cache starts empty in every run);
3. ``SimulationExecutor.run`` cycle-simulates it;
4. ``repro.stencil.reference.run_reference`` computes the oracle from
   the same seeded initial state, and the design's output must equal
   it bitwise.

Every round verifies each of the seven kernels once, in seeded order,
on fresh seeded inputs.  The iteration count steps up by one from
round to round (wrapping after the last round), so each operation
meets a kernel it has not compiled yet, as a designer iterating on a
stencil would.  The traced replay switches to a fresh JIT cache, so it
compiles what the untraced pass compiled.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List

import numpy as np
from repro import api
from repro.dse.evaluator import CandidateEvaluator
from repro.sim import SimulationExecutor, jit, run_functional
from repro.sim.jit import backend as jit_backend
from repro.stencil.library import PAPER_SUITE, get_benchmark
from repro.stencil.reference import run_reference
from repro.stencil.sources import KERNEL_SOURCES

import harness

SETUP = (
    "import repro.api, repro.sim\n"
    "from repro.sim import jit\n"
    "jit.resolve_backend(None)\n"
)
#: Nominal time of one round (seven verifications) on a 2-core container.
ROUND_S = 2.6

GRIDS = {1: (4096,), 2: (256, 256), 3: (48, 48, 48)}
#: The smallest iteration count an operation runs.
MIN_ITERATIONS = 12


class Inputs:
    """Seeded per-round operations (the order and the initial states).

    Over ``rounds`` rounds each kernel runs every iteration count from
    :data:`MIN_ITERATIONS` up once, from a seeded offset; so every seed
    does the same work, in a different order.
    """

    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.rounds = rounds
        self.kernels = list(PAPER_SUITE)
        rng = random.Random(seed)
        self.offsets = {k: rng.randrange(rounds) for k in self.kernels}

    def round(self, r: int) -> List[Dict[str, Any]]:
        rng = random.Random(f"{self.seed}/{r}")
        order = list(self.kernels)
        rng.shuffle(order)
        ops = []
        for name in order:
            ndim = get_benchmark(name).ndim
            h = MIN_ITERATIONS + (self.offsets[name] + r) % self.rounds
            ops.append({
                "kernel": name,
                "grid": GRIDS[ndim],
                "iterations": h,
                "state_seed": rng.randrange(2 ** 31),
            })
        return ops


def _arrays(spec, seed: int):
    """Seeded initial fields and auxiliary inputs for ``spec``."""
    rng = np.random.default_rng(seed)
    state = {
        name: rng.uniform(0.0, 1.0, size=spec.grid_shape).astype(spec.dtype)
        for name in spec.pattern.fields
    }
    aux = {
        name: rng.uniform(0.0, 0.1, size=spec.grid_shape).astype(spec.dtype)
        for name in spec.pattern.aux
    }
    return state, aux


def verify(op: Dict[str, Any], tracer) -> Dict[str, Any]:
    source = KERNEL_SOURCES[op["kernel"]]
    result = api.synthesize(
        source=source.source,
        name=op["kernel"],
        field_map=source.field_map,
        aux=source.aux,
        grid_shape=op["grid"],
        iterations=op["iterations"],
    )
    state, aux = _arrays(result.spec, op["state_seed"])
    with tracer.span("sim.execute"):
        out = run_functional(result.design, state, aux)
    with tracer.span("sim.cycle_sim"):
        cycles = SimulationExecutor().run(result.design).total_cycles
    with tracer.span("reference.run"):
        ref = run_reference(result.spec, state=state, aux=aux)
    equal = sorted(out) == sorted(ref) and all(
        np.array_equal(out[k], ref[k]) for k in ref
    )
    emitted = result.program
    return {
        "equal": bool(equal) and cycles > 0,
        "simulated_cycles": cycles,
        "cells": int(np.prod(op["grid"])) * op["iterations"],
        "candidates": result.dse.evaluated,
        "feasible": result.dse.feasible,
        "codegen_bytes": len(emitted.kernel_source) + len(emitted.host_source),
    }


def _compiled(jit_dir: str) -> int:
    """Kernels compiled into ``jit_dir`` (its ``.so`` files)."""
    if not os.path.isdir(jit_dir):
        return 0
    return sum(1 for name in os.listdir(jit_dir) if name.endswith(".so"))


def run(ctx) -> Dict[str, Any]:
    setup = harness.time_setup(SETUP, ctx.root, ctx.workdir)
    rounds = harness.rounds_for(ctx.seconds, ROUND_S)
    inputs = Inputs(ctx.seed, rounds)
    jit.resolve_backend(None)  # the compiler probe is set-up, not work
    untraced_jit = os.environ["REPRO_JIT_CACHE"]
    traced_jit = os.path.join(ctx.workdir, "jit-traced")

    def reset():
        # The traced replay meets the same kernels cold again.
        os.environ["REPRO_JIT_CACHE"] = traced_jit
        jit_backend.clear_memo()

    def patch_targets():
        return [
            (api, "extract_features", "frontend.parse"),
            (api, "make_baseline_design", "tiling.baseline"),
            (api, "optimize_heterogeneous", "dse.explore"),
            (CandidateEvaluator, "explore", "dse.explore"),
            (api, "generate_program", "codegen.emit"),
            (jit_backend, "get_kernel", "sim.compile"),
            (jit_backend.CompiledKernel, "run", "sim.kernel_run"),
        ]

    measured = harness.measure_inprocess(
        ctx, rounds, inputs.round, verify, patch_targets, reset
    )
    records = measured["records"] + measured.get("traced_records", [])
    failures = [
        f"{rec.op}: {rec.outcome}" for rec in records
        if not isinstance(rec.outcome, dict) or not rec.outcome["equal"]
    ]
    done = [rec.outcome for rec in measured["records"]
            if isinstance(rec.outcome, dict)]
    outcome = {
        "setup": setup,
        "latencies": [rec.latency_s for rec in measured["records"]],
        "per_round": harness.per_round(
            measured, lambda o: o["candidates"] if isinstance(o, dict) else 0
        ),
        "rss_mb": measured["rss_mb"],
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "counters": {
            "verifications": len(done),
            "compiles": _compiled(untraced_jit),
            "candidates": sum(o["candidates"] for o in done),
            "codegen_bytes": sum(o["codegen_bytes"] for o in done),
        },
        "info": {"sim_backend": jit.resolve_backend(None)},
    }
    if ctx.trace:
        outcome["layers"] = layers(ctx, measured, traced_jit)
    return outcome


def layers(ctx, measured, traced_jit: str) -> Dict[str, float]:
    tracer = measured["tracer"]
    out = harness.layer_split(
        tracer,
        measured["traced_wall_s"],
        measured["wall_s"],
        {
            "frontend.parse": "frontend.parse_ms",
            "tiling.baseline": "tiling.baseline_ms",
            "dse.explore": "dse.explore_ms",
            "codegen.emit": "codegen.emit_ms",
            "sim.compile": "sim.compile_s",
            "sim.execute": "sim.execute_ms",
            "sim.kernel_run": "sim.execute_ms",
            "sim.cycle_sim": "sim.cycle_sim_ms",
            "reference.run": "reference.run_ms",
        },
        ctx.trace_path,
    )
    traced = [rec.outcome for rec in measured["traced_records"]
              if isinstance(rec.outcome, dict)]
    candidates = sum(o["candidates"] for o in traced)
    out.update({
        "sim.compiles": _compiled(traced_jit),
        # Executions no compiled kernel ran: the numpy interpreter did.
        "sim.fallbacks": (
            tracer.count("sim.execute") - tracer.count("sim.kernel_run")
        ),
        "sim.cells_per_s": (
            sum(o["cells"] for o in traced) / measured["traced_wall_s"]
        ),
        "dse.candidates": candidates,
        "dse.feasible_ratio": sum(o["feasible"] for o in traced) / candidates,
        "codegen.bytes": sum(o["codegen_bytes"] for o in traced),
    })
    return out
