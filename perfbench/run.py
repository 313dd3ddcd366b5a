"""The repository benchmark: four workloads, end-to-end and per-layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-sim --seed 1 \\
        --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen; it lists
all but ``synth-suite``, whose layers ``verify-sim`` also measures, so
that the recorded runs fit 30 s each):

- ``synth-suite``   in-process ``repro.api.synthesize`` on the Table-2
  OpenCL kernels and the two library programs;
- ``search-large``  in-process tiered searches (``optimize_full`` at
  paper scale, one large ``optimize_program``);
- ``service-mixed`` ``repro serve`` in a subprocess, two keep-alive
  HTTP clients with a seeded repeat/fresh/program mix;
- ``verify-sim``    in-process synthesize, execute, cycle-simulate and
  compare against the reference executor.

``--trace 0`` measures the end-to-end metrics with every span off.
``--trace 1`` first repeats that measurement, then replays the same
number of rounds with the benchmark's spans on, and reports the
per-layer split of the traced wall time, the tracing overhead, and a
Chrome trace under ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
the run writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from statistics import median

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = {
    "synth-suite": "synth_suite",
    "search-large": "search_large",
    "service-mixed": "service_mixed",
    "verify-sim": "verify_sim",
}

#: End-to-end metrics, reported by every workload (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("candidates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (``--trace 1``).  A layer a workload does not
#: exercise reads 0 there.
PER_LAYER = (
    ("trace.wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("frontend.parse_ms", "ms"),
    ("tiling.baseline_ms", "ms"),
    ("dse.explore_ms", "ms"),
    ("codegen.emit_ms", "ms"),
    ("dse.candidates", "count"),
    ("dse.feasible_ratio", "ratio"),
    ("codegen.bytes", "bytes"),
    ("dse.enumerate_s", "s"),
    ("search.tier0_s", "s"),
    ("search.frontier_s", "s"),
    ("search.tier1_s", "s"),
    ("search.candidates", "count"),
    ("search.infeasible", "count"),
    ("search.promoted", "count"),
    ("search.tier1_evaluations", "count"),
    ("search.promotion_ratio", "ratio"),
    ("search.peak_resident", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("service.polls_per_job", "count"),
    ("service.dedup_ratio", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("dse.cache_hit_ratio", "ratio"),
    ("dse.evaluations_per_job", "count"),
    ("service.rejected", "count"),
    ("service.failed", "count"),
    ("sim.compile_s", "s"),
    ("sim.compiles", "count"),
    ("sim.execute_ms", "ms"),
    ("sim.fallbacks", "count"),
    ("sim.cycle_sim_ms", "ms"),
    ("sim.cells_per_s", "1/s"),
    ("reference.run_ms", "ms"),
    ("setup.import_s", "s"),
    ("failed_ratio", "ratio"),
)


class Context:
    """What a workload receives: its seed, budget and scratch space."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = ROOT
        self.workdir = workdir
        #: Where a traced run writes its Chrome trace.
        self.trace_path = os.path.join(
            OUT_DIR, f"{workload}-seed{seed}.trace.json"
        )


def _fingerprint(seed: int) -> dict:
    import numpy

    from repro.sim import jit
    from repro.sim.jit.compile import find_compiler

    compiler = find_compiler()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": compiler.fingerprint if compiler else None,
        "cc_version": compiler.version if compiler else None,
        "sim_backend": jit.resolve_backend(None),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _counters_check(
    workload: str, seed: int, seconds: float, counters: dict
) -> list:
    """Compare this run's work counters with an earlier same-seed run.

    Work counters are a pure function of the workload's inputs (the
    seed and the run length), so a second such run in this checkout
    must reproduce them exactly; the first run records them.
    """
    path = os.path.join(
        OUT_DIR, "counters", f"{workload}-seed{seed}-{seconds:g}s.json"
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    canonical = json.loads(json.dumps(counters, sort_keys=True))
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        if previous != canonical:
            return [
                f"work counters differ from an earlier run with seed "
                f"{seed}: {previous} != {canonical}"
            ]
        return []
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(canonical, handle, sort_keys=True)
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no program source at {src}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    # Pin the JIT cache and compiler temp files to a fresh directory
    # inside the checkout, and keep repro's own observability off.
    os.environ["REPRO_JIT_CACHE"] = os.path.join(workdir, "jit")
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    os.environ.pop("REPRO_OBS", None)
    sys.path.insert(0, src)
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: the workload process's import)
    import repro.api  # noqa: F401

    import_s = time.perf_counter() - started
    from repro import obs

    if obs.enabled():
        print("perfbench: repro observability is on; refusing to measure",
              file=sys.stderr)
        return 2
    ctx = Context(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir
    )
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = list(outcome["failures"])
    failures += _counters_check(
        args.workload, args.seed, args.seconds, outcome["counters"]
    )
    attempted = int(outcome["attempted"])
    failed = int(outcome["failed"])
    latencies = outcome["latencies"]
    tail = harness.tail(latencies)
    rounds = outcome["per_round"]
    e2e = {
        "setup_s": median(outcome["setup"]),
        "latency_p50_ms": 1e3 * median(latencies),
        "latency_tail_ms": 1e3 * tail["value"],
        **harness.round_rates(
            rounds["walls"], rounds["ops"], rounds["candidates"]
        ),
        "peak_rss_mb": outcome["rss_mb"],
    }
    report = {
        "workload": args.workload,
        "fingerprint": _fingerprint(args.seed),
        "seconds": args.seconds,
        "rounds": rounds,
        "end_to_end": e2e,
        "tail": tail,
        "latencies_s": latencies,
        "setup_samples_s": outcome["setup"],
        "failed_ratio": failed / attempted,
        "failures": failures,
        "counters": outcome["counters"],
        "info": outcome.get("info", {}),
    }
    if args.trace:
        layers = dict(outcome["layers"])
        layers["setup.import_s"] = import_s
        layers["failed_ratio"] = failed / attempted
        report["per_layer"] = layers
        metrics = {
            name: _metric(layers.get(name, 0.0), unit)
            for name, unit in PER_LAYER
        }
    else:
        metrics = {name: _metric(e2e[name], unit) for name, unit in END_TO_END}
    correct = not failures and failed == 0
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(rounds['walls'])} rounds, {len(latencies)} ops in "
          f"{sum(rounds['walls']):.3f} s")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    print(f"tail: p{tail['percentile']:.1f} over {tail['samples']} samples")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for failure in failures[:20]:
        print(f"FAILURE: {failure}")
    for key, entry in metrics.items():
        print(f"  {key:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
