"""Program-level DSE: co-optimization vs per-stage optimization.

The joint search explores the cross product of per-stage designs
under one shared resource budget, so it can trade area between stages
— shrink the cheap threshold stage to buy the blur stage a deeper
pipeline.  Optimizing each stage in isolation (each one handed the
full budget, results composed afterwards) cannot, and the composed
result may not even fit.  This benchmark runs both on the
`blur-sobel-threshold` program and asserts the co-optimized design is
never worse, reporting the latency delta and the tiered-search Tier-1
evaluation counts.

It also times the tiered search against exhaustive search on
`fdtd-two-field` (four kernels, depth eight per stage: a
9,216-candidate joint space).  Both must find the same best design,
and the tiered search must not be slower: its wall time over the
exhaustive one is gated by ``--max-tiered-ratio`` (default 1.0).

Also usable as a standalone script (the mode CI's program smoke
drives)::

    python benchmarks/bench_program.py --json-out bench-program.json
"""

import argparse
import json
import sys
import time

from repro.dse import ResourceBudget, SearchDriver
from repro.fpga.resources import VIRTEX7_690T
from repro.program import (
    ProgramEvaluator,
    get_program,
    optimize_program,
    optimize_stages_independently,
)


def _program(grid=(64, 64)):
    return get_program("blur-sobel-threshold", grid=grid, iterations=1)


def _compare(grid=(64, 64), chunk_size=64):
    program = _program(grid)
    budget = ResourceBudget.from_device(VIRTEX7_690T)

    engine = ProgramEvaluator()
    driver = SearchDriver(evaluator=engine, chunk_size=chunk_size)
    co = optimize_program(program, budget=budget, driver=driver)
    report = driver.report

    composed, per_stage = optimize_stages_independently(
        program, budget=budget
    )

    assert co.best is not None, "co-optimization found no feasible design"
    if composed is not None:
        assert (
            co.best.predicted_cycles
            <= composed.predicted_cycles + 1e-9
        ), (co.best.predicted_cycles, composed.predicted_cycles)

    return {
        "program": program.name,
        "grid": list(grid),
        "co_optimized_cycles": co.best.predicted_cycles,
        "independent_cycles": (
            composed.predicted_cycles if composed is not None else None
        ),
        "independent_feasible": composed is not None,
        "latency_delta_pct": (
            100.0
            * (composed.predicted_cycles - co.best.predicted_cycles)
            / composed.predicted_cycles
            if composed is not None
            else None
        ),
        "joint_candidates": co.evaluated,
        "tier1_evaluations": report.tier1_evaluations,
        "screened": report.screened,
        "per_stage_evaluated": {
            name: result.evaluated for name, result in per_stage.items()
        },
    }


def _tiered_vs_exhaustive(repeats=3, iterations=40):
    """Best-of-``repeats`` wall time of both searches on fdtd-two-field."""
    program = get_program("fdtd-two-field", iterations=iterations)
    knobs = {"max_kernels": 4, "max_fused_depth": 8}
    row = {"program": program.name, "knobs": knobs}
    answers = {}
    for mode, screen in (("tiered", "pareto"), ("exhaustive", None)):
        times = []
        for _ in range(repeats):
            driver = SearchDriver(evaluator=ProgramEvaluator(), screen=screen)
            start = time.perf_counter()
            result = optimize_program(program, driver=driver, **knobs)
            times.append(time.perf_counter() - start)
        answers[mode] = (
            result.best.design.signature(),
            result.best.predicted_cycles,
        )
        row[f"{mode}_s"] = min(times)
        row[f"{mode}_tier1_evaluations"] = driver.report.tier1_evaluations
    assert answers["tiered"] == answers["exhaustive"], answers
    row["candidates"] = result.evaluated
    row["tiered_ratio"] = row["tiered_s"] / row["exhaustive_s"]
    return row


def test_tiered_not_slower_than_exhaustive(benchmark, record):
    row = benchmark.pedantic(_tiered_vs_exhaustive, rounds=1, iterations=1)
    record(
        "Program DSE",
        f"{row['program']}: tiered {row['tiered_s']:.3f} s vs exhaustive "
        f"{row['exhaustive_s']:.3f} s over {row['candidates']} candidates "
        f"(ratio {row['tiered_ratio']:.2f})",
    )
    assert row["tiered_ratio"] <= 1.0, row


def test_co_optimization_no_worse(benchmark, record):
    result = benchmark.pedantic(_compare, rounds=1, iterations=1)
    delta = result["latency_delta_pct"]
    record(
        "Program DSE",
        f"{result['program']}: co-opt {result['co_optimized_cycles']:.0f} "
        f"cycles vs independent {result['independent_cycles']:.0f} "
        + (f"({delta:+.1f}% latency) " if delta is not None else "")
        + f"with {result['tier1_evaluations']} Tier-1 evaluations of "
        f"{result['screened'] + result['tier1_evaluations']} candidates",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid",
        default="64x64",
        metavar="NxM",
        help="program grid shape (default 64x64)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=64,
        help="candidates per tiered-search chunk",
    )
    parser.add_argument(
        "--max-tiered-ratio",
        type=float,
        default=1.0,
        help=(
            "fail unless the tiered fdtd-two-field search takes at most "
            "this fraction of the exhaustive search's wall time"
        ),
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="write the comparison record as JSON to this path",
    )
    args = parser.parse_args(argv)

    grid = tuple(int(v) for v in args.grid.split("x"))
    result = _compare(grid=grid, chunk_size=args.chunk_size)

    print(f"program: {result['program']} grid {args.grid}")
    print(
        f"co-optimized:     {result['co_optimized_cycles']:.0f} cycles "
        f"({result['joint_candidates']} joint candidates, "
        f"{result['tier1_evaluations']} tier-1 evaluations)"
    )
    if result["independent_cycles"] is not None:
        print(
            f"independent:      {result['independent_cycles']:.0f} cycles "
            f"({sum(result['per_stage_evaluated'].values())} "
            f"per-stage evaluations)"
        )
        print(f"latency delta:    {result['latency_delta_pct']:+.2f}%")
    else:
        print("independent:      composed design infeasible")

    row = _tiered_vs_exhaustive()
    result["tiered_vs_exhaustive"] = row
    print(
        f"{row['program']}:   tiered {row['tiered_s']:.3f} s vs "
        f"exhaustive {row['exhaustive_s']:.3f} s over "
        f"{row['candidates']} candidates (ratio {row['tiered_ratio']:.2f}, "
        f"gate <= {args.max_tiered_ratio:.2f})"
    )

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {args.json_out}")
    if row["tiered_ratio"] > args.max_tiered_ratio:
        print(
            f"FAIL: tiered/exhaustive wall-time ratio "
            f"{row['tiered_ratio']:.2f} > {args.max_tiered_ratio:.2f}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
