"""Stage-factored program scoring == the scalar composition oracle.

The vectorized composer (:func:`repro.program.model.compose_batch`,
fed by a :class:`~repro.program.model.StageTable`) must return, per
candidate, exactly what the scalar ``compose_resources`` /
``compose_cycles`` / ``program_lower_bound`` return on stage numbers
from the scalar model and estimator: bitwise, for both library
programs, both schedules, any chunking of the joint space and any
budget.  The tiered search built on it must still find exhaustive
search's best design and frontier.
"""

from __future__ import annotations

import functools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator
from repro.dse.search import SearchDriver
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.resources import ResourceVector
from repro.model.predictor import PerformanceModel
from repro.program import (
    SCHEDULES,
    ProgramEvaluator,
    blur_sobel_threshold,
    compose_cycles,
    compose_resources,
    fdtd_two_field,
    optimize_program,
    predict_program_batch,
    program_candidates,
    program_lower_bound,
    stage_design_options,
)
from repro.program.model import StageTable, score_stages

PROGRAMS = {
    "blur-sobel-threshold": lambda: blur_sobel_threshold(
        grid=(32, 32), blur_iterations=2, iterations=1
    ),
    "fdtd-two-field": lambda: fdtd_two_field(grid=(32, 32), iterations=6),
}


@functools.lru_cache(maxsize=None)
def _space(name):
    """The program and both schedules' joint candidates."""
    program = PROGRAMS[name]()
    options = {
        stage.name: stage_design_options(stage.spec, max_kernels=4)
        for stage in program.stages
    }
    return program, {
        schedule: list(program_candidates(program, options, schedule))
        for schedule in SCHEDULES
    }


@functools.lru_cache(maxsize=None)
def _oracle(name):
    """Scalar composed numbers per candidate signature."""
    model = PerformanceModel()
    estimator = ResourceEstimator()
    bound_engine = CandidateEvaluator(vectorize=False)
    stage = {}
    out = {}
    for candidates in _space(name)[1].values():
        for design in candidates:
            for _name, d in design.stage_designs:
                if d.signature() not in stage:
                    stage[d.signature()] = (
                        estimator.estimate(d),
                        model.predict(d).total,
                        bound_engine.lower_bound(d),
                    )
            res, cycles, bounds = zip(
                *(stage[d.signature()] for _n, d in design.stage_designs)
            )
            out[design.signature()] = (
                compose_resources(design.schedule, res),
                compose_cycles(design, cycles),
                program_lower_bound(design, bounds),
                cycles,
            )
    return out


@st.composite
def _batches(draw):
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    schedules = draw(
        st.sampled_from([("coresident",), ("timeshared",), SCHEDULES])
    )
    seed = draw(st.integers(0, 2**16))
    pool = [d for s in schedules for d in _space(name)[1][s]]
    rng = random.Random(seed)
    sample = rng.sample(pool, min(len(pool), draw(st.integers(1, 120))))
    chunk = draw(st.integers(1, 40))
    chunks = [sample[i:i + chunk] for i in range(0, len(sample), chunk)]
    # A budget around one sampled candidate's footprint, so verdicts mix.
    pivot = _oracle(name)[rng.choice(sample).signature()][0].total
    scale = draw(st.floats(0.25, 2.0))
    budget = ResourceBudget(limit=pivot.scaled(scale), label="drawn")
    vectorize = draw(st.booleans())
    return name, chunks, budget, vectorize


class TestComposerParity:
    @settings(max_examples=40, deadline=None)
    @given(batch=_batches())
    def test_screen_and_tier1_bitwise_equal_scalar(self, batch):
        name, chunks, budget, vectorize = batch
        oracle = _oracle(name)
        engine = ProgramEvaluator(
            stage_engine=CandidateEvaluator(vectorize=vectorize)
        )
        for chunk in chunks:
            feasible, bounds, bram = engine.screen_batch(chunk, budget)
            results = engine.evaluate_batch(chunk, budget)
            for j, design in enumerate(chunk):
                res, cycles, bound, _stages = oracle[design.signature()]
                fits = res.total.fits_within(budget.limit)
                assert feasible[j] is fits
                assert bounds[j] == bound
                assert bram[j] == res.total.bram18
                if fits:
                    assert results[j].predicted_cycles == cycles
                    assert results[j].resources == res
                else:
                    assert results[j] is None

    @settings(max_examples=25, deadline=None)
    @given(batch=_batches())
    def test_predict_program_batch_bitwise_equal_scalar(self, batch):
        name, chunks, budget, _vectorize = batch
        oracle = _oracle(name)
        table = StageTable(
            functools.partial(score_stages, engine=CandidateEvaluator())
        )
        for chunk in chunks:
            batch_out = predict_program_batch(chunk, table=table)
            mask = batch_out.feasible(budget.limit)
            for j, design in enumerate(chunk):
                res, cycles, bound, stages = oracle[design.signature()]
                assert batch_out.total[j] == cycles
                assert batch_out.bounds[j] == bound
                assert batch_out.stage_cycles[j] == stages
                assert batch_out.design_resources(j) == res
                assert mask[j] == res.total.fits_within(budget.limit)

    def test_restarting_table_keeps_parity(self):
        name = "blur-sobel-threshold"
        oracle = _oracle(name)
        candidates = _space(name)[1]["coresident"][:200]
        table = StageTable(
            functools.partial(score_stages, engine=CandidateEvaluator()),
            max_rows=8,
        )
        for start in range(0, len(candidates), 25):
            chunk = candidates[start:start + 25]
            out = predict_program_batch(chunk, table=table)
            assert list(out.total) == [
                oracle[d.signature()][1] for d in chunk
            ]

    def test_stage_table_bounded_by_option_counts(self):
        program, spaces = _space("fdtd-two-field")
        engine = ProgramEvaluator()
        budget = ResourceBudget(limit=ResourceVector(10**9, 10**9, 10**9,
                                                     10**9))
        for schedule in SCHEDULES:
            engine.screen_batch(spaces[schedule], budget)
        options = sum(
            len(stage_design_options(stage.spec, max_kernels=4))
            for stage in program.stages
        )
        assert engine._stages.cycles.size <= options


def test_shared_evaluator_screens_consistently_across_threads():
    """A stage table restarting under many threads never mixes rows."""
    name = "blur-sobel-threshold"
    oracle = _oracle(name)
    candidates = _space(name)[1]["coresident"]
    budget = ResourceBudget(limit=ResourceVector(10**9, 10**9, 10**9, 10**9))
    engine = ProgramEvaluator()
    engine._stages.max_rows = 16  # force restarts mid-stream
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(12):
                chunk = rng.sample(candidates, rng.randint(1, 30))
                _feasible, bounds, _bram = engine.screen_batch(chunk, budget)
                want = [oracle[d.signature()][2] for d in chunk]
                if bounds != want:
                    errors.append(seed)
        except Exception as exc:  # reported below, never swallowed
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _answer(result):
    return (
        result.best.design.signature(),
        result.best.predicted_cycles,
        [
            (e.design.signature(), e.predicted_cycles,
             e.resources.total.bram18)
            for e in result.frontier
        ],
    )


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_tiered_equals_exhaustive_on_fdtd_two_field(schedule):
    program = fdtd_two_field(iterations=40)
    knobs = dict(max_kernels=4, max_fused_depth=8, schedule=schedule)
    tiered = optimize_program(
        program,
        driver=SearchDriver(evaluator=ProgramEvaluator(), screen="pareto"),
        **knobs,
    )
    exhaustive = optimize_program(
        program,
        driver=SearchDriver(evaluator=ProgramEvaluator(), screen=None),
        **knobs,
    )
    assert _answer(tiered) == _answer(exhaustive)
    assert tiered.evaluated == exhaustive.evaluated == 96 * 96
