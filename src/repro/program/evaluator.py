"""Program-candidate scoring through the single-stencil engine.

:class:`ProgramEvaluator` presents the same duck-typed surface the
tiered :class:`~repro.dse.search.SearchDriver` drives —
``screen_batch`` / ``evaluate_batch`` / ``explore`` / ``absorb_stats``
plus the ``board`` / ``fidelity`` / ``estimator`` attributes — but
over :class:`~repro.program.design.ProgramDesign` candidates.  Every
per-stage number comes from a wrapped
:class:`~repro.dse.evaluator.CandidateEvaluator`'s model and estimator;
searches score each distinct stage design once into a stage table and
compose whole chunks in numpy (:mod:`repro.program.model`).

Program-level results are themselves memoized and store-backed under
the :meth:`~repro.program.design.ProgramDesign.signature`, so a
program search warm-starts exactly like a single-stencil one.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import (
    CandidateEvaluator,
    CandidateTrace,
    DSEResult,
    EvaluatedDesign,
    EvaluationStats,
)
from repro.errors import DesignSpaceError
from repro.fpga.estimator import DesignResources
from repro.model.predictor import Fidelity
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import ProgramDesign
from repro.program.model import (
    ProgramBatchPrediction,
    StageTable,
    compose_cycles,
    compose_resources,
    predict_program_batch,
    score_stages,
)
from repro.store.backing import BackingStore, evaluation_context

_log = obs.get_logger("program")

#: Stage-table rows kept across searches; one search needs at most the
#: sum of its per-stage option counts.
_STAGE_TABLE_ROWS = 4096


class ProgramEvaluator:
    """Cached scorer for :class:`ProgramDesign` candidates.

    Args:
        board: platform the stage models evaluate against (ignored
            when ``stage_engine`` is given — the engine's board wins).
        fidelity: analytical-model variant (same caveat).
        stage_engine: the single-stencil evaluator that scores stage
            designs; one is built when omitted.  Passing a warm engine
            (e.g. the service's resident evaluator) shares its memo
            and store with every other caller.
        store: optional persistent backing store for *program-level*
            entries; defaults to the stage engine's store, so one
            store serves both granularities.

    Stage designs are scored through the batch engines unless the
    stage engine was built with ``vectorize=False``.
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        fidelity: Fidelity = Fidelity.REFINED,
        stage_engine: Optional[CandidateEvaluator] = None,
        store: Optional[BackingStore] = None,
    ):
        if stage_engine is None:
            stage_engine = CandidateEvaluator(board=board, fidelity=fidelity)
        self.stage_engine = stage_engine
        self.board = stage_engine.board
        self.fidelity = stage_engine.fidelity
        self.estimator = stage_engine.estimator
        self.model = stage_engine.model
        self.store = store if store is not None else stage_engine.store
        self.store_context = (
            evaluation_context(self.board, self.fidelity, self.estimator.flexcl)
            if self.store is not None
            else None
        )
        #: Lifetime aggregate over every evaluate/explore call.
        self.stats = EvaluationStats()
        self._results: "OrderedDict[Tuple, EvaluatedDesign]" = OrderedDict()
        self._lock = threading.Lock()
        self._stages = StageTable(
            functools.partial(score_stages, engine=stage_engine),
            _STAGE_TABLE_ROWS,
        )

    # -- composed primitives ---------------------------------------------------

    def resources(self, design: ProgramDesign) -> DesignResources:
        """Composed program resources (stage estimates are memoized)."""
        estimate = self.stage_engine.resources
        stages = [estimate(d) for _name, d in design.stage_designs]
        return compose_resources(design.schedule, stages)

    def predict_cycles(self, design: ProgramDesign) -> float:
        """Composed program latency (stage predictions are memoized)."""
        predict = self.stage_engine.model.predict_cycles_cached
        cycles = [predict(d) for _name, d in design.stage_designs]
        return compose_cycles(design, cycles, self.board)

    # -- tier-0 screening ------------------------------------------------------

    def screen_batch(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
    ) -> Tuple[List[bool], List[float], List[int]]:
        """Cheap composed screen data for one chunk.

        Returns ``(feasible, bounds, bram)`` exactly as
        :meth:`CandidateEvaluator.screen_batch` does, but composed
        along each candidate's DAG: the shared-budget feasibility
        verdict, the admissible composed lower bound, and the composed
        BRAM18 count.  Only stage designs are memoized, in a stage
        table bounded by the sum of the per-stage option counts (and
        restarted past a row cap across searches), so screening a huge
        product space stays O(chunk).
        """
        composed = predict_program_batch(
            candidates, self.board, table=self._stages
        )
        return (
            composed.feasible(budget.limit).tolist(),
            composed.bounds.tolist(),
            composed.bram18.tolist(),
        )

    # -- tier-1 evaluation -----------------------------------------------------

    def _score_one(
        self,
        design: ProgramDesign,
        budget: ResourceBudget,
        stats: EvaluationStats,
        composed: ProgramBatchPrediction,
        i: int,
    ) -> Tuple[Optional[EvaluatedDesign], str]:
        stats.candidates += 1
        sig = design.signature()
        with self._lock:
            cached = self._results.get(sig)
        if cached is not None:
            stats.cache_hits += 1
            if not cached.resources.total.fits_within(budget.limit):
                stats.infeasible += 1
                return None, "infeasible"
            return cached, "cache-hit"
        stored = (
            self.store.lookup_design(design, self.store_context)
            if self.store is not None
            else None
        )
        if stored is not None and stored.complete:
            result = EvaluatedDesign(design, stored.cycles, stored.resources)
            with self._lock:
                result = self._results.setdefault(sig, result)
            stats.store_hits += 1
            if not result.resources.total.fits_within(budget.limit):
                stats.infeasible += 1
                return None, "infeasible"
            return result, "store-hit"
        resources = composed.design_resources(i)
        cycles = None
        if resources.total.fits_within(budget.limit):
            cycles = float(composed.total[i])
        if self.store is not None:
            self.store.record_design(
                design, self.store_context, cycles=cycles, resources=resources
            )
        if cycles is None:
            stats.infeasible += 1
            return None, "infeasible"
        stats.evaluated += 1
        result = EvaluatedDesign(design, cycles, resources)
        with self._lock:
            result = self._results.setdefault(sig, result)
        return result, "evaluated"

    def evaluate_batch(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
        stats: Optional[EvaluationStats] = None,
    ) -> List[Optional[EvaluatedDesign]]:
        """Score a batch of programs; results match input order."""
        delta = EvaluationStats()
        start = time.perf_counter()
        with obs.span(
            "program.evaluate_batch",
            candidates=len(candidates),
            budget=budget.label,
        ):
            # Memo and store hits are composed too: one vectorized pass
            # costs less than sorting them out first.
            composed = predict_program_batch(
                candidates, self.board, table=self._stages
            )
            results = []
            for i, design in enumerate(candidates):
                result, outcome = self._score_one(
                    design, budget, delta, composed, i
                )
                # Every composed candidate flows through the stage
                # engine's per-candidate hook, exactly like
                # single-stencil candidates do — the synthesis
                # service's cancellation point lives there, so a
                # program exploration aborts within one candidate too.
                self.stage_engine._emit(
                    CandidateTrace(
                        design=design,
                        outcome=outcome,
                        predicted_cycles=(
                            None if result is None
                            else result.predicted_cycles
                        ),
                    )
                )
                results.append(result)
        delta.wall_time_s = time.perf_counter() - start
        if stats is not None:
            stats.merge(delta)
            self.absorb_stats(delta, publish=True, merge=False)
        else:
            self.absorb_stats(delta)
        return results

    def absorb_stats(
        self,
        delta: EvaluationStats,
        publish: bool = True,
        merge: bool = True,
    ) -> None:
        """Fold externally-collected counters into the lifetime stats."""
        if merge:
            with self._lock:
                self.stats.merge(delta)
        if publish and obs.enabled():
            obs.inc("program.candidates", delta.candidates)
            obs.inc("program.evaluated", delta.evaluated)
            obs.inc("program.cache_hits", delta.cache_hits)
            obs.inc("program.store_hits", delta.store_hits)
            obs.inc("program.infeasible", delta.infeasible)
            obs.inc("search.screened", delta.screened)
            obs.inc("search.promoted", delta.promoted)

    # -- exploration (passthrough / optimizer entry point) ---------------------

    def explore(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
    ) -> DSEResult:
        """Evaluate program candidates; return the fastest feasible."""
        candidates = list(candidates)
        stats = EvaluationStats()
        start = time.perf_counter()
        with obs.span(
            "program.explore",
            candidates=len(candidates),
            budget=budget.label,
        ):
            results = self.evaluate_batch(candidates, budget, stats)
            feasible = [r for r in results if r is not None]
        stats.wall_time_s = time.perf_counter() - start
        with self._lock:
            self.stats.merge(stats)
        if obs.enabled():
            _log.debug("program explore: %s", stats.summary())
        if not feasible:
            raise DesignSpaceError(
                f"No feasible program design within budget {budget.label} "
                f"({len(candidates)} candidates evaluated)"
            )
        feasible.sort(key=lambda e: e.predicted_cycles)
        return DSEResult(
            best=feasible[0],
            evaluated=len(candidates),
            feasible=len(feasible),
            candidates=tuple(feasible),
            stats=stats,
        )

    # -- cache management ------------------------------------------------------

    def cache_size(self) -> int:
        """Number of memoized program evaluations."""
        with self._lock:
            return len(self._results)

    def clear_cache(self) -> None:
        """Drop every memoized program evaluation and stage-table row
        (stats preserved)."""
        with self._lock:
            self._results.clear()
        with self._stages.lock:
            self._stages.clear()
