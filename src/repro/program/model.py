"""Program-level performance/resource composition along the DAG.

Each stage of a :class:`~repro.program.design.ProgramDesign` is scored
by the existing single-stencil machinery — the Eq. 1-11 performance
model and the FF/LUT/DSP/BRAM estimator — and this module composes the
per-stage numbers into program totals under the design's schedule:

**Co-resident** (all stage pipelines on the fabric at once)::

    cycles    = max(sum(stage_i) - forwarding_savings, max(stage_i))
    resources = sum(stage_i)          (componentwise)

Stages execute back to back (the DAG serializes dependent stages), but
when a producer/consumer pair's tilings align — same region shape and
same tile counts — the inter-stage field can be forwarded on-chip
through pipes instead of spilling through DDR, saving one Eq. 4-6
write plus one read of the whole grid per forwarded edge.  The clamp
at ``max(stage_i)`` keeps the composed estimate no smaller than any
single stage, so forwarding savings can never drive the total below
what the slowest stage alone needs.

**Time-shared** (stages swap onto the fabric one after another)::

    cycles    = sum(stage_i) + RECONFIGURATION_CYCLES * (n - 1)
    resources = max(stage_i)          (componentwise)

Every inter-stage field spills through DDR (its Eq. 4-6 cost is
already inside each stage's own prediction), and each stage transition
pays a reconfiguration penalty.

:func:`program_lower_bound` composes per-stage admissible bounds into
a program bound that never exceeds the composed prediction (each stage
bound never exceeds its stage prediction, and the forwarding savings
subtracted are identical on both sides) — so the tiered search's
Tier-0 screen stays admissible for programs.

The scalar ``compose_*`` functions are the readable oracle.  Batches
are stage-factored: a :class:`StageTable` scores each distinct stage
design once, and :func:`compose_batch` composes an ``(n_candidates,
n_stages)`` matrix of table rows in numpy, bitwise-equal to them.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.dse.evaluator import CandidateEvaluator
from repro.fpga.batch import estimate_batch
from repro.fpga.estimator import DesignResources
from repro.fpga.flexcl import FlexCLEstimator
from repro.fpga.resources import ResourceVector
from repro.model.batch import BatchRangeError, lower_bound_batch, predict_batch
from repro.model.predictor import Fidelity, PerformanceModel
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import ProgramDesign
from repro.program.spec import ProgramEdge, ProgramSpec
from repro.tiling.design import StencilDesign

#: Cycles charged per stage transition under the time-shared schedule
#: (kernel teardown, partial reconfiguration, relaunch).  A modeling
#: constant, not a measured figure; at 200 MHz it is one millisecond.
RECONFIGURATION_CYCLES: float = 200_000.0

#: Resource groups and components of a composed block, in order.
_GROUPS = ("total", "kernels", "pipes")
_COMPONENTS = ("ff", "lut", "dsp", "bram18")


def forwardable_edges(design: ProgramDesign) -> Tuple[ProgramEdge, ...]:
    """Edges whose inter-stage field can be forwarded on-chip.

    Forwarding requires the co-resident schedule and an aligned
    producer/consumer tiling: equal region shapes and equal tile
    counts, so each producer tile streams to exactly one consumer tile
    without a reshuffle stage.  (Grid shape and dtype equality are
    already guaranteed by edge validation.)
    """
    if design.schedule != "coresident":
        return ()
    return tuple(
        edge
        for edge in design.program.edges
        if _tiling_key(design.design_for(edge.producer))
        == _tiling_key(design.design_for(edge.consumer))
    )


def _tiling_key(design: StencilDesign) -> Tuple:
    """What a forwarded edge's two stages must share: region shape and
    tile counts, so each producer tile streams to one consumer tile."""
    return design.tile_grid.region_shape, design.tile_grid.counts


def forwarding_savings(
    design: ProgramDesign, board: BoardSpec = ADM_PCIE_7V3
) -> float:
    """DDR cycles saved by on-chip forwarding (Eq. 4-6 terms avoided).

    Each forwarded edge avoids one full-grid field write by the
    producer and one full-grid read by the consumer at the board's
    effective DDR rate.
    """
    edges = forwardable_edges(design)
    return sum((_edge_credit(design.program, e, board) for e in edges), 0.0)


def _edge_credit(
    program: ProgramSpec, edge: ProgramEdge, board: BoardSpec
) -> float:
    """DDR cycles one forwarded edge saves: a field write plus a read."""
    spec = program.stage(edge.producer).spec
    field_bytes = spec.total_cells * spec.element_bytes
    return 2.0 * field_bytes / board.effective_bytes_per_cycle


def compose_cycles(
    design: ProgramDesign,
    stage_cycles: Sequence[float],
    board: BoardSpec = ADM_PCIE_7V3,
) -> float:
    """Compose per-stage predictions into the program total."""
    total = float(sum(stage_cycles))
    if design.schedule == "timeshared":
        return total + RECONFIGURATION_CYCLES * (design.num_stages - 1)
    slowest = max(float(c) for c in stage_cycles)
    return max(total - forwarding_savings(design, board), slowest)


def compose_resources(
    schedule: str, stage_resources: Sequence[DesignResources]
) -> DesignResources:
    """Compose per-stage estimates into the program footprint."""
    if schedule == "timeshared":
        fold = ResourceVector.max_with
    else:
        fold = ResourceVector.__add__
    return DesignResources(
        *(
            functools.reduce(fold, [getattr(r, g) for r in stage_resources])
            for g in _GROUPS
        )
    )


def program_lower_bound(
    design: ProgramDesign,
    stage_bounds: Sequence[float],
    board: BoardSpec = ADM_PCIE_7V3,
) -> float:
    """Admissible program bound from per-stage admissible bounds.

    Never exceeds :func:`compose_cycles` of the stage predictions:
    each stage bound is at most its prediction, the same forwarding
    savings are subtracted on both sides, and both are clamped at the
    slowest single stage.
    """
    return compose_cycles(design, stage_bounds, board)


def _resource_block(resources) -> np.ndarray:
    """(3, 4[, n]) int64: groups x components, scalar or batch input."""
    return np.array(
        [[getattr(getattr(resources, g), c) for c in _COMPONENTS]
         for g in _GROUPS],
        dtype=np.int64,
    )


def score_stages(
    designs: Sequence[StencilDesign],
    engine: CandidateEvaluator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, 3, 4)`` resource blocks, bounds and cycles of stage designs.

    ``engine``'s model and estimator score them through the batch
    engines, or — when ``engine.vectorize`` is False or a design is
    beyond the batch engines' exact-parity range — one by one,
    bitwise-equal.  An explicit pipeline report keeps the estimator's
    cache from growing.
    """
    model, fidelity = engine.model, engine.fidelity
    if engine.vectorize is not False:
        try:
            resources = estimate_batch(designs, engine.estimator.flexcl)
            return (
                np.moveaxis(_resource_block(resources), -1, 0),
                lower_bound_batch(designs, fidelity, model.estimator),
                predict_batch(
                    designs, engine.board, fidelity, model.estimator
                ).total,
            )
        except BatchRangeError:
            pass
    return (
        np.array([
            _resource_block(
                engine.estimator.estimate(d, model.pipeline_report(d))
            )
            for d in designs
        ]),
        np.array([engine.lower_bound(d) for d in designs]),
        np.array([model.predict(d).total for d in designs]),
    )


class StageTable:
    """Every distinct stage design seen so far, scored once.

    One search's joint candidates share at most the sum of the
    per-stage option counts in stage designs.  A row holds a design's
    resource block, bound and cycles (from ``score``, e.g.
    :func:`score_stages`) and interned tiling key.  Past ``max_rows``
    the table restarts; hold ``lock`` from :meth:`rows` until composed.
    """

    def __init__(self, score: Callable, max_rows: float = float("inf")):
        self.score = score
        self.max_rows = max_rows
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Drop every row."""
        self._rows: Dict[Tuple, int] = {}
        self._tilings: Dict[Tuple, int] = {}
        self.resources = np.zeros((0, 3, 4), dtype=np.int64)
        self.bounds = self.cycles = np.zeros(0)
        self.tiling = np.zeros(0, dtype=np.int64)

    def rows(self, designs: Sequence[StencilDesign]) -> np.ndarray:
        """Each design's row; the fresh ones are scored in one call."""
        sigs = [d.signature() for d in designs]
        fresh = {s: d for s, d in zip(sigs, designs) if s not in self._rows}
        if fresh and len(self._rows) + len(fresh) > self.max_rows:
            self.clear()
            fresh = dict(zip(sigs, designs))
        if fresh:
            resources, bounds, cycles = self.score(list(fresh.values()))
            tiling = [
                self._tilings.setdefault(_tiling_key(d), len(self._tilings))
                for d in fresh.values()
            ]
            base = len(self._rows)
            self._rows.update(zip(fresh, range(base, base + len(fresh))))
            self.resources = np.concatenate([self.resources, resources])
            self.bounds = np.concatenate([self.bounds, bounds])
            self.cycles = np.concatenate([self.cycles, cycles])
            self.tiling = np.concatenate([self.tiling, tiling])
        return np.array([self._rows[s] for s in sigs], dtype=np.int64)


@dataclass(frozen=True)
class ProgramBatchPrediction:
    """Composed per-candidate program numbers."""

    #: Composed program latency per candidate (cycles).
    total: np.ndarray
    #: Admissible composed lower bound per candidate (cycles).
    bounds: np.ndarray
    #: ``(n, 3, 4)`` int64 composed total/kernels/pipes resources, each
    #: as FF, LUT, DSP, BRAM18.
    columns: np.ndarray
    #: Per-candidate per-stage latencies, in topological stage order.
    stage_cycles: Tuple[Tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.total)

    @property
    def bram18(self) -> np.ndarray:
        """Composed total BRAM18 per candidate."""
        return self.columns[:, 0, 3]

    def feasible(self, limit: ResourceVector) -> np.ndarray:
        """Boolean mask: which programs fit within the shared budget."""
        # Clipping the limit to int64 is exact: no total exceeds it.
        cap = [min(getattr(limit, c), 2**63 - 1) for c in _COMPONENTS]
        return np.all(self.columns[:, 0] <= np.array(cap), axis=1)

    def design_resources(self, i: int) -> DesignResources:
        """Candidate ``i``'s composed resources as scalar vectors."""
        return DesignResources(
            *(ResourceVector(*map(int, row)) for row in self.columns[i])
        )

    @property
    def resources(self) -> Tuple[DesignResources, ...]:
        """Every candidate's composed resources as scalar vectors."""
        return tuple(map(self.design_resources, range(len(self))))


def compose_batch(
    program: ProgramSpec,
    schedule: str,
    index: np.ndarray,
    table: StageTable,
    board: BoardSpec = ADM_PCIE_7V3,
) -> ProgramBatchPrediction:
    """Compose many candidates of one program and schedule at once.

    ``index[i, s]`` is the ``table`` row of candidate ``i``'s stage
    ``s`` (topological order).  Resources add (co-resident) or take
    the max (time-shared) in int64; bounds and cycles add stage by
    stage in float64, less each edge's constant credit where its tiling
    keys agree — bitwise-equal to the scalar ``compose_*`` functions.
    """
    tiling = table.tiling[index]
    n, stages = index.shape
    savings = np.zeros(n)
    if schedule == "coresident":
        position = {name: s for s, name in enumerate(program.topo_order())}
        for edge in program.edges:
            p, c = position[edge.producer], position[edge.consumer]
            credit = _edge_credit(program, edge, board)
            savings += np.where(tiling[:, p] == tiling[:, c], credit, 0.0)

    def compose(stage: np.ndarray) -> np.ndarray:
        total = stage[:, 0]
        for s in range(1, stages):
            total = total + stage[:, s]
        if schedule == "timeshared":
            return total + RECONFIGURATION_CYCLES * (stages - 1)
        return np.maximum(total - savings, stage.max(axis=1))

    fold = np.max if schedule == "timeshared" else np.sum
    cycles = table.cycles[index]
    return ProgramBatchPrediction(
        total=compose(cycles),
        bounds=compose(table.bounds[index]),
        columns=fold(table.resources[index], axis=1),
        stage_cycles=tuple(map(tuple, cycles.tolist())),
    )


def predict_program_batch(
    designs: Sequence[ProgramDesign],
    board: BoardSpec = ADM_PCIE_7V3,
    fidelity: Fidelity = Fidelity.REFINED,
    flexcl: Optional[FlexCLEstimator] = None,
    table: Optional[StageTable] = None,
) -> ProgramBatchPrediction:
    """Composed latency, bounds and resources for a batch of programs.

    Stage designs go through ``table`` (default: a fresh one) and
    :func:`compose_batch` runs once per run of consecutive candidates
    sharing a program object and schedule.
    """
    if table is None:
        model = PerformanceModel(board, fidelity, flexcl)
        engine = CandidateEvaluator(board, fidelity, model=model)
        table = StageTable(functools.partial(score_stages, engine=engine))
    parts = []
    with table.lock:
        for (_id, schedule), run in itertools.groupby(
            designs, key=lambda p: (id(p.program), p.schedule)
        ):
            run = list(run)
            program = run[0].program
            flat = [d for p in run for _name, d in p.stage_designs]
            index = table.rows(flat).reshape(len(run), program.num_stages)
            parts.append(compose_batch(program, schedule, index, table, board))
    if len(parts) == 1:
        return parts[0]
    parts.insert(0, ProgramBatchPrediction(
        np.zeros(0), np.zeros(0), np.zeros((0, 3, 4), dtype=np.int64), ()
    ))
    return ProgramBatchPrediction(
        *(np.concatenate([getattr(p, f) for p in parts])
          for f in ("total", "bounds", "columns")),
        stage_cycles=sum((p.stage_cycles for p in parts), ()),
    )


def lower_bound_program_batch(
    designs: Sequence[ProgramDesign],
    board: BoardSpec = ADM_PCIE_7V3,
    fidelity: Fidelity = Fidelity.REFINED,
    flexcl: Optional[FlexCLEstimator] = None,
) -> np.ndarray:
    """Admissible composed lower bounds for a batch of programs."""
    return predict_program_batch(designs, board, fidelity, flexcl).bounds
