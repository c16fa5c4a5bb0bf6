"""Simulated-annealing refinement of a constructive placement.

A light per-context SA pass that reduces wirelength (the timing proxy)
while keeping the aging-unaware character of the baseline: the cost keeps
the bounding-box term, so solutions stay packed.

Moves: relocate an op to a free PE, or swap two ops within the context.
Pricing a move is incremental.  Only wires incident to the moved ops are
re-measured, against a cache of the context's op positions.  The bounding
box comes from per-row and per-column counts of the context's ops: first
to last occupied row times first to last occupied column, so a relocation
costs O(rows + cols) however many ops the context holds.  A swap cannot
move the box.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.hls.allocate import MappedDesign
from repro.obs import counter, event, get_logger, span
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import active_plan, should_inject

_log = get_logger("place.annealing")


class _NonFiniteCost(Exception):
    """Internal signal: a move cost evaluated to NaN/inf.

    Never escapes this module — the annealer aborts the affected context
    gracefully (the floorplan stays valid because moves apply atomically)
    and the constructive placement stands.
    """


@dataclass
class AnnealingConfig:
    """Knobs for the SA pass.

    Defaults are sized for the evaluation fabrics (up to 16x16): a few
    thousand proposals per context, geometric cooling.
    """

    moves_per_op: int = 60
    initial_temperature: float = 1.0
    cooling: float = 0.80
    steps_per_temperature: int = 64
    bbox_weight: float = 2.0
    seed: int = 2020


class ContextAnnealer:
    """SA optimiser for one context of a floorplan."""

    def __init__(
        self,
        design: MappedDesign,
        floorplan: Floorplan,
        context: int,
        config: AnnealingConfig,
        rng: random.Random,
    ) -> None:
        self.design = design
        self.floorplan = floorplan
        self.context = context
        self.config = config
        self.rng = rng
        self.fabric: Fabric = floorplan.fabric
        self.ops = [op.op_id for op in design.ops_in_context(context)]
        self._build_incidence()
        fabric = self.fabric
        #: Grid position of every PE, and of every op of this context.
        self._coords = list(zip(fabric.row_of.tolist(), fabric.col_of.tolist()))
        self._pos = {op: self._coords[floorplan.pe_of[op]] for op in self.ops}
        #: How many of this context's ops sit in each row and column.
        self._row_ops = [0] * fabric.rows
        self._col_ops = [0] * fabric.cols
        for row, col in self._pos.values():
            self._row_ops[int(row)] += 1
            self._col_ops[int(col)] += 1
        #: Whether a fault plan is armed, resolved once: only then does
        #: each proposal ask ``should_inject``, which reads the plan (and
        #: the environment) on every call.
        self._faults_armed = active_plan() is not None

    def _build_incidence(self) -> None:
        """Wires incident to each movable op, with fixed-or-movable endpoints.

        Each entry is ``(other_end, movable)`` where ``other_end`` is an op
        id when ``movable`` else a fixed coordinate.
        """
        in_context = set(self.ops)
        self.incident: dict[int, list[tuple[object, bool]]] = {
            op: [] for op in self.ops
        }
        for src, dst in self.design.compute_edges:
            if src in in_context and dst in in_context:
                self.incident[src].append((dst, True))
                self.incident[dst].append((src, True))
            elif src in in_context:
                self.incident[src].append((self._pos_of(dst), False))
            elif dst in in_context:
                self.incident[dst].append((self._pos_of(src), False))
        for ordinal, dst in self.design.input_edges:
            if dst in in_context:
                pad = self.fabric.input_pad(ordinal)
                self.incident[dst].append(((pad.row, pad.col), False))
        for src, ordinal in self.design.output_edges:
            if src in in_context:
                pad = self.fabric.output_pad(ordinal)
                self.incident[src].append(((pad.row, pad.col), False))

    def _pos_of(self, op_id: int) -> tuple[float, float]:
        row, col = self.floorplan.position_of(op_id)
        return (float(row), float(col))

    def _op_cost(self, op_id: int, position: tuple[float, float]) -> float:
        """Wirelength of wires incident to ``op_id`` were it at ``position``."""
        total = 0.0
        for other, movable in self.incident[op_id]:
            if movable:
                other_pos = self._pos[other]  # type: ignore[index]
            else:
                other_pos = other  # type: ignore[assignment]
            total += abs(position[0] - other_pos[0]) + abs(position[1] - other_pos[1])
        return total

    def _bbox(self) -> float:
        """Bounding-box area of the context, from the occupancy counts."""
        rows = [row for row, count in enumerate(self._row_ops) if count]
        cols = [col for col, count in enumerate(self._col_ops) if count]
        return (rows[-1] - rows[0] + 1.0) * (cols[-1] - cols[0] + 1.0)

    def _move(self, op_id: int, pe_index: int) -> None:
        """Point ``op_id``'s cached position and the counts at ``pe_index``."""
        old_row, old_col = self._pos[op_id]
        new_row, new_col = self._pos[op_id] = self._coords[pe_index]
        self._row_ops[int(old_row)] -= 1
        self._col_ops[int(old_col)] -= 1
        self._row_ops[int(new_row)] += 1
        self._col_ops[int(new_col)] += 1

    def run(self) -> tuple[int, int]:
        """Anneal this context in place; returns (proposed, accepted).

        Move counts are tallied locally and flushed to the metrics
        registry once at the end, so the proposal loop itself carries no
        instrumentation overhead.
        """
        if len(self.ops) < 2:
            return (0, 0)
        config = self.config
        deadline = current_deadline()
        occupied = {self.floorplan.pe_of[op] for op in self.ops}
        free = [k for k in range(self.fabric.num_pes) if k not in occupied]
        temperature = config.initial_temperature
        total_moves = config.moves_per_op * len(self.ops)
        steps_done = 0
        accepted_moves = 0
        self._area = self._bbox()
        try:
            while steps_done < total_moves:
                if deadline.expired:
                    # SA is a refinement: on budget expiry the current
                    # (valid) floorplan stands; no error, just a record.
                    counter("anneal.deadline_stops").inc()
                    event("anneal.deadline_stop", context=self.context)
                    break
                for _ in range(config.steps_per_temperature):
                    steps_done += 1
                    if steps_done > total_moves:
                        break
                    if free and self.rng.random() < 0.5:
                        accepted = self._try_relocate(free, temperature)
                    else:
                        accepted = self._try_swap(temperature)
                    accepted_moves += accepted
                temperature = max(temperature * config.cooling, 1e-3)
        except _NonFiniteCost as exc:
            counter("anneal.nan_aborts").inc()
            event("anneal.nan_abort", context=self.context)
            _log.warning(
                "annealing aborted in context %d: non-finite move cost (%s); "
                "keeping the constructive placement refined so far",
                self.context, exc,
            )
        proposed = min(steps_done, total_moves)
        counter("anneal.moves_proposed").inc(proposed)
        counter("anneal.moves_accepted").inc(accepted_moves)
        return (proposed, accepted_moves)

    def _metropolis(self, delta: float, temperature: float) -> bool:
        if self._faults_armed and should_inject("annealing_nan"):
            delta = float("nan")
        if not math.isfinite(delta):
            raise _NonFiniteCost(f"delta={delta!r}")
        if delta <= 0:
            return True
        return self.rng.random() < math.exp(-delta / temperature)

    def _try_relocate(self, free: list[int], temperature: float) -> bool:
        op = self.rng.choice(self.ops)
        slot_index = self.rng.randrange(len(free))
        new_pe = free[slot_index]
        old_pe = self.floorplan.pe_of[op]
        old_cost = self._op_cost(op, self._pos[op])
        new_cost = self._op_cost(op, self._coords[new_pe])
        # Bounding-box delta requires the tentative move, made on the
        # counts only: the floorplan changes once the move is accepted.
        self._move(op, new_pe)
        area = self._bbox()
        delta = (new_cost - old_cost) + self.config.bbox_weight * (area - self._area)
        if self._metropolis(delta, temperature):
            self.floorplan.rebind(op, new_pe)
            free[slot_index] = old_pe
            self._area = area
            return True
        self._move(op, old_pe)
        return False

    def _try_swap(self, temperature: float) -> bool:
        op_a, op_b = self.rng.sample(self.ops, 2)
        pos_a, pos_b = self._pos[op_a], self._pos[op_b]
        old_cost = self._op_cost(op_a, pos_a) + self._op_cost(op_b, pos_b)
        new_cost = self._op_cost(op_a, pos_b) + self._op_cost(op_b, pos_a)
        # Swapping cannot change the bounding box.
        if not self._metropolis(new_cost - old_cost, temperature):
            return False
        self.floorplan.swap(op_a, op_b)
        self._pos[op_a], self._pos[op_b] = pos_b, pos_a
        return True


def anneal_placement(
    design: MappedDesign,
    floorplan: Floorplan,
    config: AnnealingConfig | None = None,
) -> Floorplan:
    """Refine ``floorplan`` in place with per-context SA; returns it."""
    config = config or AnnealingConfig()
    rng = random.Random(config.seed)
    with span("anneal", contexts=floorplan.num_contexts) as anneal_span:
        proposed = accepted = 0
        for context in range(floorplan.num_contexts):
            annealer = ContextAnnealer(design, floorplan, context, config, rng)
            ctx_proposed, ctx_accepted = annealer.run()
            proposed += ctx_proposed
            accepted += ctx_accepted
        floorplan.validate()
        anneal_span.set(moves_proposed=proposed, moves_accepted=accepted)
    _log.debug(
        "annealed %d context(s): %d/%d moves accepted",
        floorplan.num_contexts, accepted, proposed,
    )
    return floorplan
