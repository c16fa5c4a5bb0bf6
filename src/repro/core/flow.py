"""End-to-end aging-aware CAD flow (paper Section IV, Fig. 3).

**Phase 1 — aging-unaware mapping and MTTF computation**: place the design
with the commercial-style baseline placer, run STA, build the stress map,
run the thermal simulation, and compute the baseline MTTF.

**Phase 2 — aging-aware re-mapping**: run Algorithm 1 to produce the
re-mapped floorplan, then re-evaluate stress, temperature and MTTF.

The flow's contract (tested as an invariant): the re-mapped CPD is never
larger than the original CPD, and the reported metric is
``MTTF(remapped) / MTTF(original)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.aging.mttf import MttfReport, compute_mttf, mttf_increase
from repro.aging.nbti import NbtiModel
from repro.aging.stress import StressMap, compute_stress_map
from repro.arch.checks import check_design_fits
from repro.arch.context import Floorplan
from repro.arch.fabric import Fabric
from repro.core.algorithm1 import Algorithm1Config, RemapResult, run_algorithm1
from repro.core.remap import RemapConfig
from repro.errors import DeadlineExceededError, ThermalError
from repro.hls.allocate import MappedDesign
from repro.obs import counter, event, get_logger, span
from repro.place.baseline import BaselinePlacerConfig, place_baseline
from repro.resilience.deadline import Deadline, deadline_scope, shielded
from repro.thermal.grid import ThermalGridConfig
from repro.thermal.hotspot import ThermalReport, ThermalSimulator
from repro.thermal.power import PowerModel

_log = get_logger("core.flow")


@dataclass
class FlowConfig:
    """Configuration of the complete CAD flow."""

    algorithm1: Algorithm1Config = field(default_factory=Algorithm1Config)
    placer: BaselinePlacerConfig = field(default_factory=BaselinePlacerConfig)
    thermal_grid: ThermalGridConfig = field(default_factory=ThermalGridConfig)
    power: PowerModel = field(default_factory=PowerModel)
    nbti: NbtiModel = field(default_factory=NbtiModel)


def flow_config(mode: str, time_limit_s: float) -> FlowConfig:
    """The flow configuration of one re-mapping mode, for every runner.

    The CLI, the service, the experiment drivers and the pytest-benchmark
    harness all build their config here, so Algorithm 1's defaults (its
    iteration budget included) are the same whichever of them runs a
    design, and so is the answer.
    """
    return FlowConfig(
        algorithm1=Algorithm1Config(
            mode=mode, remap=RemapConfig(time_limit_s=time_limit_s)
        )
    )


@dataclass
class FloorplanEvaluation:
    """Stress + thermal + lifetime evaluation of one floorplan."""

    floorplan: Floorplan
    stress: StressMap
    thermal: ThermalReport
    mttf: MttfReport


@dataclass
class FlowResult:
    """Everything the flow produced for one benchmark."""

    design: MappedDesign
    fabric: Fabric
    original: FloorplanEvaluation
    remapped: FloorplanEvaluation
    remap: RemapResult
    mttf_increase: float
    elapsed_s: float

    @property
    def cpd_preserved(self) -> bool:
        return self.remap.final_cpd_ns <= self.remap.original_cpd_ns + 1e-6

    def summary(self) -> dict:
        """Flat dict for tables and CSV output."""
        return {
            "benchmark": self.design.name,
            "contexts": self.design.num_contexts,
            "fabric": f"{self.fabric.rows}x{self.fabric.cols}",
            "pe_count": self.design.num_ops,
            "utilization": self.original.floorplan.utilization(),
            "mttf_increase": self.mttf_increase,
            "original_cpd_ns": self.remap.original_cpd_ns,
            "final_cpd_ns": self.remap.final_cpd_ns,
            "original_max_stress_ns": self.original.stress.max_accumulated_ns,
            "remapped_max_stress_ns": self.remapped.stress.max_accumulated_ns,
            "original_peak_k": self.original.thermal.peak_k,
            "remapped_peak_k": self.remapped.thermal.peak_k,
            "fell_back": self.remap.fell_back,
            "degradation": self.remap.degradation,
            "iterations": self.remap.iterations,
            "elapsed_s": self.elapsed_s,
        }


class AgingAwareFlow:
    """Facade running Phase 1 + Phase 2 on a mapped design."""

    def __init__(self, config: FlowConfig | None = None) -> None:
        self.config = config or FlowConfig()

    # -- building blocks ------------------------------------------------------
    def evaluate(
        self, design: MappedDesign, fabric: Fabric, floorplan: Floorplan
    ) -> FloorplanEvaluation:
        """Stress map -> thermal maps -> MTTF for any floorplan."""
        with span("evaluate"):
            with span("stress"):
                stress = compute_stress_map(design, floorplan)
            simulator = ThermalSimulator(
                fabric,
                grid_config=self.config.thermal_grid,
                power_model=self.config.power,
            )
            thermal = simulator.simulate(stress.duty_per_context())
            with span("mttf"):
                mttf = compute_mttf(
                    stress, thermal.accumulated_k, self.config.nbti
                )
        return FloorplanEvaluation(
            floorplan=floorplan, stress=stress, thermal=thermal, mttf=mttf
        )

    def phase1(self, design: MappedDesign, fabric: Fabric) -> FloorplanEvaluation:
        """Aging-unaware placement and baseline lifetime evaluation."""
        with span("phase1"):
            floorplan = place_baseline(design, fabric, self.config.placer)
            return self.evaluate(design, fabric, floorplan)

    def phase2(
        self,
        design: MappedDesign,
        fabric: Fabric,
        original: FloorplanEvaluation,
    ) -> tuple[FloorplanEvaluation, RemapResult]:
        """Aging-aware re-mapping and re-evaluation.

        Guarantee: the returned floorplan is never *worse* than the
        original.  Algorithm 1 never raises on solver failure or deadline
        expiry (its internal ladder degrades instead).  The original
        evaluation, already in hand from Phase 1, is kept when the
        *re-evaluation* of the re-mapped floorplan dies (budget spent,
        thermal divergence), and when the re-mapped MTTF falls below the
        baseline (e.g. Algorithm 1 relaxed ``ST_target`` past the original
        maximum around an unlucky rotation); the result is then marked
        as fully degraded and the MTTF increase is exactly 1.0.
        """
        with span("phase2"):
            remap = run_algorithm1(
                design,
                fabric,
                original.floorplan,
                config=self.config.algorithm1,
                original_stress=original.stress,
            )
            if remap.fell_back and remap.floorplan is original.floorplan:
                # Nothing new to evaluate; also spares the remaining budget.
                return original, remap
            try:
                remapped = self.evaluate(design, fabric, remap.floorplan)
            except (DeadlineExceededError, ThermalError) as exc:
                counter("flow.phase2_recoveries").inc()
                event(
                    "phase2.degraded",
                    benchmark=design.name,
                    reason=type(exc).__name__,
                    detail=str(exc),
                )
                _log.warning(
                    "%s: re-evaluation of the re-mapped floorplan failed "
                    "(%s: %s); keeping the original floorplan",
                    design.name, type(exc).__name__, exc,
                )
                return original, _keep_original(remap, original)
            increase = mttf_increase(original.mttf, remapped.mttf)
            if increase < 1.0:
                counter("flow.fallbacks").inc()
                event(
                    "flow.fallback",
                    benchmark=design.name,
                    mttf_increase=increase,
                )
                _log.warning(
                    "%s: re-mapped MTTF fell to %.3fx of baseline; "
                    "keeping the original floorplan",
                    design.name,
                    increase,
                )
                return original, _keep_original(remap, original)
            return remapped, remap

    # -- the whole flow -------------------------------------------------------
    def run(
        self,
        design: MappedDesign,
        fabric: Fabric,
        deadline: Deadline | None = None,
    ) -> FlowResult:
        """Phase 1 + Phase 2 + MTTF comparison.

        ``deadline`` bounds the whole call with one wall-clock budget.
        Phase 1 is mandatory — without a baseline there is nothing to
        compare against — so it runs with deadline checks *shielded*
        (recorded, never raised), while its annealer still stops
        voluntarily on expiry.  Phase 2 runs unshielded and degrades down
        the ladder instead of raising, so an expired budget always still
        yields a valid (possibly degraded) :class:`FlowResult`.
        """
        check_design_fits(design, fabric)
        with deadline_scope(deadline), span(
            "flow", benchmark=design.name
        ) as flow_span:
            counter("flow.runs").inc()
            with shielded():
                original = self.phase1(design, fabric)
            remapped, remap = self.phase2(design, fabric, original)
            result = FlowResult(
                design=design,
                fabric=fabric,
                original=original,
                remapped=remapped,
                remap=remap,
                mttf_increase=mttf_increase(original.mttf, remapped.mttf),
                elapsed_s=flow_span.duration_s,
            )
        _log.info(
            "%s: MTTF increase %.2fx in %.2fs (fell_back=%s)",
            design.name,
            result.mttf_increase,
            result.elapsed_s,
            result.remap.fell_back,
        )
        return result


def _keep_original(
    remap: RemapResult, original: FloorplanEvaluation
) -> RemapResult:
    """``remap`` re-pointed at the original floorplan (rung ``original``).

    A copy: Algorithm 1's own result object stays untouched, so callers
    holding it see what the solver actually produced.
    """
    return replace(
        remap,
        floorplan=original.floorplan,
        fell_back=True,
        final_cpd_ns=remap.original_cpd_ns,
        degradation="original",
    )


def run_flow(
    design: MappedDesign,
    fabric: Fabric,
    config: FlowConfig | None = None,
    deadline: Deadline | None = None,
) -> FlowResult:
    """Convenience wrapper: one call from mapped design to MTTF increase."""
    return AgingAwareFlow(config).run(design, fabric, deadline=deadline)
