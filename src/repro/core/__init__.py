"""The paper's core contribution: MILP-based aging-aware re-mapping.

Step 1 (ST_target lower bound), Step 2.1 (critical-path freeze/rotation),
Step 2.2 (path-delay constraints), Step 2.3 (two-step LP->ILP solve with
Delta relaxation — Algorithm 1), and the end-to-end Phase 1 + Phase 2 flow.
"""

from repro.core.algorithm1 import (
    Algorithm1Config,
    RemapResult,
    run_algorithm1,
)
from repro.core.constraints import (
    RemapVariables,
    add_assignment_variables,
    add_exclusivity_constraints,
    add_path_constraints,
    add_stress_constraints,
    build_coordinates,
    collect_endpoints,
)
from repro.core.multiconfig import (
    RotationSet,
    build_rotation_set,
    combined_stress_map,
)
from repro.core.flow import (
    AgingAwareFlow,
    FloorplanEvaluation,
    FlowConfig,
    FlowResult,
    run_flow,
)
from repro.core.remap import (
    RemapConfig,
    RemapOutcome,
    WarmStart,
    build_remap_model,
    default_candidates,
    frozen_stress_by_pe,
    restamp_remap_model,
    solve_remap,
)
from repro.core.rotation import (
    NUM_ORIENTATIONS,
    FrozenPlan,
    apply_orientation,
    assign_orientations,
    freeze_plan,
    rotate_plan,
)
from repro.core.targets import (
    StressTargetResult,
    default_delta_ns,
    stress_target_lower_bound,
)

__all__ = [
    "AgingAwareFlow",
    "Algorithm1Config",
    "FloorplanEvaluation",
    "FlowConfig",
    "FlowResult",
    "FrozenPlan",
    "NUM_ORIENTATIONS",
    "RemapConfig",
    "RemapOutcome",
    "RemapResult",
    "RemapVariables",
    "RotationSet",
    "StressTargetResult",
    "WarmStart",
    "add_assignment_variables",
    "add_exclusivity_constraints",
    "add_path_constraints",
    "add_stress_constraints",
    "apply_orientation",
    "assign_orientations",
    "build_coordinates",
    "build_remap_model",
    "build_rotation_set",
    "collect_endpoints",
    "combined_stress_map",
    "default_candidates",
    "default_delta_ns",
    "freeze_plan",
    "frozen_stress_by_pe",
    "restamp_remap_model",
    "rotate_plan",
    "run_algorithm1",
    "run_flow",
    "solve_remap",
    "stress_target_lower_bound",
]
