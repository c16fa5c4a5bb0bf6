#!/usr/bin/env python
"""Extension demo: multi-configuration rotation sets.

The paper's related work ([3], [8]) periodically swaps between several
configurations to spread wear.  This example composes the paper's MILP
machinery into that scheme: it builds rotation sets of size K = 1, 2 and
3 for one benchmark and shows the time-averaged worst-PE stress and the
MTTF of each, next to the fabric-mean duty that no levelling scheme can
beat.

Usage::

    python examples/rotation_set.py [benchmark]   # default B19 (high util)
"""

from __future__ import annotations

import sys

from repro.aging import compute_mttf, compute_stress_map
from repro.benchgen import entry
from repro.benchgen.synth import build_benchmark
from repro.core import Algorithm1Config, RemapConfig, build_rotation_set
from repro.place import place_baseline
from repro.report import format_table
from repro.thermal import ThermalSimulator


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "B19"
    bench = entry(name).scaled(4)
    design, fabric = build_benchmark(bench.spec())
    original = place_baseline(design, fabric)
    print(f"benchmark {bench.name}: {design.num_ops} ops, "
          f"{design.num_contexts} contexts, fabric {fabric.rows}x{fabric.cols}")

    original_stress = compute_stress_map(design, original)
    simulator = ThermalSimulator(fabric)
    thermal = simulator.simulate(original_stress.duty_per_context())
    baseline_mttf = compute_mttf(original_stress, thermal.accumulated_k)
    mean_floor = original_stress.mean_accumulated_ns
    print(f"aging-unaware max stress: {original_stress.max_accumulated_ns:.2f} ns"
          f"   (fabric-mean floor: {mean_floor:.2f} ns)")

    config = Algorithm1Config(remap=RemapConfig(time_limit_s=30))
    rows = []
    for k in (1, 2, 3):
        rotation = build_rotation_set(design, fabric, original, k=k, config=config)
        rows.append([
            k,
            rotation.combined_stress.max_accumulated_ns,
            rotation.mttf.mttf_s / baseline_mttf.mttf_s,
            all(not c.get("fell_back") for c in rotation.stats["configs"]),
        ])
    print()
    print(format_table(
        ["K configs", "avg worst-PE stress (ns)", "MTTF increase (x)",
         "all configs solved"],
        rows,
    ))
    print()
    print(f"The worst-PE average can never drop below the fabric mean of "
          f"{mean_floor:.2f} ns.")


if __name__ == "__main__":
    main()
