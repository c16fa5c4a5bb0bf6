"""Extension benchmark: rotation-set size sweep.

Not a paper table — the measurement for the multi-configuration extension
(see repro.core.multiconfig): the time-averaged worst-PE stress and MTTF
of K configurations, against the fabric-mean floor.

Run::

    pytest benchmarks/bench_extension_rotation_set.py --benchmark-only
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import scaled_entry
from repro.aging import compute_stress_map
from repro.benchgen.synth import build_benchmark
from repro.core import Algorithm1Config, RemapConfig, build_rotation_set
from repro.place import place_baseline


@pytest.fixture(scope="module")
def placed():
    entry = scaled_entry("B19")
    design, fabric = build_benchmark(entry.spec())
    return design, fabric, place_baseline(design, fabric)


@pytest.mark.parametrize("k", [1, 2])
def test_rotation_set_k(benchmark, placed, k):
    design, fabric, original = placed
    config = Algorithm1Config(max_iterations=10, remap=RemapConfig(time_limit_s=15))

    rotation = benchmark.pedantic(
        build_rotation_set,
        args=(design, fabric, original),
        kwargs={"k": k, "config": config},
        rounds=1,
        iterations=1,
    )

    original_stress = compute_stress_map(design, original)
    mean_floor = original_stress.mean_accumulated_ns
    combined_max = rotation.combined_stress.max_accumulated_ns
    # Joint levelling can never beat the fabric mean...
    assert combined_max >= mean_floor - 1e-9
    # ...and must not exceed the single aging-unaware worst case.
    assert combined_max <= original_stress.max_accumulated_ns + 1e-9

    benchmark.extra_info.update(
        {
            "k": k,
            "combined_max_ns": round(combined_max, 3),
            "mean_floor_ns": round(mean_floor, 3),
            "mttf_years": round(rotation.mttf.mttf_years, 2),
            "per_config_max_ns": [
                round(v, 3) for v in rotation.per_config_max_ns
            ],
        }
    )
