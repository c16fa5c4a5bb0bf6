"""Aging-unaware placement (the back half of the Musketeer substitute).

Constructive corner-packing placement plus simulated-annealing refinement,
with bounding-box + wirelength objectives matching the commercial tool's
behaviour described in the paper's Phase 1.
"""

from repro.place.annealing import AnnealingConfig, ContextAnnealer, anneal_placement
from repro.place.baseline import BaselinePlacer, BaselinePlacerConfig, place_baseline
from repro.place.cost import bounding_box, bounding_box_area, wirelength
from repro.place.greedy import greedy_place

__all__ = [
    "AnnealingConfig",
    "BaselinePlacer",
    "BaselinePlacerConfig",
    "ContextAnnealer",
    "anneal_placement",
    "bounding_box",
    "bounding_box_area",
    "greedy_place",
    "place_baseline",
    "wirelength",
]
