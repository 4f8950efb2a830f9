"""Broadcast load aggregation: per-system loads, levels and joint labels.

The load of a system is the fraction of its minimum-rate capacity in use:
each class-n user consumes t_min / D[n][s] of system s, so load 1 coincides
with the single-class admission boundary. Thresholds map the load to one of
three levels, and the joint label packs the per-system levels in mixed-radix
order with system 0 as the most significant digit.
"""

from __future__ import annotations

import numpy as np

from .config import LEVEL_NAMES, NUM_LEVELS, AggregationScheme, NetworkConfig
from .states import Occupancy, StateSpace

LOW, MEDIUM, HIGH = range(NUM_LEVELS)


def system_load(config: NetworkConfig, occ: Occupancy, system: int) -> float:
    """Fraction in [0, 1] of system capacity consumed at minimum rate."""
    n_classes = config.num_classes
    base = system * n_classes
    load = sum(occ[base + n] * config.t_min / config.peak_rate[n][system]
               for n in range(n_classes))
    return min(1.0, load)


def level_of(load: float, low: float, high: float) -> int:
    """Three-level quantizer; boundaries are assigned downward."""
    if load <= low:
        return LOW
    if load <= high:
        return MEDIUM
    return HIGH


def load_levels(scheme: AggregationScheme, config: NetworkConfig,
                occ: Occupancy) -> tuple[int, ...]:
    return tuple(level_of(system_load(config, occ, s), *scheme.thresholds[s])
                 for s in range(config.num_systems))


def label_index(levels) -> int:
    """Dense label id of a per-system level vector (system 0 most significant)."""
    label = 0
    for lv in levels:
        label = label * NUM_LEVELS + lv
    return label


def label_levels(scheme: AggregationScheme, label: int) -> tuple[int, ...]:
    """Inverse of label_index."""
    levels = []
    for _ in range(scheme.num_systems):
        levels.append(label % NUM_LEVELS)
        label //= NUM_LEVELS
    return tuple(reversed(levels))


def label_name(scheme: AggregationScheme, label: int) -> str:
    return "/".join(LEVEL_NAMES[lv] for lv in label_levels(scheme, label))


def label_of(scheme: AggregationScheme, config: NetworkConfig, occ: Occupancy) -> int:
    """Joint load label broadcast for state `occ`."""
    return label_index(load_levels(scheme, config, occ))


def label_array(scheme: AggregationScheme, space: StateSpace) -> np.ndarray:
    """Label id of every enumerated state, vectorized over the space.

    The per-term arithmetic mirrors system_load exactly (count * t_min,
    then the division) so that boundary loads quantize identically on both
    paths.
    """
    config = space.config
    n_classes = config.num_classes
    labels = np.zeros(space.num_states, dtype=np.int64)
    for s in range(config.num_systems):
        cols = space.occ[:, s * n_classes:(s + 1) * n_classes]
        load = np.zeros(space.num_states)
        for n in range(n_classes):
            load += cols[:, n] * config.t_min / config.peak_rate[n][s]
        load = np.minimum(1.0, load)
        low, high = scheme.thresholds[s]
        level = np.where(load <= low, LOW, np.where(load <= high, MEDIUM, HIGH))
        labels = labels * NUM_LEVELS + level
    return labels
