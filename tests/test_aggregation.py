"""Load definition, level thresholds and joint-label packing."""

import numpy as np
import pytest

from hetassoc import AggregationScheme, NetworkConfig, enumerate_states
from hetassoc.aggregation import (HIGH, LOW, MEDIUM, label_array, label_levels,
                                  label_name, label_of, system_load)

from conftest import random_instance, state_counts_per_label, state_id, state_ids


@pytest.fixture
def config():
    return NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                         arrival_rate=(1.0,), service_rate=1.0)


def test_empty_system_load_zero(config):
    assert system_load(config, (0,), 0) == 0.0


def test_one_user_half_load(config):
    assert system_load(config, (1,), 0) == pytest.approx(0.5)


def test_saturated_load_one(config):
    assert system_load(config, (2,), 0) == pytest.approx(1.0)


def test_load_clipped_at_one():
    config = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0,
                           scheduler_gain=(1.5,))
    # three users fit thanks to the gain; raw load 1.5 still reads as 1
    assert system_load(config, (3,), 0) == 1.0


def test_reference_thresholds_label(config):
    scheme = AggregationScheme(((0.3, 0.7),))
    assert label_of(scheme, config, (1,)) == MEDIUM  # load 0.5
    assert label_of(scheme, config, (0,)) == LOW


def test_boundary_assigned_downward():
    config = NetworkConfig(peak_rate=((10.0,),), t_min=1.0, t_max=10.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    scheme = AggregationScheme(((0.3, 0.7),))
    assert label_of(scheme, config, (7,)) == MEDIUM   # load exactly 0.7
    assert label_of(scheme, config, (8,)) == HIGH     # load 0.8
    scheme3 = AggregationScheme(((0.3, 0.70001),))
    assert label_of(scheme3, config, (7,)) == MEDIUM


def test_label_packing_mixed_radix():
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    # system 0 empty (low), system 1 with one user (load .5, medium)
    assert label_of(scheme, config, (0, 1)) == LOW * 3 + MEDIUM
    assert label_of(scheme, config, (1, 0)) == MEDIUM * 3 + LOW
    for label in range(scheme.label_count):
        levels = label_levels(scheme, label)
        assert label == levels[0] * 3 + levels[1]
    assert label_name(scheme, 0) == "low/low"
    assert label_name(scheme, 5) == "medium/high"


def test_label_array_matches_scalar_path():
    rng = np.random.default_rng(3)
    for _ in range(10):
        config, space, scheme = random_instance(rng)
        vec = label_array(scheme, space)
        for i, occ in enumerate(space.states):
            assert vec[i] == label_of(scheme, config, occ)


def test_label_array_matches_scalar_on_float_boundary():
    """Seven users at peak 10 sit exactly on the 0.7 threshold; both label
    paths must quantize the boundary the same way (downward)."""
    config = NetworkConfig(peak_rate=((10.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme(((0.3, 0.7),))
    vec = label_array(scheme, space)
    i = state_id(space, (7,))
    assert vec[i] == label_of(scheme, config, (7,)) == MEDIUM


def test_partition_totality():
    rng = np.random.default_rng(4)
    for _ in range(10):
        config, space, scheme = random_instance(rng)
        counts = state_counts_per_label(scheme, space)
        assert counts.sum() == space.num_states
        assert len(counts) == scheme.label_count


def test_adding_user_never_decreases_level():
    rng = np.random.default_rng(5)
    for _ in range(10):
        config, space, scheme = random_instance(rng)
        for occ in space.states:
            base = label_levels(scheme, label_of(scheme, config, occ))
            for s in range(config.num_systems):
                for n in range(config.num_classes):
                    j = s * config.num_classes + n
                    up = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
                    if state_ids(space, [up])[0] >= 0:
                        new = label_levels(scheme, label_of(scheme, config, up))
                        assert new[s] >= base[s]


def test_labels_constant_on_equal_loads():
    config = NetworkConfig(peak_rate=((2.0,), (2.0,)), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0, 1.0), service_rate=1.0)
    scheme = AggregationScheme(((0.3, 0.7),))
    # (1,0) and (0,1) have the same load: one user each way
    assert label_of(scheme, config, (1, 0)) == label_of(scheme, config, (0, 1))
