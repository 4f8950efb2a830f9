"""State space: throughput, admission, enumeration and closure properties."""

from dataclasses import replace

import numpy as np
import pytest

from hetassoc import (CapacityError, NetworkConfig, enumerate_states,
                      is_feasible, load_instance, user_throughput)
from hetassoc import states as states_module
from hetassoc.ctmc import ChainTables
from hetassoc.rules import InstantaneousRateRule, PeakRateRule
from hetassoc.states import key_weights, occ_index, state_table_rows

from conftest import (CONFIG_DIR, assert_structure_matches_reference, random_instance,
                      reference_states, state_id, state_ids, zero_state)


def single(D=2.0, t_min=1.0, t_max=2.0, gain=(1.0,), lam=(1.0,), mu=1.0):
    return NetworkConfig(peak_rate=((D,),), t_min=t_min, t_max=t_max,
                         arrival_rate=lam, service_rate=mu,
                         scheduler_gain=gain)


def test_throughput_single_user_capped_peak():
    config = single()
    assert user_throughput(config, (1,), 0, 0) == 2.0


def test_throughput_two_users_share():
    config = single()
    assert user_throughput(config, (2,), 0, 0) == pytest.approx(1.0)


def test_throughput_tmax_cap_binds():
    config = single(D=10.0, t_min=1.0, t_max=2.0)
    assert user_throughput(config, (3,), 0, 0) == pytest.approx(2.0)


def test_throughput_requires_present_user():
    config = single()
    with pytest.raises(ValueError):
        user_throughput(config, (0,), 0, 0)


def test_zero_state_feasible():
    config = single()
    assert is_feasible(config, (0,))


def test_feasibility_boundary_single_system():
    config = single()
    assert is_feasible(config, (2,))
    assert not is_feasible(config, (3,))  # 2/3 < 1


def test_feasibility_edge_class_binds():
    config = NetworkConfig(peak_rate=((2.0,), (1.2,)), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0, 1.0), service_rate=1.0)
    # one user of each class: throughputs (1.0, 0.6), the edge class fails
    assert user_throughput(config, (1, 1), 0, 0) == pytest.approx(1.0)
    assert user_throughput(config, (1, 1), 1, 0) == pytest.approx(0.6)
    assert not is_feasible(config, (1, 1))


def test_enumerate_single_chain():
    space = enumerate_states(single())
    assert space.states == ((0,), (1,), (2,))
    assert state_id(space, (1,)) == 1


def test_enumerate_two_independent_copies():
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    assert space.num_states == 9  # 3 x 3 per-system constraints


def test_tight_bounds_one_user_per_system():
    config = NetworkConfig(peak_rate=((2.0, 2.0), (2.0, 2.0)), t_min=2.0,
                           t_max=2.0, arrival_rate=(1.0, 1.0), service_rate=1.0)
    space = enumerate_states(config)
    for occ in space.states:
        assert sum(occ[:2]) <= 1 and sum(occ[2:]) <= 1
    # per system: empty or exactly one user of either class
    assert space.num_states == 9


def test_capacity_ceiling():
    with pytest.raises(CapacityError):
        enumerate_states(single(D=50.0, t_min=0.1), max_states=10)


def test_single_chain_size_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(25):
        D = float(rng.uniform(0.5, 20.0))
        t_min = float(rng.uniform(0.2, 2.0))
        gains = tuple(np.sort(rng.uniform(0.5, 1.5, size=3))[::-1])
        config = NetworkConfig(peak_rate=((D,),), t_min=t_min, t_max=max(2.0, t_min),
                               arrival_rate=(1.0,), service_rate=1.0,
                               scheduler_gain=gains)
        # independent oracle: test every occupancy level directly
        brute = sum(1 for k in range(0, 101)
                    if k == 0 or D * config.gain(k) / k >= t_min)
        space = enumerate_states(config)
        assert space.num_states == brute


def test_departure_closure_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        config, space, _ = random_instance(rng)
        for occ in space.states:
            for j, count in enumerate(occ):
                if count > 0:
                    down = occ[:j] + (count - 1,) + occ[j + 1:]
                    assert state_ids(space, [down])[0] >= 0


def test_enumeration_deterministic():
    config = NetworkConfig(peak_rate=((5.0, 10.0), (1.5, 3.0)), t_min=1.0,
                           t_max=2.0, arrival_rate=(0.4, 0.6), service_rate=1.0)
    a = enumerate_states(config)
    b = enumerate_states(config)
    assert a.states == b.states
    assert np.array_equal(state_ids(a, b.states), np.arange(b.num_states))


def test_state_table_rows_shape():
    config = single()
    space = enumerate_states(config)
    rows = list(state_table_rows(space))
    assert rows[0] == [0, 0, ""]
    assert rows[1][:2] == [1, 1]
    assert rows[1][2] == pytest.approx(2.0)


def test_network_wide_scope_couples_systems():
    """Under the network-wide denominator, users in other systems dilute the
    rate and can make a foreign admission infeasible."""
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0,
                           sharing_scope="network_wide")
    # one user per system: each shares with k = 2 users in total
    assert user_throughput(config, (1, 1), 0, 0) == pytest.approx(1.0)
    assert is_feasible(config, (1, 1))
    assert not is_feasible(config, (2, 1))   # k = 3 -> 2/3 < 1
    space = enumerate_states(config)
    assert space.num_states == 6  # total count <= 2, split anyhow
    per_system = enumerate_states(config.with_sharing_scope("per_system"))
    assert per_system.num_states == 9


def test_occ_index_order_is_system_major():
    config = NetworkConfig(peak_rate=((2.0, 2.0), (2.0, 2.0)), t_min=1.0,
                           t_max=2.0, arrival_rate=(1.0, 1.0), service_rate=1.0)
    assert occ_index(config, 0, 0) == 0
    assert occ_index(config, 1, 0) == 1
    assert occ_index(config, 0, 1) == 2
    assert zero_state(config) == (0, 0, 0, 0)


def shipped_configs():
    hybrid, _ = load_instance((CONFIG_DIR / "hybrid_example.json").read_text())
    erlang, _ = load_instance((CONFIG_DIR / "erlang_single.json").read_text())
    return [erlang, hybrid, hybrid.with_sharing_scope("network_wide")]


def test_structure_matches_reference_on_shipped_configs(twin_config):
    for config in shipped_configs() + [twin_config]:
        for strict in (False, True):
            assert_structure_matches_reference(replace(config, strict_arrivals=strict))


def test_structure_matches_reference_on_random_instances():
    rng = np.random.default_rng(12)
    scopes = set()
    for _ in range(40):
        config, _, _ = random_instance(rng)
        scopes.add(config.sharing_scope)
        for strict in (False, True):
            assert_structure_matches_reference(replace(config, strict_arrivals=strict))
    assert scopes == {"network_wide", "per_system"}


def test_capacity_ceiling_at_the_exact_count(twin_config):
    configs = shipped_configs() + [twin_config, single(D=50.0, t_min=0.1)]
    for config in configs:
        count = len(reference_states(config))
        assert enumerate_states(config, max_states=count).num_states == count
        with pytest.raises(CapacityError):
            enumerate_states(config, max_states=count - 1)


def test_candidates_never_exceed_level_size_times_pairs(monkeypatch):
    """Each level's candidate array has at most (level size) x N*S rows."""
    config = shipped_configs()[1]
    limits = [config.num_classes * config.num_systems]   # level 0: one state
    real = states_module.throughput_array

    def recording(config, occ):
        thr = real(config, occ)
        assert len(occ) <= limits[-1]
        feasible = int((~(thr < config.t_min).any(axis=(0, 1))).sum())
        limits.append(feasible * config.num_classes * config.num_systems)
        return thr

    monkeypatch.setattr(states_module, "throughput_array", recording)
    assert enumerate_states(config).num_states == 119
    assert len(limits) > 5


def test_key_weights_are_mixed_radix_place_values():
    assert key_weights([3, 4, 5]).tolist() == [20, 5, 1]
    assert key_weights([2 ** 31, 2 ** 32]).tolist() == [2 ** 32, 1]
    assert key_weights([2 ** 63]).tolist() == [1]


@pytest.mark.parametrize("radix", [[2 ** 32, 2 ** 32], [2 ** 63 + 1], [256] * 8])
def test_key_weights_refuse_keys_past_int64(radix):
    with pytest.raises(CapacityError):
        key_weights(radix)


def test_structure_and_baseline_tables_never_build_state_tuples():
    config = shipped_configs()[1]
    space = enumerate_states(config)
    ChainTables(space)
    PeakRateRule().choice_table(space)
    InstantaneousRateRule().choice_table(space)
    assert "states" not in vars(space) and "index" not in vars(space)

