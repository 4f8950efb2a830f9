"""Randomized property suites over small instances.

Five families, each exercised on at least 100 random instances with S <= 2,
N <= 2 and at most 500 feasible states: zero generator row sums, steady
residuals, departure closure, label-partition totality and relabeling
equivariance of the game layer. A sixth family checks the tagged-volume
solves under both sharing scopes. The check bodies live in conftest so the
acceptance suite can time the very same assertions.
"""

import numpy as np
import pytest

from conftest import (check_departure_closure, check_generator_row_sums,
                      check_label_totality, check_relabel_equivariance,
                      check_steady_residuals, check_tagged_solves,
                      random_instance)

N_INSTANCES = 105


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(2024)
    return [random_instance(rng) for _ in range(N_INSTANCES)]


@pytest.fixture(scope="module")
def two_system_instances():
    rng = np.random.default_rng(4048)
    out = []
    while len(out) < N_INSTANCES:
        item = random_instance(rng)
        if item[0].num_systems == 2:
            out.append(item)
    return out


@pytest.fixture(scope="module")
def instances_by_scope():
    """Random instances, 30 per sharing scope."""
    rng = np.random.default_rng(7357)
    out = {"per_system": [], "network_wide": []}
    while min(len(v) for v in out.values()) < 30:
        item = random_instance(rng)
        bucket = out[item[0].sharing_scope]
        if len(bucket) < 30:
            bucket.append(item)
    return out


@pytest.mark.parametrize("scope", ["per_system", "network_wide"])
def test_tagged_solves_match_dense_reference(instances_by_scope, scope):
    check_tagged_solves(instances_by_scope[scope], np.random.default_rng(11))


def test_generator_row_sums_zero(instances):
    check_generator_row_sums(instances, np.random.default_rng(1))


def test_steady_state_residuals(instances):
    check_steady_residuals(instances, np.random.default_rng(2))


def test_departure_closure(instances):
    check_departure_closure(instances)


def test_label_partition_totality(instances):
    check_label_totality(instances)


def test_relabeling_equivariance(two_system_instances):
    check_relabel_equivariance(two_system_instances, np.random.default_rng(3))


def test_best_response_matches_exhaustive_on_small_spaces():
    """Search-mode completeness spot check: on random instances whose policy
    space fits exhaustive enumeration, both modes return the same
    equilibrium sets (possibly both empty)."""
    from hetassoc.game import PolicyGameSolver
    rng = np.random.default_rng(555)
    checked = 0
    while checked < 10:
        config, space, scheme = random_instance(rng)
        solver = PolicyGameSolver(space, scheme)
        if solver.policy_space_size() > 1024:
            continue
        checked += 1
        exact = solver.find_nash("exhaustive")
        br = solver.find_nash("best_response", restarts=48, seed=7)
        assert [e.policy.choice for e in exact] == [e.policy.choice for e in br]
