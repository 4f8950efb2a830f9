"""Randomized property suites over small instances.

Five families, each exercised on at least 100 random instances with S <= 2,
N <= 2 and at most 500 feasible states: zero generator row sums, steady
residuals, departure closure, label-partition totality and relabeling
equivariance of the game layer. Two more families check, under both
sharing scopes and both arrival modes, the tagged-volume solves and the
band generator with its stationary solve. The check bodies live in conftest
so the acceptance suite can time the very same assertions. A last family
checks that every member of a fibre of the policy space evaluates exactly
like its representative.
"""

import numpy as np
import pytest

from hetassoc import Policy
from hetassoc.game import PolicyGameSolver

from conftest import (check_band_generator, check_departure_closure,
                      check_generator_row_sums, check_label_totality,
                      check_relabel_equivariance, check_steady_residuals,
                      check_tagged_solves, random_instance, random_policy)

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


@pytest.mark.parametrize("scope", ["per_system", "network_wide"])
def test_band_generator_and_stationary_solve_match_references(instances_by_scope, scope):
    check_band_generator(instances_by_scope[scope], np.random.default_rng(12))


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


def _random_member(rng, solver, policy: Policy) -> Policy:
    """A uniformly drawn policy of policy's fibre, structurally empty labels
    included (every system is interchangeable there)."""
    rep = solver.rep
    return Policy(tuple(
        tuple(int(rng.choice(np.flatnonzero(rep[n, l] == rep[n, l, s])))
              for l, s in enumerate(row))
        for n, row in enumerate(policy.choice)))


def _own_payoffs(ev) -> np.ndarray:
    """U[n, l, choice[n][l]]: each group's payoff under its own entry."""
    choice = np.asarray(ev.policy.choice)
    return np.take_along_axis(ev.individual, choice[:, :, None], axis=2)


@pytest.mark.parametrize("mode", ["redirect", "exclude"])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("scope", ["per_system", "network_wide"])
def test_fibre_members_evaluate_like_their_representative(instances_by_scope, scope,
                                                          strict, mode):
    """Members of one fibre give the representative's pi, payoff table,
    blocking, global utility, Nash gap and own payoffs bit for bit on
    freshly solved chains, and a warm cache reports each member under its
    own policy."""
    rng = np.random.default_rng(31)
    merged = 0
    for config, space, scheme in instances_by_scope[scope]:
        options = dict(strict_arrivals=strict, deviation_payoff=mode)
        fresh = PolicyGameSolver(space, scheme, use_cache=False, **options)
        warm = PolicyGameSolver(space, scheme, **options)
        policy = random_policy(rng, config, scheme)
        rep = Policy(tuple(tuple(int(fresh.rep[n, l, s]) for l, s in enumerate(row))
                           for n, row in enumerate(policy.choice)))
        expected = fresh.evaluate(rep)
        warm.evaluate(rep)
        for _ in range(3):
            member = _random_member(rng, fresh, policy)
            merged += sum(a != b and not fresh.structurally_empty[l]
                          for row, rrow in zip(member.choice, rep.choice)
                          for l, (a, b) in enumerate(zip(row, rrow)))
            ev = fresh.evaluate(member)
            assert np.array_equal(ev.pi, expected.pi)
            assert np.array_equal(ev.individual, expected.individual, equal_nan=True)
            assert np.array_equal(ev.blocking, expected.blocking)
            assert ev.global_utility == expected.global_utility
            assert ev.nash_gap() == expected.nash_gap()
            # each group earns what it earns under the representative
            assert np.array_equal(_own_payoffs(ev), _own_payoffs(expected),
                                  equal_nan=True)
            assert warm.evaluate(member).policy == member
    # entries where a sampled member left its representative on a label
    # with states
    assert merged >= 20
