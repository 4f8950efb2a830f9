"""Utilities, optimal policies, equilibria and baselines."""

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from hetassoc import (AggregationScheme, ConfigError, NetworkConfig, Policy, PolicyRule,
                      SearchCapError, build_generator, enumerate_states, evaluate_baseline,
                      evaluate_policy, evaluate_rule, per_class_blocking, solve_steady_state)
from hetassoc.aggregation import label_of
from hetassoc.game import (NASH_EPS, ChainEvaluation, PolicyGameSolver, _deviations,
                           ordered_members)
from hetassoc.rules import AssignmentRule, InstantaneousRateRule, PeakRateRule

from conftest import (arrival_mode, instance_of, nash_exhaustive_doc, random_instance,
                      random_policy, state_id, verify_equilibrium, with_entry)


@pytest.fixture
def erlang_solver(erlang_space, erlang_scheme):
    return PolicyGameSolver(erlang_space, erlang_scheme)


@pytest.fixture
def mirror_instance():
    """Two identical systems, one class, nine labels in bijection with the
    nine states; every label is structurally non-empty."""
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    return config, space, scheme


def test_global_utility_erlang(erlang_solver):
    ev = erlang_solver.evaluate(Policy(((0, 0, 0),)))
    assert ev.global_utility == pytest.approx(0.96, abs=1e-10)


def test_global_utility_light_traffic_limit(erlang_scheme):
    """As traffic vanishes the global utility approaches the volume of a call
    that stays alone: t(empty + 1) / mu."""
    config = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1e-9,), service_rate=1.0)
    space = enumerate_states(config)
    ev = evaluate_policy(space, erlang_scheme, Policy(((0, 0, 0),)))
    assert ev.global_utility == pytest.approx(2.0, abs=1e-6)


def test_individual_utility_erlang_default_redirect(erlang_solver):
    """Blocked deviations count as zero volume over the full label mass."""
    ev = erlang_solver.evaluate(Policy(((0, 0, 0),)))
    assert ev.individual[0, 0, 0] == pytest.approx(1.2, abs=1e-10)


def test_individual_utility_single_label_is_unconditional_average(erlang_solver):
    ev = erlang_solver.evaluate(Policy(((0, 0, 0),)))
    pi = ev.pi
    vol = ev.volumes[0, 0]
    unconditional = pi[0] * vol[1] + pi[1] * vol[2]  # blocked state adds zero
    assert ev.individual[0, 0, 0] == pytest.approx(unconditional, abs=1e-12)


def test_individual_utility_empty_label_raises(erlang_space):
    """A label without stationary mass has no deviation payoff: it is
    marked empty and its payoffs are NaN."""
    scheme = AggregationScheme(((0.0, 0.2),))  # medium label has no state
    solver = PolicyGameSolver(erlang_space, scheme)
    ev = solver.evaluate(Policy(((0, 0, 0),)))
    assert ev.empty_labels[1]
    assert np.isnan(ev.individual[:, 1]).all()


def test_saturated_label_deviation_payoffs_tie(mirror_instance):
    """At a label whose states all saturate system 0, preferring system 0 is
    redirected into system 1, so both deviation payoffs coincide."""
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    ev = solver.evaluate(Policy.constant(1, 9, 0))
    label = 2 * 3 + 0  # levels (high, low): only state (2, 0)
    assert not ev.empty_labels[label]
    assert ev.individual[0, label, 0] == pytest.approx(ev.individual[0, label, 1],
                                                       abs=1e-12)


def test_optimal_single_system_trivial(erlang_space, erlang_scheme):
    solver = PolicyGameSolver(erlang_space, erlang_scheme)
    result = solver.optimal_policy()
    assert result.policy.choice == ((0, 0, 0),)
    assert result.method == "exhaustive"


def _swap_label(label: int) -> int:
    return (label % 3) * 3 + label // 3


def _mirror_policy(policy: Policy) -> Policy:
    rows = []
    for row in policy.choice:
        out = [0] * len(row)
        for l, s in enumerate(row):
            out[_swap_label(l)] = 1 - s
        rows.append(tuple(out))
    return Policy(tuple(rows))


def test_optimal_symmetric_ties_reported(mirror_instance):
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    result = solver.optimal_policy(method="exhaustive")
    flats = [p.flatten() for p in result.ties]
    assert result.policy.flatten() == min(flats)
    mirrored = _mirror_policy(result.policy)
    mirror_ev = solver.evaluate(mirrored)
    assert mirror_ev.global_utility == pytest.approx(
        result.evaluation.global_utility, abs=1e-9)
    assert mirrored.flatten() in flats


def test_search_cap_error(mirror_instance):
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    with pytest.raises(SearchCapError, match="512"):
        solver.optimal_policy(method="exhaustive", cap=100)


def test_search_fallback_matches_exhaustive(mirror_instance):
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    exact = solver.optimal_policy(method="exhaustive")
    searched = solver.optimal_policy(method="search", restarts=8, seed=3)
    assert searched.evaluation.global_utility == pytest.approx(
        exact.evaluation.global_utility, abs=1e-9)


def test_search_optimum_certified_against_random_sampling():
    """On a policy space too large to enumerate, the coordinate-ascent
    optimum must dominate a random sample of policies."""
    config = NetworkConfig(peak_rate=((5.0, 10.0), (1.5, 3.0)), t_min=1.0,
                           t_max=2.0, arrival_rate=(1.75, 3.25), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    solver = PolicyGameSolver(space, scheme)
    assert solver.policy_space_size() == 2 ** 18
    result = solver.optimal_policy(method="search", restarts=6, seed=0)
    rng = np.random.default_rng(123)
    for _ in range(200):
        policy = random_policy(rng, config, scheme)
        ev = solver.evaluate(policy)
        assert result.evaluation.global_utility >= ev.global_utility - 1e-9


@pytest.mark.parametrize("restarts", [0, -3])
def test_restart_counts_below_one_are_refused(erlang_solver, restarts):
    """A search with fewer than one start raises rather than silently run
    one; the exhaustive modes take no starts and ignore the count."""
    with pytest.raises(ConfigError, match=f"restarts must be at least 1, got {restarts}"):
        erlang_solver.find_nash("best_response", restarts=restarts)
    with pytest.raises(ConfigError, match=f"restarts must be at least 1, got {restarts}"):
        erlang_solver.optimal_policy(method="search", restarts=restarts)
    assert erlang_solver.find_nash("exhaustive", restarts=restarts)


def test_nash_single_system_trivial(erlang_solver):
    result = erlang_solver.find_nash("exhaustive")
    assert len(result) == 1 and result[0].count == 1
    assert result[0].policy.choice == ((0, 0, 0),)


@pytest.fixture
def asym_instance():
    """Two near-identical systems; the slight peak-rate edge of system 0
    makes spreading stable instead of oscillating."""
    config = NetworkConfig(peak_rate=((2.0, 1.6),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    return config, space, scheme


def test_join_lower_loaded_is_nash_crowding_is_not(asym_instance):
    """Moving to the emptier system once the favorite fills supports an
    equilibrium; crowding everyone into the best-peak system leaves a
    profitable deviation toward the emptier one."""
    _, space, scheme = asym_instance
    solver = PolicyGameSolver(space, scheme)
    label_med_low = 1 * 3 + 0
    spread = with_entry(Policy.constant(1, 9, 0), 0, label_med_low, 1)
    ev_spread = solver.evaluate(spread)
    assert ev_spread.nash_gap() <= NASH_EPS

    ev_crowd = solver.evaluate(Policy.constant(1, 9, 0))
    assert not ev_crowd.nash_gap() <= NASH_EPS
    # the profitable deviation is toward the empty system at the label where
    # system 0 is busy and system 1 is not
    assert (ev_crowd.individual[0, label_med_low, 1]
            > ev_crowd.individual[0, label_med_low, 0] + 1e-9)


def test_best_response_and_exhaustive_agree_nonempty(asym_instance):
    _, space, scheme = asym_instance
    solver = PolicyGameSolver(space, scheme)
    exact = solver.find_nash("exhaustive")
    br = solver.find_nash("best_response", restarts=24, seed=5)
    assert [row for row, _ in ordered_members(exact)] == [row for row, _ in ordered_members(br)]
    assert len(exact) > 0


def test_best_response_and_exhaustive_agree_empty(mirror_instance):
    """The fully symmetric instance has no pure equilibrium; both modes must
    say so."""
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    assert solver.find_nash("exhaustive") == []
    assert solver.find_nash("best_response", restarts=24, seed=5) == []


def test_optimal_dominates_nash(asym_instance):
    _, space, scheme = asym_instance
    solver = PolicyGameSolver(space, scheme)
    opt = solver.optimal_policy()
    equilibria = solver.find_nash("exhaustive")
    assert equilibria
    for ev in equilibria:
        assert opt.evaluation.global_utility >= ev.global_utility - 1e-9


def test_best_response_steps_never_hurt_the_mover():
    rng = np.random.default_rng(23)
    for _ in range(6):
        config, space, scheme = random_instance(rng)
        solver = PolicyGameSolver(space, scheme)
        start = random_policy(rng, config, scheme)
        _, steps = solver.best_response_path(start)
        for step in steps:
            assert step.new_payoff >= step.old_payoff


def test_nash_certificate_reverifies(mirror_instance):
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    for fibre in solver.find_nash("exhaustive"):
        for ev in fibre.members():
            assert verify_equilibrium(solver, ev.policy)


def _swap_instance(config, scheme):
    peak = tuple((row[1], row[0]) for row in config.peak_rate)
    cfg = NetworkConfig(peak_rate=peak, t_min=config.t_min, t_max=config.t_max,
                        arrival_rate=config.arrival_rate,
                        service_rate=config.service_rate,
                        scheduler_gain=config.scheduler_gain,
                        sharing_scope=config.sharing_scope)
    sch = AggregationScheme((scheme.thresholds[1], scheme.thresholds[0]))
    return cfg, sch


def test_relabeling_equivariance():
    """Swapping the two systems permutes utilities, blocking and policies."""
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 6:
        config, space, scheme = random_instance(rng)
        if config.num_systems != 2:
            continue
        checked += 1
        policy = random_policy(rng, config, scheme)
        ev = PolicyGameSolver(space, scheme).evaluate(policy)

        cfg2, sch2 = _swap_instance(config, scheme)
        space2 = enumerate_states(cfg2)
        pol2 = _mirror_policy(policy)
        ev2 = PolicyGameSolver(space2, sch2).evaluate(pol2)

        assert ev2.global_utility == pytest.approx(ev.global_utility, abs=1e-9)
        assert ev2.overall_blocking == pytest.approx(ev.overall_blocking, abs=1e-10)
        for n in range(config.num_classes):
            for l in range(9):
                l2 = _swap_label(l)
                assert ev2.label_mass[l2] == pytest.approx(ev.label_mass[l], abs=1e-10)
                if ev.empty_labels[l]:
                    assert ev2.empty_labels[l2]
                    continue
                for s in range(2):
                    assert ev2.individual[n, l2, 1 - s] == pytest.approx(
                        ev.individual[n, l, s], abs=1e-9, nan_ok=True)
                assert ev2.blocking[n, l2] == pytest.approx(ev.blocking[n, l],
                                                            abs=1e-10)


def test_peak_baseline_degenerate_dominance():
    """When one system dominates and the other cannot even serve the class,
    the peak rule reproduces the single-system chain exactly."""
    config = NetworkConfig(peak_rate=((0.5, 3.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    report = evaluate_baseline(space, "peak_rate")

    solo = NetworkConfig(peak_rate=((3.0,),), t_min=1.0, t_max=2.0,
                         arrival_rate=(1.0,), service_rate=1.0)
    solo_space = enumerate_states(solo)
    solo_report = evaluate_baseline(solo_space, "peak_rate")
    assert report.overall_blocking == pytest.approx(solo_report.overall_blocking,
                                                    abs=1e-12)
    assert report.global_utility == pytest.approx(solo_report.global_utility,
                                                  abs=1e-10)
    # occupancy marginals coincide state by state
    for i, occ in enumerate(space.states):
        j = state_id(solo_space, (occ[1],))
        if occ[0] == 0:
            assert report.pi[i] == pytest.approx(solo_report.pi[j], abs=1e-12)
        else:
            assert report.pi[i] == pytest.approx(0.0, abs=1e-12)


def test_instantaneous_tie_breaks_to_first_system(mirror_instance):
    config, space, _ = mirror_instance
    rule = InstantaneousRateRule()
    assert rule.choose(config, (0, 0), 0) == 0
    assert rule.choose(config, (1, 0), 0) == 1  # emptier system wins
    table = rule.choice_table(space)
    assert table[0, state_id(space, (0, 0))] == 0


def test_peak_rule_tie_breaks_to_first_system():
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    assert PeakRateRule().choose(config, (0, 0), 0) == 0


@pytest.mark.parametrize("rule", [PeakRateRule(), InstantaneousRateRule()],
                         ids=["peak", "instant"])
def test_baseline_choice_tables_match_the_generic_loop(rule, hybrid_instance,
                                                       erlang_config):
    """The array choice tables equal AssignmentRule's choose() loop, ties
    included, on both shipped configs and random draws in both scopes."""
    rng = np.random.default_rng(3)
    tied = NetworkConfig(peak_rate=((2.0, 2.0), (1.5, 1.5)), t_min=1.0, t_max=2.0,
                         arrival_rate=(1.0, 1.0), service_rate=1.0)
    configs = [erlang_config, hybrid_instance[0], tied]
    configs += [random_instance(rng)[0] for _ in range(20)]
    for config in configs:
        for scope in ("per_system", "network_wide"):
            space = enumerate_states(config.with_sharing_scope(scope))
            table = rule.choice_table(space)
            assert table.dtype == np.int64
            assert np.array_equal(table, AssignmentRule.choice_table(rule, space))


def test_policy_rule_label_memo_follows_the_config():
    """choose() memoises the broadcast label per occupancy for one config
    object only, and the memo stays out of equality, hashing, repr and
    pickling's round trip."""
    scheme = AggregationScheme(((0.3, 0.7), (0.3, 0.7)))
    rule = PolicyRule(Policy((tuple(range(9)),)), scheme)
    slow, fast = (NetworkConfig(peak_rate=((peak, peak),), t_min=1.0, t_max=2.0,
                                arrival_rate=(1.0,), service_rate=1.0)
                  for peak in (2.0, 4.0))
    occ = (1, 0)
    assert label_of(scheme, slow, occ) != label_of(scheme, fast, occ)
    for config in (slow, fast, slow):
        assert rule.choose(config, occ, 0) == label_of(scheme, config, occ)
    fresh = PolicyRule(Policy((tuple(range(9)),)), scheme)
    assert rule == fresh and hash(rule) == hash(fresh)
    assert repr(rule) == repr(fresh)
    copy = pickle.loads(pickle.dumps(rule))
    assert copy == rule
    assert copy.choose(fast, occ, 0) == label_of(scheme, fast, occ)


def test_class_with_no_feasible_system():
    """A class whose peak rates sit below t_min everywhere is always
    blocked; the game still evaluates and the group is payoff-neutral."""
    config = NetworkConfig(peak_rate=((2.0, 2.0), (0.5, 0.5)), t_min=1.0,
                           t_max=2.0, arrival_rate=(1.0, 1.0), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    solver = PolicyGameSolver(space, scheme)
    ev = solver.evaluate(Policy.constant(2, 9, 0))
    assert ev.per_class_blocking[1] == pytest.approx(1.0)
    nonempty = ~ev.empty_labels
    assert np.all(ev.individual[1][nonempty] == 0.0)
    assert solver.find_nash("best_response", restarts=8, seed=0) is not None


def test_strict_arrivals_game_evaluation(erlang_space, erlang_scheme,
                                         asym_instance):
    """With a single system there is nothing to redirect, so strict and
    redirecting evaluations coincide; with two systems they may differ."""
    pol1 = Policy(((0, 0, 0),))
    loose = PolicyGameSolver(erlang_space, erlang_scheme).evaluate(pol1)
    strict = PolicyGameSolver(arrival_mode(erlang_space, True), erlang_scheme).evaluate(pol1)
    assert strict.global_utility == pytest.approx(loose.global_utility, abs=1e-12)
    assert strict.overall_blocking == pytest.approx(loose.overall_blocking,
                                                    abs=1e-12)

    _, space, scheme = asym_instance
    pol2 = Policy.constant(1, 9, 0)
    loose2 = PolicyGameSolver(space, scheme).evaluate(pol2)
    strict2 = PolicyGameSolver(arrival_mode(space, True), scheme).evaluate(pol2)
    # dropping instead of redirecting keeps system 1 empty, so states with
    # system-1 users lose all their mass
    for i, occ in enumerate(space.states):
        if occ[1] > 0:
            assert strict2.pi[i] == pytest.approx(0.0, abs=1e-12)
    assert strict2.global_utility != pytest.approx(loose2.global_utility, abs=1e-6)


def test_baseline_report_fields(erlang_space):
    report = evaluate_baseline(erlang_space, "peak_rate")
    assert type(report) is ChainEvaluation
    assert report.global_utility == pytest.approx(0.96, abs=1e-10)
    assert report.overall_blocking == pytest.approx(0.2, abs=1e-12)
    inst = evaluate_baseline(erlang_space, "instantaneous_rate")
    assert inst.global_utility == pytest.approx(1.2, abs=1e-10)
    with pytest.raises(ValueError):
        evaluate_baseline(erlang_space, "nonsense")



@pytest.mark.parametrize("strict", [False, True])
def test_evaluate_rule_is_the_policy_evaluation(hybrid_instance, strict):
    """A PolicyRule's evaluate_rule has evaluate_policy's chain fields bit
    for bit, and the stationary vector, residual and per-class blocking of
    the public generator and steady-state solve."""
    config, scheme = hybrid_instance
    space = arrival_mode(enumerate_states(config), strict)
    rng = np.random.default_rng(23)
    for _ in range(3):
        policy = random_policy(rng, config, scheme)
        rule = PolicyRule(policy, scheme)
        by_rule = evaluate_rule(space, rule)
        by_policy = evaluate_policy(space, scheme, policy)
        for field in dataclasses.fields(ChainEvaluation):
            a, b = getattr(by_rule, field.name), getattr(by_policy, field.name)
            assert np.array_equal(a, b, equal_nan=True), field.name
        steady = solve_steady_state(build_generator(space, rule))
        assert np.array_equal(by_rule.pi, steady.pi)
        assert by_rule.residual == steady.residual
        assert np.array_equal(by_rule.per_class_blocking, per_class_blocking(space, steady))


@pytest.mark.parametrize("strict", [False, True], ids=["redirect", "strict"])
@pytest.mark.parametrize("instance", ["shipped", "nash-exhaustive"])
def test_global_utility_is_the_weighted_payoff_at_the_choices(hybrid_instance, instance,
                                                              strict):
    """The global utility is made of the payoff table: the class weights
    times, summed over the labels with mass, the non-blocking probability,
    the label mass and the payoff of the chosen system,
    sum_n w_n sum_l (1 - blocking[n, l]) mass[l] U[n, l, choice[n, l]],
    to 1e-12 relative, on drawn policies of the shipped instance and of
    the nash-exhaustive one."""
    if instance == "shipped":
        config, scheme = hybrid_instance
        space = arrival_mode(enumerate_states(config), strict)
    else:
        space, scheme = instance_of(nash_exhaustive_doc(), strict)
    config = space.config
    weight = np.array(config.arrival_rate) / sum(config.arrival_rate)
    solver = PolicyGameSolver(space, scheme)
    rng = np.random.default_rng(37)
    for _ in range(6):
        ev = solver.evaluate(random_policy(rng, config, scheme))
        total = 0.0
        for n in range(config.num_classes):
            for l in np.flatnonzero(~ev.empty_labels):
                total += (weight[n] * (1.0 - ev.blocking[n, l]) * ev.label_mass[l]
                          * ev.individual[n, l, ev.policy.choice[n][l]])
        assert ev.global_utility == pytest.approx(total, rel=1e-12, abs=0)


def loop_payoffs(solver, ev):
    """Deviation payoffs U[n, l, s] and Nash gap recomputed state by state
    from an evaluation's stationary vector and volumes."""
    tables, config = solver.tables, solver.config
    N, S, L = config.num_classes, config.num_systems, solver.num_labels
    pi, labels = ev.pi, solver.labels
    num, den = np.zeros((N, L, S)), np.zeros((N, L, S))
    for n in range(N):
        for s in range(S):
            for i in range(solver.space.num_states):
                if solver.config.strict_arrivals:
                    target, sys_in = tables.arrival_id[n, s, i], s
                else:
                    target, sys_in = tables.admit_id[n, s, i], tables.admit_sys[n, s, i]
                value = ev.volumes[n, sys_in, target] if target >= 0 else 0.0
                num[n, labels[i], s] += value * pi[i]
                den[n, labels[i], s] += pi[i]
    individual = np.full((N, L, S), np.nan)
    gap = 0.0
    for n in range(N):
        for l in range(L):
            for s in range(S):
                if not ev.empty_labels[l] and den[n, l, s] > 1e-12:
                    individual[n, l, s] = num[n, l, s] / den[n, l, s]
            payoffs = individual[n, l]
            if not ev.empty_labels[l]:
                gap = max(gap, float(payoffs.max() - payoffs[ev.policy.choice[n][l]]))
    return individual, gap


@pytest.mark.parametrize("strict", [False, True], ids=lambda strict: f"redirect-{strict}")
def test_payoff_table_and_gap_match_state_loop(strict):
    """The payoff table and gap match a state-by-state loop, and a payoff
    is undefined exactly on the labels without mass."""
    rng = np.random.default_rng(23)
    for _ in range(6):
        config, loose, scheme = random_instance(rng, max_space=120)
        solver = PolicyGameSolver(arrival_mode(loose, strict), scheme)
        ev = solver.evaluate(random_policy(rng, config, scheme))
        individual, gap = loop_payoffs(solver, ev)
        np.testing.assert_allclose(ev.individual, individual, rtol=1e-13, atol=0)
        assert ev.nash_gap() == pytest.approx(gap, rel=1e-12, abs=1e-15)
        assert np.array_equal(np.isnan(ev.individual),
                              np.broadcast_to(ev.empty_labels[:, None], ev.individual.shape))


# ----- the quotient by fibres ----------------------------------------------


def representative_count(solver) -> int:
    """Number of fibres: the product over free entries of the number of
    interchangeability classes there."""
    S = solver.config.num_systems
    return int(np.prod([np.count_nonzero(solver.rep[n, l] == np.arange(S))
                        for n, l in solver.positions()]))


@pytest.fixture(scope="module")
def shipped_spaces(hybrid_instance):
    config, scheme = hybrid_instance
    return {erl: enumerate_states(config.scale_traffic(erl / config.offered_erlangs))
            for erl in (1, 4, 5, 10)}


@pytest.mark.parametrize("erlangs", [1, 5, 10])
def test_quotient_counts_on_shipped_instance(hybrid_instance, shipped_spaces, erlangs):
    """Redirection merges 2^18 canonical policies into 2^11 fibres; strict
    arrivals keep 2^16 apart."""
    _, scheme = hybrid_instance
    space = shipped_spaces[erlangs]
    solver = PolicyGameSolver(space, scheme)
    assert solver.policy_space_size() == 262_144
    assert representative_count(solver) == 2_048
    assert sum(1 for _ in solver.representatives()) == 2_048
    strict = PolicyGameSolver(arrival_mode(space, True), scheme)
    assert representative_count(strict) == 65_536


def test_quotient_count_on_exhaustive_benchmark_instance(hybrid_instance):
    """System 1 at thresholds 0.5/0.5 and 5 Erlangs: 4,096 canonical
    policies, 256 fibres."""
    config, scheme = hybrid_instance
    scheme = AggregationScheme((scheme.thresholds[0], (0.5, 0.5)))
    space = enumerate_states(config.scale_traffic(5.0 / config.offered_erlangs))
    solver = PolicyGameSolver(space, scheme)
    assert solver.policy_space_size() == 4_096
    assert representative_count(solver) == 256


def test_no_pure_equilibrium_at_one_erlang(hybrid_instance, shipped_spaces):
    """The README claim, checked over all 262,144 canonical policies."""
    _, scheme = hybrid_instance
    assert PolicyGameSolver(shipped_spaces[1], scheme).find_nash("exhaustive") == []


def test_exhaustive_equals_best_response_at_five_erlangs(hybrid_instance, shipped_spaces):
    _, scheme = hybrid_instance
    solver = PolicyGameSolver(shipped_spaces[5], scheme)
    exact = solver.find_nash("exhaustive")
    auto = solver.find_nash("auto")
    assert [fibre.count for fibre in exact] == [128]
    assert [row for row, _ in ordered_members(exact)] == [row for row, _ in ordered_members(auto)]
    # one fibre: every member is reported under its own policy, with the
    # fibre's evaluation
    members = list(exact[0].members())
    assert [ev.policy for ev in members] == solver.fibre(exact[0].policy)
    assert all(ev.global_utility == exact[0].global_utility for ev in members)


def test_exhaustive_optimum_reports_whole_fibres(mirror_instance):
    """Ties are closed under fibres, and the count covers every canonical
    policy."""
    _, space, scheme = mirror_instance
    solver = PolicyGameSolver(space, scheme)
    result = solver.optimal_policy(method="exhaustive")
    assert result.policies_evaluated == solver.policy_space_size() == 512
    ties = {p.choice for p in result.ties}
    for policy in result.ties:
        assert {p.choice for p in solver.fibre(policy)} <= ties
    assert result.evaluation.policy == result.policy


def test_cache_hit_reports_the_requested_policy(hybrid_instance, shipped_spaces):
    _, scheme = hybrid_instance
    solver = PolicyGameSolver(shipped_spaces[5], scheme)
    rep = next(iter(solver.representatives()))
    members = solver.fibre(rep)
    assert len(members) > 1
    first = solver.evaluate(rep)
    for member in members[1:4]:
        ev = solver.evaluate(member)
        assert ev.policy == member
        assert ev.pi is first.pi


@pytest.fixture(scope="module")
def warm_solver(hybrid_instance, shipped_spaces):
    _, scheme = hybrid_instance
    solver = PolicyGameSolver(shipped_spaces[5], scheme)
    solver.find_nash("best_response", restarts=2, seed=0)
    return solver


@pytest.mark.parametrize("bad", [
    ((0,) * 9, (2,) * 9),             # system index out of range
    ((0,) * 9, (0,) * 8 + (5,)),      # out of range on the last entry
    ((0,) * 10, (0,) * 10),           # one column too many
    ((0,) * 8, (0,) * 8),             # one column too few
    ((0,) * 9,),                      # one row too few
])
def test_warm_solver_rejects_malformed_policies(warm_solver, bad, monkeypatch):
    """Validation precedes the fibre lookup, so a malformed policy raises
    ConfigError, never an IndexError or a cached answer; a best-response
    path validates its start before its first step."""
    with pytest.raises(ConfigError):
        warm_solver.evaluate(Policy(bad))

    def first_step(choice, steps):
        raise AssertionError("the path took a step from a malformed start")

    monkeypatch.setattr(warm_solver, "_walk", first_step)
    with pytest.raises(ConfigError):
        warm_solver.best_response_path(Policy(bad))


# ----- the fresh certificate ------------------------------------------------


def _watch_checkers(solver, monkeypatch, perturb=None):
    """Record every chain the solver's fresh checkers solve, passing each
    solved evaluation through perturb first; a perturbed evaluation's gap
    is then recomputed from its table, as the checker computes it."""
    solved = []
    make = solver.fresh_checker

    def fresh_checker():
        checker = make()
        solve = checker._evaluate_chunk

        def _evaluate_chunk(rows):
            solved.extend(rows)
            evaluations = solve(rows)
            if perturb is not None:
                for ev in evaluations:
                    perturb(ev)
                gaps, _, _ = _deviations(np.stack([ev.individual for ev in evaluations]), rows,
                                         np.stack([ev.empty_labels for ev in evaluations]))
                for ev, gap in zip(evaluations, gaps.tolist()):
                    ev.gap = gap
            return evaluations

        checker._evaluate_chunk = _evaluate_chunk
        return checker

    monkeypatch.setattr(solver, "fresh_checker", fresh_checker)
    return solved


def test_checker_solves_one_chain_for_the_whole_fibre(hybrid_instance, shipped_spaces,
                                                      monkeypatch):
    """The 128 reported members at 5 Erlangs form one fibre; the fresh
    checker solves it once and judges every member on that table."""
    _, scheme = hybrid_instance
    solver = PolicyGameSolver(shipped_spaces[5], scheme)
    solved = _watch_checkers(solver, monkeypatch)
    found = solver.find_nash()
    assert [fibre.count for fibre in found] == [128]
    assert len(solved) == 1


def test_members_are_judged_on_the_checker_table(hybrid_instance, shipped_spaces,
                                                 monkeypatch):
    """Raising one deviation payoff of the checker's table by 1e-6 rejects
    every member, though the searching solver's own table (unperturbed)
    still calls each of them an equilibrium.

    At 4 Erlangs every member picks the same system for class 0 on every
    label, and the closest deviation there is under 1e-6 below the own
    payoff, so the raise makes it profitable for all 128.
    """
    _, scheme = hybrid_instance
    solver = PolicyGameSolver(shipped_spaces[4], scheme)
    found = [member for fibre in solver.find_nash() for member in fibre.members()]
    assert len(found) == 128
    ev = found[0]
    own = ev.individual[0, np.arange(solver.num_labels), ev.policy.choice[0]]
    other = ev.individual[0, np.arange(solver.num_labels), 1 - np.array(ev.policy.choice[0])]
    assert len({m.policy.choice[0] for m in found}) == 1
    label = int(np.argmin(own - other))
    deviation = 1 - ev.policy.choice[0][label]
    assert own[label] - other[label] < 1e-6 - 1e-9

    def raise_entry(checked):
        checked.individual[0, label, deviation] += 1e-6

    solved = _watch_checkers(solver, monkeypatch, raise_entry)
    assert solver.find_nash() == []
    assert len(solved) == 1
    assert all(solver.evaluate(m.policy).nash_gap() <= NASH_EPS for m in found)


def test_verify_equilibrium_rejects_a_flip_outside_the_fibre(hybrid_instance,
                                                             shipped_spaces):
    _, scheme = hybrid_instance
    solver = PolicyGameSolver(shipped_spaces[5], scheme)
    member = solver.find_nash()[0].policy
    assert verify_equilibrium(solver, member)
    # the first free entry whose other system leaves the fibre
    n, l = next((n, l) for n, l in solver.positions()
                if solver.rep[n, l, 0] != solver.rep[n, l, 1])
    flipped = with_entry(member, n, l, 1 - member.choice[n][l])
    assert flipped not in solver.fibre(member)
    assert not verify_equilibrium(solver, flipped)


def test_finished_solver_frees_its_chain_tables(hybrid_instance):
    """A space holds its ChainTables, and the tables hold no reference back
    to the space: with the cycle collector off, a solver's tables die as
    soon as the last reference to the solver and its space goes."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    solver = PolicyGameSolver(space, scheme)
    solver.find_nash()
    tables = weakref.ref(solver.tables)
    gc.disable()
    try:
        del space, solver
        assert tables() is None
    finally:
        gc.enable()
