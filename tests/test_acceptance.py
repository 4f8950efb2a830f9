"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Exact utility and blocking values depend on the configured peak rates, so
acceptance is oracle- and property-based plus qualitative orderings, all
at pinned tolerances.
"""

import functools
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from hetassoc import (AggregationScheme, NetworkConfig, Policy, PolicyRule,
                      build_generator, enumerate_states, evaluate_baseline,
                      load_instance, optimize_thresholds, overall_blocking,
                      per_class_blocking, simulate, solve_steady_state,
                      volume_tables)
from hetassoc.aggregation import label_of
from hetassoc.cli import main as cli_main
from hetassoc.ctmc import chain_tables
from hetassoc.game import PolicyGameSolver
from hetassoc.states import is_feasible, occ_index, user_throughput

from conftest import (CONFIG_DIR, check_departure_closure,
                      check_generator_row_sums, check_label_totality,
                      check_relabel_equivariance, check_steady_residuals,
                      random_instance)


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def shipped():
    return load_instance((CONFIG_DIR / "hybrid_example.json").read_text())


@pytest.fixture(scope="module")
def erlang_rule(erlang_scheme):
    return PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)


# ----- criterion 1: Erlang oracle -----------------------------------------


def test_criterion_1_erlang_oracle(erlang_config, erlang_rule):
    t0 = time.perf_counter()
    space = enumerate_states(erlang_config)
    ss = solve_steady_state(build_generator(space, erlang_rule))
    blocking = overall_blocking(space, ss)
    elapsed = time.perf_counter() - t0
    assert np.abs(ss.pi - np.array([0.4, 0.4, 0.2])).max() <= 1e-10
    assert abs(blocking - 0.2) <= 1e-10
    assert elapsed < 1.0
    _report(1, f"Erlang fixture pi=(0.4,0.4,0.2), blocking=0.2 within 1e-10 "
               f"({elapsed * 1000:.0f} ms)")


# ----- criterion 2: hand-solved transient fixture --------------------------


def test_criterion_2_transient_fixture(erlang_config, erlang_rule):
    space = enumerate_states(erlang_config)
    table = volume_tables(space, erlang_rule, cache=False)
    i1, i2 = table.volumes[0, 0, 1], table.volumes[0, 0, 2]
    assert abs(i1 - 5.0 / 3.0) <= 1e-10
    assert abs(i2 - 4.0 / 3.0) <= 1e-10
    _report(2, "tagged-user volumes I(1)=5/3, I(2)=4/3 within 1e-10 "
               "(hand-solved 2x2 system)")


# ----- criterion 3: Monte Carlo cross-validation ---------------------------


def _two_class_fixture():
    config, scheme = load_instance((CONFIG_DIR / "hybrid_example.json").read_text())
    config = config.scale_traffic(4.0 / config.offered_erlangs)
    # fixed mixed policy: center users avoid a loaded LTE, edge users always
    # ask for LTE (and get redirected when it is full)
    row0 = tuple(1 if (l % 3) == 0 else 0 for l in range(9))
    policy = Policy((row0, (1,) * 9))
    return config, scheme, PolicyRule(policy, scheme)


def test_criterion_3_monte_carlo(erlang_config, erlang_rule):
    """Each fixture's quantities are checked jointly at the 99% level, so
    the individual bands carry a Bonferroni correction for the family
    size."""
    t0 = time.perf_counter()
    checks = 0

    # fixture A: Erlang chain; family of 5 quantities
    level_a = 1.0 - 0.01 / 5
    space = enumerate_states(erlang_config)
    ss = solve_steady_state(build_generator(space, erlang_rule))
    table = volume_tables(space, erlang_rule, cache=False)
    report = simulate(erlang_config, erlang_rule, 1_000_000, seed=2024)
    est, half = report.blocking_estimate(0, level=level_a)
    assert abs(est - 0.2) <= half
    checks += 1
    for occ in ((0,), (1,), (2,)):
        p_est, p_half = report.state_probability_estimate(occ, level=level_a)
        assert abs(p_est - ss.pi[space.id_of(occ)]) <= p_half
        checks += 1
    vol_est, vol_half, count = report.volume_estimate(0, 0, level=level_a)
    analytic = (ss.pi[0] * table.volumes[0, 0, 1] + ss.pi[1] * table.volumes[0, 0, 2]) \
        / (ss.pi[0] + ss.pi[1])
    assert count > 100_000
    assert abs(vol_est - analytic) <= vol_half
    checks += 1

    # fixture B: two systems, two classes, redirection active
    config, scheme, rule = _two_class_fixture()
    space2 = enumerate_states(config)
    ss2 = solve_steady_state(build_generator(space2, rule))
    tables2 = chain_tables(space2)
    vt2 = volume_tables(space2, rule, cache=False)
    report2 = simulate(config, rule, 1_000_000, seed=77)
    analytic_blocking = per_class_blocking(space2, ss2)
    big = [i for i in range(space2.num_states) if ss2.pi[i] >= 0.01]
    assert len(big) >= 10
    level_b = 1.0 - 0.01 / (2 + len(big) + 4)
    for n in range(2):
        est, half = report2.blocking_estimate(n, level=level_b)
        assert abs(est - analytic_blocking[n]) <= half
        checks += 1
    for i in big:
        p_est, p_half = report2.state_probability_estimate(space2.states[i],
                                                           level=level_b)
        assert abs(p_est - ss2.pi[i]) <= p_half, space2.states[i]
        checks += 1
    choice = rule.choice_table(space2)
    for n in range(2):
        for s in range(2):
            joined = tables2.admit_sys[n, choice[n], np.arange(space2.num_states)]
            mask = joined == s
            if ss2.pi[mask].sum() < 1e-6:
                continue
            targets = tables2.admit_id[n, choice[n], np.arange(space2.num_states)]
            analytic_vol = float(
                (ss2.pi[mask] * vt2.volumes[n, s, targets[mask]]).sum()
                / ss2.pi[mask].sum())
            est, half, count = report2.volume_estimate(n, s, level=level_b)
            if count < 1000:
                continue
            assert abs(est - analytic_vol) <= half, (n, s, est, analytic_vol, half)
            checks += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"{checks} analytic quantities inside joint-99% bands over two "
               f"1e6-event simulations ({elapsed:.1f} s)")


# ----- criterion 4: Nash certificate and mode agreement ---------------------


@functools.lru_cache(maxsize=2)
def _oracle_structure(config, scheme) -> SimpleNamespace:
    """Everything the independent check needs that does not depend on the
    policy, built once per config from the primitive model definitions in
    plain loops: the enumerated states, their labels, every arrival outcome
    under every preference, the departure edges and the tagged states with
    their throughputs."""
    space = enumerate_states(config)
    states = space.states
    N, S = config.num_classes, config.num_systems
    labels = [label_of(scheme, config, occ) for occ in states]

    def arrival_outcome(occ, n, pref):
        for s in [pref] + [x for x in range(S) if x != pref]:
            j = occ_index(config, n, s)
            up = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
            if is_feasible(config, up):
                return s, space.id_of(up)
        return None

    # outcome[i][n][pref]: (system joined, state id reached) when a class-n
    # user preferring pref arrives at state i; None when no system admits
    outcome = [[[arrival_outcome(occ, n, pref) for pref in range(S)]
                for n in range(N)] for occ in states]
    # departures[i]: (class, system, users present, state id after one leaves)
    departures = []
    for occ in states:
        edges = []
        for s in range(S):
            for n in range(N):
                j = occ_index(config, n, s)
                if occ[j] > 0:
                    down = occ[:j] + (occ[j] - 1,) + occ[j + 1:]
                    edges.append((n, s, occ[j], space.id_of(down)))
        departures.append(edges)
    tagged, throughput = {}, {}
    for n in range(N):
        for s in range(S):
            j = occ_index(config, n, s)
            tagged[n, s] = [i for i, occ in enumerate(states) if occ[j] > 0]
            throughput[n, s] = [user_throughput(config, states[i], n, s)
                                for i in tagged[n, s]]
    label_states = [[i for i in range(len(states)) if labels[i] == l]
                    for l in range(scheme.label_count)]
    return SimpleNamespace(nst=len(states), labels=labels, outcome=outcome,
                           departures=departures, tagged=tagged,
                           throughput=throughput, label_states=label_states)


def _independent_equilibrium_check(config, scheme, policy: Policy,
                                   eps: float = 1e-9) -> bool:
    """Re-derive the no-profitable-deviation inequality from first
    principles: plain-loop chain construction, a least-squares stationary
    solve and direct evaluation of the conditional deviation payoffs.
    Shares only the primitive model definitions with the library.
    """
    o = _oracle_structure(config, scheme)
    nst, labels, outcome = o.nst, o.labels, o.outcome
    N, S = config.num_classes, config.num_systems
    lam, mu = config.arrival_rate, config.service_rate

    q = np.zeros((nst, nst))
    for i in range(nst):
        for n in range(N):
            joined = outcome[i][n][policy.choice[n][labels[i]]]
            if joined is not None:
                q[i, joined[1]] += lam[n]
        for _, _, count, down in o.departures[i]:
            q[i, down] += count * mu
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))

    # stationary distribution via least squares on the stacked system (a
    # pivoted QR, four times faster at this size than the default SVD)
    a = np.vstack([q.T, np.ones(nst)])
    b = np.zeros(nst + 1)
    b[-1] = 1.0
    pi = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")[0]
    assert np.abs(pi @ q).max() <= 1e-8

    volumes = {}
    for n in range(N):
        for s in range(S):
            tagged = o.tagged[n, s]
            local = {i: k for k, i in enumerate(tagged)}
            m = np.zeros((len(tagged), len(tagged)))
            rhs = -np.array(o.throughput[n, s])
            for k, i in enumerate(tagged):
                for n2 in range(N):
                    joined = outcome[i][n2][policy.choice[n2][labels[i]]]
                    if joined is not None:
                        m[k, local[joined[1]]] += lam[n2]
                for n2, s2, count, down in o.departures[i]:
                    rate = count * mu
                    if (n2, s2) == (n, s):
                        rate = (count - 1) * mu
                    if rate > 0:
                        m[k, local[down]] += rate
                m[k, k] += q[i, i]
            if tagged:
                sol = scipy.linalg.solve(m, rhs)
            volumes[n, s] = {i: sol[k] for k, i in enumerate(tagged)} if tagged else {}

    L = scheme.label_count
    for n in range(N):
        for l in range(L):
            members = o.label_states[l]
            mass = sum(pi[i] for i in members)
            if mass <= 1e-12:
                continue
            payoff = []
            for s in range(S):
                num = 0.0
                for i in members:
                    joined = outcome[i][n][s]
                    if joined is not None:
                        num += pi[i] * volumes[n, joined[0]][joined[1]]
                payoff.append(num / mass)
            if payoff[policy.choice[n][l]] < max(payoff) - eps:
                return False
    return True


def test_criterion_4_nash_certificate(shipped):
    config, scheme = shipped
    t0 = time.perf_counter()
    verified = 0
    per_point = []
    for erl in range(1, 11):
        scaled = config.scale_traffic(erl / config.offered_erlangs)
        space = enumerate_states(scaled)
        solver = PolicyGameSolver(space, scheme)
        equilibria = solver.find_nash("auto", restarts=64, seed=0)
        per_point.append(len(equilibria))
        for ev in equilibria:
            assert _independent_equilibrium_check(scaled, scheme, ev.policy), \
                f"equilibrium failed independent re-verification at {erl} Erlangs"
            verified += 1

    # mode agreement on instances whose canonical policy space fits 2^12
    agreement_cases = 0
    small_schemes = [AggregationScheme.uniform(2, 0.0, 0.0),
                     AggregationScheme.uniform(2, 0.0, 1.0),
                     AggregationScheme.uniform(2, 1.0, 1.0)]
    for erl in (2.0, 5.0):
        scaled = config.scale_traffic(erl / config.offered_erlangs)
        space = enumerate_states(scaled)
        for small in small_schemes:
            solver = PolicyGameSolver(space, small)
            assert solver.policy_space_size() <= 2 ** 12
            exact = solver.find_nash("exhaustive")
            br = solver.find_nash("best_response", restarts=64, seed=0)
            assert [e.policy.choice for e in exact] == [e.policy.choice for e in br]
            agreement_cases += 1
    asym = NetworkConfig(peak_rate=((2.0, 1.6),), t_min=1.0, t_max=2.0,
                         arrival_rate=(1.0,), service_rate=1.0)
    asym_space = enumerate_states(asym)
    solver = PolicyGameSolver(asym_space, AggregationScheme.uniform(2, 0.3, 0.7))
    assert solver.policy_space_size() <= 2 ** 12
    exact = solver.find_nash("exhaustive")
    br = solver.find_nash("best_response", restarts=64, seed=0)
    assert [e.policy.choice for e in exact] == [e.policy.choice for e in br]
    assert len(exact) > 0
    agreement_cases += 1

    elapsed = time.perf_counter() - t0
    _report(4, f"{verified} equilibria re-verified independently over traffic "
               f"1-10 (counts {per_point}); best-response matched exhaustive "
               f"on {agreement_cases} instances <= 2^12 policies ({elapsed:.1f} s)")


def test_independent_check_rejects_a_broken_equilibrium(shipped):
    """The oracle has teeth: flipping one entry of a verified equilibrium to
    a system outside its fibre, so that the flipped group earns less than
    it did and has a profitable way back, is rejected; the unmodified
    equilibrium is accepted."""
    config, scheme = shipped
    scaled = config.scale_traffic(5.0 / config.offered_erlangs)
    solver = PolicyGameSolver(enumerate_states(scaled), scheme)
    equilibrium = solver.find_nash("auto", restarts=64, seed=0)[0]
    policy = equilibrium.policy
    flips = []
    for n, l in solver.positions():
        current = policy.choice[n][l]
        if equilibrium.empty_labels[l]:
            continue
        for s in range(config.num_systems):
            if solver.rep[n, l, s] == solver.rep[n, l, current]:
                continue
            flipped = solver.evaluate(policy.with_entry(n, l, s))
            payoffs = flipped.individual[n, l]
            if (payoffs[s] < equilibrium.individual[n, l, current]
                    and payoffs[s] < np.nanmax(payoffs) - 1e-6):
                flips.append(flipped.policy)
    assert flips
    assert _independent_equilibrium_check(scaled, scheme, policy)
    assert not _independent_equilibrium_check(scaled, scheme, flips[0])


# ----- criterion 5: utility ordering across association schemes ------------


def test_criterion_5_utility_ordering(shipped):
    config, scheme = shipped
    scaled = config.scale_traffic(10.0 / config.offered_erlangs)
    space = enumerate_states(scaled)
    solver = PolicyGameSolver(space, scheme)
    equilibria = solver.find_nash("auto", restarts=64, seed=0)
    assert equilibria, "no equilibrium at the highest traffic point"
    hybrid = max(ev.global_utility for ev in equilibria)
    peak = evaluate_baseline(space, "peak_rate").global_utility
    instant = evaluate_baseline(space, "instantaneous_rate").global_utility
    assert hybrid > peak, (hybrid, peak)
    relation = ">" if hybrid > instant else "<="
    _report(5, f"at 10 Erlangs U(hybrid Nash)={hybrid:.4f} > U(peak)={peak:.4f}; "
               f"hybrid {relation} instantaneous ({instant:.4f}, reported, "
               f"not asserted)")


# ----- criterion 6: threshold-control blocking ordering --------------------


def test_criterion_6_threshold_control(shipped, tmp_path):
    config, _ = shipped
    scaled = config.scale_traffic(2.0 / config.offered_erlangs)
    grid = [AggregationScheme.uniform(2, 0.3, 0.7),
            AggregationScheme.uniform(2, 0.0, 0.0),
            AggregationScheme.uniform(2, 0.2, 0.5)]
    result = optimize_thresholds(scaled, grid, restarts=24, seed=0)
    blockings = [o.blocking for o in result.outcomes if o.blocking is not None]
    assert len(blockings) >= 2
    assert max(blockings) - min(blockings) > 1e-6, "blocking does not vary"
    assert result.best_index is not None
    assert result.best.blocking == min(blockings)

    # determinism: two full CLI control runs produce identical artifacts
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(["control", "--config",
                        str(CONFIG_DIR / "hybrid_example.json"),
                         "--out", str(out), "--traffic", "2:2:1",
                         "--scheme", "0.3,0.7;0.3,0.7",
                         "--scheme", "0,0;0,0",
                         "--scheme", "0.2,0.5;0.2,0.5",
                         "--restarts", "24", "--seed", "0"])
        assert code == 0
        outs.append((out / "control.csv").read_bytes())
    assert outs[0] == outs[1]
    best = result.best
    _report(6, f"control argmin thresholds={best.scheme.thresholds} "
               f"b={best.blocking:.6f} among {len(blockings)} schemes "
               f"(spread {max(blockings) - min(blockings):.2e}); two CLI runs "
               f"byte-identical")


# ----- criterion 7: property suites ----------------------------------------


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90210)
    instances = [random_instance(rng) for _ in range(100)]
    two_sys = [item for item in instances if item[0].num_systems == 2]
    while len(two_sys) < 100:
        item = random_instance(rng)
        if item[0].num_systems == 2:
            two_sys.append(item)

    check_generator_row_sums(instances, np.random.default_rng(1))
    check_steady_residuals(instances, np.random.default_rng(2))
    check_departure_closure(instances)
    check_label_totality(instances)
    check_relabel_equivariance(two_sys, np.random.default_rng(3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, f"5 property families over {len(instances)} instances "
               f"(plus {len(two_sys)} two-system instances for equivariance) "
               f"in {elapsed:.1f} s")
