"""Randomized property suites over small instances.

Five families, each exercised on at least 100 random instances with S <= 2,
N <= 2 and at most 500 feasible states: zero generator row sums, steady
residuals, departure closure, label-partition totality and relabeling
equivariance of the game layer. Two more families check, under both
sharing scopes and both arrival modes, the tagged-volume solves and the
band generator with its stationary solve. The check bodies live in conftest
so the acceptance suite can time the very same assertions. A last family
checks that every member of a fibre of the policy space evaluates exactly
like its representative, and a reference copy of the per-policy
best-response walk and tie closure checks the fibre-level search. A
reference evaluation solves a policy's own chain through the solver's
uncached path, _solved.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hetassoc import (AggregationScheme, NetworkConfig, Policy, ResidualError, ctmc,
                      enumerate_states, game)
from hetassoc.cli import main as cli_main
from hetassoc.game import (MAX_PATH_STEPS, NASH_EPS, BestResponseStep, PolicyGameSolver,
                           _deviations, ordered_members)

from conftest import (CONFIG_DIR, arrival_mode, check_band_generator, check_departure_closure,
                      check_generator_row_sums, check_label_totality,
                      check_relabel_equivariance, check_steady_residuals,
                      check_tagged_solves, random_instance, random_policy, with_entry)

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
        assert [row for row, _ in ordered_members(exact)] == \
            [row for row, _ in ordered_members(br)]


def _random_member(rng, solver, policy: Policy) -> Policy:
    """A uniformly drawn policy of policy's fibre, structurally empty labels
    included (every system is interchangeable there)."""
    rep = solver.rep
    return Policy(tuple(
        tuple(int(rng.choice(np.flatnonzero(rep[n, l] == rep[n, l, s])))
              for l, s in enumerate(row))
        for n, row in enumerate(policy.choice)))


def _own_chain(solver, policy: Policy):
    """The evaluation of policy's own chain, solved for its row alone and
    reported under it, served by no cache."""
    ev, = solver._solved(solver._policy_rows([policy]))
    return replace(ev, policy=policy)


def _own_payoffs(ev) -> np.ndarray:
    """U[n, l, choice[n][l]]: each group's payoff under its own entry."""
    choice = np.asarray(ev.policy.choice)
    return np.take_along_axis(ev.individual, choice[:, :, None], axis=2)


@pytest.mark.parametrize("strict", [False, True], ids=lambda strict: f"{strict}-redirect")
@pytest.mark.parametrize("scope", ["per_system", "network_wide"])
def test_fibre_members_evaluate_like_their_representative(instances_by_scope, scope,
                                                          strict):
    """Members of one fibre give the representative's pi, payoff table,
    blocking, global utility, Nash gap and own payoffs bit for bit on
    freshly solved chains, and a warm cache reports each member under its
    own policy."""
    rng = np.random.default_rng(31)
    merged = 0
    for config, loose, scheme in instances_by_scope[scope]:
        space = arrival_mode(loose, strict)
        fresh = PolicyGameSolver(space, scheme)
        warm = PolicyGameSolver(space, scheme)
        policy = random_policy(rng, config, scheme)
        rep = Policy(tuple(tuple(int(fresh.rep[n, l, s]) for l, s in enumerate(row))
                           for n, row in enumerate(policy.choice)))
        expected = _own_chain(fresh, rep)
        warm.evaluate(rep)
        for _ in range(3):
            member = _random_member(rng, fresh, policy)
            merged += sum(a != b and not fresh.structurally_empty[l]
                          for row, rrow in zip(member.choice, rep.choice)
                          for l, (a, b) in enumerate(zip(row, rrow)))
            ev = _own_chain(fresh, member)
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


# ----- reference walk: the search one policy at a time ---------------------


def _reference_path(solver, start):
    """Gauss-Seidel best-response dynamics, one Policy per step, every
    payoff read from solver.evaluate."""
    positions = solver.positions()
    if not positions:
        return start, []
    policy = start
    steps = []
    visited = set()
    stale = 0
    ptr = 0
    for _ in range(MAX_PATH_STEPS):
        state_key = (policy.choice, ptr)
        if state_key in visited:
            return None, steps
        visited.add(state_key)
        n, l = positions[ptr]
        ev = solver.evaluate(policy)
        updated = False
        if not ev.empty_labels[l]:
            payoffs = ev.individual[n, l]
            best = int(payoffs.argmax())
            current = policy.choice[n][l]
            if payoffs[best] > payoffs[current] + NASH_EPS:
                steps.append(BestResponseStep(
                    user_class=n, label=l, old_system=current,
                    new_system=best, old_payoff=float(payoffs[current]),
                    new_payoff=float(payoffs[best])))
                policy = with_entry(policy, n, l, best)
                updated = True
        stale = 0 if updated else stale + 1
        if stale >= len(positions):
            return policy, steps
        ptr = (ptr + 1) % len(positions)
    return None, steps


def _reference_ties(solver, candidates):
    """Breadth-first closure of equilibrium candidates under single-entry
    swaps whose payoff is within 2 * NASH_EPS of the entry's best."""
    queue = [p for p in candidates if solver.evaluate(p).nash_gap() <= NASH_EPS]
    seen = {p.choice for p in queue}
    out = list(queue)
    while queue:
        policy = queue.pop()
        ev = solver.evaluate(policy)
        for (n, l) in solver.positions():
            if ev.empty_labels[l]:
                continue
            payoffs = ev.individual[n, l]
            top = payoffs.max()
            for s in range(solver.config.num_systems):
                if s == policy.choice[n][l] or payoffs[s] < top - 2 * NASH_EPS:
                    continue
                neighbor = with_entry(policy, n, l, s)
                if neighbor.choice in seen:
                    continue
                seen.add(neighbor.choice)
                if solver.evaluate(neighbor).nash_gap() <= NASH_EPS:
                    queue.append(neighbor)
                    out.append(neighbor)
    return out


def _canonicalize(solver, policy, evaluation):
    """Pin entries on zero-mass labels to system 0 for reporting."""
    rows = [list(row) for row in policy.choice]
    for l in range(solver.num_labels):
        if evaluation.empty_labels[l]:
            for n in range(solver.config.num_classes):
                rows[n][l] = 0
    return Policy(tuple(tuple(row) for row in rows))


def _starts(solver, restarts, rng) -> list[Policy]:
    """The search's starting rows as policies."""
    return [solver._policy(row) for row in solver._starting_policies(restarts, rng)]


def _reference_equilibria(solver, restarts, seed):
    """Canonical equilibrium set of find_nash("best_response") with the
    reference walk, each member re-checked on a chain solved for it alone."""
    rng = np.random.default_rng(seed)
    candidates = [fixed for start in _starts(solver, restarts, rng)
                  for fixed in [_reference_path(solver, start)[0]]
                  if fixed is not None]
    checker = PolicyGameSolver(solver.space, solver.scheme)
    found = set()
    for policy in _reference_ties(solver, candidates):
        canonical = _canonicalize(solver, policy, solver.evaluate(policy))
        if (canonical.choice not in found and solver.evaluate(canonical).nash_gap() <= NASH_EPS
                and _own_chain(checker, canonical).nash_gap() <= NASH_EPS):
            found.add(canonical.choice)
    return sorted(found)


@pytest.mark.parametrize("strict", [False, True], ids=lambda strict: f"{strict}-redirect")
def test_fibre_search_matches_the_reference_walk(strict):
    """Best-response paths (steps and fixed points, bit for bit) and the
    canonical equilibrium set of find_nash("best_response") agree with the
    per-policy reference walk on random instances."""
    rng = np.random.default_rng(8080)
    walked = tied = 0
    for _ in range(12):
        config, loose, scheme = random_instance(rng)
        space = arrival_mode(loose, strict)
        reference = PolicyGameSolver(space, scheme)
        solver = PolicyGameSolver(space, scheme)
        starts = [random_policy(rng, config, scheme) for _ in range(6)]
        for start in starts:
            expected = _reference_path(reference, start)
            assert solver.best_response_path(start) == expected
            walked += len(expected[1])
        seed = int(rng.integers(1 << 16))
        found = [solver._policy(row).choice for row, _ in
                 ordered_members(solver.find_nash("best_response", restarts=8, seed=seed))]
        expected = _reference_equilibria(reference, restarts=8, seed=seed)
        tied += len(found) > 1
        assert found == expected
    # the comparison covered real steps and real tie families
    assert walked >= 100
    assert tied >= 2


@pytest.mark.parametrize("erlangs", [5, 10])
def test_tie_closure_matches_the_reference_walk_on_the_shipped_instance(hybrid_instance,
                                                                        erlangs):
    """The fibre closure returns exactly the policies the reference walk
    reaches, each once, though several restarts end at the same fixed
    point (restart seed 3)."""
    config, scheme = hybrid_instance
    space = enumerate_states(config.scale_traffic(erlangs / config.offered_erlangs))
    solver = PolicyGameSolver(space, scheme)
    candidates = solver._best_response_candidates(restarts=64, seed=3)
    assert len({tuple(c) for c in candidates}) < len(candidates)
    keys = solver._expand_ties(candidates)
    assert len(keys) == len(set(keys))
    ties = [tuple(row) for key in keys for row in solver._members(key).tolist()]
    reached = _reference_ties(PolicyGameSolver(space, scheme),
                              [solver._policy(c) for c in candidates])
    assert len(ties) == len(set(ties)) == 128
    assert set(ties) == {p.flatten() for p in reached}


def _three_system_instance(rng):
    """Small random instance with three systems and two classes."""
    while True:
        peak = tuple(tuple(float(np.round(rng.uniform(0.6, 6.0), 3)) for _ in range(3))
                     for _ in range(2))
        config = NetworkConfig(peak_rate=peak, t_min=1.0,
                               t_max=float(np.round(rng.uniform(1.0, 2.0), 3)),
                               arrival_rate=(1.0, 0.8), service_rate=1.0)
        try:
            space = enumerate_states(config, max_states=300)
        except Exception:
            continue
        return config, space, AggregationScheme.uniform(3, 0.5, 0.5)


def _reference_rep(solver) -> np.ndarray:
    """rep[n, l, s] from the three arrays the evaluation gathers through a
    choice: the lowest system t that puts, at every state of label l, the
    same arrival band position, arrival rate and outcome index for class n
    as s does; 0 on a label without states."""
    tables = solver.tables
    arrays = (*tables.solve_plan.arrivals, ctmc._outcome_index(tables))
    N, S, L = solver.config.num_classes, solver.config.num_systems, solver.num_labels
    rep = np.zeros((N, L, S), dtype=np.int64)
    for n in range(N):
        for l in range(L):
            states = np.flatnonzero(solver.labels == l)
            for s in range(S):
                rep[n, l, s] = next(t for t in range(S) if all(
                    np.array_equal(a[n, t, states], a[n, s, states]) for a in arrays))
    return rep


@pytest.mark.parametrize("strict", [False, True], ids=lambda strict: f"{strict}-redirect")
@pytest.mark.parametrize("scope", ["per_system", "network_wide"])
def test_rep_matches_the_gathered_arrays_reference(hybrid_instance, scope, strict):
    """rep, read off the admitted-system table alone, equals the rep of the
    arrays the evaluation gathers through a choice, on the shipped
    instance and on random three-system instances."""
    config, scheme = hybrid_instance
    cases = [(config, scheme)]
    rng = np.random.default_rng(9090)
    for _ in range(3):
        three, _, uniform = _three_system_instance(rng)
        cases.append((three, uniform))
    merged = 0
    for config, scheme in cases:
        space = arrival_mode(enumerate_states(config.with_sharing_scope(scope)), strict)
        solver = PolicyGameSolver(space, scheme)
        assert np.array_equal(solver.rep, _reference_rep(solver))
        moved = solver.rep != np.arange(config.num_systems)
        merged += int(moved[:, ~solver.structurally_empty].sum())
    # systems are interchangeable on some labels with states
    assert merged > 0


@pytest.mark.parametrize("strict", [False, True], ids=lambda strict: f"{strict}-redirect")
def test_three_system_paths_match_the_reference_walk(strict):
    """With three systems, best-response paths match the reference walk
    step for step."""
    rng = np.random.default_rng(9090)
    walked = 0
    for _ in range(3):
        config, loose, scheme = _three_system_instance(rng)
        space = arrival_mode(loose, strict)
        reference = PolicyGameSolver(space, scheme)
        solver = PolicyGameSolver(space, scheme)
        for _ in range(3):
            start = random_policy(rng, config, scheme)
            expected = _reference_path(reference, start)
            assert solver.best_response_path(start) == expected
            walked += len(expected[1])
    assert walked >= 30


def test_paths_cut_by_the_step_budget_match_the_reference_walk(hybrid_instance, monkeypatch):
    """The walk counts the positions it jumps over as steps: with the step
    budget cut short, each path stops, or runs out, at the step where the
    reference walk, which visits every position, does, with the same steps
    recorded (shipped instance at 1, 5 and 10 Erlangs)."""
    rng = np.random.default_rng(4242)
    cases = []
    for erlangs in (1, 5, 10):
        space, scheme = _shipped_space(hybrid_instance, erlangs)
        solver = PolicyGameSolver(space, scheme)
        cases += [(solver, random_policy(rng, space.config, scheme)) for _ in range(3)]
    ends = {}
    for budget in range(1, 41):
        monkeypatch.setattr(game, "MAX_PATH_STEPS", budget)
        monkeypatch.setattr(sys.modules[__name__], "MAX_PATH_STEPS", budget)
        for solver, start in cases:
            expected = _reference_path(solver, start)
            assert solver.best_response_path(start) == expected
            ends.setdefault(budget, set()).add(expected[0] is None)
    # with the smallest budget every path runs out; some budgets end some
    # paths inside and leave others running
    assert ends[1] == {True}
    assert any(ends[budget] == {True, False} for budget in ends)


# ----- lockstep: every restart's path advanced together --------------------


def _shipped_space(hybrid_instance, erlangs):
    config, scheme = hybrid_instance
    return enumerate_states(config.scale_traffic(erlangs / config.offered_erlangs)), scheme


def _solved_keys(solver, monkeypatch) -> list[tuple]:
    """The fibre key of every policy the solver itself solves, in order."""
    keys = []
    chunk = solver._evaluate_chunk

    def watch(rows):
        keys.extend(solver._keys(rows))
        return chunk(rows)

    monkeypatch.setattr(solver, "_evaluate_chunk", watch)
    return keys


@pytest.mark.parametrize("strict, whole_chunks", [
    (False, True), (True, True), (False, False), (True, False)],
    ids=["False-redirect-True", "True-redirect-True", "False-redirect-False",
         "True-redirect-False"])
@pytest.mark.parametrize("instance", ["shipped-1", "shipped-5", "shipped-10", "three-system"])
def test_lockstep_matches_one_path_at_a_time(hybrid_instance, monkeypatch, instance, strict,
                                             whole_chunks):
    """The restarts advanced in lockstep end where each path ends alone on
    a fresh solver, in start order with cycles dropped, and no fibre is
    solved twice. With redirected arrivals, every path of the shipped
    instance cycles at 1 Erlang and several end at 5 and 10 Erlangs.
    Without whole chunks every fibre is solved in a chunk of one, and the
    paths end where they end with a round's fibres solved together."""
    if not whole_chunks:
        monkeypatch.setattr(ctmc, "CHUNK_BYTES", 0)
    if instance == "three-system":
        rng = np.random.default_rng(6161)
        cases = [(*_three_system_instance(rng)[1:], 8) for _ in range(2)]
    else:
        cases = [(*_shipped_space(hybrid_instance, int(instance.split("-")[1])), 24)]
    for loose, scheme, restarts in cases:
        space = arrival_mode(loose, strict)
        solver = PolicyGameSolver(space, scheme)
        assert (solver.chunk == 1) != whole_chunks
        solved = _solved_keys(solver, monkeypatch)
        candidates = solver._best_response_candidates(restarts=restarts, seed=11)
        reference = PolicyGameSolver(space, scheme)
        starts = _starts(reference, restarts, np.random.default_rng(11))
        expected = [reference.best_response_path(start)[0] for start in starts]
        assert candidates == [list(policy.flatten()) for policy in expected
                              if policy is not None]
        assert len(solved) == len(set(solved)) == len(solver._cache)
        if instance == "shipped-1" and not strict:
            assert candidates == []
        elif instance.startswith("shipped") and not strict:
            assert len(candidates) > 1


def test_failing_solve_in_a_lockstep_round_builds_no_table(hybrid_instance, monkeypatch):
    """A fibre first needed after the start round fails its solve: the
    search raises the error its evaluation raises alone, and that fibre
    is not cached, though the start round's fibres are."""
    space, scheme = _shipped_space(hybrid_instance, 5)
    spy = PolicyGameSolver(space, scheme)
    solved = _solved_keys(spy, monkeypatch)
    spy._best_response_candidates(restarts=64, seed=0)
    start_keys = set(spy._keys(spy._starting_policies(64, np.random.default_rng(0))))
    poisoned = next(key for key in solved if key not in start_keys)

    solver = PolicyGameSolver(space, scheme)
    chunk = solver._evaluate_chunk

    def evaluate_chunk(rows):
        if poisoned in solver._keys(rows):
            raise ResidualError(f"poisoned fibre {poisoned}")
        return chunk(rows)

    monkeypatch.setattr(solver, "_evaluate_chunk", evaluate_chunk)
    with pytest.raises(ResidualError) as alone:
        solver.evaluate(solver._policy(poisoned))
    with pytest.raises(ResidualError) as searched:
        solver._best_response_candidates(restarts=64, seed=0)
    assert str(searched.value) == str(alone.value)
    assert poisoned not in solver._cache
    assert start_keys <= set(solver._cache)


@pytest.mark.parametrize("instance", ["shipped-5", "three-system"])
def test_cached_gap_is_every_members_gap(hybrid_instance, instance):
    """After a best-response search, the Nash gap and the best responses
    cached with each fibre's evaluation are, bit for bit, the gap, the
    argmax of each entry's payoff row and the movers recomputed from its
    table under the own choice of every member of the fibre."""
    if instance == "shipped-5":
        space, scheme = _shipped_space(hybrid_instance, 5)
    else:
        # the third instance of the lockstep test's draws. The closure on
        # the first reaches 1,024 fibres holding 6,377,292 member policies,
        # which this test would expand into rows one fibre at a time (see
        # test_tie_family_is_counted_not_expanded)
        rng = np.random.default_rng(6161)
        for _ in range(3):
            _, space, scheme = _three_system_instance(rng)
    solver = PolicyGameSolver(space, scheme)
    solver.find_nash("best_response", restarts=16, seed=0)
    entries = list(solver._entries)
    members = 0
    for key, ev in solver._cache.items():
        rows = solver._members(key)
        B = len(rows)
        recomputed, _, _ = _deviations(np.broadcast_to(ev.individual, (B, *ev.individual.shape)),
                                       rows, np.broadcast_to(ev.empty_labels,
                                                             (B, solver.num_labels)))
        assert recomputed.tobytes() == np.full(B, ev.gap).tobytes()
        # each flat entry's payoff row, and the rows a member's own choice reads
        payoffs = ev.individual.reshape(rows.shape[1], -1)
        assert ev.best == payoffs.argmax(axis=1).tolist()
        top = payoffs.max(axis=1)
        own = payoffs[np.arange(rows.shape[1]), rows]
        moves = (top > own + NASH_EPS) & ~np.tile(ev.empty_labels, solver.config.num_classes)
        for moved in moves[:, entries]:
            assert ev.movers == np.flatnonzero(moved).tolist()
        members += B
    # fibres with several members, and gaps on both sides of zero
    assert members > 2 * len(solver._cache)
    gaps = [ev.gap for ev in solver._cache.values()]
    assert min(gaps) <= NASH_EPS < max(gaps)


def _built_policies(monkeypatch) -> list[tuple]:
    """The choice of every Policy constructed from here on, in order."""
    built = []
    init = Policy.__post_init__

    def counted(policy):
        built.append(policy.choice)
        init(policy)

    monkeypatch.setattr(Policy, "__post_init__", counted)
    return built


def test_search_builds_a_policy_only_per_reported_equilibrium(hybrid_instance, monkeypatch):
    """A best-response search at 5 Erlangs constructs one Policy per
    equilibrium fibre it reports, its smallest member, and no other,
    though the fibre holds 128 member policies."""
    space, scheme = _shipped_space(hybrid_instance, 5)
    solver = PolicyGameSolver(space, scheme)
    built = _built_policies(monkeypatch)
    found = solver.find_nash("best_response", restarts=64, seed=0)
    assert sum(fibre.count for fibre in found) == 128
    assert len(built) == len(found)
    assert built == [fibre.policy.choice for fibre in found]


def test_coordinate_ascent_builds_one_policy(hybrid_instance, monkeypatch):
    """Coordinate ascent at 5 Erlangs with 16 restarts constructs one
    Policy, the one it reports, though it evaluates hundreds of trials."""
    space, scheme = _shipped_space(hybrid_instance, 5)
    solver = PolicyGameSolver(space, scheme)
    built = _built_policies(monkeypatch)
    result = solver.optimal_policy(method="search", restarts=16, seed=0)
    assert result.policies_evaluated > 100
    assert built == [result.policy.choice]
    assert result.ties == [result.policy] and result.evaluation.policy is result.policy


def test_tie_family_is_counted_not_expanded(monkeypatch):
    """On the first three-system draw, the tie closure reaches 1,024
    fibres holding 6,377,292 member policies: find_nash reports them as
    fibres within 5 s, counting the members and building one Policy per
    fibre, its smallest member."""
    _, space, scheme = _three_system_instance(np.random.default_rng(6161))
    solver = PolicyGameSolver(space, scheme)
    built = _built_policies(monkeypatch)
    began = time.perf_counter()
    found = solver.find_nash("best_response", restarts=16, seed=0)
    assert time.perf_counter() - began < 5.0
    assert sum(fibre.count for fibre in found) == 6_377_292
    assert len(found) == 1_024
    assert built == [fibre.policy.choice for fibre in found]
    # the smallest member is each fibre's first row, and the fibres are in
    # the order of their smallest members
    assert all(next(fibre.rows()) == fibre.policy.flatten() for fibre in found)
    smallest = [fibre.policy.flatten() for fibre in found]
    assert smallest == sorted(smallest)


def test_sweep_builds_at_most_one_policy_per_traffic_point(monkeypatch, tmp_path):
    """A seed-0 sweep over 1-10 Erlangs reports its equilibria as fibres,
    one per point where any exists, and builds one Policy per fibre
    reported."""
    built = _built_policies(monkeypatch)
    assert cli_main(["sweep", "--config", str(CONFIG_DIR / "hybrid_example.json"),
                     "--traffic", "1:10:1", "--analyses", "nash,baselines", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    assert 0 < len(built) <= 10


def _scalar_starts(solver, restarts, rng):
    """_starting_policies with one scalar draw per free entry."""
    S = solver.config.num_systems
    N, L = solver.config.num_classes, solver.num_labels
    starts = [Policy.constant(N, L, s) for s in range(S)]
    while len(starts) < restarts:
        rows = [[0] * L for _ in range(N)]
        for n, l in solver.positions():
            rows[n][l] = int(rng.integers(S))
        starts.append(Policy(tuple(tuple(row) for row in rows)))
    return starts[:restarts]


@pytest.mark.parametrize("systems", [2, 3])
def test_starts_match_per_row_draws(hybrid_instance, systems):
    """The random starts, drawn in one call, are the rows one draw per
    start gives, and leave the generator where those draws leave it, for
    restart seeds 0-7."""
    if systems == 2:
        space, scheme = _shipped_space(hybrid_instance, 5)
    else:
        _, space, scheme = _three_system_instance(np.random.default_rng(9090))
    solver = PolicyGameSolver(space, scheme)
    S, entries = solver.config.num_systems, list(solver._entries)
    for seed in range(8):
        rng, per_row = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = solver._starting_policies(64, rng)
        rows = [per_row.integers(S, size=len(entries)) for _ in range(64 - S)]
        assert np.array_equal(drawn[S:, entries], rows)
        assert rng.integers(1 << 62) == per_row.integers(1 << 62)


@pytest.mark.parametrize("systems", [2, 3])
def test_starts_match_scalar_draws(hybrid_instance, systems):
    """Each random start's entries, drawn in one call, are the ones one
    scalar draw per entry gives, for restart seeds 0-7."""
    if systems == 2:
        space, scheme = _shipped_space(hybrid_instance, 5)
    else:
        _, space, scheme = _three_system_instance(np.random.default_rng(9090))
    solver = PolicyGameSolver(space, scheme)
    assert solver.config.num_systems == systems and solver.positions()
    for seed in range(8):
        drawn = _starts(solver, 64, np.random.default_rng(seed))
        assert drawn == _scalar_starts(solver, 64, np.random.default_rng(seed))
        assert len(set(drawn)) > 60
