"""Chunked evaluation: a chunk of policies, solved together, gives every
policy the bits it gets alone, and a failure inside a chunk raises what
one-at-a-time evaluation raises."""

import dataclasses

import numpy as np
import pytest

from hetassoc import ResidualError, SingularChainError, ctmc, enumerate_states, transient
from hetassoc.config import NetworkConfig
from hetassoc.ctmc import (BandGenerator, assemble_dense, assemble_stack, chain_tables,
                           stationary_vector, stationary_vectors)
from hetassoc.game import (ChainEvaluation, PolicyEvaluation, PolicyGameSolver, _ChainCore,
                           _evaluate_chain, evaluate_baseline, nash_gaps)
from hetassoc.rules import InstantaneousRateRule, PeakRateRule
from hetassoc.transient import TaggedGroup, tagged_volumes

from conftest import erlang_loss_chain, pinned_solve_holds, random_instance, random_policy


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(1313)
    return [random_instance(rng) for _ in range(14)]


def bits(value) -> bytes:
    """The bytes of a field, dtype and shape included; policies and rules
    by their repr."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype, value.shape)).encode() + value.tobytes()
    if isinstance(value, (float, np.floating)):
        return repr(type(value)).encode() + np.float64(value).tobytes()
    return repr(value).encode()


def assert_same_bits(a: ChainEvaluation, b: ChainEvaluation) -> None:
    for f in dataclasses.fields(a):
        assert bits(getattr(a, f.name)) == bits(getattr(b, f.name)), f.name


def _budget(monkeypatch, space, budget: str) -> None:
    plan = chain_tables(space).solve_plan
    smallest = min(8 * t.band_size for row in plan.tagged for t in row if len(t.ids))
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", {
        "below-one-band": smallest - 1,
        "uneven": 3 * plan.policy_bytes,
        "default": ctmc.CHUNK_BYTES,
    }[budget])


@pytest.mark.parametrize("budget", ["below-one-band", "uneven", "default"])
@pytest.mark.parametrize("mode", ["redirect", "exclude"])
@pytest.mark.parametrize("strict", [False, True])
def test_evaluate_many_matches_one_at_a_time(instances, monkeypatch, budget, mode, strict):
    """Every field of every PolicyEvaluation, and the Nash gaps, come out
    of evaluate_many bit for bit as from a chunk of one: with chunks of
    one, with chunks of 3 over 10 policies, and at the default budget."""
    rng = np.random.default_rng(99)
    chunks = set()
    for config, space, scheme in instances:
        _budget(monkeypatch, space, budget)
        options = dict(strict_arrivals=strict, deviation_payoff=mode)
        solver = PolicyGameSolver(space, scheme, use_cache=False, **options)
        alone = PolicyGameSolver(space, scheme, use_cache=False, **options)
        policies = [random_policy(rng, config, scheme) for _ in range(10)]
        many = solver.evaluate_many(policies)
        for policy, ev in zip(policies, many):
            assert ev.policy == policy
            assert_same_bits(ev, alone._evaluate(policy))
        assert bits(nash_gaps(many)) == bits(np.array([ev.nash_gap() for ev in many]))
        chunks.add(solver.chunk)
    assert chunks == {1} if budget == "below-one-band" else \
        chunks == {3} if budget == "uneven" else max(chunks) > 3


def test_cached_evaluate_many_serves_like_evaluate(hybrid_instance):
    """With the cache on, evaluate_many solves one policy per missing fibre
    and reports every member under its own policy, as evaluate does."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    rng = np.random.default_rng(5)
    many = PolicyGameSolver(space, scheme)
    one = PolicyGameSolver(space, scheme)
    policies = [random_policy(rng, config, scheme) for _ in range(30)]
    policies += [many.fibre(p)[-1] for p in policies[:10]]
    for policy, ev in zip(policies, many.evaluate_many(policies)):
        expected = one.evaluate(policy)
        assert ev.policy == policy
        assert_same_bits(ev, expected)
    assert len(many._cache) == len(one._cache)


@pytest.mark.parametrize("strict", [False, True])
def test_baselines_keep_their_bits_inside_a_chunk(instances, strict):
    """A baseline's choice table solved in a chunk among random tables gives
    the bits evaluate_baseline gives it alone."""
    rng = np.random.default_rng(17)
    for config, space, scheme in instances[:8]:
        tables = chain_tables(space)
        for which, rule in (("peak_rate", PeakRateRule()),
                            ("instantaneous_rate", InstantaneousRateRule())):
            alone = evaluate_baseline(space, which, strict_arrivals=strict)
            others = rng.integers(config.num_systems,
                                  size=(3, config.num_classes, space.num_states))
            choices = np.concatenate([others[:2], rule.choice_table(space)[None], others[2:]])
            core = _ChainCore(tables, *rule.information_partition(space), strict, chunk=4)
            chunk = _evaluate_chain(core, choices)
            assert_same_bits(chunk.evaluations[2], ChainEvaluation(**{
                f.name: getattr(alone, f.name) for f in dataclasses.fields(ChainEvaluation)}))


def _erlang_data(servers: int, offered: float):
    _, space, _, rule = erlang_loss_chain(servers, offered)
    tables = chain_tables(space)
    return tables.solve_plan, assemble_stack(tables, rule.choice_table(space)[None])[0]


def test_declined_first_pin_inside_a_chunk_gets_the_lone_pi():
    """On 300 servers at 250 Erlangs the empty-state pin declines; stacked
    between two light-load chains of the same layout, that chain goes on
    alone through the remaining pins and gets stationary_vector's pi and
    residual, bit for bit, and so do its neighbours."""
    plan, heavy = _erlang_data(300, 250.0)
    light_plan, light = _erlang_data(300, 10.0)
    assert np.array_equal(plan.order, light_plan.order) and plan.pins == light_plan.pins
    gens = [BandGenerator(d, plan.width, plan.order, plan.pins) for d in (light, heavy)]
    assert not pinned_solve_holds(gens[1], plan.pins[0])
    assert pinned_solve_holds(gens[0], plan.pins[0])
    pi, residual = stationary_vectors(np.stack([light, heavy, light]), plan)
    for row, gen in zip(range(3), (gens[0], gens[1], gens[0])):
        alone, alone_residual = stationary_vector(gen)
        assert bits(pi[row]) == bits(alone)
        assert residual[row] == alone_residual


def test_corrupted_tagged_src_raises_from_the_chunked_check(hybrid_instance):
    """A tagged block whose gather reads one entry from the wrong slot
    solves a wrong system; the stacked residual check against the full
    generators raises ResidualError, in a chunk and alone."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    tables = chain_tables(space)
    plan = tables.solve_plan.tagged[0][0]
    data = assemble_stack(tables, np.zeros((3, config.num_classes, space.num_states), int))
    off = np.nonzero((plan.rows != plan.cols) & (data[0].take(plan.src) != 0))[0][0]
    src = plan.src.copy()
    src[off] = 0
    tables.solve_plan.tagged[0][0] = dataclasses.replace(plan, src=src)
    with pytest.raises(ResidualError, match="tagged residual"):
        tagged_volumes(tables, data)
    solver = PolicyGameSolver(space, scheme)
    assert solver.chunk > 1
    rng = np.random.default_rng(0)
    with pytest.raises(ResidualError, match="tagged residual"):
        solver.evaluate_many([random_policy(rng, config, scheme) for _ in range(5)])


def test_failing_policy_raises_the_one_at_a_time_error(hybrid_instance, monkeypatch):
    """Policy 3 of a chunk fails its tagged check and policy 5 every
    stationary pin. One at a time, policy 3 raises first; the chunk raises
    the same error, and caches what one-at-a-time evaluation cached before
    it."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    tables = chain_tables(space)
    solver = PolicyGameSolver(space, scheme)
    rng = np.random.default_rng(8)
    policies = [random_policy(rng, config, scheme) for _ in range(8)]
    keys = [solver._fibre_key(p) for p in policies]
    assert len(set(keys)) == len(keys)

    def data_of(policy):
        return assemble_dense(tables, np.asarray(policy.choice)[:, solver.labels]).data

    nonempty = [p for row in tables.solve_plan.tagged for p in row if len(p.ids)]

    def bands_of(policy):
        return [transient._tagged_matrix(data_of(policy)[None],
                                         TaggedGroup([(0, p)], space.num_states),
                                         config.service_rate)[0] for p in nonempty]

    # a block of policy 3 and a generator of policy 5 that no other policy has
    bands = [bands_of(p) for p in policies]
    k = next(k for k in range(len(nonempty))
             if not any(np.array_equal(bands[3][k], other[k]) for other in bands[:3] + bands[4:]))
    poisoned = bands[3][k]
    bad_pi = data_of(policies[5])
    assert not any(np.array_equal(bad_pi, data_of(p)) for p in policies[:5] + policies[6:])
    solve, lus, lu = transient._solve_tagged, ctmc._pinned_lus, ctmc._pinned_lu

    def solve_tagged(plan, block, rhs):
        hit = block.size == poisoned.size and np.array_equal(block.ravel(order="F"), poisoned)
        values = solve(plan, block, rhs)
        return values * (1 + 1e-6) if hit else values

    def pinned_lus(data, layout, r):
        x, info = lus(data, layout, r)
        info[[np.array_equal(row, bad_pi) for row in data]] = 1
        return x, info

    def pinned_lu(gen, r):
        if np.array_equal(gen.data, bad_pi):
            raise SingularChainError("pinned banded LU failed (info 1)")
        return lu(gen, r)

    monkeypatch.setattr(transient, "_solve_tagged", solve_tagged)
    monkeypatch.setattr(ctmc, "_pinned_lus", pinned_lus)
    monkeypatch.setattr(ctmc, "_pinned_lu", pinned_lu)

    one = PolicyGameSolver(space, scheme)
    with pytest.raises(ResidualError) as alone:
        for policy in policies:
            one.evaluate(policy)
    with pytest.raises(SingularChainError):
        one.evaluate(policies[5])
    with pytest.raises(ResidualError) as chunked:
        solver.evaluate_many(policies)
    assert str(chunked.value) == str(alone.value)
    assert list(solver._cache) == list(one._cache) == keys[:3]


def test_tagged_blocks_go_one_at_a_time_past_the_budget(monkeypatch):
    """The blocks of a stack are gathered together while their bands fit in
    CHUNK_BYTES and one by one past it; a policy chunk never holds more
    than the budget, and always at least one policy."""
    config = NetworkConfig(peak_rate=((5.4, 9.0, 7.2), (2.7, 4.5, 3.6)),
                           t_min=1.0, t_max=2.0, arrival_rate=(1.0, 1.0), service_rate=1.0)
    plan = chain_tables(enumerate_states(config)).solve_plan
    blocks = sum(1 for row in plan.tagged for t in row if len(t.ids))
    assert blocks > 1
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", 3 * plan.policy_bytes - 1)
    assert plan.chunk_size() == 2
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", plan.tagged_bytes)
    assert len(plan.tagged_groups(1)) == 1
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", plan.tagged_bytes - 1)
    assert len(plan.tagged_groups(1)) == blocks
    assert plan.chunk_size() == 1
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", 2 * plan.tagged_bytes)
    assert [len(plan.tagged_groups(b)) for b in (1, 2, 3)] == [1, 1, blocks]


def test_scans_take_chunks_through_evaluate_many(hybrid_instance, monkeypatch):
    """Both exhaustive scans solve their fibres through evaluate_many, in
    chunks of at most solver.chunk policies."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    sizes = []
    solver = PolicyGameSolver(space, scheme)
    chunk = solver._evaluate_chunk

    def watch(policies):
        sizes.append(len(policies))
        return chunk(policies)

    monkeypatch.setattr(solver, "_evaluate_chunk", watch)
    solver.find_nash("exhaustive")
    fibres = sum(1 for _ in solver.representatives())
    assert max(sizes) == solver.chunk > 1
    assert sum(sizes) >= fibres
    sizes.clear()
    solver.optimal_policy(method="exhaustive", cap=solver.policy_space_size())
    assert sizes == []                 # every fibre is cached by now
    assert isinstance(solver.evaluate(next(solver.representatives())), PolicyEvaluation)
