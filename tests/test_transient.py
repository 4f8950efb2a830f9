"""Absorbing-chain volume solves against hand-computed oracles."""

import dataclasses

import numpy as np
import pytest

from hetassoc import (AggregationScheme, NetworkConfig, Policy, PolicyRule,
                      ResidualError, build_generator, enumerate_states, evaluate_rule)
from hetassoc import transient
from hetassoc.ctmc import ChainTables, assemble_dense, chain_tables
from hetassoc.transient import SingularTaggedChainError, solve_volume_from_matrix

from conftest import (erlang_loss_chain, gathered_tagged_block, random_instance,
                      random_policy, reference_tagged_block, tagged_rows_cols)


@pytest.fixture
def erlang(erlang_config, erlang_space, erlang_scheme):
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    return erlang_config, erlang_space, erlang_scheme, rule


def tagged_block(space, rule, user_class, system):
    """The gathered tagged block of a rule's generator, in ascending id
    order, checked against the entry-by-entry reference."""
    q = build_generator(space, rule).matrix
    ids, block = gathered_tagged_block(space, q, user_class, system)
    ref_ids, reference = reference_tagged_block(space, q.toarray(), user_class, system)
    assert np.array_equal(ids, ref_ids)
    assert np.array_equal(block, reference)
    return ids, block


def arrival_volume(space, volumes, occ, user_class, system):
    """Expected volume of a user who finds the network in occ and joins
    system: the tagged expectation from the post-admission state."""
    target = chain_tables(space).arrival_id[user_class, system, space.id_of(occ)]
    assert target >= 0
    return volumes[user_class, system, target]


def test_tagged_generator_hand_rates(erlang):
    """Tagged chain over {1, 2}: 1->2 at lambda, 2->1 at (2-1) mu, absorption
    mu everywhere, diagonals copied from the original generator."""
    config, space, _, rule = erlang
    ids, m = tagged_block(space, rule, 0, 0)
    assert list(ids) == [1, 2]
    assert m[0, 1] == pytest.approx(1.0)       # another user arrives
    assert m[1, 0] == pytest.approx(1.0)       # the other user leaves
    assert m[0, 0] == pytest.approx(-2.0)
    assert m[1, 1] == pytest.approx(-2.0)
    assert np.allclose(m.sum(axis=1), -config.service_rate)


def test_single_tagged_user_departure_rate_zero(erlang):
    """With M_n^s = 1 the tagged departure rate drops to zero; the only way
    down is absorption."""
    config, space, _, rule = erlang
    _, m = tagged_block(space, rule, 0, 0)
    # from state (1,), no transition to a state without the tagged user
    assert m[0, 0] == pytest.approx(-2.0)
    assert m[0, 1] == pytest.approx(1.0)
    # off-diagonal sum + absorption == -diagonal
    assert m[0, 1] + config.service_rate == pytest.approx(-m[0, 0])


def row_sum_error(space, block) -> float:
    """Deviation of (transient rows + absorption column) from the original
    zero row sums."""
    return float(np.abs(block.sum(axis=1) + space.config.service_rate).max())


def test_row_sums_match_original(erlang):
    _, space, _, rule = erlang
    _, block = tagged_block(space, rule, 0, 0)
    assert row_sum_error(space, block) <= 1e-12


def test_row_sums_match_original_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        config, space, scheme = random_instance(rng)
        rule = PolicyRule(random_policy(rng, config, scheme), scheme)
        for n in range(config.num_classes):
            for s in range(config.num_systems):
                ids, block = tagged_block(space, rule, n, s)
                if len(ids):
                    assert row_sum_error(space, block) <= 1e-10


def test_erlang_volumes_hand_solved(erlang):
    """-2 I(1) + I(2) = -2 and I(1) - 2 I(2) = -1 give I = (5/3, 4/3)."""
    _, space, _, rule = erlang
    vol = evaluate_rule(space, rule).volumes[0, 0]
    assert np.isnan(vol[0])
    assert vol[1] == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert vol[2] == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_zero_arrivals_volume_is_rate_over_mu():
    config = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1e-12,), service_rate=0.5)
    space = enumerate_states(config)
    rule = PolicyRule(Policy(((0, 0, 0),)), AggregationScheme(((1.0, 1.0),)))
    vol = evaluate_rule(space, rule).volumes[0, 0]
    # alone forever: throughput 2 for 1/mu = 2 expected seconds
    assert vol[1] == pytest.approx(2.0 / 0.5, rel=1e-9)


def test_arrival_utility_from_empty(erlang):
    _, space, _, rule = erlang
    volumes = evaluate_rule(space, rule).volumes
    assert arrival_volume(space, volumes, (0,), 0, 0) == pytest.approx(5.0 / 3.0, abs=1e-10)


def test_busier_entry_not_better(erlang):
    _, space, _, rule = erlang
    volumes = evaluate_rule(space, rule).volumes
    assert arrival_volume(space, volumes, (1,), 0, 0) <= \
        arrival_volume(space, volumes, (0,), 0, 0)


def test_first_step_decomposition():
    """I(M) = [t(M) + sum_{M' != M} q(M, M') I(M')] / (-q(M, M)), the
    one-step restatement of the linear system."""
    rng = np.random.default_rng(17)
    for _ in range(8):
        config, space, scheme = random_instance(rng)
        rule = PolicyRule(random_policy(rng, config, scheme), scheme)
        tables = chain_tables(space)
        volumes = evaluate_rule(space, rule).volumes
        for n in range(config.num_classes):
            for s in range(config.num_systems):
                ids, m = tagged_block(space, rule, n, s)
                if not len(ids):
                    continue
                vol = volumes[n, s, ids]
                thr = tables.throughput[n, s, ids]
                for i in range(len(ids)):
                    others = m[i] @ vol - m[i, i] * vol[i]
                    recomposed = (thr[i] + others) / (-m[i, i])
                    assert recomposed == pytest.approx(vol[i], abs=1e-10)


def test_volume_bounds():
    """0 < I <= t_max / mu on every state where the tagged user exists."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        config, space, scheme = random_instance(rng)
        rule = PolicyRule(random_policy(rng, config, scheme), scheme)
        vol = evaluate_rule(space, rule).volumes
        finite = ~np.isnan(vol)
        assert (vol[finite] > 0).all()
        assert (vol[finite] <= config.t_max / config.service_rate + 1e-9).all()


@pytest.fixture
def hybrid_chain(hybrid_instance):
    """Private tables and the band generator of the shipped instance."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    rule = PolicyRule(Policy.constant(config.num_classes, scheme.label_count, 0), scheme)
    tables = ChainTables(space)
    return tables, assemble_dense(tables, rule.choice_table(space))


def test_solve_plan_blocks_are_banded(hybrid_chain):
    """The solve order is a permutation of the states, and every tagged
    block's entries fit the plan's band."""
    tables, _ = hybrid_chain
    plan = tables.solve_plan
    nst = tables.num_states
    assert np.array_equal(np.sort(plan.order), np.arange(nst))
    for row in plan.tagged:
        for tagged in row:
            rows, cols = tagged_rows_cols(tagged)
            assert tagged.kl < len(tagged.ids) and tagged.ku < len(tagged.ids)
            assert ((rows >= 0) & (rows < len(tagged.ids))).all()
            assert (rows - cols).max(initial=0) <= tagged.kl
            assert (cols - rows).max(initial=0) <= tagged.ku


@pytest.mark.parametrize("chain", ["shipped", "erlang-2501"])
def test_corrupted_tagged_solve_raises(chain, request, monkeypatch):
    """On the shipped chain and on a 2,501-state one, both banded, a solve
    thrown off by one part in a million fails its residual check."""
    if chain == "shipped":
        tables, q = request.getfixturevalue("hybrid_chain")
    else:
        _, space, _, rule = erlang_loss_chain(2500, 2000.0)
        tables = ChainTables(space)
        q = assemble_dense(tables, rule.choice_table(space))
    solve_volume_from_matrix(tables, q, 0, 0)
    original = transient._solve_tagged

    def perturbed(*args):
        values, info = original(*args)
        values *= 1.0 + 1e-6
        return values, info

    monkeypatch.setattr(transient, "_solve_tagged", perturbed)
    with pytest.raises(ResidualError):
        solve_volume_from_matrix(tables, q, 0, 0)


def test_tagged_block_missing_an_entry_raises(hybrid_chain):
    """A band gather that misses an entry of the generator solves a wrong
    system; the residual against the full generator catches it."""
    tables, q = hybrid_chain
    plan = tables.solve_plan.tagged[0][0]
    rows, cols = tagged_rows_cols(plan)
    off = np.nonzero((rows != cols) & (q.data.take(plan.src) != 0))[0][0]
    tables.solve_plan.tagged[0][0] = dataclasses.replace(
        plan, src=np.delete(plan.src, off), band=np.delete(plan.band, off))
    with pytest.raises(ResidualError):
        solve_volume_from_matrix(tables, q, 0, 0)


def test_singular_banded_block_raises(hybrid_chain, monkeypatch):
    """A singular tagged LU reports its info, and the solve raises
    SingularTaggedChainError for it."""
    tables, q = hybrid_chain
    plan = tables.solve_plan.tagged[0][0]
    zero = np.zeros(plan.band_shape, order="F")
    _, info = transient._solve_tagged(plan, zero, -plan.rate)
    assert info != 0
    original = transient._solve_tagged
    monkeypatch.setattr(transient, "_solve_tagged",
                        lambda plan, block, rhs: original(plan, block * 0.0, rhs))
    with pytest.raises(SingularTaggedChainError, match="banded LU of the tagged block failed"):
        solve_volume_from_matrix(tables, q, 0, 0)
