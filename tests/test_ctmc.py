"""Generator construction, steady-state solves and blocking metrics."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hetassoc import (AggregationScheme, Generator, NetworkConfig, Policy,
                      PolicyRule, ResidualError, build_generator, enumerate_states,
                      evaluate_policy, evaluate_rule, per_class_blocking,
                      solve_steady_state)
from hetassoc import cli, ctmc
from hetassoc.ctmc import (BandGenerator, SingularChainError, assemble_dense,
                           chain_tables, stationary_vector)
from hetassoc.game import _solve_pi
from hetassoc.transient import solve_volume_from_matrix

from conftest import (CONFIG_DIR, arrival_mode, assert_matches_reference,
                      erlang_loss_chain, pinned_solve_holds, random_instance,
                      random_policy, reference_generator)


@pytest.fixture
def erlang(erlang_config, erlang_space, erlang_scheme):
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    return erlang_config, erlang_space, erlang_scheme, rule


def test_birth_death_generator(erlang):
    config, space, scheme, rule = erlang
    q = build_generator(space, rule).dense()
    expected = np.array([[-1.0, 1.0, 0.0],
                         [1.0, -2.0, 1.0],
                         [0.0, 2.0, -2.0]])
    assert np.allclose(q, expected)
    assert_matches_reference(q, reference_generator(config, scheme, rule))


def test_erlang_steady_state(erlang):
    _, space, scheme, rule = erlang
    ss = solve_steady_state(build_generator(space, rule))
    assert np.allclose(ss.pi, [0.4, 0.4, 0.2], atol=1e-12)
    assert ss.residual <= 1e-10
    assert evaluate_policy(space, scheme, rule.policy).label_mass[0] == pytest.approx(1.0)


def test_light_traffic_limit(erlang_scheme):
    config = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1e-9,), service_rate=1.0)
    space = enumerate_states(config)
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    ss = solve_steady_state(build_generator(space, rule))
    assert ss.pi[0] == pytest.approx(1.0, abs=1e-8)
    assert evaluate_rule(space, rule).overall_blocking == pytest.approx(0.0, abs=1e-8)


def test_product_form_of_independent_systems(twin_config):
    """Classes that are infeasible outside their own system give a chain that
    factorizes over the systems."""
    space = enumerate_states(twin_config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    # class n to system n at every label
    rule = PolicyRule(Policy(((0,) * 9, (1,) * 9)), scheme)
    ss = solve_steady_state(build_generator(space, rule))

    marginals = []
    for n, lam in enumerate(twin_config.arrival_rate):
        cfg = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                            arrival_rate=(lam,), service_rate=1.0)
        sp = enumerate_states(cfg)
        r = PolicyRule(Policy(((0, 0, 0),)), AggregationScheme(((1.0, 1.0),)))
        marginals.append(solve_steady_state(build_generator(sp, r)).pi)

    for i, occ in enumerate(space.states):
        m0, m1 = occ[0], occ[3]   # class 0 in system 0, class 1 in system 1
        if occ[1] or occ[2]:
            assert ss.pi[i] == pytest.approx(0.0, abs=1e-12)
        else:
            assert ss.pi[i] == pytest.approx(marginals[0][m0] * marginals[1][m1],
                                             abs=1e-10)


def test_redirection_edge():
    """A class pointed at a saturated system is redirected to the open one."""
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    rule = PolicyRule(Policy.constant(1, 9, 0), scheme)  # always prefer system 0
    q = build_generator(space, rule).dense()
    assert_matches_reference(q, reference_generator(config, scheme, rule))
    full0 = space.id_of((2, 0))
    redirected = space.id_of((2, 1))
    assert q[full0, redirected] == pytest.approx(1.0)
    # both saturated: the only outgoing edges are the two departures
    both = space.id_of((2, 2))
    outgoing = {j: q[both, j] for j in range(len(q)) if j != both and q[both, j] != 0}
    assert outgoing == {space.id_of((1, 2)): pytest.approx(2.0),
                        space.id_of((2, 1)): pytest.approx(2.0)}


def test_strict_mode_drops_instead_of_redirecting():
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0, strict_arrivals=True)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    rule = PolicyRule(Policy.constant(1, 9, 0), scheme)
    q = build_generator(space, rule).dense()
    assert_matches_reference(q, reference_generator(config, scheme, rule))
    full0 = space.id_of((2, 0))
    redirected = space.id_of((2, 1))
    assert q[full0, redirected] == 0.0


def test_redirection_conservation():
    """For every state and class, exactly one of (arrival edge exists,
    state is blocking) holds."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        config, space, scheme = random_instance(rng)
        tables = chain_tables(space)
        for n in range(config.num_classes):
            for i in range(space.num_states):
                has_edge = tables.admit_id[n, :, i].max() >= 0
                assert has_edge != tables.blocked[n, i]


def test_blocking_by_label_erlang(erlang):
    _, space, _, rule = erlang
    b = evaluate_rule(space, rule).blocking[0]
    assert b[0] == pytest.approx(0.2, abs=1e-12)


def test_blocking_label_with_only_zero_state():
    config = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme(((0.0, 0.7),))  # empty system reads low, alone
    rule = PolicyRule(Policy(((0, 0, 0),)), scheme)
    b = evaluate_rule(space, rule).blocking[0]
    assert b[0] == 0.0  # label "low" contains only the empty state


def test_blocking_empty_label_flagged(erlang):
    _, space, _, rule = erlang
    scheme = AggregationScheme(((0.0, 0.2),))  # "medium" label gets no state
    ev = evaluate_policy(space, scheme, rule.policy)
    assert ev.empty_labels[1]  # loads are 0, .5, 1
    assert ev.blocking[0, 1] == 0.0


def test_overall_blocking_single_class(erlang):
    _, space, _, rule = erlang
    assert evaluate_rule(space, rule).overall_blocking == pytest.approx(0.2, abs=1e-12)


def test_symmetric_classes_match_pooled_chain():
    """Two identical classes at half rate each block exactly like the pooled
    single-class chain."""
    pooled = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    split = NetworkConfig(peak_rate=((2.0,), (2.0,)), t_min=1.0, t_max=2.0,
                          arrival_rate=(0.5, 0.5), service_rate=1.0)
    scheme1 = AggregationScheme(((1.0, 1.0),))
    space_p = enumerate_states(pooled)
    space_s = enumerate_states(split)
    rule_p = PolicyRule(Policy(((0,) * 3,)), scheme1)
    rule_s = PolicyRule(Policy(((0,) * 3, (0,) * 3)), scheme1)
    b_pooled = evaluate_rule(space_p, rule_p).overall_blocking
    b_split = evaluate_rule(space_s, rule_s).overall_blocking
    assert b_split == pytest.approx(b_pooled, abs=1e-12)
    per = per_class_blocking(space_s, solve_steady_state(build_generator(space_s, rule_s)))
    assert per[0] == pytest.approx(per[1], abs=1e-12)


def test_row_sums_and_residual_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(15):
        config, space, scheme = random_instance(rng)
        rule = PolicyRule(random_policy(rng, config, scheme), scheme)
        gen = build_generator(space, rule)
        assert gen.row_sum_error() <= 1e-12
        ss = solve_steady_state(gen)
        assert ss.residual <= 1e-10
        assert ss.pi.min() >= 0.0
        assert ss.pi.sum() == pytest.approx(1.0, abs=1e-12)


def check_erlang_loss_chain(servers: int, offered: float) -> None:
    """Loss probability against the Erlang-B recursion computed
    independently, and every tagged volume within its bounds."""
    config, space, scheme1, rule = erlang_loss_chain(servers, offered)
    ev = evaluate_rule(space, rule)
    assert ev.residual <= 1e-10

    b = 1.0
    for k in range(1, servers + 1):
        b = offered * b / (k + offered * b)
    assert ev.overall_blocking == pytest.approx(b, rel=1e-8)

    vol = ev.volumes[0, 0]
    finite = ~np.isnan(vol)
    assert finite.sum() == servers
    assert (vol[finite] > 0).all()
    assert (vol[finite] <= config.t_max / config.service_rate + 1e-9).all()


def test_every_pin_failing_raises_a_typed_error(monkeypatch, capsys, tmp_path):
    """The pinned banded LU is the only stationary solve: where every pin
    fails there is no other solve to fall back on, so the library raises
    SingularChainError and the CLI reports it on one line with exit code 1."""
    def no_pin(data, layout, r):
        return np.zeros((len(data), len(layout.order))), np.ones(len(data), dtype=np.int64)

    monkeypatch.setattr(ctmc, "_pinned_lus", no_pin)
    _, space, _, rule = erlang_loss_chain(2, 1.0)
    with pytest.raises(SingularChainError, match="pinned at states"):
        solve_steady_state(build_generator(space, rule))
    config = str(CONFIG_DIR / "erlang_single.json")
    assert cli.main(["steady", "--config", config, "--rule", "policy",
                     "--policy", "0,0,0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("config, choice, expected", [
    (NetworkConfig(peak_rate=((0.5, 0.5),), t_min=1.0, t_max=2.0,
                   arrival_rate=(1.0,), service_rate=1.0),
     [[0]], [1.0]),
    (NetworkConfig(peak_rate=((1.584, 2.722), (2.353, 1.112)), t_min=1.0, t_max=1.078,
                   arrival_rate=(0.089, 2.22), service_rate=0.777, scheduler_gain=(0.6,)),
     [[0, 0, 0, 0], [1, 0, 0, 0]], [1.0, 0.0, 0.0, 0.0]),
], ids=["one-state", "strict-absorbing-empty"])
def test_pin_at_a_state_with_no_way_out_holds(config, choice, expected):
    """A pinned state with no outgoing rate (the only state of a one-state
    chain, or an empty state whose every arrival the strict mode drops)
    still pins: its pin row is scaled to 1 rather than to q_rr = 0."""
    space = arrival_mode(enumerate_states(config), strict=True)
    band = assemble_dense(chain_tables(space), np.array(choice))
    assert pinned_solve_holds(band, band.pins[0])
    pi, _ = stationary_vector(band)
    assert pi == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("servers, offered", [(300, 250.0), (1999, 1900.0),
                                             (1999, 500.0), (1999, 10.0)])
def test_dense_solver_path_matches_erlang_recursion(servers, offered):
    """A banded stationary LU and banded tagged LUs, the largest cases on
    1,999 servers."""
    check_erlang_loss_chain(servers, offered)


@pytest.mark.parametrize("servers, offered, pin", [(2500, 2400.0, "full"),
                                                  (2500, 10.0, "empty"),
                                                  (2500, 2000.0, "third")])
def test_banded_solver_path_matches_erlang_recursion(servers, offered, pin):
    """On 2,500 servers the solves are the same banded LUs as on fewer, on
    the full-state pin under heavy load, the empty-state pin under light
    load, and the third pin where neither end holds enough mass."""
    _, space, _, rule = erlang_loss_chain(servers, offered)
    band = assemble_dense(chain_tables(space), rule.choice_table(space))
    empty, full = band.pins
    assert pinned_solve_holds(band, empty) == (pin == "empty")
    assert pinned_solve_holds(band, full) == (pin == "full")
    check_erlang_loss_chain(servers, offered)


@pytest.mark.parametrize("servers, offered", [(1999, 500.0), (300, 100.0)])
def test_third_pin_solves_mid_load_chains(servers, offered):
    """Under mid load neither the empty nor the full state holds enough
    mass to pin. The third pin, at the heaviest state of the first
    declined solution, must solve the chain."""
    _, space, _, rule = erlang_loss_chain(servers, offered)
    band = assemble_dense(chain_tables(space), rule.choice_table(space))
    assert not any(pinned_solve_holds(band, r) for r in band.pins)
    check_erlang_loss_chain(servers, offered)


def test_banded_solves_match_superlu_reference():
    """A 3-system, 3-class instance with 3,600 states: the banded stationary
    vector and every banded tagged volume agree to 1e-10 relative with
    SuperLU solves of the band copied to CSR (one balance row replaced by
    the normalization) and of its CSR tagged blocks."""
    config = NetworkConfig(peak_rate=((5.4, 9.0, 7.2), (2.7, 4.5, 3.6), (1.35, 2.7, 1.8)),
                           t_min=1.0, t_max=2.0, arrival_rate=(1.0, 1.0, 1.0),
                           service_rate=1.0)
    space = enumerate_states(config)
    assert space.num_states == 3600
    scheme = AggregationScheme.uniform(3, 0.3, 0.7)
    rule = PolicyRule(random_policy(np.random.default_rng(3600), config, scheme), scheme)
    tables = chain_tables(space)
    band = assemble_dense(tables, rule.choice_table(space))
    q = band.tocoo().tocsr()

    a = q.T.tolil()
    a[-1, :] = 1.0
    rhs = np.zeros(space.num_states)
    rhs[-1] = 1.0
    reference = spla.spsolve(a.tocsc(), rhs)
    pi, _ = stationary_vector(band)
    assert np.abs(pi - reference).max() <= 1e-10 * reference.max()

    mu = config.service_rate
    for n in range(config.num_classes):
        for s in range(config.num_systems):
            ids = np.nonzero(tables.occ_ns[n, s] > 0)[0]
            local = np.full(space.num_states, -1)
            local[ids] = np.arange(len(ids))
            rows = np.nonzero(tables.occ_ns[n, s, ids] >= 2)[0]
            cols = local[tables.departure_id[n, s, ids[rows]]]
            own = sp.csr_matrix((np.full(len(rows), mu), (rows, cols)),
                                shape=(len(ids), len(ids)))
            block = q[ids][:, ids] - own
            expected = spla.spsolve(block.tocsc(), -tables.throughput[n, s, ids])
            vol = solve_volume_from_matrix(tables, band, n, s)
            assert np.isnan(np.delete(vol, ids)).all()
            assert np.abs(vol[ids] - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("servers, offered, empty_holds, full_holds", [
    (300, 250.0, False, True), (1999, 1900.0, False, True),
    (1999, 500.0, False, False), (1999, 10.0, True, False), (50, 0.5, True, False)])
def test_each_pin_declines_when_its_state_is_negligible(servers, offered, empty_holds,
                                                        full_holds):
    """The stationary solve pins pi at the empty state, then at the full
    one. A pinned state with negligible mass (the empty one under heavy
    load, the full one under light load) is lost in rounding or lets the
    others overflow, so that pin declines; at 500 Erlangs on 1,999 servers
    both do and a third pin solves the chain. On 50 servers at
    0.5 Erlangs the full-state pin returns a wrong vector whose pinned
    entry looks sound; only the residual check turns it down."""
    _, space, _, rule = erlang_loss_chain(servers, offered)
    band = assemble_dense(chain_tables(space), rule.choice_table(space))
    empty, full = band.pins
    assert space.states[band.order[empty]] == (0,)
    assert space.states[band.order[full]] == (servers,)
    assert pinned_solve_holds(band, empty) == empty_holds
    assert pinned_solve_holds(band, full) == full_holds


def test_nan_generator_is_rejected(erlang_space):
    """A NaN generator solves to an all-NaN vector, which every comparison
    with a tolerance lets through unless written to fail on NaN."""
    plan = chain_tables(erlang_space).solve_plan
    q = BandGenerator(np.full(plan.size, np.nan), plan.width, plan.order, plan.pins)
    with pytest.raises(ResidualError):
        solve_steady_state(Generator(matrix=q))
    with pytest.raises(ResidualError):
        _solve_pi(erlang_space, q)


def test_coo_triplets_only_offdiagonal(erlang):
    _, space, _, rule = erlang
    gen = build_generator(space, rule)
    triplets = list(gen.coo_triplets())
    assert all(r != c for r, c, _ in triplets)
    assert triplets == sorted(triplets)
    assert sum(1 for _ in triplets) == 4
