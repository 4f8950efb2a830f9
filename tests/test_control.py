"""Threshold-control grid search over aggregation schemes."""

import pytest

from hetassoc import (AggregationScheme, ConfigError, NetworkConfig, enumerate_states,
                      load_instance, optimize_thresholds, threshold_lattice)

from conftest import CONFIG_DIR


@pytest.fixture(scope="module")
def shipped():
    config, scheme = load_instance((CONFIG_DIR / "hybrid_example.json").read_text())
    return enumerate_states(config.scale_traffic(2.0)), scheme


def test_grid_of_one_returns_it(shipped):
    space, scheme = shipped
    result = optimize_thresholds(space, [scheme], restarts=12, seed=0)
    assert result.best_index == 0
    assert result.best.scheme == scheme
    assert 0.0 <= result.best.blocking <= 1.0


def test_degenerate_thresholds_block_at_least_as_much(shipped):
    """Collapsing the label information (every loaded system reads high)
    cannot beat the informative thresholds on the shipped instance."""
    space, shipped_scheme = shipped
    degenerate = AggregationScheme.uniform(2, 0.0, 0.0)
    result = optimize_thresholds(space, [shipped_scheme, degenerate],
                                 restarts=16, seed=0)
    shipped_out, degen_out = result.outcomes
    assert shipped_out.blocking is not None and degen_out.blocking is not None
    assert degen_out.blocking >= shipped_out.blocking - 1e-12
    assert result.best_index == 0


def test_argmin_attains_minimum(shipped):
    space, shipped_scheme = shipped
    grid = [shipped_scheme,
            AggregationScheme.uniform(2, 0.0, 0.0),
            AggregationScheme.uniform(2, 0.2, 0.5)]
    result = optimize_thresholds(space, grid, restarts=16, seed=0)
    evaluated = [o.blocking for o in result.outcomes if o.blocking is not None]
    assert result.best.blocking == min(evaluated)
    assert all(o.blocking is None or 0.0 <= o.blocking <= 1.0
               for o in result.outcomes)


def test_no_equilibrium_excluded_from_argmin():
    """A scheme whose game has no pure equilibrium is recorded with a note
    and skipped by the argmin."""
    config = NetworkConfig(peak_rate=((2.0, 1.6),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    # with a single label the uninformed game oscillates and has no pure
    # equilibrium; the informative thresholds stabilize it
    uninformed = AggregationScheme.uniform(2, 1.0, 1.0)
    informative = AggregationScheme.uniform(2, 0.3, 0.7)
    result = optimize_thresholds(enumerate_states(config),
                                 [uninformed, informative], restarts=16, seed=0)
    assert result.outcomes[0].blocking is None
    assert "no pure equilibrium" in result.outcomes[0].note
    assert result.best_index == 1


def test_all_schemes_without_equilibrium_yield_no_argmin():
    config = NetworkConfig(peak_rate=((2.0, 2.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.0,), service_rate=1.0)
    result = optimize_thresholds(enumerate_states(config),
                                 [AggregationScheme.uniform(2, 1.0, 1.0)],
                                 restarts=8, seed=0)
    assert result.best_index is None
    assert result.best is None


def test_selection_rules(shipped):
    space, shipped_scheme = shipped
    by_util = optimize_thresholds(space, [shipped_scheme], restarts=12, seed=0,
                                  selection_rule="max_utility")
    by_block = optimize_thresholds(space, [shipped_scheme], restarts=12, seed=0,
                                   selection_rule="min_blocking")
    out_u, out_b = by_util.outcomes[0], by_block.outcomes[0]
    assert out_u.utility >= out_b.utility - 1e-12
    assert out_b.blocking <= out_u.blocking + 1e-12
    assert out_u.worst_blocking >= out_b.blocking - 1e-12
    with pytest.raises(ValueError):
        optimize_thresholds(space, [shipped_scheme], selection_rule="nonsense")


def test_determinism(shipped):
    space, shipped_scheme = shipped
    grid = [shipped_scheme, AggregationScheme.uniform(2, 0.0, 0.0)]
    a = optimize_thresholds(space, grid, restarts=16, seed=7)
    b = optimize_thresholds(space, grid, restarts=16, seed=7)
    assert [o.blocking for o in a.outcomes] == [o.blocking for o in b.outcomes]
    assert [o.utility for o in a.outcomes] == [o.utility for o in b.outcomes]
    assert a.best_index == b.best_index
    assert [o.count for o in a.outcomes] == [o.count for o in b.outcomes]


def test_threshold_lattice_shape():
    lattice = threshold_lattice(1, step=0.5)
    # ticks 0, .5, 1 -> pairs (0,0),(0,.5),(0,1),(.5,.5),(.5,1),(1,1)
    assert len(lattice) == 6
    lattice2 = threshold_lattice(2, step=0.5)
    assert len(lattice2) == 36
    for scheme in lattice2:
        for lo, hi in scheme.thresholds:
            assert 0.0 <= lo <= hi <= 1.0
    assert len(threshold_lattice(2, 0.1)) == 4_356


@pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
def test_threshold_lattice_rejects_a_step_that_is_not_positive_and_finite(step):
    """A zero, negative, NaN or infinite step gives no lattice: each raises
    a ConfigError that names the step."""
    with pytest.raises(ConfigError, match=f"lattice step .* got {step!r}"):
        threshold_lattice(2, step)


def test_empty_grid_rejected(shipped):
    space, _ = shipped
    with pytest.raises(ValueError):
        optimize_thresholds(space, [])


def _stub_equilibrium_blockings(monkeypatch, blockings):
    """Make every scheme's game return one equilibrium with the next of
    the given blockings."""
    from types import SimpleNamespace

    from hetassoc import control

    values = iter(blockings)

    class StubSolver:
        def __init__(self, *args, **kwargs):
            pass

        def find_nash(self, *args, **kwargs):
            return [SimpleNamespace(overall_blocking=next(values), global_utility=1.0, count=1)]

    monkeypatch.setattr(control, "PolicyGameSolver", StubSolver)


def test_ranking_mismatch_raises_a_typed_error(shipped, monkeypatch):
    """A NaN blocking makes minimizing blocking and maximizing the
    acceptance ratio disagree; that is an error, also under python -O."""
    from hetassoc.control import RankingMismatchError
    _stub_equilibrium_blockings(monkeypatch, [0.5, float("nan")])
    space, scheme = shipped
    with pytest.raises(RankingMismatchError):
        optimize_thresholds(space, [scheme, AggregationScheme.uniform(2, 0.0, 0.0)])


def test_blockings_an_ulp_apart_are_no_mismatch(shipped, monkeypatch):
    """Blockings that differ in the last digit can invert to one acceptance
    ratio (seen with --strict-eq2 --sharing network at 1 Erlang); the
    least-blocking scheme still maximizes the ratio."""
    blockings = [0.06171029556533966, 0.06171029556533967, 0.061710295565339655]
    _stub_equilibrium_blockings(monkeypatch, blockings)
    space, scheme = shipped
    grid = [scheme, AggregationScheme.uniform(2, 0.0, 0.0),
            AggregationScheme.uniform(2, 0.5, 0.9)]
    assert optimize_thresholds(space, grid).best_index == 2
