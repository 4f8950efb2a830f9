"""Discrete-event simulator against the analytic chain (and itself)."""

import json
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hetassoc import (AggregationScheme, NetworkConfig, Policy, PolicyRule,
                      build_generator, enumerate_states, evaluate_rule, simulate,
                      solve_steady_state)
from hetassoc.config import NETWORK_WIDE, PER_SYSTEM
from hetassoc.rules import InstantaneousRateRule, PeakRateRule
from hetassoc.simulate import CI_LEVEL, T_TABLE, T_TABLE_FIRST_DF, SimReport, _Tallies

from conftest import (entry_volume_estimate, random_policy, state_id, state_ids,
                      state_probability_estimate)

GOLDEN = Path(__file__).parent / "data" / "simulate_golden.json"

EVENTS = 120_000


@pytest.fixture(scope="module")
def erlang_run(erlang_config, erlang_scheme):
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    report = simulate(erlang_config, rule, EVENTS, seed=42)
    return erlang_config, rule, report


def test_short_horizon_warns(erlang_config, erlang_scheme):
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    with pytest.warns(UserWarning, match="confidence"):
        simulate(erlang_config, rule, 30_000, seed=1)


def test_blocking_matches_erlang_b(erlang_run):
    _, _, report = erlang_run
    est, half = report.blocking_estimate(0)
    assert half < 0.02
    assert abs(est - 0.2) <= max(3 * half, 0.01)


def test_state_distribution_matches_pi(erlang_run, erlang_space):
    _, _, report = erlang_run
    dist = {occ: t / report.total_time for occ, t in report.state_time.items()}
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    expected = {(0,): 0.4, (1,): 0.4, (2,): 0.2}
    for occ, p in expected.items():
        est, half = state_probability_estimate(report, occ)
        assert abs(est - p) <= max(4 * half, 0.02)


def test_arrival_seen_matches_pi_pasta(erlang_run):
    """Poisson arrivals observe the stationary distribution."""
    _, _, report = erlang_run
    total = sum(report.arrival_seen.values())
    seen = {occ: c / total for occ, c in report.arrival_seen.items()}
    for occ, p in {(0,): 0.4, (1,): 0.4, (2,): 0.2}.items():
        assert seen[occ] == pytest.approx(p, abs=0.02)


def test_mean_volume_matches_transient_solve(erlang_run, erlang_space):
    """Mean delivered volume of admitted users: pi-weighted arrival utility
    (0.4 * 5/3 + 0.4 * 4/3) / 0.8 = 1.5."""
    _, _, report = erlang_run
    est, half, count = report.volume_estimate(0, 0)
    assert count > 10_000
    assert abs(est - 1.5) <= max(4 * half, 0.02)


def test_volume_from_empty_state(erlang_run):
    """Users admitted into the empty system deliver I(1) = 5/3 on average."""
    _, _, report = erlang_run
    mean, se, count = entry_volume_estimate(report, 0, 0, (0,))
    assert count > 5_000
    assert abs(mean - 5.0 / 3.0) <= max(6 * se, 0.03)


def test_light_traffic_concentrates_on_empty(erlang_scheme):
    config = NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                           arrival_rate=(0.01,), service_rate=1.0)
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    report = simulate(config, rule, 200_000, seed=3)
    assert report.state_time[(0,)] / report.total_time > 0.97


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_same_seed_bit_identical(erlang_config, erlang_scheme):
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    a = simulate(erlang_config, rule, 50_000, seed=11, num_batches=20)
    b = simulate(erlang_config, rule, 50_000, seed=11, num_batches=20)
    assert a.total_time == b.total_time
    assert a.state_time == b.state_time
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.volume_sum, b.volume_sum)
    assert a.volume_by_entry == b.volume_by_entry
    c = simulate(erlang_config, rule, 50_000, seed=12, num_batches=20)
    assert c.total_time != a.total_time


def test_two_system_redirection_blocking():
    """Arrivals pointed at the full favorite spill into the other system;
    empirical blocking matches the chain that encodes the same protocol."""
    config = NetworkConfig(peak_rate=((2.0, 1.6),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.5,), service_rate=1.0)
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    rule = PeakRateRule()
    analytic = evaluate_rule(space, rule).overall_blocking
    report = simulate(config, rule, 200_000, seed=5)
    est, half = report.blocking_estimate(0)
    assert abs(est - analytic) <= max(4 * half, 0.01)


def test_strict_mode_blocks_instead_of_redirecting():
    config = NetworkConfig(peak_rate=((2.0, 1.6),), t_min=1.0, t_max=2.0,
                           arrival_rate=(1.5,), service_rate=1.0)
    rule = PeakRateRule()   # always prefers system 0
    strict = simulate(replace(config, strict_arrivals=True), rule, 150_000, seed=9)
    loose = simulate(config, rule, 150_000, seed=9)
    assert strict.blocking_estimate(0)[0] > loose.blocking_estimate(0)[0] + 0.05
    # system 1 never admits anyone under the strict peak-rate rule
    assert strict.admitted[:, 0, 1].sum() == 0


ORACLE_EVENTS = 200_000


@pytest.mark.parametrize("rule_name", ["peak", "instant", "drawn"])
@pytest.mark.parametrize("scope", [PER_SYSTEM, NETWORK_WIDE])
@pytest.mark.parametrize("strict", [False, True], ids=["redirect", "strict"])
def test_chain_blocking_matches_the_simulator(hybrid_instance, strict, scope, rule_name):
    """The oracle matrix: on hybrid_example at 5 Erlangs, under either
    arrival mode, either sharing scope and three rules (both baselines and
    one drawn policy), each class's chain blocking lies within
    max(4 half-widths, 0.01) of the simulator's estimate. The simulator
    keeps its own admission test and reads nothing of the chain."""
    config, scheme = hybrid_instance
    config = replace(config.scale_traffic(5.0 / config.offered_erlangs).with_sharing_scope(scope),
                     strict_arrivals=strict)
    rule = {"peak": PeakRateRule(), "instant": InstantaneousRateRule(),
            "drawn": PolicyRule(random_policy(np.random.default_rng(29), config, scheme),
                                scheme)}[rule_name]
    chain = evaluate_rule(enumerate_states(config), rule).per_class_blocking
    report = simulate(config, rule, ORACLE_EVENTS, seed=5)
    for n in range(config.num_classes):
        est, half = report.blocking_estimate(n)
        assert abs(est - chain[n]) <= max(4 * half, 0.01), (n, est, half, chain[n])


def test_network_wide_scope_cross_validates():
    """Under the coupled denominator the simulator and the chain must agree
    on blocking and the state distribution."""
    config = NetworkConfig(peak_rate=((3.0, 3.0),), t_min=1.0, t_max=2.0,
                           arrival_rate=(2.0,), service_rate=1.0,
                           sharing_scope="network_wide")
    space = enumerate_states(config)
    scheme = AggregationScheme.uniform(2, 0.3, 0.7)
    rule = PolicyRule(Policy.constant(1, 9, 0), scheme)
    ss = solve_steady_state(build_generator(space, rule))
    report = simulate(config, rule, 150_000, seed=21)
    est, half = report.blocking_estimate(0)
    assert abs(est - evaluate_rule(space, rule).overall_blocking) <= max(4 * half, 0.01)
    for occ in report.state_time:
        assert state_ids(space, [occ])[0] >= 0
    top = max(space.states, key=lambda occ: ss.pi[state_id(space, occ)])
    p_est, p_half = state_probability_estimate(report, top)
    assert abs(p_est - ss.pi[state_id(space, top)]) <= max(4 * p_half, 0.02)


def test_input_validation(erlang_config, erlang_scheme):
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    with pytest.raises(ValueError):
        simulate(erlang_config, rule, 0, seed=1)
    with pytest.raises(ValueError):
        simulate(erlang_config, rule, 1000, seed=1, num_batches=5)


class CountingPolicyRule(PolicyRule):
    """PolicyRule that counts its choose() calls per (occupancy, class)."""

    def __init__(self, policy, scheme):
        super().__init__(policy, scheme)
        object.__setattr__(self, "calls", Counter())

    def choose(self, config, occ, user_class):
        self.calls[tuple(occ), user_class] += 1
        return super().choose(config, occ, user_class)


def test_rule_asked_once_per_visited_occupancy(hybrid_instance):
    """Visited occupancies include those reached only during a replica's
    warm-up, which the measured state times leave out."""
    config, scheme = hybrid_instance
    rule = CountingPolicyRule(Policy(((1,) * 9, (0, 1) * 4 + (0,))), scheme)
    report = simulate(config.scale_traffic(5.0), rule, 100_000, seed=8)
    assert max(rule.calls.values()) == 1
    asked = {occ for occ, _ in rule.calls}
    assert set(report.arrival_seen) <= asked <= report.visited
    assert set(report.state_time) <= report.visited


def _integer_outputs(report) -> dict:
    return {"arrivals": report.arrivals.astype(int).tolist(),
            "blocked": report.blocked.astype(int).tolist(),
            "admitted": report.admitted.astype(int).tolist(),
            "volume_count": report.volume_count.tolist(),
            "arrival_seen": sorted([list(occ), count]
                                   for occ, count in report.arrival_seen.items())}


def _golden_text(runs: dict) -> str:
    """simulate_golden.json's layout: one line per field of each run."""
    blocks = []
    for name, report in runs.items():
        fields = [f'    "{key}": {json.dumps(value, separators=(",", ":"))}'
                  for key, value in _integer_outputs(report).items()]
        blocks.append(f'  "{name}": {{\n' + ",\n".join(fields) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _golden_runs(hybrid_instance) -> dict:
    config, scheme = hybrid_instance
    config = config.scale_traffic(5.0)
    rule = PolicyRule(Policy(((1,) * 9, (0, 1) * 4 + (0,))), scheme)
    return {
        "redirect": simulate(config, rule, 30_000, seed=2024, num_batches=20),
        "strict": simulate(replace(config, strict_arrivals=True), rule, 30_000, seed=2024,
                           num_batches=20),
        "network_instant": simulate(config.with_sharing_scope("network_wide"),
                                    InstantaneousRateRule(), 30_000, seed=2024,
                                    num_batches=20),
    }


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_integer_outputs_match_golden(hybrid_instance):
    """Counts and admission decisions for a fixed seed, recorded with the
    lockstep replicas (200 of 150 events each). They depend only on the
    seeded draws and the admission logic, so they hold on every platform.

    To re-record after a deliberate change to the engine's draws or event
    order, from the repository root:

        PYTHONPATH=src:tests python -W ignore -c "import test_simulate as t; \\
        from hetassoc import load_instance; \\
        inst = load_instance(open('configs/hybrid_example.json').read()); \\
        print(t._golden_text(t._golden_runs(inst)), end='')" \\
        > tests/data/simulate_golden.json
    """
    runs = _golden_runs(hybrid_instance)
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(runs)
    for name, report in runs.items():
        assert _integer_outputs(report) == golden[name], name


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("events,batches", [(13, 20), (1_001, 23), (5_111, 20)])
def test_events_split_over_replicas_and_batches(erlang_config, erlang_scheme,
                                                events, batches):
    """Replica r of R = 10 * batches simulates events // R events, one more
    when r < events % R, and reports into batch r % batches; each replica
    discards its first (events // R) // 10 events as warm-up."""
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    report = simulate(erlang_config, rule, events, seed=5, num_batches=batches)
    R = 10 * batches
    per_replica = events // R + (np.arange(R) < events % R)
    assert report.replicas == R and per_replica.sum() == events
    assert report.warmup == events // R // 10
    measured = np.bincount(np.arange(R) % batches, weights=per_replica - report.warmup)
    # every event is an arrival or a departure; departures are completed calls
    per_batch = report.arrivals.sum(axis=1) + report.volume_count.sum(axis=(1, 2))
    assert np.array_equal(per_batch, measured)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("events", [1, 13])
def test_estimates_of_short_runs_are_nan_without_warnings(erlang_config, erlang_scheme,
                                                          events):
    """Each of the first `events` replicas makes one arrival into the empty
    system and reports into its own batch; the other batches hold nothing.
    A half-width over fewer than two batches with data is nan, an estimate
    without data is nan, and numpy warns of neither."""
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    report = simulate(erlang_config, rule, events, seed=3)
    half = float("nan") if events == 1 else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert report.blocking_estimate(0) == pytest.approx((0.0, half), nan_ok=True)
        assert state_probability_estimate(report, (0,)) == pytest.approx((1.0, half),
                                                                        nan_ok=True)
        assert state_probability_estimate(report, (2,)) == pytest.approx((0.0, half),
                                                                        nan_ok=True)
        est, vol_half, count = report.volume_estimate(0, 0)
    assert math.isnan(est) and math.isnan(vol_half) and count == 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_replicas_without_events_take_no_memory(erlang_config, erlang_scheme):
    """200,000 replicas for 13 events: only the 13 that simulate one hold
    user arrays (all of them would take about 77 MB)."""
    rule = PolicyRule(Policy(((0, 0, 0),)), erlang_scheme)
    tracemalloc.start()
    try:
        report = simulate(erlang_config, rule, 13, seed=1, num_batches=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.replicas == 200_000 and report.arrivals.sum() == 13
    assert peak < 32 * 2 ** 20


class _MaskTallies(_Tallies):
    """The block reduction that gathered departures with boolean masks,
    kept as the oracle of the indexed one."""

    def add(self, rows, codes, holding, volumes, seens) -> None:
        NS, B, C = self.records.NS, self.B, self.records.codes
        M = len(self.records.keys)
        self.widen(M)
        batch = np.arange(rows.shape[1]) % B
        self.time += np.bincount((batch * M + rows).ravel(), holding.ravel(),
                                 B * M).reshape(B, M)
        self.events += np.bincount((batch * C + codes).ravel(),
                                   minlength=B * C).reshape(B, C)
        arrival = (codes < NS) | (codes >= 2 * NS)
        self.seen += np.bincount(rows[arrival], minlength=M)

        counted = (codes >= NS) & (codes < 2 * NS)
        pair = codes[counted] - NS
        seen = seens[counted]
        vol = volumes[counted]
        cell = np.broadcast_to(batch, codes.shape)[counted] * NS + pair
        self.vol_sum += np.bincount(cell, vol, B * NS).reshape(B, NS)

        entry = pair * M + seen
        nb = np.bincount(entry, minlength=NS * M).reshape(NS, M)
        sb = np.bincount(entry, vol, NS * M).reshape(NS, M)
        mean_b = np.divide(sb, nb, out=np.zeros((NS, M)), where=nb > 0)
        m2_b = np.bincount(entry, (vol - mean_b.ravel()[entry]) ** 2,
                           NS * M).reshape(NS, M)
        total = self.entry_count + nb
        share = np.divide(nb, total, out=np.zeros((NS, M)), where=total > 0)
        delta = mean_b - self.entry_mean
        self.entry_mean += delta * share
        self.entry_m2 += m2_b + delta * delta * self.entry_count * share
        self.entry_count = total


def test_indexed_tallies_match_the_mask_reduction_bit_for_bit():
    """Seeded blocks of arrivals, departures and lost arrivals (codes
    2*NS and up), with rows added between blocks, a one-step block over
    fewer lanes (the `extra` remainder) and a block without a departure:
    every accumulator matches the boolean-mask reduction to the bit."""
    N, S, B = 3, 2, 20
    NS = N * S
    C = 2 * NS + N
    rng = np.random.default_rng(11)
    records = SimpleNamespace(NS=NS, codes=C, keys=[])
    indexed, masked = _Tallies(records, B), _MaskTallies(records, B)
    blocks = [(32, 200, 40), (32, 200, 55), (7, 200, 55), (1, 37, 60), (5, 200, 61)]
    for i, (steps, m, M) in enumerate(blocks):
        records.keys.extend([None] * (M - len(records.keys)))
        codes = rng.integers(0, C, (steps, m))
        if i == 2:
            codes[(codes >= NS) & (codes < 2 * NS)] -= NS
        block = (rng.integers(0, M, (steps, m)), codes, rng.exponential(size=(steps, m)),
                 rng.exponential(size=(steps, m)) * 3, rng.integers(0, M, (steps, m)))
        indexed.add(*block)
        masked.add(*block)
        for name in ("time", "events", "seen", "vol_sum", "entry_count",
                     "entry_mean", "entry_m2"):
            got, want = getattr(indexed, name), getattr(masked, name)
            assert got.dtype == want.dtype and got.shape == want.shape, (i, name)
            assert got.tobytes() == want.tobytes(), (i, name)
    departures = indexed.events[:, NS:2 * NS].sum()
    assert departures > 0 and indexed.entry_count.sum() == departures


COVERAGE_SEEDS = range(60)
COVERAGE_EVENTS = 50_000


def erlang_blocking_runs(config, rule, seeds=COVERAGE_SEEDS, events=COVERAGE_EVENTS
                         ) -> np.ndarray:
    """(estimate, 99% half-width) of the Erlang fixture's blocking, one row
    per seed, each run `events` events long."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.array([simulate(config, rule, events, seed=seed).blocking_estimate(0)
                         for seed in seeds])


@pytest.fixture(scope="module")
def coverage_runs(erlang_config, erlang_scheme):
    return erlang_blocking_runs(erlang_config, PolicyRule(Policy(((0, 0, 0),)), erlang_scheme))


def test_replicated_interval_covers_erlang_b(coverage_runs):
    """The 99% interval of the replicated runs (250 replicas of 200 events)
    covers the exact Erlang-B blocking 0.2 in at least 57 of 60 seeds; a
    calibrated interval misses four or more with probability about 0.3%."""
    est, half = coverage_runs.T
    assert (np.abs(est - 0.2) <= half).sum() >= 57


def test_replicated_estimate_is_unbiased(coverage_runs):
    """The mean estimate over the seeds lies within three standard errors
    of 0.2, which an unbiased engine exceeds with probability about 0.3%.
    Each replica starts empty, where blocking is lowest: with no warm-up
    these seeds read 5.75 standard errors low."""
    est = coverage_runs[:, 0]
    se = est.std(ddof=1) / math.sqrt(len(est))
    assert abs(est.mean() - 0.2) <= 3 * se


def test_t_table_is_scipy_special_bit_for_bit():
    """The table the half-widths of 20 to 100 batches read at CI_LEVEL
    holds scipy.special.stdtrit's quantiles to the last bit."""
    from scipy.special import stdtrit
    assert T_TABLE_FIRST_DF == 19 and len(T_TABLE) == 81
    for df, value in enumerate(T_TABLE, T_TABLE_FIRST_DF):
        assert value == float(stdtrit(df, 0.5 + CI_LEVEL / 2)), df


def test_t_quantile_matches_scipy_stats_bit_for_bit():
    """The confidence half-widths take the Student-t quantile from
    scipy.special (at CI_LEVEL and 19 to 99 degrees of freedom, from a
    table of its values) so that importing the package never loads
    scipy.stats; the two must agree to the last bit, or half-widths would
    move."""
    from scipy import stats
    for level in (0.90, 0.95, 0.99):
        for df in range(1, 500):
            assert SimReport._t_quantile(df, level) \
                == float(stats.t.ppf(0.5 + level / 2, df)), (df, level)
