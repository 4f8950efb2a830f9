"""Shared fixtures: hand-solvable instances and a random-instance generator."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hetassoc
from hetassoc import (AggregationScheme, NetworkConfig, Policy, enumerate_states,
                      load_instance)
from hetassoc.game import NASH_EPS
from hetassoc.simulate import CI_LEVEL

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def erlang_config() -> NetworkConfig:
    """Single class, single system: D=2, t_min=1, t_max=2, lambda=mu=1.

    The chain over {0, 1, 2} users is the two-server Erlang loss system at
    one Erlang: pi = (0.4, 0.4, 0.2), blocking 1/5.
    """
    return NetworkConfig(peak_rate=((2.0,),), t_min=1.0, t_max=2.0,
                         arrival_rate=(1.0,), service_rate=1.0)


@pytest.fixture(scope="session")
def erlang_space(erlang_config):
    return enumerate_states(erlang_config)


@pytest.fixture(scope="session")
def erlang_scheme() -> AggregationScheme:
    """Thresholds that put all three Erlang states into one label."""
    return AggregationScheme(((1.0, 1.0),))


@pytest.fixture(scope="session")
def hybrid_instance():
    text = (CONFIG_DIR / "hybrid_example.json").read_text()
    return load_instance(text)


def hybrid_doc(erlangs: float) -> dict:
    """The shipped instance as a config document, its arrival rates scaled
    to `erlangs` offered as the CLI's sweep scales them."""
    doc = json.loads((CONFIG_DIR / "hybrid_example.json").read_text())
    multiplier = erlangs / (sum(c["arrival_rate"] for c in doc["classes"]) / doc["service_rate"])
    for c in doc["classes"]:
        c["arrival_rate"] = c["arrival_rate"] * multiplier
    return doc


def nash_exhaustive_doc() -> dict:
    """perfbench's nash-exhaustive instance as a config document: the
    shipped instance at 5 Erlangs with system 1's thresholds at 0.5, 0.5.
    119 states, 4,096 canonical policies in 256 fibres."""
    doc = hybrid_doc(5.0)
    doc["systems"][1]["thresholds"] = [0.5, 0.5]
    return doc


def instance_of(doc: dict, strict: bool = False):
    """The space of a config document, under strict arrivals when strict is
    set, and its scheme."""
    config, scheme = load_instance(json.dumps(doc))
    return arrival_mode(enumerate_states(config), strict), scheme


@pytest.fixture(scope="session")
def twin_config() -> NetworkConfig:
    """Two independent single-class systems: class n is only feasible in
    system n, so the chain is a product of two Erlang chains."""
    return NetworkConfig(peak_rate=((2.0, 0.5), (0.5, 2.0)), t_min=1.0,
                         t_max=2.0, arrival_rate=(1.0, 0.7), service_rate=1.0)


def random_instance(rng: np.random.Generator, max_space: int = 500):
    """Small random instance (S <= 2, N <= 2) with a bounded feasible space.

    Peak rates, traffic, thresholds and the gain table are all randomized;
    gain tables respect the gain(k)/k monotonicity requirement by
    construction (non-increasing gains).
    """
    while True:
        S = int(rng.integers(1, 3))
        N = int(rng.integers(1, 3))
        peak = tuple(tuple(float(np.round(rng.uniform(0.6, 6.0), 3))
                           for _ in range(S)) for _ in range(N))
        t_min = 1.0
        t_max = float(np.round(rng.uniform(1.0, 3.0), 3))
        lam = tuple(float(np.round(rng.uniform(0.05, 3.0), 3)) for _ in range(N))
        mu = float(np.round(rng.uniform(0.4, 2.0), 3))
        gain_len = int(rng.integers(1, 4))
        gains = np.round(np.sort(rng.uniform(0.5, 1.5, size=gain_len))[::-1], 3)
        scope = "network_wide" if rng.random() < 0.25 else "per_system"
        config = NetworkConfig(peak_rate=peak, t_min=t_min, t_max=t_max,
                               arrival_rate=lam, service_rate=mu,
                               scheduler_gain=tuple(gains), sharing_scope=scope)
        try:
            space = enumerate_states(config, max_states=max_space)
        except Exception:
            continue
        if space.num_states >= 2:
            lo = float(np.round(rng.uniform(0.0, 0.6), 2))
            hi = float(np.round(rng.uniform(lo, 1.0), 2))
            scheme = AggregationScheme(tuple((lo, hi) for _ in range(S)))
            return config, space, scheme


def arrival_mode(space, strict: bool):
    """space itself, or its twin under the other arrival mode: the same
    states, for the config with strict_arrivals set to strict, and chain
    tables of its own."""
    if space.config.strict_arrivals == strict:
        return space
    from hetassoc.states import StateSpace
    config = dataclasses.replace(space.config, strict_arrivals=strict)
    return StateSpace(config, space.occ, space.keys, space.bound, space.weights)


def random_policy(rng: np.random.Generator, config, scheme):
    return Policy(tuple(tuple(int(rng.integers(config.num_systems))
                              for _ in range(scheme.label_count))
                        for _ in range(config.num_classes)))


# ----- helpers only the tests read


def zero_state(config) -> tuple[int, ...]:
    """The empty network's occupancy."""
    return (0,) * (config.num_classes * config.num_systems)


def state_counts_per_label(scheme, space) -> np.ndarray:
    """Number of feasible states mapped to each label; zeros mark labels that
    no state can produce."""
    from hetassoc.aggregation import label_array
    return np.bincount(label_array(scheme, space), minlength=scheme.label_count)


def with_entry(policy, n: int, l: int, s: int) -> Policy:
    """policy with entry (class n, label l) set to system s."""
    rows = [list(row) for row in policy.choice]
    rows[n][l] = s
    return Policy(tuple(tuple(row) for row in rows))


def verify_equilibrium(solver, policy) -> bool:
    """Re-check the no-profitable-deviation inequality for policy on a chain
    and payoff table a fresh checker solves for its fibre (structural
    transition indexes are shared; they contain no solved quantities)."""
    return solver.fresh_checker().evaluate(policy).nash_gap() <= NASH_EPS


def state_probability_estimate(report, occ,
                               level: float = CI_LEVEL) -> tuple[float, float]:
    """(estimate, CI half-width) of one state's stationary probability
    from a SimReport's per-batch time fractions; nan without measured time,
    and the half-width below two batches with measured time."""
    occ = tuple(occ)
    ok = report.batch_time > 0
    if not ok.any():
        return float("nan"), float("nan")
    fracs = np.array([bt.get(occ, 0.0) for bt in report.state_time_batches])
    est = report.state_time.get(occ, 0.0) / report.total_time
    return float(est), report._half_width(fracs[ok] / report.batch_time[ok], level)


def entry_volume_estimate(report, user_class: int, system: int, seen
                          ) -> tuple[float, float, int]:
    """(mean, std error, count) of the volumes in a SimReport of users
    admitted to `system` who saw state `seen` on arrival."""
    count, mean, m2 = report.volume_by_entry.get(
        (user_class, system, tuple(seen)), (0, float("nan"), 0.0))
    if count < 2:
        return mean, float("nan"), count
    return mean, math.sqrt(m2 / (count - 1) / count), count


def public_names() -> dict:
    """hetassoc's exports: every name the package binds that is neither
    private nor a module."""
    return {name: value for name, value in vars(hetassoc).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def subcommand_options(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    """The flags each subcommand of `parser` takes, --help aside, in --help order."""
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    return {name: [action.option_strings[0] for action in command._actions
                   if not isinstance(action, argparse._HelpAction)]
            for name, command in sub.choices.items()}


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """Read back a provenance CSV, skipping the comment header."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh
                                          if not line.startswith("#"))]
    return rows[0], rows[1:]


# ----- reference structure: the state space and chain tables in plain loops


def reference_states(config) -> list[tuple[int, ...]]:
    """Feasible states by breadth-first closure from the empty network under
    single arrivals, tested one by one with the scalar is_feasible, in
    lexicographic order."""
    from collections import deque
    from hetassoc.states import is_feasible
    start = zero_state(config)
    seen, queue = {start}, deque([start])
    while queue:
        occ = queue.popleft()
        for j in range(len(occ)):
            child = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
            if child not in seen and is_feasible(config, child):
                seen.add(child)
                queue.append(child)
    return sorted(seen)


def reference_tables(config, states) -> dict[str, np.ndarray]:
    """ChainTables' arrays state by state: neighbours by dict lookup, the
    throughput by the scalar user_throughput, and each arrival's outcome by
    trying the preferred system and then the others in index order."""
    from hetassoc.states import occ_index, user_throughput
    N, S, nst = config.num_classes, config.num_systems, len(states)
    index = {occ: i for i, occ in enumerate(states)}
    t = {"occ_ns": np.zeros((N, S, nst), dtype=np.int64),
         "arrival_id": np.full((N, S, nst), -1, dtype=np.int64),
         "departure_id": np.full((N, S, nst), -1, dtype=np.int64),
         "throughput": np.full((N, S, nst), np.nan),
         "admit_sys": np.full((N, S, nst), -1, dtype=np.int64),
         "admit_id": np.full((N, S, nst), -1, dtype=np.int64)}
    for i, occ in enumerate(states):
        for n in range(N):
            for s in range(S):
                j = occ_index(config, n, s)
                t["occ_ns"][n, s, i] = occ[j]
                t["arrival_id"][n, s, i] = index.get(occ[:j] + (occ[j] + 1,) + occ[j + 1:], -1)
                if occ[j] > 0:
                    t["departure_id"][n, s, i] = index[occ[:j] + (occ[j] - 1,) + occ[j + 1:]]
                    t["throughput"][n, s, i] = user_throughput(config, occ, n, s)
            open_systems = [s for s in range(S) if t["arrival_id"][n, s, i] >= 0]
            for pref in range(S):
                for s in [pref] + open_systems:
                    if s in open_systems:
                        t["admit_sys"][n, pref, i] = s
                        t["admit_id"][n, pref, i] = t["arrival_id"][n, s, i]
                        break
    return t


def assert_structure_matches_reference(config) -> None:
    """The enumerated space and its ChainTables equal the plain-loop
    reference exactly; throughputs bit for bit, nan positions included."""
    from hetassoc.ctmc import ChainTables
    states = reference_states(config)
    space = enumerate_states(config)
    assert space.states == tuple(states)
    assert space.index == {occ: i for i, occ in enumerate(states)}
    assert space.occ.dtype == np.int64
    assert np.array_equal(space.occ, np.array(states, dtype=np.int64))
    tables = ChainTables(space)
    for name, expected in reference_tables(config, states).items():
        got = getattr(tables, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        if name == "throughput":
            assert got.tobytes() == expected.tobytes()
        else:
            assert np.array_equal(got, expected), name


# ----- independent oracle: the chain from the primitive model definitions


@functools.lru_cache(maxsize=2)
def oracle_structure(config, scheme) -> SimpleNamespace:
    """Everything the independent oracle needs that does not depend on the
    rule, built once per config from the primitive model definitions in
    plain loops: the enumerated states, their labels, every arrival outcome
    under every preference, the departure edges and the tagged states with
    their throughputs."""
    from hetassoc.aggregation import label_of
    from hetassoc.states import is_feasible, occ_index, user_throughput
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
    return SimpleNamespace(nst=len(states), states=states, labels=labels,
                           outcome=outcome, departures=departures, tagged=tagged,
                           throughput=throughput, label_states=label_states)


def reference_generator(config, scheme, rule) -> np.ndarray:
    """Dense generator of a rule, entry by entry in plain loops: a class-n
    arrival at a state goes where the network admits a user preferring
    rule.choose there (under config.strict_arrivals only into that
    preferred system), each (n, s) user departs at rate mu, and the
    diagonal makes every row sum to zero. Shares only the primitive model
    definitions with the library."""
    strict = config.strict_arrivals
    o = oracle_structure(dataclasses.replace(config, strict_arrivals=False), scheme)
    lam, mu = config.arrival_rate, config.service_rate
    q = np.zeros((o.nst, o.nst))
    for i, occ in enumerate(o.states):
        for n in range(config.num_classes):
            pref = rule.choose(config, occ, n)
            joined = o.outcome[i][n][pref]
            if joined is not None and not (strict and joined[0] != pref):
                q[i, joined[1]] += lam[n]
        for _, _, count, down in o.departures[i]:
            q[i, down] += count * mu
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return q


def assert_matches_reference(q: np.ndarray, reference: np.ndarray) -> None:
    """q equals the reference generator off the diagonal entry for entry;
    on it each entry agrees to 1e-14 relative, since the two sum a row's
    rates in different orders."""
    off = ~np.eye(len(reference), dtype=bool)
    assert np.array_equal(q[off], reference[off])
    diag = np.diag(reference)
    assert (np.abs(np.diag(q) - diag) <= 1e-14 * np.abs(diag)).all()


def check_generator_row_sums(instances, rng) -> None:
    from hetassoc import PolicyRule, build_generator
    for config, space, scheme in instances:
        rule = PolicyRule(random_policy(rng, config, scheme), scheme)
        gen = build_generator(space, rule)
        assert np.abs(gen.matrix.dot(np.ones(gen.num_states))).max() <= 1e-12
        assert_matches_reference(gen.matrix.toarray(), reference_generator(config, scheme, rule))


def check_steady_residuals(instances, rng) -> None:
    from hetassoc import PolicyRule, build_generator, solve_steady_state
    for config, space, scheme in instances:
        rule = PolicyRule(random_policy(rng, config, scheme), scheme)
        ss = solve_steady_state(build_generator(space, rule))
        assert ss.residual <= 1e-10
        assert ss.pi.min() >= 0.0
        assert abs(ss.pi.sum() - 1.0) <= 1e-12


def check_departure_closure(instances) -> None:
    for _, space, _ in instances:
        for occ in space.states:
            for j, count in enumerate(occ):
                if count > 0:
                    assert occ[:j] + (count - 1,) + occ[j + 1:] in space


def check_label_totality(instances) -> None:
    from hetassoc.aggregation import label_array, label_of
    for config, space, scheme in instances:
        labels = label_array(scheme, space)
        assert labels.min() >= 0 and labels.max() < scheme.label_count
        assert state_counts_per_label(scheme, space).sum() == space.num_states
        for i, occ in enumerate(space.states):
            assert labels[i] == label_of(scheme, config, occ)


def swap_label_two_systems(label: int) -> int:
    return (label % 3) * 3 + label // 3


def check_relabel_equivariance(instances, rng, tol: float = 1e-9) -> None:
    """System-swap equivariance of the game layer, S = 2 instances only."""
    from hetassoc.game import PolicyGameSolver
    for config, space, scheme in instances:
        assert config.num_systems == 2
        policy = random_policy(rng, config, scheme)
        ev = PolicyGameSolver(space, scheme).evaluate(policy)

        swapped_cfg = NetworkConfig(
            peak_rate=tuple((row[1], row[0]) for row in config.peak_rate),
            t_min=config.t_min, t_max=config.t_max,
            arrival_rate=config.arrival_rate, service_rate=config.service_rate,
            scheduler_gain=config.scheduler_gain,
            sharing_scope=config.sharing_scope)
        swapped_scheme = AggregationScheme((scheme.thresholds[1],
                                            scheme.thresholds[0]))
        swapped_space = enumerate_states(swapped_cfg)
        rows = []
        for row in policy.choice:
            out = [0] * 9
            for l, s in enumerate(row):
                out[swap_label_two_systems(l)] = 1 - s
            rows.append(tuple(out))
        ev2 = PolicyGameSolver(swapped_space, swapped_scheme).evaluate(
            Policy(tuple(rows)))

        assert swapped_space.num_states == space.num_states
        assert abs(ev2.global_utility - ev.global_utility) <= tol
        assert abs(ev2.overall_blocking - ev.overall_blocking) <= 1e-10
        for n in range(config.num_classes):
            for l in range(9):
                l2 = swap_label_two_systems(l)
                assert abs(ev2.label_mass[l2] - ev.label_mass[l]) <= 1e-10
                if ev.empty_labels[l]:
                    assert ev2.empty_labels[l2]
                    continue
                if ev.label_mass[l] < 1e-9:
                    # conditional quantities on near-zero mass are noise
                    continue
                assert abs(ev2.blocking[n, l2] - ev.blocking[n, l]) <= tol
                for s in range(2):
                    a = ev2.individual[n, l2, 1 - s]
                    b = ev.individual[n, l, s]
                    assert (np.isnan(a) and np.isnan(b)) or abs(a - b) <= tol


def reference_tagged_block(space, q_dense, user_class, system):
    """Tagged block built entry by entry: the tagged rows and columns of the
    full generator, with the tagged user's own departure lowered by mu."""
    from hetassoc.ctmc import chain_tables
    tables = chain_tables(space)
    mu = space.config.service_rate
    ids = np.nonzero(tables.occ_ns[user_class, system] > 0)[0]
    local = {int(i): k for k, i in enumerate(ids)}
    block = q_dense[np.ix_(ids, ids)].copy()
    for i in ids:
        if tables.occ_ns[user_class, system, i] >= 2:
            j = tables.departure_id[user_class, system, i]
            block[local[int(i)], local[int(j)]] -= mu
    return ids, block


def tagged_band(data, plan, mu):
    """The band transient._tagged_matrix builds for one tagged block, given
    by its TaggedPlan, of one generator's BandGenerator data."""
    from hetassoc.transient import _tagged_matrix
    return _tagged_matrix(data.take(plan.src)[None], plan, mu,
                          np.empty(plan.band_size))[0].ravel()


def tagged_rows_cols(plan):
    """The local row and column of every entry of a TaggedPlan, diagonal
    included, read back from its flat band position
    col * ldab + kl + ku + row - col."""
    ldab = plan.band_shape[0]
    cols = plan.band // ldab
    return plan.band % ldab - plan.kl - plan.ku + cols, cols


def gathered_tagged_block(space, q, user_class, system):
    """The tagged block transient._tagged_matrix gathers from a band
    generator q, unpacked through its TaggedPlan into a dense matrix over
    the tagged states in ascending id order, as reference_tagged_block
    lays it out."""
    from hetassoc.ctmc import chain_tables
    plan = chain_tables(space).solve_plan.tagged[user_class][system]
    band = tagged_band(q.data, plan, space.config.service_rate)
    block = np.zeros((len(plan.ids),) * 2)
    block[tagged_rows_cols(plan)] = band[plan.band]
    ascending = np.argsort(plan.ids)
    return plan.ids[ascending], block[np.ix_(ascending, ascending)]


def check_tagged_solves(instances, rng, rel_tol: float = 1e-12) -> None:
    """In both arrival modes the band generator matches the independent
    reference generator, every tagged block gathered from the band equals
    its entry-by-entry reference, and the rule's volumes match a dense
    solve of that block."""
    from hetassoc import PolicyRule, evaluate_rule
    from hetassoc.ctmc import assemble_dense, chain_tables
    for _, loose, scheme in instances:
        rule = PolicyRule(random_policy(rng, loose.config, scheme), scheme)
        for strict in (False, True):
            space = arrival_mode(loose, strict)
            config, tables = space.config, chain_tables(space)
            band = assemble_dense(tables, rule.choice_table(space))
            q = band.toarray()
            assert_matches_reference(q, reference_generator(config, scheme, rule))
            volumes = evaluate_rule(space, rule).volumes
            for n in range(config.num_classes):
                for s in range(config.num_systems):
                    ids, block = reference_tagged_block(space, q, n, s)
                    gathered_ids, gathered = gathered_tagged_block(space, band, n, s)
                    assert np.array_equal(gathered_ids, ids)
                    assert np.array_equal(gathered, block)
                    vol = volumes[n, s]
                    assert np.isnan(np.delete(vol, ids)).all()
                    if len(ids) == 0:
                        continue
                    expected = np.linalg.solve(block, -tables.throughput[n, s, ids])
                    err = np.abs(vol[ids] - expected).max()
                    assert err <= rel_tol * np.abs(expected).max()


def erlang_loss_chain(servers: int, offered: float):
    """Config, space, one-label scheme and rule of an M/M/c/c queue."""
    from hetassoc import PolicyRule
    config = NetworkConfig(peak_rate=((float(servers),),), t_min=1.0,
                           t_max=2.0, arrival_rate=(offered,), service_rate=1.0)
    space = enumerate_states(config)
    assert space.num_states == servers + 1
    scheme1 = AggregationScheme(((1.0, 1.0),))
    return config, space, scheme1, PolicyRule(Policy(((0,) * 3,)), scheme1)


def pinned_solve_holds(band, r: int) -> bool:
    """Whether the stationary solve pinned at position r of the band's order
    passes its checks; where it does not, the next pin takes over."""
    from hetassoc.ctmc import _pinned_step
    *_, held = _pinned_step(band.data[None], band, r)
    return bool(held[0])


def check_band_generator(instances, rng, rel_tol: float = 1e-12) -> None:
    """In both arrival modes the band generator matches the independent
    reference generator, and its pinned banded stationary vector matches a
    dense solve of the reference with one balance row replaced by the
    normalization; the empty-state or occupied-end pin must carry at least
    half of those solves rather than the third pin."""
    from hetassoc import PolicyRule
    from hetassoc.ctmc import assemble_dense, chain_tables, stationary_vector
    pinned = 0
    for _, loose, scheme in instances:
        rule = PolicyRule(random_policy(rng, loose.config, scheme), scheme)
        for strict in (False, True):
            space = arrival_mode(loose, strict)
            q = reference_generator(space.config, scheme, rule)
            band = assemble_dense(chain_tables(space), rule.choice_table(space))
            assert_matches_reference(band.toarray(), q)
            a = q.T.copy()
            a[-1, :] = 1.0
            rhs = np.zeros(len(q))
            rhs[-1] = 1.0
            reference = np.linalg.solve(a, rhs)
            pi, _ = stationary_vector(band)
            assert np.abs(pi - reference).max() <= rel_tol * reference.max()
            pinned += any(pinned_solve_holds(band, r) for r in band.pins)
    assert pinned >= len(instances)


# perfbench's sparse-eval instance with peak rates not scaled by 0.9: 11,592
# states
LARGE_PEAK_RATES = ((6.0, 10.0, 8.0), (3.0, 5.0, 4.0), (1.5, 3.0, 2.0))

LONE_GROWTH = """
import json, resource, sys
from workloads import SPARSE_INSTANCE, draw_policy
from hetassoc import Policy, ctmc, enumerate_states, evaluate_policy, load_instance
doc = json.loads(json.dumps(SPARSE_INSTANCE))
for cls, rates in zip(doc["classes"], json.loads(sys.argv[1])):
    cls["peak_rates"] = rates
config, scheme = load_instance(json.dumps(doc))
policy = Policy.from_flat(draw_policy(doc, 1), config.num_classes, scheme.label_count)
space = enumerate_states(config)
plan = ctmc.chain_tables(space).solve_plan
# SolvePlan.lone_size, from the plan's sizes: the LU band
buffer = 8 * space.num_states * (3 * plan.width + 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
evaluate_policy(space, scheme, policy)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
unit = 1 if sys.platform == "darwin" else 1024
print(json.dumps({"growth": (after - before) * unit, "buffer": buffer,
                  "states": space.num_states}))
"""


@functools.cache
def lone_evaluation_growth(peak_rates: tuple = ()) -> dict:
    """In a fresh interpreter, the ru_maxrss growth in bytes of one
    evaluate_policy on perfbench's 3,600-state sparse-eval instance (its
    panel's first policy draw), or on that instance with the given peak
    rates per class (LARGE_PEAK_RATES gives 11,592 states), measured once
    the chain tables and solve plan are built, and the bytes of the buffer
    a lone generator is solved in (SolvePlan.lone_size). Measured once per
    process and instance: its test and the lone_memory probe read the same
    interpreter's numbers."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))}
    # Linux keeps ru_maxrss across exec, so an interpreter started from this
    # process would start at this process's peak; one started from a bare
    # interpreter starts at a few megabytes
    launch = "import subprocess, sys; raise SystemExit(subprocess.run(sys.argv[1:]).returncode)"
    proc = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", LONE_GROWTH,
                           json.dumps(peak_rates)], capture_output=True, text=True, env=env,
                          cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
