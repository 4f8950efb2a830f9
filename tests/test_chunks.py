"""Chunked evaluation: a chunk of policies, solved together, gives every
policy the bits it gets alone, and a failure inside a chunk raises what
one-at-a-time evaluation raises."""

import dataclasses

import numpy as np
import pytest

from hetassoc import (PolicyRule, ResidualError, SingularChainError, ctmc, enumerate_states,
                      evaluate_policy, game, transient)
from hetassoc.config import NetworkConfig
from hetassoc.ctmc import (BandGenerator, _Scratch, assemble_dense, assemble_stack, chain_tables,
                           stationary_vector, stationary_vectors)
from hetassoc.game import (ChainEvaluation, PolicyEvaluation, PolicyGameSolver, _ChainCore,
                           _deviations, _evaluate_chain, evaluate_baseline, evaluate_rule)
from hetassoc.rules import InstantaneousRateRule, PeakRateRule
from hetassoc.transient import SingularTaggedChainError, tagged_volumes

from conftest import (arrival_mode, erlang_loss_chain, instance_of, lone_evaluation_growth,
                      nash_exhaustive_doc, pinned_solve_holds, random_instance, random_policy,
                      tagged_band, tagged_rows_cols, with_entry)


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


@pytest.mark.parametrize("budget", ["below-one-band", "uneven", "default"],
                         ids=lambda budget: f"redirect-{budget}")
@pytest.mark.parametrize("strict", [False, True])
def test_evaluate_many_matches_one_at_a_time(instances, monkeypatch, budget, strict):
    """Every field of every PolicyEvaluation, and the Nash gaps, come out
    of evaluate_many bit for bit as from solving the policy's own chain in
    a chunk of one (_solved on its row alone, by a fresh solver, whose
    tagged blocks all run their own LU): with chunks of one, with chunks of
    3 over 10 policies, and at the default budget. Each stored gap is the
    one recomputed from its evaluation's own table."""
    rng = np.random.default_rng(99)
    chunks = set()
    for config, loose, scheme in instances:
        space = arrival_mode(loose, strict)
        _budget(monkeypatch, space, budget)
        solver = PolicyGameSolver(space, scheme)
        policies = [random_policy(rng, config, scheme) for _ in range(10)]
        many = solver.evaluate_many(policies)
        for policy, ev in zip(policies, many):
            assert ev.policy == policy
            alone = PolicyGameSolver(space, scheme)
            own, = alone._solved(alone._policy_rows([policy]))
            assert_same_bits(ev, dataclasses.replace(own, policy=policy))
        recomputed, _, _ = _deviations(np.stack([ev.individual for ev in many]),
                                       np.array([ev.policy.choice for ev in many]),
                                       np.stack([ev.empty_labels for ev in many]))
        assert bits(recomputed) == bits(np.array([ev.nash_gap() for ev in many]))
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
    for config, loose, scheme in instances[:8]:
        space = arrival_mode(loose, strict)
        tables = chain_tables(space)
        for which, rule in (("peak_rate", PeakRateRule()),
                            ("instantaneous_rate", InstantaneousRateRule())):
            alone = evaluate_baseline(space, which)
            others = rng.integers(config.num_systems,
                                  size=(3, config.num_classes, space.num_states))
            choices = np.concatenate([others[:2], rule.choice_table(space)[None], others[2:]])
            core = _ChainCore(tables, *rule.information_partition(space), chunk=4)
            chunk = _evaluate_chain(core, choices)
            assert_same_bits(chunk.evaluations()[2], alone)


@pytest.mark.parametrize("strict", [False, True])
def test_rules_decide_on_their_own_information(instances, strict):
    """Every rule's choice table is constant on each cell of its
    information partition: per class, a cell holds one (cell, choice) pair.
    _evaluate_chain reads each cell's choice at one of its states."""
    rng = np.random.default_rng(41)
    for config, loose, scheme in instances:
        space = arrival_mode(loose, strict)
        for rule in (PolicyRule(random_policy(rng, config, scheme), scheme), PeakRateRule(),
                     InstantaneousRateRule()):
            cells, ncells = rule.information_partition(space)
            table = rule.choice_table(space)
            assert cells.shape == (space.num_states,) and 0 <= cells.min() <= cells.max() < ncells
            for row in table.tolist():
                assert len(set(zip(cells.tolist(), row))) == len(set(cells.tolist()))


def test_chunk_wide_sums_match_the_row_by_row_reference(hybrid_instance):
    """The normalisation of pi and the per-class blocking sums reduce a
    whole stack at once; each row gets the bits np.add.reduce gives it as a
    lone vector, the row-by-row reference they replace. The raw solutions
    peak at exactly 1, so scaling them to their largest entry keeps them.
    The blocking sums run over each row's own lost states: the same for
    every row under redirection, row by row under strict arrivals (two
    rows repeat one choice table), and both kinds mixed in one stack."""
    config, _ = hybrid_instance
    space = enumerate_states(config)
    tables = chain_tables(space)
    plan = tables.solve_plan
    rng = np.random.default_rng(5)
    B, N, nst = 7, config.num_classes, space.num_states
    raw = rng.random((B, nst)) * rng.choice([1e-12, 1.0, 1e6], size=(B, 1))
    raw /= raw.max(axis=1, keepdims=True)
    data = assemble_stack(tables, rng.integers(config.num_systems, size=(B, N, nst)))
    pi, _, _ = ctmc._balanced(raw[:, plan.order], np.zeros(B, dtype=np.int64), data, plan,
                              plan.pins[0])
    assert pi.tobytes() == np.array([row / np.add.reduce(row) for row in raw]).tobytes()
    choices = rng.integers(config.num_systems, size=(B, N, nst))
    choices[5] = choices[3]
    picked = choices * nst + plan.entry
    lost = {}
    for strict in (False, True):
        mode = chain_tables(arrival_mode(space, strict))
        lost[strict] = ctmc._outcome_index(mode).take(picked) == mode.occ_ns.size
    assert len({row.tobytes() for row in lost[False]}) == 1
    assert len({row.tobytes() for row in lost[True]}) == B - 1
    mixed = np.where(np.arange(B)[:, None, None] % 2 == 1, lost[True], lost[False])
    for rows_lost in (lost[False], lost[True], mixed):
        per_class = ctmc._lost_sums(pi, rows_lost)
        assert per_class.tobytes() == np.array(
            [[np.add.reduce(row.take(np.flatnonzero(mask))) for mask in masks]
             for row, masks in zip(pi, rows_lost)]).tobytes()


def _erlang_data(servers: int, offered: float):
    _, space, _, rule = erlang_loss_chain(servers, offered)
    tables = chain_tables(space)
    return tables.solve_plan, assemble_stack(tables, rule.choice_table(space)[None])[0]


def _solve_lone(servers: int, offered: float):
    """_solve_stationary of one Erlang chain, a stack of one factored in
    place: its band data, its room (the whole buffer), pi, residual and
    what assembles its band again."""
    _, space, _, rule = erlang_loss_chain(servers, offered)
    tables = chain_tables(space)
    picked = rule.choice_table(space)[None] * space.num_states + tables.solve_plan.entry
    return ctmc._solve_stationary(tables, picked, _Scratch())


def _lu_band(data: np.ndarray, layout, in_place: bool) -> np.ndarray:
    """The bands _pinned_lus is handed, as (B, size) data: a stack of one
    assembled for its LU in place gives the band in its rows width..3 width
    (read it before the LU overwrites it)."""
    if not in_place:
        return data
    w = layout.width
    return data.reshape(len(layout.order), 3 * w + 1)[:, w:].reshape(1, -1)


def test_declined_first_pin_inside_a_chunk_gets_the_lone_pi(monkeypatch):
    """On one 300-server layout, two light chains (the empty pin holds), a
    heavy one (the full pin holds) and two mid-load chains with different
    third pins, stacked in shuffled order: each row has the pi and residual
    its chain gets alone, bit for bit, as a stack of one factored in place
    and by stationary_vector's copy. The stack is solved at the first pin
    in one call; each declined generator then goes on alone, in stack
    order, one call per further pin on a view of the stack. A lone chain
    is factored in place at every pin it tries, each time from its band
    assembled afresh in its one buffer."""
    loads = {"light": 10.0, "heavy": 250.0, "mid-100": 100.0, "mid-150": 150.0}
    plans, chains = {}, {}
    for name, offered in loads.items():
        plans[name], chains[name] = _erlang_data(300, offered)
    plan = plans["light"]
    assert all(np.array_equal(p.order, plan.order) and p.pins == plan.pins
               for p in plans.values())
    empty, full = plan.pins
    gens = {name: BandGenerator(d, plan.width, plan.order, plan.pins)
            for name, d in chains.items()}
    assert pinned_solve_holds(gens["light"], empty)
    assert not pinned_solve_holds(gens["heavy"], empty)
    assert pinned_solve_holds(gens["heavy"], full)
    third = {}
    for name in ("mid-100", "mid-150"):
        assert not any(pinned_solve_holds(gens[name], r) for r in plan.pins)
        x, _ = ctmc._pinned_lus(chains[name][None], plan, empty)
        third[name] = int(x[0].argmax())
    assert len({empty, full, *third.values()}) == 4
    order = list(np.random.default_rng(4).permutation([*loads, "light"]))
    stack = np.stack([chains[name] for name in order])

    calls = []
    lus = ctmc._pinned_lus

    def spy(data, layout, r, in_place=False):
        calls.append((r, len(data), in_place, data, _lu_band(data, layout, in_place).copy()))
        return lus(data, layout, r, in_place)

    def further(name):
        return [] if name == "light" else [full] if name == "heavy" else [full, third[name]]

    monkeypatch.setattr(ctmc, "_pinned_lus", spy)
    pi, residual = stationary_vectors(stack, plan)
    declined = [name for name in order if name != "light"]
    assert [call[:3] for call in calls] == [
        (empty, 5, False), *((r, 1, False) for name in declined for r in further(name))]
    assert all(np.shares_memory(call[3], stack) for call in calls)
    for row, name in enumerate(order):
        calls.clear()
        data, _, alone, alone_residual, _ = _solve_lone(300, loads[name])
        assert [call[:3] for call in calls] == [
            (r, 1, True) for r in [empty, *further(name)]]
        assert all(np.shares_memory(call[3], data) for call in calls)
        assert all(np.array_equal(call[4][0], chains[name]) for call in calls)
        assert bits(pi[row]) == bits(alone[0])
        assert residual[row] == alone_residual[0]
        copied, copied_residual = stationary_vector(gens[name])
        assert bits(pi[row]) == bits(copied)
        assert residual[row] == copied_residual


@pytest.mark.parametrize("grouped", [True, False], ids=["one-group", "block-by-block"])
@pytest.mark.parametrize("strict", [False, True])
def test_lone_chains_factored_in_place_match_one_shared_stack(hybrid_instance, monkeypatch,
                                                              strict, grouped):
    """Six chains of hybrid_example at 5 Erlangs, each solved as a stack of
    one by a fresh solver and then all in one stack, agree bit for bit on
    pi, residual, blocking, volumes and payoffs. Each lone chain is
    factored in place; the shared stack copies every band for its LU. Both
    build their tagged bands one block at a time, carved from their
    solver's scratch buffer: the shared stack from its tail, past its
    bands, and a lone chain from its whole buffer, band included. The lone
    chains' volumes come from the plan's one group of every block, and,
    block by block, also from solve_volume_from_matrix, that group on a
    stack of one, with the same bits."""
    config, scheme = hybrid_instance
    space = arrival_mode(enumerate_states(config.scale_traffic(5.0 / config.offered_erlangs)),
                         strict)
    rng = np.random.default_rng(30)
    policies = [random_policy(rng, config, scheme) for _ in range(6)]
    shared = PolicyGameSolver(space, scheme)
    lone = [PolicyGameSolver(space, scheme) for _ in policies]
    rows = shared._policy_rows(policies)
    assert len({shared._key(row) for row in rows}) == len(rows) <= shared.chunk
    tables = chain_tables(space)
    plan = tables.solve_plan
    blocks = [(n, s) for n, row in enumerate(plan.tagged) for s, t in enumerate(row)
              if len(t.ids)]
    assert len(plan.tagged_group.blocks) == len(blocks) > 1

    factored, gathers = [], []
    lus, tagged_matrix = ctmc._pinned_lus, transient._tagged_matrix

    def pinned_lus(data, layout, r, in_place=False):
        factored.append(in_place)
        return lus(data, layout, r, in_place)

    def gather(entries, block, mu, room):
        bands = tagged_matrix(entries, block, mu, room)
        gathers.append((len(entries), np.shares_memory(bands, room), room))
        return bands

    def scratch_of(solver):
        return solver._core.scratch._buffers["data"]

    def offsets(solver):
        # where each room starts in the solver's scratch buffer, in entries
        buffer = scratch_of(solver)
        return {(room.ctypes.data - buffer.ctypes.data) // buffer.itemsize
                for *_, room in gathers}

    monkeypatch.setattr(ctmc, "_pinned_lus", pinned_lus)
    monkeypatch.setattr(transient, "_tagged_matrix", gather)
    alone = []
    for solver, row in zip(lone, rows):
        alone.append(solver._evaluate_chunk(row[None])[0])
        assert gathers and all(np.shares_memory(room, scratch_of(solver))
                               for *_, room in gathers)
        assert {call[:2] for call in gathers} == {(1, True)}
        assert offsets(solver) == {0}
        assert {len(room) for *_, room in gathers} == {plan.lone_size()}
        gathers.clear()
    assert factored == [True] * len(rows)
    factored.clear()
    together = shared._evaluate_chunk(rows)
    assert factored == [False]
    assert gathers and all(np.shares_memory(room, scratch_of(shared)) for *_, room in gathers)
    # only the generators whose block gets an LU are built
    assert {call[1] for call in gathers} == {True}
    assert max(call[0] for call in gathers) <= len(rows)
    # past the stack's bands, so the room does not overlap them
    assert offsets(shared) == {len(rows) * plan.size}
    for a, b in zip(alone, together):
        assert_same_bits(a, b)
    if not grouped:
        for policy, a in zip(policies, alone):
            band = assemble_dense(tables, np.asarray(policy.choice)[:, shared.labels])
            for n, s in blocks:
                alone_block = transient.solve_volume_from_matrix(tables, band, n, s)
                assert bits(alone_block) == bits(a.volumes[n, s])


@pytest.mark.parametrize("several", [True, False], ids=["chunk-of-several", "lone"])
def test_tagged_bands_are_carved_from_the_core_scratch_buffer(hybrid_instance, monkeypatch,
                                                              several):
    """Every array of tagged bands a chunk gathers, in a chunk of several
    policies and in a lone evaluation alike, lies in its core's scratch
    "data" buffer and holds at most B times the largest tagged band's
    entries, for a stack of B generators: only one block's bands are held
    at once. The tagged check's vector does not grow with the block count
    either: it holds one run of max(B n, 2 width + 1) entries."""
    config, scheme = hybrid_instance
    space = enumerate_states(config.scale_traffic(5.0 / config.offered_erlangs))
    solver = PolicyGameSolver(space, scheme)
    plan = chain_tables(space).solve_plan
    largest = max(t.band_size for row in plan.tagged for t in row)
    blocks = sum(1 for row in plan.tagged for t in row if len(t.ids))
    rng = np.random.default_rng(31)
    policies = [random_policy(rng, config, scheme) for _ in range(5 if several else 1)]
    assert solver.chunk >= len(policies) and blocks > 1
    gathered = []
    tagged_matrix = transient._tagged_matrix

    def gather(entries, *rest):
        bands = tagged_matrix(entries, *rest)
        gathered.append((len(entries), bands, solver._core.scratch._buffers["data"]))
        return bands

    monkeypatch.setattr(transient, "_tagged_matrix", gather)
    solver.evaluate_many(policies)
    assert len(gathered) == blocks
    for count, bands, buffer in gathered:
        # only the generators whose block gets an LU are built
        assert count <= len(policies)
        assert np.shares_memory(bands, buffer)
        assert bands.size <= len(policies) * largest
    rows = max(len(policies) * space.num_states, 2 * plan.width + 1)
    assert len(solver._core.scratch._buffers["v"]) == rows


@pytest.mark.parametrize("strict", [False, True])
def test_lone_chain_declining_its_first_pin_falls_back_in_place(monkeypatch, strict):
    """A 300-server Erlang chain at 100 Erlangs declines both pins. Alone
    in the evaluation core it is factored in place at each of its three
    pins, from its band assembled afresh each time, and every check reads
    its clean band, assembled again after each LU: it gets the pi and
    residual stationary_vector gives its copied band, bit for bit."""
    _, loose, _, rule = erlang_loss_chain(300, 100.0)
    space = arrival_mode(loose, strict)
    tables = chain_tables(space)
    plan = tables.solve_plan
    band = assemble_dense(tables, rule.choice_table(space))
    calls, checked = [], []
    lus, balanced = ctmc._pinned_lus, ctmc._balanced

    def spy(data, layout, r, in_place=False):
        calls.append((r, in_place, np.array_equal(_lu_band(data, layout, in_place)[0],
                                                  band.data)))
        return lus(data, layout, r, in_place)

    def balanced_spy(x, info, data, layout, r):
        checked.append(np.array_equal(data, band.data[None]))
        return balanced(x, info, data, layout, r)

    monkeypatch.setattr(ctmc, "_pinned_lus", spy)
    monkeypatch.setattr(ctmc, "_balanced", balanced_spy)
    ev = evaluate_rule(space, rule)
    assert [call[:2] for call in calls][:2] == [(r, True) for r in plan.pins]
    assert len(calls) == 3 and calls[2][0] not in plan.pins and calls[2][1]
    assert all(call[2] for call in calls)
    assert checked == [True] * 3
    calls.clear()
    pi, residual = stationary_vector(band)
    assert not any(call[1] for call in calls)
    assert bits(ev.pi) == bits(pi)
    assert ev.residual == residual


def test_lone_evaluation_peaks_near_its_one_buffer():
    """One evaluate_policy on the 3,600-state sparse-eval instance, in a
    fresh interpreter, raises the peak RSS by at most 1.25 times the buffer
    its lone generator is solved in: the LU is factored where the band was
    assembled, so no band is held beside an LU copy, which would read about
    1.5."""
    measured = lone_evaluation_growth()
    assert measured["states"] == 3600
    assert measured["growth"] <= 1.25 * measured["buffer"], measured


def test_lone_buffer_is_its_lu_band():
    """On perfbench's 3,600-state sparse-eval instance a lone generator's
    buffer is its LU band, n (3 width + 1) entries, which holds any of its
    tagged bands (no block's kl or ku exceeds width), and is smaller than
    its band beside its largest tagged band."""
    config = NetworkConfig(peak_rate=((5.4, 9.0, 7.2), (2.7, 4.5, 3.6), (1.35, 2.7, 1.8)),
                           t_min=1.0, t_max=2.0, arrival_rate=(1.0, 1.0, 1.0),
                           service_rate=1.0)
    plan = chain_tables(enumerate_states(config)).solve_plan
    n = len(plan.order)
    assert n == 3600
    assert plan.lone_size() == n * (3 * plan.width + 1)
    assert plan.lone_size() < plan.size + plan.largest_band
    assert all(t.kl <= plan.width and t.ku <= plan.width for row in plan.tagged for t in row)
    assert plan.largest_band <= plan.lone_size()


def _lone_evaluation(hybrid_instance, monkeypatch, perturb: bool):
    """evaluate_policy of a drawn policy on the shipped instance, a chain of
    one, with _solve_stationary's reassembly wrapped: it records the band
    data before and after, and with perturb adds 1 to the generator entry
    of the first entry of tagged block (0, 0) once the band is assembled
    again. Returns the evaluation's assemble_stack data, the records and
    the band data each _check_tagged call received."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    tables = chain_tables(space)
    policy = random_policy(np.random.default_rng(33), config, scheme)
    expected = assemble_stack(tables, PolicyRule(policy, scheme).choice_table(space)[None])
    entry = tables.solve_plan.tagged[0][0].src[0]
    restored, checked = [], []
    solve, check = game._solve_stationary, transient._check_tagged

    def solve_stationary(tables, picked, scratch):
        data, room, pi, residual, restore = solve(tables, picked, scratch)

        def stand_in():
            before = data.copy()
            restore()
            if perturb:
                data[0, entry] += 1.0
            restored.append((before, data.copy()))
        return data, room, pi, residual, stand_in

    def check_tagged(data, *rest):
        checked.append(data.copy())
        return check(data, *rest)

    monkeypatch.setattr(game, "_solve_stationary", solve_stationary)
    monkeypatch.setattr(transient, "_check_tagged", check_tagged)
    return (lambda: evaluate_policy(space, scheme, policy)), expected, restored, checked


def test_lone_tagged_check_reads_the_band_assembled_again(hybrid_instance, monkeypatch):
    """A lone chain's tagged bands are built over its band, in its one
    buffer; its band is assembled again before the tagged check, which
    receives data bit-equal to assemble_stack of that chain."""
    evaluate, expected, restored, checked = _lone_evaluation(hybrid_instance, monkeypatch,
                                                             perturb=False)
    evaluate()
    (before, after), = restored
    assert not np.array_equal(before, expected)
    assert bits(after) == bits(expected)
    assert len(checked) == 1 and bits(checked[0]) == bits(expected)


def test_lone_tagged_check_sees_what_the_reassembly_writes(hybrid_instance, monkeypatch):
    """A stand-in reassembly that adds 1 to one entry of a tagged block of
    the generator makes evaluate_policy raise ResidualError: the tagged
    check reads the band the reassembly leaves."""
    evaluate, expected, restored, checked = _lone_evaluation(hybrid_instance, monkeypatch,
                                                             perturb=True)
    with pytest.raises(ResidualError, match="tagged residual"):
        evaluate()
    assert len(restored) == len(checked) == 1
    assert np.count_nonzero(checked[0] != expected) == 1


def _decline_every_pin(monkeypatch, singular: np.ndarray, unchecked: np.ndarray) -> None:
    """Make every pinned LU of the generator whose data is `singular` report
    info 1, and every solution of the one whose data is `unchecked` fail its
    residual check, whether its band is copied or factored in place."""
    lus = ctmc._pinned_lus
    noise = 1e-3 * np.random.default_rng(0).random(len(singular) // 3)

    def pinned_lus(data, layout, r, in_place=False):
        bands = _lu_band(data, layout, in_place).copy()
        x, info = lus(data, layout, r, in_place)
        for j, row in enumerate(bands):
            if np.array_equal(row, singular):
                info[j] = 1
            elif np.array_equal(row, unchecked):
                x[j] *= 1.0 + noise[:x.shape[1]]
        return x, info

    monkeypatch.setattr(ctmc, "_pinned_lus", pinned_lus)


@pytest.mark.parametrize("first", [SingularChainError, ResidualError])
def test_first_generator_declining_every_pin_raises(monkeypatch, first):
    """Generators 1 and 3 of a stack of four decline every pin, one by a
    singular LU and one by failing its checks; the stack raises generator
    1's error, as that generator raises it alone, a stack of one factored
    in place, and as stationary_vector raises it on its copy."""
    loads = (10.0, 20.0, 30.0, 40.0)
    chains = [_erlang_data(300, offered) for offered in loads]
    plan = chains[0][0]
    data = [d for _, d in chains]
    if first is SingularChainError:
        _decline_every_pin(monkeypatch, singular=data[1], unchecked=data[3])
    else:
        _decline_every_pin(monkeypatch, singular=data[3], unchecked=data[1])
    with pytest.raises(first) as alone:
        _solve_lone(300, loads[1])
    with pytest.raises(first) as copied:
        stationary_vector(BandGenerator(data[1], plan.width, plan.order, plan.pins))
    assert str(copied.value) == str(alone.value)
    other = ResidualError if first is SingularChainError else SingularChainError
    with pytest.raises(other) as third:
        _solve_lone(300, loads[3])
    assert str(third.value) != str(alone.value)
    with pytest.raises(first) as stacked:
        stationary_vectors(np.stack(data), plan)
    assert str(stacked.value) == str(alone.value)


def test_singular_tagged_block_raises_the_chunk_of_one_error(hybrid_instance, monkeypatch):
    """Two tagged blocks of policy 2 and one of policy 3 report a nonzero
    LAPACK info; a chunk of four raises the SingularTaggedChainError that a
    chunk of policy 2 alone raises, at its first such block."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    tables = chain_tables(space)
    solver = PolicyGameSolver(space, scheme)
    rng = np.random.default_rng(21)
    policies = [random_policy(rng, config, scheme) for _ in range(4)]
    choices = np.array([p.choice for p in policies]).take(solver.labels, axis=2)
    data = assemble_stack(tables, choices)
    nonempty = [p for row in tables.solve_plan.tagged for p in row if len(p.ids)]
    bands = [[tagged_band(d, p, config.service_rate) for p in nonempty]
             for d in data]

    def unique(b):
        return [k for k in range(len(nonempty)) if not any(
            np.array_equal(bands[b][k], bands[o][k]) for o in range(4) if o != b)]

    k2, k3 = unique(2), unique(3)
    assert len(k2) >= 2 and k3
    infos = [(bands[2][k2[0]], 7), (bands[2][k2[-1]], 8), (bands[3][k3[0]], 9)]
    solve = transient._solve_tagged

    def solve_tagged(plan, block, rhs):
        flat = block.ravel(order="F")
        forced = [f for band, f in infos if flat.size == band.size and np.array_equal(flat, band)]
        values, info = solve(plan, block, rhs)
        return values, forced[0] if forced else info

    monkeypatch.setattr(transient, "_solve_tagged", solve_tagged)
    core = _ChainCore(tables, solver.labels, solver.num_labels, chunk=4)
    with pytest.raises(SingularTaggedChainError) as alone:
        _evaluate_chain(core, choices[2:3])
    assert "info 7" in str(alone.value)
    with pytest.raises(SingularTaggedChainError) as chunked:
        _evaluate_chain(core, choices)
    assert str(chunked.value) == str(alone.value)


def test_corrupted_tagged_src_raises_from_the_chunked_check(hybrid_instance):
    """A tagged block whose gather reads one entry from the wrong slot
    solves a wrong system; the stacked residual check against the full
    generators raises ResidualError, in a chunk and alone."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    tables = chain_tables(space)
    plan = tables.solve_plan.tagged[0][0]
    data = assemble_stack(tables, np.zeros((3, config.num_classes, space.num_states), int))
    rows, cols = tagged_rows_cols(plan)
    off = np.nonzero((rows != cols) & (data[0].take(plan.src) != 0))[0][0]
    src = plan.src.copy()
    src[off] = 0
    tables.solve_plan.tagged[0][0] = dataclasses.replace(plan, src=src)
    admitted = np.repeat(tables.admit_sys[None, :, 0].astype(np.int8), 3, axis=0)
    room = np.empty(3 * tables.solve_plan.largest_band)
    with pytest.raises(ResidualError, match="tagged residual"):
        tagged_volumes(tables, data, admitted, {}, _Scratch(), room)
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
    keys = [solver._key(p.flatten()) for p in policies]
    assert len(set(keys)) == len(keys)

    def data_of(policy):
        return assemble_dense(tables, np.asarray(policy.choice)[:, solver.labels]).data

    nonempty = [p for row in tables.solve_plan.tagged for p in row if len(p.ids)]

    def bands_of(policy):
        return [tagged_band(data_of(policy), p, config.service_rate)
                for p in nonempty]

    # a block of policy 3 and a generator of policy 5 that no other policy has
    bands = [bands_of(p) for p in policies]
    k = next(k for k in range(len(nonempty))
             if not any(np.array_equal(bands[3][k], other[k]) for other in bands[:3] + bands[4:]))
    poisoned = bands[3][k]
    bad_pi = data_of(policies[5])
    assert not any(np.array_equal(bad_pi, data_of(p)) for p in policies[:5] + policies[6:])
    solve, lus = transient._solve_tagged, ctmc._pinned_lus

    def solve_tagged(plan, block, rhs):
        hit = block.size == poisoned.size and np.array_equal(block.ravel(order="F"), poisoned)
        values, info = solve(plan, block, rhs)
        if hit:
            values *= 1 + 1e-6
        return values, info

    in_place_calls = []

    def pinned_lus(data, layout, r, in_place=False):
        # a lone evaluation is factored in place: its band is read first
        bad = [np.array_equal(row, bad_pi) for row in _lu_band(data, layout, in_place)]
        x, info = lus(data, layout, r, in_place)
        info[bad] = 1
        in_place_calls.append(in_place)
        return x, info

    monkeypatch.setattr(transient, "_solve_tagged", solve_tagged)
    monkeypatch.setattr(ctmc, "_pinned_lus", pinned_lus)

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
    # the chunk of eight copied its bands; one at a time, each first pin
    # was factored in place
    assert {False, True} <= set(in_place_calls)


def test_tagged_blocks_go_one_at_a_time_past_the_budget(monkeypatch):
    """The blocks of a stack are gathered one at a time at any budget: the
    plan's one group holds every non-empty block, whatever CHUNK_BYTES
    says, and a lone generator's buffer has room for its largest tagged
    band. A policy chunk never holds more than the budget, and always at
    least one policy."""
    config = NetworkConfig(peak_rate=((5.4, 9.0, 7.2), (2.7, 4.5, 3.6)),
                           t_min=1.0, t_max=2.0, arrival_rate=(1.0, 1.0), service_rate=1.0)
    plan = chain_tables(enumerate_states(config)).solve_plan
    nonempty = [t for row in plan.tagged for t in row if len(t.ids)]
    assert len(nonempty) > 1
    group = plan.tagged_group
    assert [p for _, p, _ in group.blocks] == nonempty
    assert plan.largest_band == max(t.band_size for t in nonempty)
    assert plan.lone_size() >= plan.largest_band
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", 3 * plan.policy_bytes - 1)
    assert plan.chunk_size() == 2
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", plan.tagged_bytes - 1)
    assert plan.chunk_size() == 1
    assert plan.tagged_group is group


def _block_keys(solver, row: np.ndarray) -> dict[int, bytes]:
    """The key of each non-empty tagged block of one flat row, by block
    index in (class, system) order: the bytes, as int8, of the system the
    network admits each class's arrival to at the states holding the
    block's tagged user."""
    tables = solver.tables
    choices = row.astype(np.intp).take(solver._state_entries).reshape(
        solver.config.num_classes, 1, solver.space.num_states)
    admitted = np.take_along_axis(tables.admit_sys, choices, axis=1)[:, 0].astype(np.int8)
    plans = enumerate(plan for plans in tables.solve_plan.tagged for plan in plans)
    return {k: admitted[:, plan.ids].tobytes() for k, plan in plans if len(plan.ids)}


def test_reused_tagged_block_is_checked_again(hybrid_instance):
    """A tagged block served from a solver's block cache goes through the
    same residual check as a solved one: with one cached value thrown off
    by one part in a million, a new fibre whose block key hits that entry
    raises ResidualError, while a fresh solver evaluates it."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    solver = PolicyGameSolver(space, scheme)
    rng = np.random.default_rng(4)
    solver.evaluate_many([random_policy(rng, config, scheme) for _ in range(4)])
    for _ in range(1000):
        policy = random_policy(rng, config, scheme)
        row = solver._policy_rows([policy])
        hits = [(k, key) for k, key in _block_keys(solver, row[0]).items()
                if key in solver._core.solved.get(k, {})]
        if hits and solver._key(row[0].tolist()) not in solver._cache:
            break
    else:
        pytest.fail("no new fibre shares a block key with the cached ones")
    assert PolicyGameSolver(space, scheme).evaluate(policy).policy == policy
    k, key = hits[0]
    solver._core.solved[k][key][0] *= 1 + 1e-6
    with pytest.raises(ResidualError, match="tagged residual"):
        solver.evaluate(policy)


@pytest.mark.parametrize("strict, fibres, distinct, equilibria",
                         [(False, 256, 449, 1), (True, 4_096, 9_232, 0)],
                         ids=["redirect", "strict"])
def test_search_factors_each_distinct_tagged_block_once(monkeypatch, strict, fibres, distinct,
                                                        equilibria):
    """On the nash-exhaustive benchmark instance, find_nash("exhaustive")
    runs one tagged LU per distinct band the search solver gathers: 449
    for the 1,024 blocks of its 256 fibres with redirected arrivals, 9,232
    for the 16,384 blocks of its 4,096 fibres under strict arrivals, the
    distinct bands counted here by hashing _tagged_matrix's output. It
    gathers only the bands it factors, one per LU. The fresh checker starts
    with an empty block cache of its own and reads none of the search's
    blocks: it factors every block of the fibres it verifies, the one
    equilibrium fibre with redirected arrivals and none under strict
    ones."""
    space, scheme = instance_of(nash_exhaustive_doc(), strict)
    config = space.config
    solver = PolicyGameSolver(space, scheme)
    calls, gathered = [0], [0]
    solve, gather = transient._solve_tagged, transient._tagged_matrix
    fresh_checker = PolicyGameSolver.fresh_checker

    def solve_tagged(*args):
        calls[0] += 1
        return solve(*args)

    def tagged_matrix(*args):
        bands = gather(*args)
        gathered[0] += len(bands)
        return bands

    checkers = []

    def checker_of(parent):
        checker = fresh_checker(parent)
        checkers.append((checker, calls[0], dict(checker._core.solved)))
        return checker

    monkeypatch.setattr(transient, "_solve_tagged", solve_tagged)
    monkeypatch.setattr(transient, "_tagged_matrix", tagged_matrix)
    monkeypatch.setattr(PolicyGameSolver, "fresh_checker", checker_of)
    assert len(solver.find_nash("exhaustive")) == equilibria
    (checker, searched, at_start), = checkers
    tables = chain_tables(space)
    N, L = config.num_classes, solver.num_labels
    rows = solver._key_rows(list(solver._cache))
    data = assemble_stack(tables, rows.astype(np.int64).reshape(-1, N, L)
                          .take(solver.labels, axis=2))
    blocks = [(k, plan) for k, plan in enumerate(p for row in tables.solve_plan.tagged
                                                 for p in row) if len(plan.ids)]
    bands = {(k, band.tobytes()) for k, plan in blocks for band in gather(
        data.take(plan.src, axis=1), plan, config.service_rate,
        np.empty(len(data) * plan.band_size))}
    assert (len(rows), len(rows) * len(blocks)) == (fibres, 4 * fibres)
    assert searched == len(bands) == sum(map(len, solver._core.solved.values())) == distinct
    assert at_start == {} and checker._core.solved is not solver._core.solved
    assert calls[0] - searched == len(blocks) * len(checker._cache) == 4 * equilibria
    assert gathered[0] == calls[0] == distinct + 4 * equilibria


def test_lone_evaluations_share_the_block_cache(monkeypatch):
    """A chunk of one keys its tagged blocks like any chunk: with a budget
    that holds one policy, evaluate_many solves the 256 fibres of the
    nash-exhaustive instance one at a time and factors the same 449
    distinct blocks as the chunked scan, the first fibre's blocks
    included."""
    space, scheme = instance_of(nash_exhaustive_doc())
    monkeypatch.setattr(ctmc, "CHUNK_BYTES", 1)
    solver = PolicyGameSolver(space, scheme)
    assert solver.chunk == 1
    calls = [0]
    solve = transient._solve_tagged

    def solve_tagged(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(transient, "_solve_tagged", solve_tagged)
    fibres = list(solver.representatives())
    solver.evaluate_many(fibres)
    assert (len(fibres), calls[0]) == (256, 449)


def _watch_chunks(solver, monkeypatch) -> list[int]:
    """The size of every chunk the solver itself solves, in order."""
    sizes = []
    chunk = solver._evaluate_chunk

    def watch(rows):
        sizes.append(len(rows))
        return chunk(rows)

    monkeypatch.setattr(solver, "_evaluate_chunk", watch)
    return sizes


def test_scans_take_chunks_through_evaluate_many(hybrid_instance, monkeypatch):
    """Both exhaustive scans solve their fibres through evaluate_many, in
    chunks of at most solver.chunk policies; the best-response search
    solves the fibres of each lockstep round together, with at most one
    chunk of one (the fresh checker is another solver, not counted)."""
    config, scheme = hybrid_instance
    space = enumerate_states(config)
    solver = PolicyGameSolver(space, scheme)
    sizes = _watch_chunks(solver, monkeypatch)
    solver.find_nash("exhaustive")
    fibres = sum(1 for _ in solver.representatives())
    assert max(sizes) == solver.chunk > 1
    assert sum(sizes) >= fibres
    sizes.clear()
    solver.optimal_policy(method="exhaustive", cap=solver.policy_space_size())
    assert sizes == []                 # every fibre is cached by now
    assert isinstance(solver.evaluate(next(solver.representatives())), PolicyEvaluation)
    searcher = PolicyGameSolver(space, scheme)
    sizes = _watch_chunks(searcher, monkeypatch)
    searcher.find_nash("best_response")
    assert sizes.count(1) <= 1
    assert max(sizes) == searcher.chunk
    assert sum(sizes) == len(searcher._cache)


def _one_at_a_time_search(solver, restarts: int, seed: int):
    """optimal_policy(method="search") with each trial solved alone, as
    coordinate ascent reads: the reference for the batched trials."""
    rng = np.random.default_rng(seed)
    S = solver.config.num_systems
    count, best_policy, best_ev = 0, None, None
    for start in solver._starting_policies(restarts, rng):
        policy = solver._policy(start)
        ev = solver.evaluate(policy)
        count += 1
        improved = True
        while improved:
            improved = False
            for (n, l) in solver._positions:
                current = policy.choice[n][l]
                for s in range(S):
                    if s == current:
                        continue
                    trial = with_entry(policy, n, l, s)
                    trial_ev = solver.evaluate(trial)
                    count += 1
                    if trial_ev.global_utility > ev.global_utility + 1e-12:
                        policy, ev = trial, trial_ev
                        improved = True
        if best_ev is None or ev.global_utility > best_ev.global_utility:
            best_policy, best_ev = policy, ev
    return best_policy, best_ev, count


@pytest.mark.parametrize("seed", [0, 7])
def test_search_solves_each_positions_trials_together(hybrid_instance, monkeypatch, seed):
    """Coordinate ascent solves a position's trials with one evaluate_many:
    the same accepted moves, result bits and policies_evaluated as solving
    them one at a time, in fewer chunks."""
    config, scheme = hybrid_instance
    space = enumerate_states(config.scale_traffic(5.0 / config.offered_erlangs))
    reference = PolicyGameSolver(space, scheme)
    ref_sizes = _watch_chunks(reference, monkeypatch)
    policy, evaluation, count = _one_at_a_time_search(reference, restarts=4, seed=seed)
    solver = PolicyGameSolver(space, scheme)
    sizes = _watch_chunks(solver, monkeypatch)
    result = solver.optimal_policy(method="search", restarts=4, seed=seed)
    assert result.policy == policy and result.ties == [policy]
    assert result.policies_evaluated == count
    assert result.evaluation.global_utility == evaluation.global_utility
    assert np.array_equal(result.evaluation.pi, evaluation.pi)
    assert sum(sizes) == sum(ref_sizes)
    assert len(sizes) < len(ref_sizes)
