"""Global and individual utilities, optimal policies, Nash equilibria and
the two information baselines.

Every assignment rule is valued by one evaluation core: it solves the
chain a choice table induces once, derives every tagged volume table, and
bins over the cells of an information partition, side by side, the cell
masses, the blocking table and one payoff table: payoff[n, c, s] sums,
over the states of cell c, pi times the volume a class-n arrival
preferring system s ends up with (not normalized by cell mass). A rule
decides on its own information, so its choices are constant on each cell
of its partition; the global utility (traffic weighted) reads the payoff
at each cell's chosen system, weighted by the cell's non-blocking
probability. evaluate_rule runs the core for any rule over the rule's own
partition: a policy's cells are the broadcast load labels; the peak-rate
baseline has a single cell and the instantaneous-rate baseline one cell
per state. The solver, evaluate_baseline and the CLI's utility table all
read it. A policy evaluation adds the individual deviation payoffs
U[n, l, s], its payoff table over the label mass. Deviating to a saturated
system is valued at the outcome the network actually produces: the
redirected system's expectation, or zero when every system is full (always
zero under the config's strict_arrivals). Labels with (numerically) zero
stationary mass carry no strategic content; they are masked out of
equilibrium comparisons and canonicalized to system 0 when policies are
reported.

Redirection makes many policies interchangeable: preferring a saturated
system is the same as preferring the one the network picks instead. A
choice matters only through what the network does with it, the system it
admits the arrival to (ChainTables.admit_sys) or its loss, and that one
table is a chain's identity. The solver groups policies into fibres, the
sets of policies that induce the same admitted systems, so the same chain
and the same payoffs bit for bit (the reduced normal form of the game).
Exhaustive scans solve one representative per fibre, and the evaluation
cache, which has no off switch, serves every member from it.

Inside the solver a policy is a flat row of its choices, entry n * L + l
for class n and label l, and a fibre is keyed by the bytes of its
representative's row as int8. The searches run on rows and keys; a Policy
is built only where one leaves the solver: the smallest member of each
equilibrium fibre find_nash reports, optimal_policy's result and ties,
best_response_path's end, and what representatives() and fibre() return.
find_nash reports fibres, not members: an EquilibriumFibre holds the
fibre's evaluation, each entry's options and the member count, and builds
a member's Policy only when members() is asked for it. Each solved fibre
keeps its Nash gap and its best responses (each entry's argmax and the
entries a best response moves) with its evaluation, so no search
recomputes them.

The core evaluates a chunk of choice tables at once: one assembly into a
stack of bands, the stationary and tagged solves with their checks, and the
aggregation, each over a leading batch axis, with one LAPACK solve per
policy for the stationary vector and one per distinct tagged block.
Outside those calls its numpy work is a fixed number of array passes per
chunk and per tagged block, whatever the chunk's size, and its large work
arrays are scratch buffers it reuses from chunk to chunk. Every chunk's
tagged bands are built one block at a time into the tail of the buffer
that holds its generators. A chunk of one is factored in place: its
generator, stationary LU and tagged bands share one buffer sized from the
plan, its tagged bands built over its band once their entries are read,
so its peak memory is one LU band, not the band beside its LU copy or a
tagged band (ctmc._solve_stationary).
Exhaustive scans, both searches and the fresh re-verification solve their
missing fibres a chunk at a time (ctmc.CHUNK_BYTES bounds a chunk): the
best-response paths, or the coordinate ascents, of all restarts advance in
lockstep under one driver, and each round solves the fibres the paused
walks wait for together. A single evaluation and evaluate_rule are chunks
of one. A policy's results have the same bits in any chunk.

A tagged (n, s) block depends only on the admitted systems at the states
holding an (n, s) user. The core hands a chunk's admitted table to
transient.tagged_volumes, which keys each block by its bytes at those
states, and keeps, per block, the checked values of every key it solved.
A block whose key it has seen, in an earlier chunk or earlier in the same
one, is copied, neither gathered nor factored, and checked on the full
generator like a solved one. Every evaluation takes this path, a lone one,
evaluate_rule and the baselines included. The block cache belongs to the
solver's core, so the fresh checker starts with an empty one and reads
none of its parent's blocks.

The tolerances are constants: NASH_EPS for equilibrium tests and the
best-response steps, TIE_TOL for the exhaustive optimum's ties,
EMPTY_LABEL_MASS for a cell without stationary mass, MAX_PATH_STEPS for a
best-response path, and ctmc.STEADY_RESIDUAL_TOL for the stationary
solves.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .aggregation import label_array
from .config import AggregationScheme, ConfigError, NetworkConfig, Policy
# assemble_dense, assemble_generator and solve_volume_from_matrix are not
# called here, but perfbench/tracer.py wraps the names in this module, so
# they stay bound
from .ctmc import (ChainTables, ResidualError, SingularChainError,  # noqa: F401
                   _lost_sums, _offsets, _outcome_index, _Scratch, _solve_stationary,
                   assemble_dense, assemble_generator, chain_tables, stationary_vector)
from .rules import AssignmentRule, InstantaneousRateRule, PeakRateRule
from .states import StateSpace
from .transient import (SingularTaggedChainError, solve_volume_from_matrix,  # noqa: F401
                        tagged_volumes)

NASH_EPS = 1e-9
TIE_TOL = 1e-9
# a cell with at most this stationary mass is empty: its blocking reads 0
# and its payoffs are undefined
EMPTY_LABEL_MASS = 1e-12
# steps after which a best-response path counts as a cycle
MAX_PATH_STEPS = 2000
# what a chain solve raises when it cannot be trusted
SOLVE_ERRORS = (ResidualError, SingularChainError, SingularTaggedChainError)


def _solve_pi(space: StateSpace, q) -> tuple[np.ndarray, float]:
    """Stationary distribution of a generator from assemble_dense, with the
    same post-solve checks the public solver applies; space is unused, but
    perfbench/tracer.py reads the generator as the second argument."""
    return stationary_vector(q)


class SearchCapError(RuntimeError):
    """The policy space is too large for exhaustive enumeration."""


@dataclass
class ChainEvaluation:
    """What one choice table induces, aggregated over an information
    partition: the "labels" are a policy's load labels or a baseline rule's
    information cells."""

    pi: np.ndarray
    residual: float
    label_mass: np.ndarray
    empty_labels: np.ndarray          # no stationary mass (or no states at all)
    blocking: np.ndarray              # (N, L) conditional blocking per label
    global_utility: float
    overall_blocking: float
    per_class_blocking: np.ndarray
    volumes: np.ndarray               # (N, S, num_states) tagged expectations


class _ChainCore:
    """What _evaluate_chain reuses from chunk to chunk over one information
    partition, cells (a cell id per state) and ncells cells in all, for
    chunks of up to `chunk` choice tables. A core belongs to one solver, so
    no other solver reads its blocks.

    - tables: the space's ChainTables.
    - admitted: their admit_sys as int8, the key of the tagged blocks.
    - outcome: ctmc._outcome_index, which also decides loss.
    - cell_bins: the (table, cell) bin of state i of table b, at
      b * num_states + i, for the cell masses.
    - class_bins: the (table, class, cell) bin of (table, class, state),
      at (b * N + n) * num_states + i, for the blocking numerators.
    - payoff_bins: the (table, class, cell, system) bin of each (table,
      class, system, state) product of a chunk's payoff tables.
    - cell_state: one state of each cell (0 for a cell without states),
      where a table's choice in the cell is read, as the table is
      constant on it.
    - solved: per tagged block, the checked values of every key it was
      solved under (see transient._solve_group).
    - scratch: the buffers its chunks' generators and tagged bands, a lone
      generator's LU, and the tagged checks reuse: one block's bands at a
      time, in the tail of the generators' buffer, or over a lone
      generator's band.
    """

    def __init__(self, tables: ChainTables, cells: np.ndarray, ncells: int, chunk: int):
        N, S, nst = tables.occ_ns.shape
        self.tables, self.ncells = tables, ncells
        # a system index fits in int8, since a state space with over 127
        # systems could not be enumerated
        self.admitted = tables.admit_sys.astype(np.int8)
        self.outcome = _outcome_index(tables)
        self.cell_bins = (np.arange(0, chunk * ncells, ncells)[:, None] + cells).ravel()
        self.class_bins = (np.arange(0, chunk * N * ncells, ncells)[:, None] + cells).ravel()
        n_idx, s_idx = np.arange(N)[:, None, None], np.arange(S)[:, None]
        self.payoff_bins = (np.arange(0, chunk * N * ncells * S, N * ncells * S)[:, None]
                            + ((n_idx * ncells + cells) * S + s_idx).ravel()).ravel()
        self.cell_state = np.zeros(ncells, dtype=np.intp)
        self.cell_state[cells] = np.arange(nst)
        self.solved: dict[int, dict[bytes, np.ndarray]] = {}
        self.scratch = _Scratch()


class _ChainChunk(NamedTuple):
    """_evaluate_chain's result: the stacked arrays of a chunk of choice
    tables, each constant on the core's cells, in ChainEvaluation's field
    order, then payoff. evaluations() builds one evaluation per table; a
    policy chunk divides payoff by the cell mass."""

    pi: np.ndarray                    # (B, num_states)
    residual: list[float]             # (B,) balance residuals
    mass: np.ndarray                  # (B, ncells) stationary mass per cell
    empty: np.ndarray                 # (B, ncells) mass at most EMPTY_LABEL_MASS
    blocking: np.ndarray              # (B, N, ncells) blocking conditional on the cell
    global_utility: list[float]       # (B,)
    overall: list[float]              # (B,) arrival-rate weighted over the classes
    per_class: np.ndarray             # (B, N) unconditional blocking per class
    volumes: np.ndarray               # (B, N, S, num_states)
    payoff: np.ndarray                # (B, N, ncells, S), not normalized by cell mass

    def evaluations(self, make=ChainEvaluation, *columns) -> list:
        """make() of each table's ChainEvaluation fields, in field order,
        followed by its entry of each extra column."""
        return [make(*fields) for fields in zip(*self[:-1], *columns)]


def _evaluate_chain(core: _ChainCore, choices: np.ndarray) -> _ChainChunk:
    """Solve the chains of a chunk of preferred-system tables, choices of
    shape (B, N, num_states) in any integer type, and aggregate each over
    the core's cells, on each of which every table is constant, as a
    rule's choice_table is on its information_partition. The systems the
    network admits the chunk's arrivals to key its tagged blocks: a block
    whose key the core has solved is copied, not factored (see
    tagged_volumes).

    Every step runs once for the chunk: assembly, the stationary solves,
    blocking, the tagged volumes, the payoff tables and the global utility.
    The tagged bands are built one block at a time into the room past the
    chunk's bands, in the same buffer; a chunk of one is assembled and
    factored in place there, and its room is the whole buffer:
    tagged_volumes reads its blocks' entries out of its band first, and
    calls the reassembly _solve_stationary hands over to restore the band
    for the checks.

    A (class, state) pair is lost where its chosen outcome is the outcome
    index's sentinel. Each cell sum is one bincount, which adds a bin's
    weights in state order: the cell mass of pi; the blocking numerator of
    pi times the lost mask, where a state that loses nothing adds a zero,
    which keeps the sum's bits those of the lost states alone; and
    payoff[b, n, c, s] of pi times the volume a class-n arrival preferring
    s ends up with (zero where it is lost). A cell's blocking is its
    numerator over its mass, 0 on a cell of at most EMPTY_LABEL_MASS.
    per_class sums each row's own lost states (ctmc._lost_sums), and
    overall weights it by the arrival rates. The global utility weights each cell's payoff at its chosen system,
    read at one state of the cell, by its non-blocking probability. A
    table's results have the bits they have in a chunk of one: each row of
    share is summed over its cells on its own, and the weighted class
    totals are added one class at a time from 0, as Python's sum adds them
    for one table.
    """
    tables, ncells = core.tables, core.ncells
    plan = tables.solve_plan
    B, N, nst = choices.shape
    S = tables.config.num_systems
    picked = np.multiply(choices, nst, dtype=np.intp)
    picked += plan.entry
    data, room, pi, residual, restore = _solve_stationary(tables, picked, core.scratch)
    lost = core.outcome.take(picked) == tables.occ_ns.size
    mass = np.bincount(core.cell_bins[:B * nst], weights=pi.ravel(),
                       minlength=B * ncells).reshape(B, ncells)
    empty = mass <= EMPTY_LABEL_MASS
    lost_mass = np.bincount(core.class_bins[:B * N * nst],
                            weights=(pi[:, None] * lost).ravel(),
                            minlength=B * N * ncells).reshape(B, N, ncells)
    blocking = np.zeros((B, N, ncells))
    np.divide(lost_mass, mass[:, None], out=blocking, where=~empty[:, None])
    per_class = _lost_sums(pi, lost)
    overall = np.fromiter(map(tables.class_weight.dot, per_class), float, B).tolist()
    padded = tagged_volumes(tables, data, core.admitted.take(picked), core.solved,
                            core.scratch, room, restore)
    products = padded[:, core.outcome] * pi[:, None, None]
    payoff = np.bincount(core.payoff_bins[:products.size], weights=products.ravel(),
                         minlength=B * N * ncells * S).reshape(B, N, ncells, S)
    # each cell's payoff at its chosen system, read at one state of the cell
    chosen = _offsets(S, B * N * ncells) + choices.take(core.cell_state, axis=2).ravel()
    share = (1.0 - blocking) * payoff.take(chosen).reshape(B, N, ncells)
    weighted = tables.class_weight * share.sum(axis=2)
    # 0 + the first class's total, then the others in turn
    utility = weighted[:, 0] + 0.0
    for n in range(1, N):
        utility += weighted[:, n]
    volumes = padded[:, :-1].reshape(B, *tables.occ_ns.shape)
    return _ChainChunk(pi, residual.tolist(), mass, empty, blocking, utility.tolist(),
                       overall, per_class, volumes, payoff)


def _deviations(individual: np.ndarray, choice: np.ndarray, empty: np.ndarray):
    """Of a stack of payoff tables (B, N, L, S), choices (B, N, L) or flat
    (B, N * L) and empty labels (B, L): PolicyEvaluation.nash_gap of each
    table (B,), and per flat entry n * L + l (B, N * L), the argmax of its
    payoff row and whether a best response moves it, its best payoff above
    its own by more than NASH_EPS on a label with mass."""
    B, N, L, S = individual.shape
    payoffs = individual.reshape(B, N * L, S)
    top = np.maximum.reduce(payoffs, 2)
    own = payoffs.take(_offsets(S, B * N * L).reshape(B, N * L) + choice.reshape(B, -1))
    skip = np.tile(empty, N)
    forgone = top - own
    np.copyto(forgone, -np.inf, where=skip)
    gaps = np.maximum.reduce(forgone, 1, initial=0.0)
    return gaps, payoffs.argmax(axis=2), (top > own + NASH_EPS) & ~skip


@dataclass
class PolicyEvaluation(ChainEvaluation):
    """Everything one policy induces: chain, blocking, utilities."""

    policy: Policy | None             # None in the solver's fibre cache
    individual: np.ndarray            # (N, L, S), nan on empty labels
    gap: float                        # nash_gap(), set when the chain is solved
    best: list[int]                   # argmax of each flat entry's payoff row, set with gap
    movers: list[int]                 # positions() indexes a best response moves, set with gap

    def nash_gap(self) -> float:
        """Largest payoff any (class, label) group forgoes by following the
        policy; <= 0 means no profitable unilateral deviation exists.

        Labels without mass are left out. Interchangeable systems have
        bit-equal payoffs, so the gap, computed once when the fibre is
        solved, is every member's.
        """
        return self.gap


@dataclass
class EquilibriumFibre:
    """One equilibrium fibre find_nash reports, standing for its canonical
    members: options[k] lists, in increasing order, the systems flat entry
    k takes over them, (0,) on a label without stationary mass. Every
    member has the fibre's evaluation, bit for bit; evaluation.policy is
    the smallest member, the elementwise minimum of the options."""

    evaluation: PolicyEvaluation
    options: tuple[tuple[int, ...], ...]

    @property
    def policy(self) -> Policy:
        return self.evaluation.policy

    @property
    def global_utility(self) -> float:
        return self.evaluation.global_utility

    @property
    def overall_blocking(self) -> float:
        return self.evaluation.overall_blocking

    @property
    def count(self) -> int:
        """Number of member policies."""
        return math.prod(map(len, self.options))

    def rows(self):
        """The flat row of every member, as a tuple, in increasing order."""
        return itertools.product(*self.options)

    def members(self):
        """The evaluation of every member, in increasing order, each under
        its own Policy."""
        N, L = self.policy.num_classes, self.policy.num_labels
        for row in self.rows():
            yield replace(self.evaluation, policy=Policy.from_flat(row, N, L))


def ordered_members(equilibria: list[EquilibriumFibre]):
    """(flat row, fibre) of every member of the fibres, in increasing row
    order, merged lazily: no fibre's members are held at once."""
    return heapq.merge(*(zip(fibre.rows(), itertools.repeat(fibre)) for fibre in equilibria),
                       key=itemgetter(0))


@dataclass
class OptimalResult:
    policy: Policy
    evaluation: PolicyEvaluation
    ties: list[Policy]
    method: str
    policies_evaluated: int


@dataclass
class BestResponseStep:
    """One entry update along a best-response path, with the payoffs the
    responding group saw before the update."""

    user_class: int
    label: int
    old_system: int
    new_system: int
    old_payoff: float
    new_payoff: float


class PolicyGameSolver:
    """Evaluates policies over one (space, scheme) pair and searches the
    policy space.

    rep[n, l, s] is the lowest system interchangeable with s at the entry
    (n, l). A policy's fibre is the set of canonical policies whose flat
    rows rep maps to the same row, the fibre's representative; the
    evaluation cache, which holds each solved fibre's best responses too,
    is keyed by the bytes of that row as int8.
    """

    def __init__(self, space: StateSpace, scheme: AggregationScheme):
        if scheme.num_systems != space.config.num_systems:
            raise ConfigError(f"the scheme needs one threshold pair per system: got "
                              f"{scheme.num_systems} for {space.config.num_systems} systems")
        self.space = space
        self.scheme = scheme
        self.config: NetworkConfig = space.config
        self.tables: ChainTables = chain_tables(space)
        self.labels = label_array(scheme, space)
        self.num_labels = scheme.label_count
        self.structurally_empty = np.bincount(self.labels, minlength=self.num_labels) == 0

        N, S, L = self.config.num_classes, self.config.num_systems, self.num_labels
        # free entries as (class, label) pairs and as flat row entries
        self._positions = tuple((n, l) for n in range(N) for l in range(L)
                                if not self.structurally_empty[l])
        self._entries = tuple(n * L + l for n, l in self._positions)
        # policies per chunk of the exhaustive scans and evaluate_many
        self.chunk = self.tables.solve_plan.chunk_size()
        self._core = _ChainCore(self.tables, self.labels, L, self.chunk)
        # the flat row entry of each (class, state): its label's
        self._state_entries = (np.arange(N)[:, None] * L + self.labels).ravel()
        self.rep = self._interchangeable_systems()
        # rep per flat entry; a system index fits in int8, since a state
        # space with over 127 systems could not be enumerated
        self._rep_rows = self.rep.reshape(N * L, S).astype(np.int8)
        self._rep_entries = self._rep_rows.tolist()
        self._cache: dict[bytes, PolicyEvaluation] = {}

    def _interchangeable_systems(self) -> np.ndarray:
        """rep[n, l, s]: the lowest system interchangeable with s at the
        entry (n, l).

        Two systems are interchangeable there when, at every state of label
        l, the network admits a class-n arrival preferring either to the
        same system, or loses both. Everything the evaluation gathers
        through a choice is a function of that admitted system: the band
        position and rate of the arrival, and the outcome index of the
        chosen value, which is also the deviation payoff's. Policies with
        the same image under rep (one fibre) then assemble the same
        generator and the same payoff table, bit for bit.
        A structurally empty label maps every system to 0.
        """
        N, S, L = self.config.num_classes, self.config.num_systems, self.num_labels
        admit = self.tables.admit_sys
        differ = admit[:, :, None] != admit[:, None]
        # clash[n, s, t, l]: s and t disagree at some state of label l
        bins = (np.arange(N * S * S)[:, None] * L + self.labels).ravel()
        clash = np.bincount(bins, weights=differ.ravel(), minlength=N * S * S * L)
        agree = clash.reshape(N, S, S, L).transpose(0, 3, 1, 2) == 0
        return agree.argmax(axis=3)

    # ----- rows and fibre keys ----------------------------------------

    def positions(self) -> tuple[tuple[int, int], ...]:
        """Free policy entries in lexicographic (class, label) order; labels
        without any feasible state are pinned to system 0 and skipped."""
        return self._positions

    def policy_space_size(self) -> int:
        """Number of canonical policies (free entries only), fibres unmerged."""
        return self.config.num_systems ** len(self._positions)

    def _policy_rows(self, policies: list[Policy]) -> np.ndarray:
        """Flat int8 rows (B, N * L) of validated policies."""
        return np.array([p.choice for p in policies], dtype=np.int8).reshape(
            -1, len(self._rep_rows))

    def _policy(self, row) -> Policy:
        """The Policy of a flat row."""
        return Policy.from_flat(row, self.config.num_classes, self.num_labels)

    def _key(self, choice) -> bytes:
        """Fibre key of a flat row given as a sequence of ints: the bytes of
        its image under rep, the representative's row as int8."""
        return bytes(map(list.__getitem__, self._rep_entries, choice))

    def _keys(self, rows: np.ndarray) -> list[bytes]:
        """Fibre key of each flat row of an array."""
        return list(map(self._key, rows.tolist()))

    def _row_keys(self, rows: np.ndarray) -> list[bytes]:
        """The bytes of each int8 row of an array: the fibre key of a row
        that is its own image under rep, as a representative's is."""
        flat, width = rows.tobytes(), rows.shape[1]
        return [flat[at:at + width] for at in range(0, len(flat), width)]

    def _key_rows(self, keys: list[bytes]) -> np.ndarray:
        """The int8 rows (B, N * L) whose bytes are listed (fibre keys or
        rows' own bytes), read-only."""
        return np.frombuffer(b"".join(keys), dtype=np.int8).reshape(-1, len(self._rep_rows))

    def _product(self, options):
        """Flat rows whose k-th free entry (in positions() order) takes each
        system of options[k] in turn, lexicographically, in arrays of up to
        self.chunk rows; entries off positions() stay at system 0."""
        entries = list(self._entries)
        combos = itertools.product(*options)
        while block := list(itertools.islice(combos, self.chunk)):
            rows = np.zeros((len(block), len(self._rep_rows)), dtype=np.int8)
            rows[:, entries] = block
            yield rows

    def _representatives(self):
        """The representative rows of every fibre (each its own key), in
        arrays of up to self.chunk rows."""
        systems = np.arange(self.config.num_systems)
        return self._product([np.flatnonzero(self.rep[n, l] == systems)
                              for n, l in self._positions])

    def _members(self, key: bytes) -> np.ndarray:
        """The rows of every canonical policy in the fibre of key, in
        lexicographic order."""
        return np.concatenate(list(self._product(
            [np.flatnonzero(self._rep_rows[k] == key[k]) for k in self._entries])))

    def representatives(self):
        """One canonical policy per fibre, its lowest member."""
        return (self._policy(row) for rows in self._representatives() for row in rows)

    def fibre(self, policy: Policy) -> list[Policy]:
        """Every canonical policy that shares policy's fibre."""
        return [self._policy(row) for row in self._members(self._key(policy.flatten()))]

    # ----- evaluation -------------------------------------------------

    def evaluate(self, policy: Policy) -> PolicyEvaluation:
        """Evaluation of a policy; one chain is solved per fibre and every
        member is served from it."""
        return self.evaluate_many([policy])[0]

    def evaluate_many(self, policies) -> list[PolicyEvaluation]:
        """evaluate() of each policy, in order, with the missing chains
        solved in chunks of up to self.chunk policies (see ctmc.CHUNK_BYTES),
        one representative per missing fibre. Each evaluation is reported
        under its own policy."""
        policies = list(policies)
        for policy in policies:
            policy.validate_for(self.config, self.scheme)
        return [replace(evaluation, policy=policy) for policy, evaluation
                in zip(policies, self._evaluations(self._policy_rows(policies)))]

    def _evaluations(self, rows: np.ndarray) -> list[PolicyEvaluation]:
        """Evaluation of each flat row's fibre, in order."""
        return self._fibres(self._keys(rows))

    def _fibres(self, keys: list[bytes]) -> list[PolicyEvaluation]:
        """Evaluation of each fibre key, in order, solved by representative:
        each missing fibre is solved once and cached as soon as its chain
        is solved."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._cache]
        for key, evaluation in zip(missing, self._solved(self._key_rows(missing))):
            self._cache[key] = evaluation
        return [self._cache[key] for key in keys]

    def _solved(self, rows: np.ndarray):
        """Uncached evaluations of flat rows, in order, a chunk at a time,
        each with its Nash gap under its own row: the cache's miss path, and
        the reference that solves a row's own chain. A chunk in which a solve
        fails is solved again one row at a time, so the error raised is the
        first failing row's, as its lone evaluation raises it."""
        for start in range(0, len(rows), self.chunk):
            chunk = rows[start:start + self.chunk]
            try:
                evaluations = self._evaluate_chunk(chunk)
            except SOLVE_ERRORS:
                if len(chunk) == 1:
                    raise
                yield from map(self._evaluate, chunk)
                continue
            yield from evaluations

    def _evaluate(self, row: np.ndarray) -> PolicyEvaluation:
        """Uncached evaluation of one flat row, a chunk of one."""
        return next(self._solved(row[None]))

    def _evaluate_chunk(self, rows: np.ndarray) -> list[PolicyEvaluation]:
        """Uncached evaluations of a chunk of flat rows (B, N * L), solved
        together by _evaluate_chain, each with its Nash gap and best
        responses under its own row, computed from the payoff table stored
        with it. Interchangeable systems have bit-equal payoffs, so the gap
        and the movers under the representative's row are every member's."""
        N, S, L = self.config.num_classes, self.config.num_systems, self.num_labels
        B = len(rows)
        chunk = _evaluate_chain(self._core, rows.take(self._state_entries, axis=1).reshape(
            B, N, self.space.num_states))
        # U is the payoff table over the label mass; _evaluate_chain bins
        # both from the same pi[i] in the same state order
        mass, empty = chunk.mass, chunk.empty
        individual = np.empty((B, N, L, S))
        individual.fill(np.nan)
        np.divide(chunk.payoff, mass[:, None, :, None], out=individual,
                  where=~empty[:, None, :, None])
        gaps, best, moves = _deviations(individual, rows, empty)
        # each row's movers are its slice of one nonzero over the chunk
        fibre, position = np.nonzero(moves[:, list(self._entries)])
        ends = np.bincount(fibre, minlength=B).cumsum().tolist()
        position = position.tolist()
        movers = [position[start:end] for start, end in zip([0] + ends, ends)]
        return chunk.evaluations(PolicyEvaluation, itertools.repeat(None), individual,
                                 gaps.tolist(), best.tolist(), movers)

    # ----- optimal policy ---------------------------------------------

    def optimal_policy(self, *, method: str = "auto", cap: int = 65536,
                       restarts: int = 16, seed: int = 0) -> OptimalResult:
        """Maximize the global utility over canonical policies.

        Exhaustive enumeration when the space fits under `cap` (or is forced
        by method="exhaustive"; a larger space then raises SearchCapError).
        Otherwise coordinate-ascent with random restarts; the result is then
        a certified local, not global, maximizer.
        """
        size = self.policy_space_size()
        if method not in ("auto", "exhaustive", "search"):
            raise ValueError("method must be auto, exhaustive or search")
        if method == "exhaustive" and size > cap:
            raise SearchCapError(
                f"policy space has {size} canonical policies, above the cap of {cap}")
        if method == "auto":
            method = "exhaustive" if size <= cap else "search"
        if method == "exhaustive":
            return self._optimal_exhaustive(size)
        return self._optimal_search(restarts=restarts, seed=seed)

    def _optimal_exhaustive(self, size: int) -> OptimalResult:
        """Scan one representative per fibre; every member of a tied fibre
        is a tie, so policies_evaluated counts the canonical policies."""
        best_u = -np.inf
        best: list[bytes] = []
        for keys in map(self._row_keys, self._representatives()):
            for key, evaluation in zip(keys, self._fibres(keys)):
                utility = evaluation.global_utility
                if utility > best_u + TIE_TOL:
                    best_u = utility
                    best = [key]
                elif utility >= best_u - TIE_TOL:
                    best.append(key)
        ties = [self._policy(row) for row in sorted(
            row.tobytes() for key in best for row in self._members(key))]
        return OptimalResult(policy=ties[0], evaluation=self.evaluate(ties[0]),
                             ties=ties, method="exhaustive", policies_evaluated=size)

    def _optimal_search(self, restarts: int, seed: int) -> OptimalResult:
        """Coordinate ascent from every start, the starts in lockstep (see
        _lockstep): each round solves the trials every unfinished ascent
        waits for together. A Policy is built only for the result."""
        rng = np.random.default_rng(seed)
        results = self._lockstep([self._ascent(start.tolist()) for start
                                  in self._starting_policies(restarts, rng)])
        choice, evaluation, _ = max(results, key=lambda result: result[1].global_utility)
        policy = self._policy(choice)
        return OptimalResult(policy=policy, evaluation=replace(evaluation, policy=policy),
                             ties=[policy], method="search",
                             policies_evaluated=sum(count for *_, count in results))

    def _ascent(self, choice: list[int]):
        """Coordinate ascent from a flat row, as a generator for _lockstep:
        it yields the fibre keys it needs evaluated (the start's, then each
        position's S - 1 trials'), resumes once they are cached, and returns
        the final choice (updated in place), its evaluation and the count of
        policies evaluated."""
        S = self.config.num_systems
        key = self._key(choice)
        yield [key]
        evaluation = self._cache[key]
        count = 1
        improved = True
        while improved:
            improved = False
            for k in self._entries:
                # an accepted trial changes entry k alone, so every trial
                # here is known before the scan
                trials = [s for s in range(S) if s != choice[k]]
                keys = [key[:k] + bytes((self._rep_entries[k][s],)) + key[k + 1:]
                        for s in trials]
                yield keys
                for s, trial_key in zip(trials, keys):
                    count += 1
                    trial = self._cache[trial_key]
                    if trial.global_utility > evaluation.global_utility + 1e-12:
                        choice[k], key, evaluation = s, trial_key, trial
                        improved = True
        return choice, evaluation, count

    def _starting_policies(self, restarts: int, rng) -> np.ndarray:
        """Flat rows (restarts, N * L) of the search's starts: each constant
        policy, then random draws on the free entries."""
        if restarts < 1:
            raise ConfigError(f"restarts must be at least 1, got {restarts}")
        S = self.config.num_systems
        entries = list(self._entries)
        starts = np.zeros((restarts, len(self._rep_rows)), dtype=np.int8)
        starts[:S] = np.arange(min(S, restarts))[:, None]
        if restarts > S:
            starts[S:, entries] = rng.integers(S, size=(restarts - S, len(entries)))
        return starts

    # ----- Nash equilibria --------------------------------------------

    def find_nash(self, mode: str = "auto", *, restarts: int = 64, seed: int = 0,
                  auto_cap: int = 4096) -> list[EquilibriumFibre]:
        """All (canonical) pure equilibria found under the requested mode,
        one EquilibriumFibre per fibre, ordered by smallest member.

        exhaustive checks every canonical policy, one representative per
        fibre; best_response runs Gauss-Seidel argmax dynamics from several
        starts, keeps the fixed points and closes them under payoff ties.
        A fibre's canonical members pin its entries on empty labels to
        system 0, so they lie in the fibre of its key so pinned, its
        canonical key, which is also its smallest member; fibres with one
        canonical key merge, pinned on the labels empty under all of them.
        Each canonical fibre is re-verified before being returned, on the
        table of a fresh checker that solves every distinct candidate that
        passes its own check in one batch; its Nash gap is every member's.
        No member is expanded: count is the product of the option sizes,
        and ordered_members() streams them. An empty list means no pure
        equilibrium was found.
        """
        if mode not in ("auto", "exhaustive", "best_response"):
            raise ValueError("mode must be auto, exhaustive or best_response")
        if mode == "auto":
            mode = "exhaustive" if self.policy_space_size() <= auto_cap else "best_response"
        if mode == "exhaustive":
            keys = [key for scanned in map(self._row_keys, self._representatives())
                    for key, ev in zip(scanned, self._fibres(scanned))
                    if ev.gap <= NASH_EPS]
        else:
            keys = self._expand_ties(self._best_response_candidates(restarts=restarts, seed=seed))
        # the entries each fibre pins, by canonical key, intersected
        pinned: dict[bytes, np.ndarray] = {}
        for key, ev in zip(keys, self._fibres(keys)):
            empty = np.tile(ev.empty_labels, self.config.num_classes)
            row = np.frombuffer(key, dtype=np.int8).copy()
            row[empty] = 0
            canonical = row.tobytes()
            pinned[canonical] = pinned[canonical] & empty if canonical in pinned else empty
        keys = list(pinned)
        passed = [key for key, ev in zip(keys, self._fibres(keys)) if ev.gap <= NASH_EPS]
        checks = self.fresh_checker()._evaluations(self._key_rows(passed))
        found = sorted(key for key, check in zip(passed, checks) if check.gap <= NASH_EPS)
        return [EquilibriumFibre(replace(ev, policy=self._policy(key)),
                                 self._options(key, pinned[key]))
                for key, ev in zip(found, self._fibres(found))]

    def _options(self, key: bytes, pinned: np.ndarray) -> tuple[tuple[int, ...], ...]:
        """The systems each flat entry takes over the members of the fibre of
        key, in increasing order; (0,) where pinned."""
        return tuple((0,) if pin else tuple(s for s, image in enumerate(images) if image == target)
                     for images, target, pin in zip(self._rep_entries, key, pinned.tolist()))

    def _expand_ties(self, candidates: list[list[int]]) -> list[bytes]:
        """Close a set of equilibrium candidates, flat rows, under near-tie
        entry swaps; returns the keys of the fibres reached.

        Argmax dynamics never move along payoff ties, yet every tie variant
        is its own equilibrium under the reporting convention. The closure
        walks fibres, not policies: every member of a fibre has the same
        payoff table and Nash status, and a swap inside the fibre always
        passes the tie test, so breadth-first exploration of single-entry
        swaps to another fibre, whose payoff is within 2 * NASH_EPS of the
        entry's best (entries on empty labels stay put), reaches the tie
        class. Each fibre popped is read from its evaluation: its payoff
        table, best responses and empty labels. Its unseen neighbours are
        evaluated together.
        """
        keys = list(dict.fromkeys(map(self._key, candidates)))
        queue = [key for key, ev in zip(keys, self._fibres(keys)) if ev.gap <= NASH_EPS]
        seen = set(queue)
        reached = list(queue)
        while queue:
            key = queue.pop()
            ev = self._cache[key]
            empty = ev.empty_labels.tolist()
            neighbors = []
            for (n, l), k in zip(self._positions, self._entries):
                if empty[l]:
                    continue
                row = ev.individual[n, l].tolist()
                top = row[ev.best[k]]
                for s, payoff in enumerate(row):
                    target = self._rep_entries[k][s]
                    if target == key[k] or payoff < top - 2 * NASH_EPS:
                        continue
                    neighbor = key[:k] + bytes((target,)) + key[k + 1:]
                    if neighbor not in seen:
                        seen.add(neighbor)
                        neighbors.append(neighbor)
            tied = [neighbor for neighbor, ev in zip(neighbors, self._fibres(neighbors))
                    if ev.gap <= NASH_EPS]
            queue += tied
            reached += tied
        return reached

    def _best_response_candidates(self, restarts: int, seed: int) -> list[list[int]]:
        """Fixed points, as flat rows, of the best-response paths from each
        start, in start order; the paths advance in lockstep (see
        _lockstep)."""
        rng = np.random.default_rng(seed)
        walks = [self._walk(start) for start in self._starting_policies(restarts, rng).tolist()]
        return [choice for choice in self._lockstep(walks) if choice is not None]

    def _lockstep(self, walks: list) -> list:
        """Results of walks over fibres, in order: best-response paths
        (generators from _walk) or coordinate ascents (from _ascent).

        The walks advance in rounds. Each round resumes every paused walk
        until it ends or pauses on the list of fibre keys it needs; _fibres
        is then called once with the round's keys, in walk order, and solves
        the distinct missing fibres together. A walk takes the steps it
        takes alone, since evaluations have the same bits in any chunk. If
        solves fail, the error raised is that of the first failing fibre in
        round order; only the fibres solved before it are cached.
        """
        results: list = [None] * len(walks)
        paused = dict(enumerate(walks))
        while paused:
            waiting = {}
            for i, walk in paused.items():
                try:
                    waiting[i] = next(walk)
                except StopIteration as stop:
                    results[i] = stop.value
            self._fibres([key for keys in waiting.values() for key in keys])
            paused = {i: paused[i] for i in waiting}
        return results

    def _walk(self, choice: list[int], steps: list | None = None):
        """best_response_path's walk from a flat row, as a generator for
        _lockstep: it yields [the key] of each fibre it reaches that is not
        cached, resumes once the fibre is solved, reads the fibre's best
        responses from its evaluation, and returns the fixed point (choice,
        updated in place) or None on a cycle. Steps are appended to steps
        when a list is given.

        The walk pays per move, not per position visited: it jumps from the
        position it is at to the fibre's next mover, counting the positions
        passed as steps, and checks for a cycle only where it moves. A
        repeated (policy, position) pair repeats every pair after it, the
        next move's among them, so the walk returns None where the path
        would have, with the same steps recorded.
        """
        positions, entries = self._positions, self._entries
        P = len(positions)
        if not P:
            return choice
        key = self._key(choice)
        visited: set[tuple] = set()
        taken = ptr = 0
        while True:
            if key not in self._cache:
                yield [key]
            ev = self._cache[key]
            movers = ev.movers
            if not movers:
                # a full round without a move ends the path
                return choice if taken + P <= MAX_PATH_STEPS else None
            # the next mover at or after ptr, cyclically
            at = bisect_left(movers, ptr)
            mover = movers[at] if at < len(movers) else movers[0]
            taken += (mover - ptr) % P
            state_key = (bytes(choice), mover)
            if taken >= MAX_PATH_STEPS or state_key in visited:
                return None
            visited.add(state_key)
            k = entries[mover]
            best, current = ev.best[k], choice[k]
            if steps is not None:
                n, l = positions[mover]
                payoffs = ev.individual[n, l].tolist()
                steps.append(BestResponseStep(
                    user_class=n, label=l, old_system=current, new_system=best,
                    old_payoff=payoffs[current], new_payoff=payoffs[best]))
            choice[k] = best
            key = key[:k] + bytes((self._rep_entries[k][best],)) + key[k + 1:]
            taken += 1
            ptr = (mover + 1) % P

    def best_response_path(self, start: Policy
                           ) -> tuple[Policy | None, list[BestResponseStep]]:
        """Gauss-Seidel best-response dynamics from one starting policy.

        Positions are visited cyclically in lexicographic (class, label)
        order and at most one entry changes per iteration; the path stops at
        a fixed point (returned with the recorded steps) or when a
        (policy, position) pair repeats, which means a cycle (returns None),
        as does a path still moving after MAX_PATH_STEPS steps.
        Payoffs come from the evaluation of the current fibre. The path is a
        lockstep of one walk.
        """
        start.validate_for(self.config, self.scheme)
        steps: list[BestResponseStep] = []
        end, = self._lockstep([self._walk(list(start.flatten()), steps)])
        return (None if end is None else self._policy(end)), steps

    def fresh_checker(self) -> "PolicyGameSolver":
        """Solver with its own empty fibre cache and its own partition,
        reusing none of this solver's evaluations: it solves one chain and
        utility table per fibre, as its rep groups them, and judges every
        member by that table's Nash gap, which is every member's."""
        return PolicyGameSolver(self.space, self.scheme)


def evaluate_policy(space: StateSpace, scheme: AggregationScheme,
                    policy: Policy) -> PolicyEvaluation:
    """One-shot policy evaluation."""
    return PolicyGameSolver(space, scheme).evaluate(policy)


def evaluate_rule(space: StateSpace, rule: AssignmentRule) -> ChainEvaluation:
    """Evaluate any assignment rule through the shared core, a chunk of one.

    Blocking and the global utility are aggregated over the rule's own
    information partition: a policy's broadcast labels, a single cell for
    peak-rate users (they know nothing), one cell per state for
    instantaneous-rate users (they know everything). volumes holds every
    tagged-user volume table of the rule's chain.
    """
    core = _ChainCore(chain_tables(space), *rule.information_partition(space), chunk=1)
    return _evaluate_chain(core, rule.choice_table(space)[None]).evaluations()[0]


def evaluate_baseline(space: StateSpace, which: str) -> ChainEvaluation:
    """evaluate_rule of a no-policy baseline, named by `which`."""
    if which == "peak_rate":
        rule: AssignmentRule = PeakRateRule()
    elif which == "instantaneous_rate":
        rule = InstantaneousRateRule()
    else:
        raise ValueError("which must be 'peak_rate' or 'instantaneous_rate'")
    return evaluate_rule(space, rule)
