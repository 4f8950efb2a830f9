"""Global and individual utilities, optimal policies, Nash equilibria and
the two information baselines.

Every assignment rule is valued by one evaluation core: it solves the
chain a choice table induces once, derives every tagged volume table, and
aggregates the blocking table and the global utility (traffic weighted,
cell by cell, not normalized by cell mass) over an information partition.
evaluate_rule runs it for any rule over the rule's own partition: a
policy's cells are the broadcast load labels; the peak-rate baseline has
a single cell and the instantaneous-rate baseline one cell per state. The
solver, evaluate_baseline and the CLI's utility table all read it. A
policy evaluation adds the individual deviation payoffs U[n, l, s]
(normalized by label mass). Deviating to a saturated system is valued at
the outcome the network actually produces: the redirected system's
expectation, or zero when every system is full (always zero under the
config's strict_arrivals). Labels with (numerically) zero stationary mass
carry no strategic content; they are masked out of equilibrium
comparisons and canonicalized to system 0 when policies are reported.

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
keeps its Nash gap with its evaluation, so no search recomputes it.

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
MAX_PATH_STEPS for a best-response path, and ctmc.STEADY_RESIDUAL_TOL for
the stationary solves.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .aggregation import label_array
from .config import AggregationScheme, ConfigError, NetworkConfig, Policy
# assemble_dense, assemble_generator and solve_volume_from_matrix are not
# called here, but perfbench/tracer.py wraps the names in this module, so
# they stay bound
from .ctmc import (CellBlocking, ChainTables, Partition, ResidualError,  # noqa: F401
                   SingularChainError, _offsets, _outcome_index, _Scratch,
                   _solve_stationary, assemble_dense, assemble_generator, cell_blocking,
                   chain_tables, stationary_vector)
from .rules import AssignmentRule, InstantaneousRateRule, PeakRateRule
from .states import StateSpace
from .transient import (SingularTaggedChainError, solve_volume_from_matrix,  # noqa: F401
                        tagged_volumes)

NASH_EPS = 1e-9
TIE_TOL = 1e-9
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
    partition, for chunks of up to `chunk` choice tables: the tables,
    admitted, their admit_sys as int8, the outcome index, the Partition,
    where each table's padded volumes start in the chunk's, solved, per
    tagged block, the checked values of every key it was solved under (see
    transient._solve_group), and scratch, the buffers its chunks'
    generators and tagged bands, a lone generator's LU, and the tagged
    checks reuse: one block's bands at a time, in the tail of the
    generators' buffer, or over a lone generator's band. A core belongs
    to one solver, so no other solver reads its blocks."""

    def __init__(self, tables: ChainTables, cells: np.ndarray, ncells: int, chunk: int):
        N, S, nst = tables.occ_ns.shape
        self.tables = tables
        # a system index fits in int8, since a state space with over 127
        # systems could not be enumerated
        self.admitted = tables.admit_sys.astype(np.int8)
        self.outcome = _outcome_index(tables)
        self.partition = Partition(tables, cells, ncells, chunk)
        padded = N * S * nst + 1
        self.padded_offset = np.arange(0, chunk * padded, padded)[:, None, None]
        self.solved: dict[int, dict[bytes, np.ndarray]] = {}
        self.scratch = _Scratch()


class _ChainChunk(NamedTuple):
    """_evaluate_chain's result: the stacked arrays of a chunk of choice
    tables, from which evaluations() builds one evaluation per table and a
    policy chunk its payoff tables."""

    pi: np.ndarray                    # (B, num_states)
    residual: np.ndarray              # (B,) balance residuals
    blocking: CellBlocking            # over the core's cells
    global_utility: list[float]       # (B,)
    volumes: np.ndarray               # (B, N, S, num_states)
    padded: np.ndarray                # (B, N * S * num_states + 1): volumes, then 0

    def evaluations(self, make=ChainEvaluation, *columns) -> list:
        """make() of each table's ChainEvaluation fields, in field order,
        followed by its entry of each extra column."""
        b = self.blocking
        return [make(*fields) for fields in zip(
            self.pi, self.residual.tolist(), b.mass, b.empty, b.by_cell,
            self.global_utility, b.overall.tolist(), b.per_class, self.volumes, *columns)]


def _evaluate_chain(core: _ChainCore, choices: np.ndarray) -> _ChainChunk:
    """Solve the chains of a chunk of preferred-system tables, choices of
    shape (B, N, num_states) in any integer type, and aggregate each over
    the core's cells. The systems the network admits the chunk's arrivals
    to key its tagged blocks: a block whose key the core has solved is
    copied, not factored (see tagged_volumes).

    Every step runs once for the chunk: assembly, the stationary solves,
    blocking, the tagged volumes and the global utility. The tagged bands
    are built one block at a time into the room past the chunk's bands, in
    the same buffer; a chunk of one is assembled and factored in place
    there, and its room is the whole buffer: tagged_volumes reads its
    blocks' entries out of its band first, and calls the reassembly
    _solve_stationary hands over to restore the band for the checks.
    Blocking is
    ctmc.cell_blocking's over the (class, state) pairs whose chosen
    outcome is lost; the global utility weights each cell's chosen value
    by its non-blocking probability. A table's results have the bits
    they have in a chunk of one: each row of share is summed over its
    cells on its own, and the weighted class totals are added one class at
    a time from 0, as Python's sum adds them for one table.
    """
    tables, ncells = core.tables, core.partition.ncells
    plan = tables.solve_plan
    B, N, nst = choices.shape
    picked = np.multiply(choices, nst, dtype=np.intp)
    picked += plan.entry
    data, room, pi, residual, restore = _solve_stationary(tables, picked, core.scratch)
    outcome = core.outcome.take(picked)
    b = cell_blocking(tables, pi, outcome == tables.occ_ns.size, core.partition)
    padded = tagged_volumes(tables, data, core.admitted.take(picked), core.solved,
                            core.scratch, room, restore)
    chosen = padded.take(outcome + core.padded_offset[:B])
    inner = np.bincount(core.partition.class_bins[:B * N * nst],
                        weights=(chosen * pi[:, None]).ravel(),
                        minlength=B * N * ncells).reshape(B, N, ncells)
    share = (1.0 - b.by_cell) * inner
    weighted = tables.class_weight * share.sum(axis=2)
    # 0 + the first class's total, then the others in turn
    utility = weighted[:, 0] + 0.0
    for n in range(1, N):
        utility += weighted[:, n]
    volumes = padded[:, :-1].reshape(B, *tables.occ_ns.shape)
    return _ChainChunk(pi, residual, b, utility.tolist(), volumes, padded)


def _nash_gaps(individual: np.ndarray, choice: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """PolicyEvaluation.nash_gap of a stack: payoff tables (B, N, L, S),
    choices (B, N, L) or flat (B, N * L) and empty labels (B, L)."""
    B, N, L, S = individual.shape
    forgone = np.maximum.reduce(individual, 3)
    forgone -= individual.take(_offsets(S, B * N * L) + choice.ravel()).reshape(B, N, L)
    np.copyto(forgone, -np.inf, where=empty[:, None])
    return np.maximum.reduce(forgone.reshape(B, -1), 1, initial=0.0)


@dataclass
class PolicyEvaluation(ChainEvaluation):
    """Everything one policy induces: chain, blocking, utilities."""

    policy: Policy | None             # None in the solver's fibre cache
    individual: np.ndarray            # (N, L, S), nan on empty labels
    gap: float                        # nash_gap(), set when the chain is solved

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
    evaluation cache and the best-response tables are keyed by the bytes
    of that row as int8.
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
        # U[n, l, s] averages the admission outcome of preferring s over the
        # label's states, weighted by pi
        self._outcome = self._core.outcome
        # the flat row entry of each (class, state): its label's
        self._state_entries = (np.arange(N)[:, None] * L + self.labels).ravel()
        # bins of the (n, label, s) payoff tables of a chunk
        n_idx, s_idx = np.arange(N)[:, None, None], np.arange(S)[:, None]
        self._nls_bin = (np.arange(0, self.chunk * N * L * S, N * L * S)[:, None]
                         + ((n_idx * L + self.labels) * S + s_idx).ravel()).ravel()
        self.rep = self._interchangeable_systems()
        # rep per flat entry; a system index fits in int8, since a state
        # space with over 127 systems could not be enumerated
        self._rep_rows = self.rep.reshape(N * L, S).astype(np.int8)
        self._rep_entries = self._rep_rows.tolist()
        self._cache: dict[bytes, PolicyEvaluation] = {}
        # best-response table of each fibre the search has visited
        self._responses: dict[bytes, list] = {}

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
        together by _evaluate_chain, each with its Nash gap under its own
        row, computed from the payoff table stored with it."""
        N, S, L = self.config.num_classes, self.config.num_systems, self.num_labels
        B = len(rows)
        chunk = _evaluate_chain(self._core, rows.take(self._state_entries, axis=1).reshape(
            B, N, self.space.num_states))
        # the denominator of U is the label mass: cell_blocking sums the
        # same pi[i] in the same state order
        weighted = chunk.padded[:, self._outcome] * chunk.pi[:, None, None]
        num = np.bincount(self._nls_bin[:weighted.size], weights=weighted.ravel(),
                          minlength=B * N * L * S).reshape(B, N, L, S)
        mass, empty = chunk.blocking.mass, chunk.blocking.empty
        individual = np.empty((B, N, L, S))
        individual.fill(np.nan)
        np.divide(num, mass[:, None, :, None], out=individual, where=~empty[:, None, :, None])
        gaps = _nash_gaps(individual, rows, empty).tolist()
        return chunk.evaluations(PolicyEvaluation, itertools.repeat(None), individual, gaps)

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
                                  in self._starting_policies(restarts, rng)], self._fibres)
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
        class. The unseen neighbours of each fibre popped are evaluated
        together.
        """
        keys = list(dict.fromkeys(map(self._key, candidates)))
        queue = [key for key, ev in zip(keys, self._fibres(keys)) if ev.gap <= NASH_EPS]
        seen = set(queue)
        reached = list(queue)
        while queue:
            key = queue.pop()
            (rows, bests, skips, _), = self._response_tables([key])
            neighbors = []
            for k in self._entries:
                if skips[k]:
                    continue
                row = rows[k].tolist()
                top = row[bests[k]]
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
        return [choice for choice in self._lockstep(walks, self._response_tables)
                if choice is not None]

    def _response_table(self, key: bytes):
        """Best-response table of a fibre key, as a walk reads it: a
        generator that yields [key] when the table is missing, and returns
        the table once it is built."""
        if key not in self._responses:
            yield [key]
        return self._responses[key]

    def _response_tables(self, keys) -> list[tuple[np.ndarray, list, list, list[int]]]:
        """Best-response table of each fibre key, in order, built once per
        fibre: its payoff rows (N * L, S), one per flat entry n * L + l, a
        view of the table of the fibres built with it; then, per flat entry
        as lists, the payoff row's argmax and whether the label is empty;
        then the movers, the positions() indexes at which a best response
        moves every member of the fibre. Interchangeable systems have
        bit-equal payoffs, so whether an entry moves is the same under every
        member's own choice as under the key's. The fibres without a table
        are evaluated together."""
        keys = list(keys)
        missing = [key for key in dict.fromkeys(keys) if key not in self._responses]
        if missing:
            evaluations = self._fibres(missing)
            individual = np.stack([ev.individual for ev in evaluations])
            empty = np.stack([ev.empty_labels for ev in evaluations])
            payoffs = individual.reshape(len(missing), -1, individual.shape[3])
            skip = np.tile(empty, self.config.num_classes)
            best = payoffs.argmax(axis=2)
            # the payoff at the argmax, and at each fibre's own choice
            top = np.maximum.reduce(payoffs, 2)
            S = payoffs.shape[2]
            own = payoffs.take(_offsets(S, top.size).reshape(top.shape)
                               + self._key_rows(missing))
            moves = ((top > own + NASH_EPS) & ~skip)[:, list(self._entries)]
            positions = range(moves.shape[1])
            for key, rows, bests, skips, moved in zip(missing, payoffs, best.tolist(),
                                                      skip.tolist(), moves.tolist()):
                self._responses[key] = (rows, bests, skips, list(compress(positions, moved)))
        return [self._responses[key] for key in keys]

    def _lockstep(self, walks: list, fill) -> list:
        """Results of walks over fibres, in order: best-response paths
        (generators from _walk, filled by _response_tables) or coordinate
        ascents (from _ascent, filled by _fibres).

        The walks advance in rounds. Each round resumes every paused walk
        until it ends or pauses on the list of fibre keys it needs; fill is
        then called once with the round's keys, in walk order, and solves
        the distinct missing fibres together. A walk takes the steps it
        takes alone, since evaluations have the same bits in any chunk. If
        solves fail, the error raised is that of the first failing fibre in
        round order, and no response table is built for that round's
        fibres.
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
            fill([key for keys in waiting.values() for key in keys])
            paused = {i: paused[i] for i in waiting}
        return results

    def _walk(self, choice: list[int], steps: list | None = None):
        """best_response_path's walk from a flat row, as a generator for
        _lockstep: it yields [the key] of each fibre whose response table it
        lacks, resumes once the table is built, and returns the fixed point
        (choice, updated in place) or None on a cycle. Steps are appended to
        steps when a list is given.

        The walk pays per move, not per position visited: it jumps from the
        position it is at to the table's next mover, counting the positions
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
        rows, bests, _, movers = yield from self._response_table(key)
        visited: set[tuple] = set()
        taken = ptr = 0
        while movers:
            # the next mover at or after ptr, cyclically
            at = bisect_left(movers, ptr)
            mover = movers[at] if at < len(movers) else movers[0]
            taken += (mover - ptr) % P
            state_key = (bytes(choice), mover)
            if taken >= MAX_PATH_STEPS or state_key in visited:
                return None
            visited.add(state_key)
            k = entries[mover]
            best, current = bests[k], choice[k]
            if steps is not None:
                n, l = positions[mover]
                payoffs = rows[k].tolist()
                steps.append(BestResponseStep(
                    user_class=n, label=l, old_system=current, new_system=best,
                    old_payoff=payoffs[current], new_payoff=payoffs[best]))
            choice[k] = best
            key = key[:k] + bytes((self._rep_entries[k][best],)) + key[k + 1:]
            rows, bests, _, movers = yield from self._response_table(key)
            taken += 1
            ptr = (mover + 1) % P
        # a full round without a move ends the path
        return choice if taken + P <= MAX_PATH_STEPS else None

    def best_response_path(self, start: Policy
                           ) -> tuple[Policy | None, list[BestResponseStep]]:
        """Gauss-Seidel best-response dynamics from one starting policy.

        Positions are visited cyclically in lexicographic (class, label)
        order and at most one entry changes per iteration; the path stops at
        a fixed point (returned with the recorded steps) or when a
        (policy, position) pair repeats, which means a cycle (returns None),
        as does a path still moving after MAX_PATH_STEPS steps.
        Payoffs come from the response table of the current fibre. The path
        is a lockstep of one walk.
        """
        start.validate_for(self.config, self.scheme)
        steps: list[BestResponseStep] = []
        end, = self._lockstep([self._walk(list(start.flatten()), steps)], self._response_tables)
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
