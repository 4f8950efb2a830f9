"""Continuous-time Markov chain engine: generator, steady state, per-class
blocking.

Transitions connect states differing by one user. Arrivals of class n occur
at rate lambda_n toward the system the assignment rule picks; a saturated
pick is redirected to the lowest-index system with room, and the arrival is
lost only when no system can admit the user. Under
NetworkConfig.strict_arrivals an arrival whose picked system is full is
dropped instead, for comparison. Departures of (n, s) users occur at rate
M_n^s * mu; diagonal entries make every row sum to zero.

Blocking is the stationary probability that an arrival is lost. In both
modes one table decides it: the admission outcome of the system the rule
picks (_outcome_index, over ChainTables.admit_sys). Here it is summed per
class (_lost_sums); its conditional value on each cell of a rule's
information is the evaluation core's (game._evaluate_chain), binned beside
the payoff table.

The stationary distribution is one pinned banded LU per generator
(stationary_vectors). The evaluation core (_solve_stationary) factors a
stack of several generators on copies of their bands, and the buffer's
tail, past the bands, is the room where the tagged solves carve one
block's bands at a time. A lone generator is assembled straight into its
LU's layout in one scratch buffer and factored there in place; its clean
band is then assembled again at the head of the same buffer, for the
checks. The tagged solves read the entries of its blocks out of that band,
carve their bands from the whole buffer, over the band, and assemble the
band again before their checks. So the buffer, its LU band, sized from the
plan before assembly (SolvePlan.lone_size), never holds the band beside an
LU copy or a tagged band, and never grows. The public stationary_vector
keeps its copy, as its caller keeps the band.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import ConfigError
from .lapack import gbmv, gbsv
from .rules import AssignmentRule
from .states import StateSpace, throughput_array

# largest balance residual max|pi Q| a stationary solve may keep
STEADY_RESIDUAL_TOL = 1e-10
# A pinned stationary solve is trusted only where the pinned state holds
# more than this fraction of the largest entry. Below it the pin is lost in
# rounding: the computed ratio lands near machine epsilon whatever the true
# one, and the vector is right only up to luck.
PIN_MASS_FLOOR = 1e-12
# Bytes of bands a chunk of generators may hold while it is solved, at
# SolvePlan.policy_bytes per generator and at least one per chunk: 38
# policies on 119 states (the fastest in a sweep from 0.125 to 16 MiB), and
# one at a time on spaces of a few thousand states, whose bands take
# megabytes each.
CHUNK_BYTES = 4 * 2 ** 20


class SingularChainError(RuntimeError):
    """The balance equations have no unique solution over the space."""


class ResidualError(RuntimeError):
    """A solved distribution failed its post-solve residual check."""


class ChainTables:
    """Policy-independent transition structure precomputed for one space.

    Arrival targets, admission outcomes, departure edges and per-state
    tagged-user throughputs depend only on the config and the
    enumerated space, so every policy and rule evaluation shares them. The
    tables keep the space's config, state count and occupancies, not the
    space, which holds them (chain_tables): no cycle keeps either alive.
    """

    def __init__(self, space: StateSpace):
        config = space.config
        N, S = config.num_classes, config.num_systems
        nst = space.num_states
        occ = space.occ
        self.config, self.num_states, self.occ = config, nst, occ

        def by_pair(a: np.ndarray) -> np.ndarray:
            # (nst, N*S) in occupancy order -> contiguous (N, S, nst)
            return np.ascontiguousarray(a.T.reshape(S, N, nst).transpose(1, 0, 2))

        keys = space.keys[:, None]
        # occ_ns[n, s, i]: class-n users in system s at state i
        self.occ_ns = by_pair(occ)
        # arrival_id[n, s, i]: id of the state with one more (n, s) user, -1
        # if that state is infeasible. A count at its bound would carry into
        # the next digit of the key, so it is never looked up.
        room = occ < space.bound
        self.arrival_id = by_pair(space.ids_of_keys(
            np.where(room, keys, 0) + space.weights, room))
        # departure_id[n, s, i]: id after one (n, s) departure, -1 if none
        present = occ > 0
        self.departure_id = by_pair(space.ids_of_keys(
            np.where(present, keys - space.weights, 0), present))
        if (self.departure_id[self.occ_ns > 0] < 0).any():
            raise ConfigError("the feasible space is not closed under departures: "
                              "a scheduler gain per user rises with the user count")
        # throughput of one (n, s) user present at state i (nan if absent)
        self.throughput = np.ascontiguousarray(throughput_array(config, occ))

        feasible = self.arrival_id >= 0                      # (N, S, nst)
        saturated = ~feasible.any(axis=1)                    # (N, nst)
        # each class's share of the arrivals
        self.class_weight = np.array(config.arrival_rate) / sum(config.arrival_rate)
        first_open = np.argmax(feasible, axis=1)             # lowest open system

        # admit_sys / admit_id: the system the network admits an arrival to
        # and the state it reaches, indexed by the preferred system, -1 when
        # the arrival is lost. A saturated pick is redirected, or dropped
        # under the config's strict_arrivals.
        self.admit_sys = np.empty((N, S, nst), dtype=np.int64)
        self.admit_id = np.empty((N, S, nst), dtype=np.int64)
        for n in range(N):
            for s in range(S):
                sys_taken = np.where(feasible[n, s], s,
                                     -1 if config.strict_arrivals else first_open[n])
                sys_taken = np.where(saturated[n], -1, sys_taken)
                self.admit_sys[n, s] = sys_taken
                ids = self.arrival_id[n, sys_taken.clip(min=0), np.arange(nst)]
                self.admit_id[n, s] = np.where(sys_taken >= 0, ids, -1)

        # departure triplets, shared by every generator
        src, rate, dst = [], [], []
        for n in range(N):
            for s in range(S):
                present = self.occ_ns[n, s] > 0
                idx = np.nonzero(present)[0]
                src.append(idx)
                dst.append(self.departure_id[n, s, idx])
                rate.append(self.occ_ns[n, s, idx] * config.service_rate)
        self.dep_src = np.concatenate(src)
        self.dep_dst = np.concatenate(dst)
        self.dep_rate = np.concatenate(rate).astype(float)
        self.departure_out = np.bincount(self.dep_src, weights=self.dep_rate, minlength=nst)

    @cached_property
    def solve_plan(self) -> "SolvePlan":
        return SolvePlan(self)


@dataclass(frozen=True)
class TaggedPlan:
    """Where the entries of one tagged (class, system) block come from.

    ids lists the tagged states in the solve order, positions their
    positions in it, and rate the tagged user's throughput in each, the
    right-hand side of every solve; norm bounds |A|_inf of the block under
    any rule. For every entry some rule can put in the block, diagonal
    included, src is its position in the data of the full generator's
    BandGenerator, and band its flat position in LAPACK band storage of
    shape band_shape (Fortran order, with kl spare rows on top for the LU's
    fill), kl and ku its lower and upper bandwidths. The shift_* arrays locate
    the tagged user's own departures that stay in the block, the entries
    their absorption rate mu is taken off.
    """

    ids: np.ndarray
    positions: np.ndarray
    rate: np.ndarray
    norm: float
    kl: int
    ku: int
    src: np.ndarray
    band: np.ndarray
    shift_rows: np.ndarray
    shift_cols: np.ndarray
    shift_band: np.ndarray

    @property
    def band_shape(self) -> tuple[int, int]:
        return (2 * self.kl + self.ku + 1, len(self.ids))

    @property
    def band_size(self) -> int:
        return (2 * self.kl + self.ku + 1) * len(self.ids)


class TaggedGroup:
    """Non-empty tagged blocks that are solved and checked together, their
    values laid end to end; every block's entries are read first, then
    each block is built, factored and checked in turn
    (transient._solve_group).

    blocks holds, per block in (class, system) order, its index k in that
    order, its TaggedPlan and the slice of its values in the group's.
    shift_rows and shift_cols are the plans' arrays over the group's
    values, and rate the right-hand sides end to end. starts is where each
    block's values start, norm its bound on |A|_inf, and targets the
    position of each value in a flattened (N, S, num_states) volume table.
    SolvePlan.tagged_group builds the one group of a plan.
    """

    def __init__(self, blocks: list[tuple[int, TaggedPlan]], num_states: int):
        self.blocks = []
        value_at = 0
        shift_rows, shift_cols, starts = [], [], []
        for k, plan in blocks:
            self.blocks.append((k, plan, slice(value_at, value_at + len(plan.ids))))
            shift_rows.append(plan.shift_rows + value_at)
            shift_cols.append(plan.shift_cols + value_at)
            starts.append(value_at)
            value_at += len(plan.ids)
        plans = [plan for _, plan in blocks]
        self.shift_rows, self.shift_cols = np.concatenate(shift_rows), np.concatenate(shift_cols)
        self.rate = np.concatenate([plan.rate for plan in plans])
        self.starts = np.array(starts)
        self.norm = np.array([plan.norm for plan in plans])
        self.targets = np.concatenate([k * num_states + plan.ids for k, plan in blocks])
        self.num_states = num_states


def _band_position(width: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Flat (Fortran-order) position of entry (r, c) of a matrix with
    half-bandwidth `width` in band storage of 2 width + 1 rows: row
    width + r - c of column c."""
    return c * (2 * width + 1) + width + r - c


class BandGenerator:
    """A generator Q held as its transpose in LAPACK band storage.

    The states are taken in `order`; band holds Q^T with half-bandwidth
    width in the layout of _band_position, shape (2 width + 1, n), and data
    is band flattened. Every entry of the band out of range of the matrix is
    zero. pins lists the positions in the order where the stationary solve
    tries to pin pi, in turn. shape and nnz describe Q; q.dot(x) is Q x and
    x @ q is x Q, both by band_gbmv on the unfactored band.

    A stack of B generators of one SolvePlan is a (B, size) array whose rows
    are their data; the stacked functions below take one with a layout, the
    plan or a BandGenerator, that supplies width, order and pins.
    """

    # numpy defers `x @ q` to __rmatmul__ instead of coercing q to an array
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, width: int, order: np.ndarray,
                 pins: tuple[int, ...]):
        n = len(order)
        self.data = data
        self.width = width
        self.order = order
        self.pins = pins
        self.shape = (n, n)
        self.band = data.reshape((2 * width + 1, n), order="F")

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.band))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, col, value) of every nonzero entry of Q, column by column
        of the band."""
        k, c = np.nonzero(self.band)
        return self.order[c], self.order[c + k - self.width], self.band[k, c]

    def toarray(self) -> np.ndarray:
        rows, cols, values = self.entries()
        q = np.zeros(self.shape)
        q[rows, cols] = values
        return q

    def _gbmv(self, x: np.ndarray, trans: int) -> np.ndarray:
        y = np.empty(len(x))
        y[self.order] = band_gbmv(self.band, self.width, x[self.order][None], trans)[0]
        return y

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self._gbmv(x, 1)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return self._gbmv(x, 0)


def stack_band(data: np.ndarray, width: int) -> np.ndarray:
    """The bands of a stack laid side by side, a view of shape
    (2 width + 1, B n) in Fortran order: the band of the block-diagonal
    matrix of the stack's generators, because every band entry out of range
    of its own matrix is zero."""
    return data.reshape(-1).reshape((2 * width + 1, -1), order="F")


def band_gbmv(band: np.ndarray, width: int, x: np.ndarray, trans: int) -> np.ndarray:
    """Q_b x_b (trans 1) or x_b Q_b (trans 0) for every generator Q_b of a
    stack, given as its stack_band, and vector x_b, a row of x (B, n) in the
    band's order, by one BLAS gbmv over the block-diagonal matrix. Entry by
    entry, x Q adds the same products in the same order as for one
    generator alone.
    """
    total = x.size
    # the f2py gbmv wrapper wants at least as many rows as the band has, so a
    # short matrix gets zero rows below it (the band holds zeros wherever a
    # row past the end would be read)
    m = max(total, 2 * width + 1)
    xs = x.ravel()
    if trans and m > total:
        xs = np.concatenate([xs, np.zeros(m - total)])
    return gbmv(m, total, width, width, 1.0, band, xs, trans=trans)[:total].reshape(x.shape)


@lru_cache(maxsize=1024)
def _offsets(step: int, count: int) -> np.ndarray:
    """0, step, ..., (count - 1) step, read-only: where each member of a
    stack of `count` starts, at `step` entries each. Built once per (step,
    count) and shared by every stack of that shape."""
    offsets = np.arange(0, count * step, step)
    offsets.flags.writeable = False
    return offsets


class _Scratch:
    """Float scratch memory reused from chunk to chunk. A chunk's generator
    stack takes megabytes; allocated afresh for each chunk, it and the
    other large work arrays cost page faults whenever the allocator has
    handed their memory back to the system in between. get(name, size)
    returns the first size entries of the buffer kept under name, and
    zeros(name, size) the same filled with zeros. A buffer too small is
    dropped before a larger one is allocated, by np.zeros, whose fresh
    pages need no filling. What they return is overwritten by the next call
    with that name.

    The "data" buffer holds a stack's bands at its head and, in its tail,
    the room where the tagged bands of one block of every generator are
    carved, block after block (_solve_stationary). A lone generator takes
    it at SolvePlan.lone_size entries, its LU band, known before assembly:
    its LU is factored there in place before its clean band fills the
    head, and its tagged bands are carved over that band, which is
    assembled again for the checks.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < size:
            self._buffers.pop(name, None)
            buffer = self._buffers[name] = np.zeros(size)
        return buffer[:size]

    def zeros(self, name: str, size: int) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < size:
            return self.get(name, size)
        buffer = buffer[:size]
        buffer.fill(0.0)
        return buffer


def _neighbours(arrival_id: np.ndarray) -> np.ndarray:
    """Each state's neighbours in the graph of arrival and departure edges,
    as an (n, 2 N S) table for n states: the state one arrival of each
    (class, system) leads to, then the state one such arrival comes from,
    n where there is none. No row holds a state twice: the states one
    arrival away hold one more user, those one departure away one fewer,
    and each (class, system) arrival maps states one to one."""
    pairs, n = arrival_id.shape[0] * arrival_id.shape[1], arrival_id.shape[2]
    up = arrival_id.reshape(pairs, n)
    pair, state = np.nonzero(up >= 0)
    target = up[pair, state]
    table = np.full((n, 2, pairs), n, dtype=np.int64)
    table[state, 0, pair] = target
    table[target, 1, pair] = state
    return table.reshape(n, 2 * pairs)


def _reverse_cuthill_mckee(neighbours: np.ndarray) -> np.ndarray:
    """scipy.sparse.csgraph.reverse_cuthill_mckee of the symmetric pattern
    with a full diagonal, whose off-diagonal entries are neighbours (see
    _neighbours), as int64, transcribed to numpy passes.

    Components start at the unvisited state first in np.argsort of the
    degrees, scipy's own call: int32 degrees that count the diagonal twice,
    as scipy's do, so equal degrees tie the same way. The search goes
    breadth first, one frontier at a time. Each state of the next frontier
    is kept at its first parent in the order, and each parent's new
    neighbours are stably sorted by degree from column (state) order, so a
    frontier is ordered by (parent position, degree, state). The order is
    then reversed.
    """
    n, k = neighbours.shape
    degree = (np.count_nonzero(neighbours < n, axis=1) + 2).astype(np.int32)
    # a new state's key is rank * span + tie: the rank of its first parent
    # in the frontier, then its degree, then the state itself, which the
    # key keeps as its remainder mod n + 1
    tie = degree * np.int64(n + 1) + np.arange(n)
    span = (int(degree.max()) + 1) * (n + 1)
    unseen = np.ones(n + 1, dtype=bool)
    unseen[n] = False
    first = np.full(n + 1, n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    count = 0
    for seed in np.argsort(degree).tolist():
        if not unseen[seed]:
            continue
        order[count] = seed
        unseen[seed] = False
        start, count = count, count + 1
        while start < count:
            reached = neighbours[order[start:count]].ravel()
            fresh = np.flatnonzero(unseen[reached])
            reached, rank = reached[fresh], fresh // k
            np.minimum.at(first, reached, rank)
            key = (rank * span + tie[reached])[first[reached] == rank]
            key.sort()
            reached = key % (n + 1)
            unseen[reached] = False
            start, count = count, count + len(reached)
            order[start:count] = reached
        if count == n:
            break
    return order[::-1].copy()


class SolvePlan:
    """Policy-independent layout of the solves of one space.

    The state order is a reverse Cuthill-McKee order of the union of every
    arrival and departure edge (a rule only picks among them), so the full
    generator and each tagged block are banded for every policy. width is
    the full generator's half-bandwidth in that order, and tagged[n][s] the
    TaggedPlan of the (n, s) block. pins holds the positions where the
    stationary solve pins pi, in turn: first the empty state, which every
    state drains to (so it carries mass under any rule) and which holds the
    most under light load, then the end of the order with more users, whose
    states hold the most under heavy load.

    The plan also holds what assemble_stack scatters: size, the length of
    a BandGenerator's data; departures, the data position of each departure
    edge of the ChainTables (rates dep_rate); diagonal, the data position of
    each state's diagonal entry, and outflow, minus each state's departure
    rate; arrivals, per (class, preferred system, state), the data position
    and rate of the arrival the network admits (the state's own diagonal,
    which is written last, and rate 0 when it is lost); and entry, the flat
    position of (class, system 0, state) in a (class, system, state)
    table. tagged_bytes is what the
    bands of one generator's tagged blocks take, largest_band the entries
    of its largest tagged band, and tagged_group the TaggedGroup of every
    non-empty block (None if there is none). policy_bytes is what one
    policy's bands are counted at while a stack of several is solved: its
    generator, the copy the stationary LU factors and all its tagged
    blocks. Only one block's bands are held at once, but CHUNK_BYTES was
    tuned against this count, and counting the largest band alone would
    move every chunk size away from that tuning. A lone generator takes
    less, lone_size() entries in all, its LU band, as it is factored in
    place and its tagged bands are built over its band.
    """

    def __init__(self, tables: ChainTables):
        config = tables.config
        nst = tables.num_states
        state = np.broadcast_to(np.arange(nst), tables.arrival_id.shape)
        ok = tables.arrival_id >= 0
        up_src, up_dst = state[ok], tables.arrival_id[ok]
        loops = np.arange(nst)
        rows = np.concatenate([up_src, up_dst, loops])
        cols = np.concatenate([up_dst, up_src, loops])
        self.order = _reverse_cuthill_mckee(_neighbours(tables.arrival_id))
        self.position = np.empty(nst, dtype=np.int64)
        self.position[self.order] = np.arange(nst)
        users = tables.occ.sum(axis=1)
        high = 0 if users[self.order[0]] > users[self.order[-1]] else nst - 1
        self.pins = (int(self.position[users.argmin()]), high)
        self.width = int(np.abs(self.position[up_src] - self.position[up_dst]).max(initial=0))

        self.size = (2 * self.width + 1) * nst
        self.diagonal = self.band_position(loops, loops)
        self.outflow = -tables.departure_out
        self.departures = self.band_position(tables.dep_src, tables.dep_dst)
        rate = np.asarray(config.arrival_rate, dtype=float)[:, None, None]
        S = config.num_systems
        self.entry = np.arange(config.num_classes)[:, None] * S * nst + loops
        admitted = tables.admit_id >= 0
        self.arrivals = (np.where(admitted, self.band_position(state, tables.admit_id),
                                  self.diagonal[state]),
                         np.where(admitted, rate, 0.0))
        self.tagged = [[self._tagged(tables, rows, cols, n, s)
                        for s in range(config.num_systems)]
                       for n in range(config.num_classes)]
        self.tagged_bytes = 8 * sum(t.band_size for row in self.tagged for t in row)
        self.largest_band = max(t.band_size for row in self.tagged for t in row)
        self.policy_bytes = 8 * (self.size + (3 * self.width + 1) * nst) + self.tagged_bytes

    def chunk_size(self) -> int:
        """Generators per chunk: as many as CHUNK_BYTES holds at
        policy_bytes each, and at least one."""
        return max(1, CHUNK_BYTES // self.policy_bytes)

    def lone_size(self) -> int:
        """Entries of the one buffer a lone generator is solved in: its LU
        band, n (3 width + 1). Its tagged bands fit there too, once their
        entries are read out of its band: a block has at most n states, and
        its kl and ku never exceed width, as its states keep their order."""
        return len(self.order) * (3 * self.width + 1)

    @cached_property
    def lu_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """departures, diagonal and arrivals[0] moved to where a lone
        generator is assembled for its LU: each column of the band in rows
        width..3 width of a (3 width + 1)-entry column, the top width rows
        left for the fill, so data position p goes to
        p + width (p // (2 width + 1) + 1)."""
        w = self.width

        def moved(p: np.ndarray) -> np.ndarray:
            return p + w * (p // (2 * w + 1) + 1)

        return moved(self.departures), moved(self.diagonal), moved(self.arrivals[0])

    @cached_property
    def tagged_group(self) -> TaggedGroup | None:
        blocks = [(k, plan) for k, plan in enumerate(itertools.chain.from_iterable(self.tagged))
                  if len(plan.ids)]
        return TaggedGroup(blocks, len(self.order)) if blocks else None

    def band_position(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Data position of the generator entry q[src, dst]."""
        return _band_position(self.width, self.position[dst], self.position[src])

    def _tagged(self, tables: ChainTables, g_rows: np.ndarray, g_cols: np.ndarray,
                n: int, s: int) -> TaggedPlan:
        config = tables.config
        nst = tables.num_states
        present = tables.occ_ns[n, s] > 0
        positions = np.flatnonzero(present[self.order])
        ids = self.order[positions]
        m = len(ids)
        local = np.full(nst, -1, dtype=np.int64)
        local[ids] = np.arange(m)
        keep = present[g_rows] & present[g_cols]
        rows, cols = local[g_rows[keep]], local[g_cols[keep]]
        kl = int(np.max(rows - cols, initial=0))
        ku = int(np.max(cols - rows, initial=0))
        ldab = 2 * kl + ku + 1
        shift_rows = np.nonzero(tables.occ_ns[n, s, ids] >= 2)[0]
        shift_cols = local[tables.departure_id[n, s, ids[shift_rows]]]
        # off the diagonal a row holds rates summing to |a_ii| - mu, and
        # |a_ii| is at most every arrival rate plus mu per user present
        users = tables.occ[ids].sum(axis=1)
        outflow = sum(config.arrival_rate) + config.service_rate * users.max(initial=0)
        return TaggedPlan(
            ids=ids, positions=positions, rate=tables.throughput[n, s, ids],
            norm=2.0 * outflow,
            kl=kl, ku=ku,
            src=self.band_position(g_rows[keep], g_cols[keep]),
            band=cols * ldab + kl + ku + rows - cols,
            shift_rows=shift_rows, shift_cols=shift_cols,
            shift_band=shift_cols * ldab + kl + ku + shift_rows - shift_cols)


def chain_tables(space: StateSpace) -> ChainTables:
    """Shared ChainTables for a space, built on first use."""
    tables = getattr(space, "_chain_tables", None)
    if tables is None:
        tables = ChainTables(space)
        space._chain_tables = tables
    return tables


@dataclass
class Generator:
    """CTMC rate matrix of one rule over dense state ids, held as the
    BandGenerator of assemble_dense; rows sum to zero. choice is the
    preferred-system table (N, num_states) it was assembled from."""

    matrix: BandGenerator
    choice: np.ndarray

    def coo_triplets(self):
        """(row, col, rate) triplets of the off-diagonal transitions, in
        (row, col) order."""
        rows, cols, rates = self.matrix.entries()
        off = rows != cols
        rows, cols, rates = rows[off], cols[off], rates[off]
        for k in np.lexsort((cols, rows)):
            yield int(rows[k]), int(cols[k]), float(rates[k])


def assemble_stack(tables: ChainTables, choices: np.ndarray) -> np.ndarray:
    """The generators of a stack of preferred-system tables, choices of
    shape (B, N, num_states), as a (B, size) stack of BandGenerator data in
    the layout of tables.solve_plan. Every solver assembles through here
    or through _solve_stationary."""
    plan = tables.solve_plan
    data = np.zeros((len(choices), plan.size))
    return _assemble(tables, choices * tables.num_states + plan.entry, data)


def _assemble(tables: ChainTables, picked: np.ndarray, data: np.ndarray,
              lu: bool = False) -> np.ndarray:
    """Write the generators of the tables whose choices put (class,
    preferred system, state) at picked (B, N, num_states), a flat position
    in a (class, system, state) table, into data (B, stride), zeros on
    entry: as the plan's bands, or with lu, a stack of one, in the layout
    its LU is factored in (SolvePlan.lu_positions).

    Each row starts with the departure edges. An arrival raises the
    population and a departure lowers it, so no two edges share an entry;
    a lost arrival writes its zero on the diagonal, which is set last to
    minus the row's outflow. A state's arrival rates are summed
    class by class from the first, the order a bincount over (class, state)
    entries adds them in.
    """
    plan = tables.solve_plan
    B, stride = data.shape
    where, rates = plan.arrivals
    departures, diagonal = plan.departures, plan.diagonal
    if lu:
        departures, diagonal, where = plan.lu_positions
    rate = rates.take(picked)
    data[:, departures] = tables.dep_rate
    data.reshape(-1)[where.take(picked) + _offsets(stride, B)[:, None, None]] = rate
    data[:, diagonal] = np.subtract(plan.outflow, np.add.reduce(rate, 1))
    return data


def assemble_dense(tables: ChainTables, choice: np.ndarray) -> BandGenerator:
    """The BandGenerator of one preferred-system table, a stack of one."""
    plan = tables.solve_plan
    return BandGenerator(assemble_stack(tables, np.asarray(choice)[None])[0],
                         plan.width, plan.order, plan.pins)


# perfbench/tracer.py wraps the name assemble_generator in this module and
# in game and transient; it stays bound to assemble_dense until the
# benchmark stops wrapping it
assemble_generator = assemble_dense


def build_generator(space: StateSpace, rule: AssignmentRule) -> Generator:
    """Generator of the chain induced by an assignment rule."""
    choice = rule.choice_table(space)
    return Generator(assemble_dense(chain_tables(space), choice), choice)


@dataclass
class SteadyState:
    """Stationary distribution, its balance residual max|pi Q|, and the
    generator's choice table, which decides where arrivals are lost."""

    pi: np.ndarray
    residual: float
    choice: np.ndarray


def _pinned_lus(data: np.ndarray, layout, r: int, in_place: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions up to scale of a stack of generators, in
    the band's order, and the LAPACK info of each solve: one banded LU per
    generator, with the balance equation of the state at position r of the
    order replaced by pinning its mass to 1. The pin row is scaled to |q_rr|
    like the row it replaces, or to 1 where the pinned state has no way out
    (an absorbing state, or the only one). A nonzero info means the LU was
    singular, which happens exactly when pi_r = 0.

    The LUs run one after another in one work array of n columns of
    3 width + 1 entries, each band in rows width..3 width and the top width
    rows left for the fill, which LAPACK sets itself. Given a (B, size)
    stack, the work array is fresh and each band is copied into it. With
    in_place, data is a stack of one already assembled in that layout,
    shape (1, n (3 width + 1)) (_assemble with lu), and the LU runs there,
    over its band.
    """
    B, w, n = len(data), layout.width, len(layout.order)
    if in_place:
        work = data.reshape(n, 3 * w + 1)
        columns = work[None, :, w:]
    else:
        # data[b] column by column, 2 w + 1 entries each, the diagonal at w
        columns = data.reshape(B, n, 2 * w + 1)
        # np.zeros, not np.empty: numpy asks the kernel for huge pages for
        # a large empty array, whose zeroing on first touch slowed the
        # 3,600-state solve.
        work = np.zeros((n, 3 * w + 1))
    scale = np.abs(columns[:, r, w])
    np.copyto(scale, 1.0, where=scale == 0.0)
    # work.T is the LU band of the generator being solved, in Fortran
    # order: entry (r, c) of the matrix sits at work[c, 2 w + r - c], flat
    # at 3 w c + 2 w + r, so the pin row is a strided slice.
    flat = work.reshape(-1)
    diagonal = 3 * w * r + 2 * w + r
    first, last = max(0, r - w), min(n, r + w + 1)
    pin = slice(3 * w * first + 2 * w + r, 3 * w * last + 2 * w + r, 3 * w or 1)
    x = np.zeros((B, n))
    x[:, r] = scale
    info = np.empty(B, dtype=np.int64)
    for b in range(B):
        if not in_place:
            work[:, w:] = columns[b]
        flat[pin] = 0.0
        flat[diagonal] = scale[b]
        # gbsv writes the solution over row b of x, a contiguous vector
        info[b] = gbsv(w, w, work.T, x[b], overwrite_ab=1, overwrite_b=1)[3]
    return x, info


def _balanced(x: np.ndarray, info: np.ndarray, data: np.ndarray, layout, r: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solutions x (B, n) of _pinned_lus at pin r, with their infos, as
    distributions over state ids, their balance residuals max|pi Q|
    against their generators of the stack, and whether each holds.

    A pin holds where its LU was regular and the pinned entry is finite
    and holds more than PIN_MASS_FLOOR of the largest, since a pinned state
    with that little mass is lost in rounding, or lets the others overflow.
    A row whose pin holds is scaled to its largest entry, then its
    roundoff-sized negative entries are clamped to zero and it is
    normalized; it holds if no entry was below -1e-9 and its residual is
    within STEADY_RESIDUAL_TOL. Other rows come back as zeros: by the
    block-diagonal gbmv a NaN would reach the residuals of their
    neighbours. Each row is summed over state ids as one vector is: a sum
    over the last axis of a C-contiguous array adds each row alone. The
    residual reads the rows in the band's order, where they are scaled.
    """
    top = np.maximum.reduce(x, 1)
    # false where top is not finite, as the pinned entry is at most top
    held = x[:, r] > PIN_MASS_FLOOR * top
    held &= info == 0
    y = x / np.where(held, top, 1.0)[:, None]
    keep = held & (np.minimum.reduce(y, 1) >= -1e-9)
    # np.clip(y, 0.0, None), without its wrapper
    np.maximum(y, 0.0, out=y)
    pi = np.empty(y.shape)
    pi[:, layout.order] = y
    total = np.add.reduce(pi, 1)
    if not np.logical_and.reduce(keep):
        pi[~keep] = y[~keep] = 0.0
        total[~keep] = 1.0
    total = total[:, None]
    pi /= total
    y /= total
    xq = band_gbmv(stack_band(data, layout.width), layout.width, y, 0)
    residual = np.maximum.reduce(np.abs(xq, out=xq), 1)
    return pi, residual, keep & (residual <= STEADY_RESIDUAL_TOL)


def _pinned_step(data: np.ndarray, layout, r: int, lus=None) -> tuple[np.ndarray, ...]:
    """_pinned_lus, or lus in its stead, and _balanced of a stack pinned at
    r: the solutions x, their infos, the distributions, residuals and
    holds."""
    x, info = (_pinned_lus if lus is None else lus)(data, layout, r)
    return (x, info, *_balanced(x, info, data, layout, r))


def stationary_vectors(data: np.ndarray, layout, lus=None) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions (B, n) of a stack of generators and their
    balance residuals max|pi Q| (B,).

    Each chain is pinned at each of its pins in turn and keeps the first
    solution that passes its checks. Where both decline, as on mid-load
    chains whose mass sits far from either end, it is pinned once more at
    the heaviest state of its first declined solution that came back
    finite. Every state drains to the empty state, so its pin is singular on
    no chain. If every pin declines all the same, the first such generator
    raises, naming the states tried: ResidualError if a pin failed its
    checks, SingularChainError if every LU was singular.

    The whole stack is pinned at the first pin at once. Each generator it
    declines goes on alone through its remaining pins, as a stack of one on
    a view of the stack (its band can take megabytes), so it keeps the bits
    it has alone. Every check reads data, the clean bands. lus(data,
    layout, r), where given, factors in _pinned_lus's stead, leaving the
    clean bands in data: a lone generator factored in place
    (_solve_stationary).
    """
    x, info, pi, residual, held = _pinned_step(data, layout, layout.pins[0], lus)
    if np.logical_and.reduce(held):
        return pi, residual
    for b in (~held).nonzero()[0]:
        pins, heaviest, failed_check = list(layout.pins), None, False
        for k, r in enumerate(pins):
            if k:
                xs, infos, p, res, ok = _pinned_step(data[b:b + 1], layout, r, lus)
                if ok[0]:
                    pi[b], residual[b] = p[0], res[0]
                    break
                x[b], info[b] = xs[0], infos[0]
            if info[b] == 0:
                failed_check = True
                if heaviest is None and np.isfinite(x[b]).all():
                    heaviest = int(x[b].argmax())
                    if heaviest not in pins:
                        pins.append(heaviest)
        else:
            error = ResidualError if failed_check else SingularChainError
            tried = ", ".join(str(int(layout.order[r])) for r in dict.fromkeys(pins))
            raise error(f"no stationary solve holds: pinned at states {tried}, each declined")
    return pi, residual


def _solve_stationary(tables: ChainTables, picked: np.ndarray, scratch: _Scratch
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                 Callable[[], None] | None]:
    """The generators of the tables at picked (as _assemble takes them),
    solved for their stationary distributions: their (B, size) band data,
    the room for their tagged bands, at least B times the plan's
    largest_band entries, stationary_vectors's distributions and
    residuals, and what assembles the band data again after the room is
    written, or None where the room leaves it alone.

    Every buffer is scratch's "data". A stack of several is assembled at
    its head, which alone is zeroed, and each LU factors a copy of its
    band; the room is the buffer's tail, past the bands, and needs no
    reassembly. A lone generator is assembled in its LU's layout and
    factored in place, at each pin it tries; after each LU its clean band
    is assembled again at the head of the buffer, where the checks and the
    caller read it. Its room is the whole buffer, SolvePlan.lone_size
    entries, band included: transient._solve_group reads the entries of
    its blocks out of the band before it builds any, and calls the last
    item to assemble the band again before its checks. So the lone peak is
    one LU band: its band and an LU copy, or its band and a tagged band,
    are never held at once.
    """
    plan = tables.solve_plan
    B = len(picked)
    if B > 1:
        buffer = scratch.get("data", B * (plan.size + plan.largest_band))
        data = buffer[:B * plan.size].reshape(B, plan.size)
        data.fill(0.0)
        _assemble(tables, picked, data)
        return (data, buffer[B * plan.size:], *stationary_vectors(data, plan), None)
    buffer = scratch.zeros("data", plan.lone_size())
    lu = buffer.reshape(1, -1)
    data = buffer[:plan.size].reshape(1, -1)
    fresh = True

    def clean_band():
        data.fill(0.0)
        _assemble(tables, picked, data)

    def factored(_, layout, r):
        nonlocal fresh
        if not fresh:
            lu.fill(0.0)
        fresh = False
        solved = _pinned_lus(_assemble(tables, picked, lu, lu=True), layout, r, in_place=True)
        clean_band()
        return solved

    return (data, buffer, *stationary_vectors(data, plan, factored), clean_band)


def stationary_vector(gen: BandGenerator) -> tuple[np.ndarray, float]:
    """Stationary distribution of one BandGenerator and its balance
    residual: stationary_vectors of a stack of one."""
    pi, residual = stationary_vectors(gen.data[None], gen)
    return pi[0], float(residual[0])


def solve_steady_state(gen: Generator) -> SteadyState:
    """Unique stationary distribution of the generator, checked as
    stationary_vectors checks it."""
    pi, residual = stationary_vector(gen.matrix)
    return SteadyState(pi=pi, residual=residual, choice=gen.choice)


def _outcome_index(tables: ChainTables) -> np.ndarray:
    """index[n, s, i]: flat position in a (N, S, num_states) volume table of
    the volume a class-n user preferring system s at state i ends up with,
    after the network's admission outcome; a lost arrival points one past
    the table, at tables.occ_ns.size, where callers append a zero. Loss,
    for blocking too, is this sentinel."""
    N, S, nst = tables.occ_ns.shape
    flat = (np.arange(N)[:, None, None] * S + tables.admit_sys) * nst + tables.admit_id
    return np.where(tables.admit_id >= 0, flat, N * S * nst)


def _lost_sums(pi: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """sums[b, n], np.add.reduce of pi[b] at the states where lost[b, n]
    holds, with the bits of one vector summed alone. Rows with one lost
    table (every row under redirection) share one take of their lost
    states, class after class, whose per-class slices are summed row by
    row."""
    B, N, nst = lost.shape
    flat, width = lost.tobytes(), N * nst
    if flat == flat[:width] * B:
        groups = [range(B)]
    else:
        keyed: dict[bytes, list[int]] = {}
        for b, at in enumerate(range(0, len(flat), width)):
            keyed.setdefault(flat[at:at + width], []).append(b)
        groups = list(keyed.values())
    sums = np.empty((B, N))
    for members in groups:
        rows = slice(None) if len(members) == B else np.array(members)
        at = np.flatnonzero(lost[members[0]])                # n * nst + i
        taken = pi[rows].take(at % nst, axis=1)
        ends = np.searchsorted(at, np.arange(nst, width + 1, nst)).tolist()
        start = 0
        for n, end in enumerate(ends):
            sums[rows, n] = np.add.reduce(taken[:, start:end], 1)
            start = end
    return sums


def per_class_blocking(space: StateSpace, steady: SteadyState) -> np.ndarray:
    """Unconditional blocking probability per class of the chain steady was
    solved for: the mass of the states where its choice table loses an
    arrival of the class (_lost_sums of a stack of one)."""
    tables = chain_tables(space)
    picked = steady.choice * space.num_states + tables.solve_plan.entry
    lost = _outcome_index(tables).take(picked) == tables.occ_ns.size
    return _lost_sums(steady.pi[None], lost[None])[0]
