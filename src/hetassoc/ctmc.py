"""Continuous-time Markov chain engine: generator, steady state, blocking.

Transitions connect states differing by one user. Arrivals of class n occur
at rate lambda_n toward the system the assignment rule picks; a saturated
pick is redirected to the lowest-index system with room, and the arrival is
lost only when no system can admit the user (this matches the blocking
counts, which treat a state as blocking only when every system is
saturated). A strict mode that silently drops arrivals whose picked system
is full is available for comparison. Departures of (n, s) users occur at
rate M_n^s * mu; diagonal entries make every row sum to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .config import ConfigError
from .rules import AssignmentRule
from .states import StateSpace, throughput_array

# largest balance residual max|pi Q| a stationary solve may keep
STEADY_RESIDUAL_TOL = 1e-10
# A pinned stationary solve is trusted only where the pinned state holds
# more than this fraction of the largest entry. Below it the pin is lost in
# rounding: the computed ratio lands near machine epsilon whatever the true
# one, and the vector is right only up to luck.
PIN_MASS_FLOOR = 1e-12
EMPTY_LABEL_MASS = 1e-12
# Bytes of bands a chunk of generators may hold while it is solved, at
# SolvePlan.policy_bytes per generator and at least one per chunk: 38
# policies on 119 states (the fastest in a sweep from 0.125 to 16 MiB), and
# one at a time, its tagged blocks gathered one by one, on spaces of a few
# thousand states, whose bands take megabytes each.
CHUNK_BYTES = 4 * 2 ** 20

_gbsv = get_lapack_funcs("gbsv", dtype=np.float64)
_gbmv = get_blas_funcs("gbmv", dtype=np.float64)


class SingularChainError(RuntimeError):
    """The balance equations have no unique solution over the space."""


class ResidualError(RuntimeError):
    """A solved distribution failed its post-solve residual check."""


class ChainTables:
    """Policy-independent transition structure precomputed for one space.

    Arrival targets, redirection outcomes, departure edges, blocking masks
    and per-state tagged-user throughputs depend only on the config and the
    enumerated space, so every policy and rule evaluation shares them.
    """

    def __init__(self, space: StateSpace):
        config = space.config
        N, S = config.num_classes, config.num_systems
        nst = space.num_states
        occ = space.occ
        self.space = space

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
        self.blocked = ~feasible.any(axis=1)                 # (N, nst)
        self.blocked_ids = [np.flatnonzero(b) for b in self.blocked]
        # each class's share of the arrivals
        self.class_weight = np.array(config.arrival_rate) / sum(config.arrival_rate)
        first_open = np.argmax(feasible, axis=1)             # lowest open system

        # admit_sys / admit_id: outcome with redirection, indexed by the
        # preferred system; strict_id drops redirected arrivals instead.
        self.admit_sys = np.empty((N, S, nst), dtype=np.int64)
        self.admit_id = np.empty((N, S, nst), dtype=np.int64)
        for n in range(N):
            for s in range(S):
                sys_taken = np.where(feasible[n, s], s, first_open[n])
                sys_taken = np.where(self.blocked[n], -1, sys_taken)
                self.admit_sys[n, s] = sys_taken
                ids = self.arrival_id[n, sys_taken.clip(min=0), np.arange(nst)]
                self.admit_id[n, s] = np.where(sys_taken >= 0, ids, -1)
        self.strict_id = self.arrival_id

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
    any rule. rows and cols are the local positions of every entry some
    rule can put in the block, diagonal included; src is each entry's
    position in the data of the full generator's BandGenerator, and band its
    flat position in LAPACK band storage of shape band_shape (Fortran order,
    with kl spare rows on top for the LU's fill). The shift_* arrays locate
    the tagged user's own departures that stay in the block, the entries
    their absorption rate mu is taken off.
    """

    ids: np.ndarray
    positions: np.ndarray
    rate: np.ndarray
    norm: float
    kl: int
    ku: int
    rows: np.ndarray
    cols: np.ndarray
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
    """Non-empty tagged blocks that are gathered, solved and checked
    together, their arrays laid end to end.

    blocks holds, per block in (class, system) order, its TaggedPlan, its
    band_shape and the slices of its band storage and of its values in the
    group's; size is the group's band slots in all. src, band and
    shift_band are the plans' arrays over the group's band storage,
    shift_rows and shift_cols over its values, and rate the right-hand sides
    end to end. starts is where each block's values start, norm its bound
    on |A|_inf, targets the position of each value in a flattened (N, S,
    num_states) volume table, and slots its position in the band's order
    among the group's blocks laid end to end, num_states each. A group of
    one block shares its plan's arrays.
    """

    def __init__(self, blocks: list[tuple[int, TaggedPlan]], num_states: int):
        self.blocks = []
        band_at = value_at = 0
        band, shift_band, shift_rows, shift_cols, starts = [], [], [], [], []
        for k, plan in blocks:
            self.blocks.append((plan, plan.band_shape,
                                slice(band_at, band_at + plan.band_size),
                                slice(value_at, value_at + len(plan.ids))))
            band.append(plan.band + band_at if band_at else plan.band)
            shift_band.append(plan.shift_band + band_at if band_at else plan.shift_band)
            shift_rows.append(plan.shift_rows + value_at if value_at else plan.shift_rows)
            shift_cols.append(plan.shift_cols + value_at if value_at else plan.shift_cols)
            starts.append(value_at)
            band_at += plan.band_size
            value_at += len(plan.ids)
        plans = [plan for _, plan in blocks]

        def joined(arrays):
            return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

        self.size = band_at
        self.src = joined([plan.src for plan in plans])
        self.band, self.shift_band = joined(band), joined(shift_band)
        self.shift_rows, self.shift_cols = joined(shift_rows), joined(shift_cols)
        self.rate = joined([plan.rate for plan in plans])
        self.starts = np.array(starts)
        self.norm = np.array([plan.norm for plan in plans])
        self.targets = np.concatenate([k * num_states + plan.ids for k, plan in blocks])
        self.slots = np.concatenate([j * num_states + plan.positions
                                     for j, plan in enumerate(plans)])


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

    def tocoo(self) -> sp.coo_matrix:
        k, c = np.nonzero(self.band)
        rows, cols = self.order[c], self.order[c + k - self.width]
        return sp.coo_matrix((self.band[k, c], (rows, cols)), shape=self.shape)

    def toarray(self) -> np.ndarray:
        return self.tocoo().toarray()

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
    # scipy's gbmv wrapper wants at least as many rows as the band has, so a
    # short matrix gets zero rows below it (the band holds zeros wherever a
    # row past the end would be read)
    m = max(total, 2 * width + 1)
    xs = x.ravel()
    if trans and m > total:
        xs = np.concatenate([xs, np.zeros(m - total)])
    return _gbmv(m, total, width, width, 1.0, band, xs, trans=trans)[:total].reshape(x.shape)


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
    each state's diagonal entry; arrivals[strict], per (class, preferred
    system, state), the data position and rate of the arrival the network
    admits (the state's own diagonal, which is written last, and rate 0 when
    it is lost); arrival_src, the state of each entry of a (class, state)
    table, flattened; and entry, the flat position of (class, system 0,
    state) in a (class, system, state) table. tagged_bytes is what the
    bands of one generator's tagged blocks take, and policy_bytes what one
    policy's bands take while a stack is solved: its generator, the copy
    the stationary LU factors and its tagged blocks.
    """

    def __init__(self, tables: ChainTables):
        config = tables.space.config
        nst = tables.space.num_states
        state = np.broadcast_to(np.arange(nst), tables.arrival_id.shape)
        ok = tables.arrival_id >= 0
        up_src, up_dst = state[ok], tables.arrival_id[ok]
        loops = np.arange(nst)
        rows = np.concatenate([up_src, up_dst, loops])
        cols = np.concatenate([up_dst, up_src, loops])
        graph = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(nst, nst))
        self.order = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.int64)
        self.position = np.empty(nst, dtype=np.int64)
        self.position[self.order] = np.arange(nst)
        users = tables.space.occ.sum(axis=1)
        high = 0 if users[self.order[0]] > users[self.order[-1]] else nst - 1
        self.pins = (int(self.position[users.argmin()]), high)
        coo = graph.tocoo()
        self.width = int(np.abs(self.position[coo.row] - self.position[coo.col]).max())

        self.size = (2 * self.width + 1) * nst
        self.diagonal = self.band_position(loops, loops)
        self.departures = self.band_position(tables.dep_src, tables.dep_dst)
        rate = np.asarray(config.arrival_rate, dtype=float)[:, None, None]
        self.arrival_src = np.tile(loops, config.num_classes)
        S = config.num_systems
        self.entry = np.arange(config.num_classes)[:, None] * S * nst + loops
        self.arrivals = {}
        for strict, target in ((False, tables.admit_id), (True, tables.strict_id)):
            admitted = target >= 0
            self.arrivals[strict] = (
                np.where(admitted, self.band_position(state, target),
                         self.diagonal[state]),
                np.where(admitted, rate, 0.0))
        self.tagged = [[self._tagged(tables, coo.row, coo.col, n, s)
                        for s in range(config.num_systems)]
                       for n in range(config.num_classes)]
        self.tagged_bytes = 8 * sum(t.band_size for row in self.tagged for t in row)
        self.policy_bytes = 8 * (self.size + (3 * self.width + 1) * nst) + self.tagged_bytes

    def chunk_size(self) -> int:
        """Generators per chunk: as many as CHUNK_BYTES holds at
        policy_bytes each, and at least one."""
        return max(1, CHUNK_BYTES // self.policy_bytes)

    def tagged_groups(self, count: int) -> list[TaggedGroup]:
        """How the tagged blocks of a stack of `count` generators are
        gathered: all in one group where their bands fit in CHUNK_BYTES,
        else block by block."""
        return self._all_tagged if count * self.tagged_bytes <= CHUNK_BYTES \
            else self._each_tagged

    @cached_property
    def _nonempty_tagged(self) -> list[tuple[int, TaggedPlan]]:
        return [(k, plan) for k, plan in enumerate(itertools.chain.from_iterable(self.tagged))
                if len(plan.ids)]

    @cached_property
    def _all_tagged(self) -> list[TaggedGroup]:
        blocks = self._nonempty_tagged
        return [TaggedGroup(blocks, len(self.order))] if blocks else []

    @cached_property
    def _each_tagged(self) -> list[TaggedGroup]:
        return [TaggedGroup([block], len(self.order)) for block in self._nonempty_tagged]

    def band_position(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Data position of the generator entry q[src, dst]."""
        return _band_position(self.width, self.position[dst], self.position[src])

    def _tagged(self, tables: ChainTables, g_rows: np.ndarray, g_cols: np.ndarray,
                n: int, s: int) -> TaggedPlan:
        config = tables.space.config
        nst = tables.space.num_states
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
        users = tables.space.occ[ids].sum(axis=1)
        outflow = sum(config.arrival_rate) + config.service_rate * users.max(initial=0)
        return TaggedPlan(
            ids=ids, positions=positions, rate=tables.throughput[n, s, ids],
            norm=2.0 * outflow,
            kl=kl, ku=ku, rows=rows, cols=cols,
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
    BandGenerator of assemble_dense; rows sum to zero."""

    matrix: BandGenerator
    space: StateSpace
    rule_name: str

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def row_sum_error(self) -> float:
        return float(np.abs(self.matrix.dot(np.ones(self.num_states))).max())

    def coo_triplets(self):
        """(row, col, rate) triplets of the off-diagonal transitions, in
        (row, col) order."""
        coo = self.matrix.tocoo()
        off = coo.row != coo.col
        rows, cols, rates = coo.row[off], coo.col[off], coo.data[off]
        for k in np.lexsort((cols, rows)):
            yield int(rows[k]), int(cols[k]), float(rates[k])


def assemble_stack(tables: ChainTables, choices: np.ndarray,
                   strict: bool = False) -> np.ndarray:
    """The generators of a stack of preferred-system tables, choices of
    shape (B, N, num_states), as a (B, size) stack of BandGenerator data in
    the layout of tables.solve_plan. Every solver assembles through here.
    """
    plan = tables.solve_plan
    B, nst = len(choices), tables.space.num_states
    where, rates = plan.arrivals[strict]
    picked = choices * nst + plan.entry
    rate = rates.take(picked)
    data = np.zeros((B, plan.size))
    data[:, plan.departures] = tables.dep_rate
    # an arrival raises the population and a departure lowers it, so no
    # two edges share an entry; a lost arrival writes its zero on the
    # diagonal, which is set below
    offset = np.arange(0, B * plan.size, plan.size)[:, None, None]
    data.reshape(-1)[where.take(picked) + offset] = rate
    src = (np.arange(0, B * nst, nst)[:, None] + plan.arrival_src).ravel()
    data[:, plan.diagonal] = -(tables.departure_out + np.bincount(
        src, weights=rate.ravel(), minlength=B * nst).reshape(B, nst))
    return data


def assemble_dense(tables: ChainTables, choice: np.ndarray,
                   strict: bool = False) -> BandGenerator:
    """The BandGenerator of one preferred-system table, a stack of one."""
    plan = tables.solve_plan
    return BandGenerator(assemble_stack(tables, np.asarray(choice)[None], strict)[0],
                         plan.width, plan.order, plan.pins)


# perfbench/tracer.py wraps the name assemble_generator in this module and
# in game and transient; it stays bound to assemble_dense until the
# benchmark stops wrapping it
assemble_generator = assemble_dense


def build_generator(space: StateSpace, rule: AssignmentRule,
                    strict_arrivals: bool = False) -> Generator:
    """Generator of the chain induced by an assignment rule."""
    matrix = assemble_dense(chain_tables(space), rule.choice_table(space),
                            strict=strict_arrivals)
    return Generator(matrix=matrix, space=space, rule_name=rule.describe())


@dataclass
class SteadyState:
    """Stationary distribution and its balance residual max|pi Q|."""

    pi: np.ndarray
    residual: float


def _pinned_lus(data: np.ndarray, layout, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions up to scale of a stack of generators, in
    the band's order, and the LAPACK info of each solve: one banded LU per
    generator, with the balance equation of the state at position r of the
    order replaced by pinning its mass to 1. The pin row is scaled to |q_rr|
    like the row it replaces, or to 1 where the pinned state has no way out
    (an absorbing state, or the only one). The LUs work on copies of the
    bands with width rows on top for their fill. A nonzero info means the LU
    was singular, which happens exactly when pi_r = 0.
    """
    B, w, n = len(data), layout.width, len(layout.order)
    # ab[b].T is generator b's LU band in Fortran order: entry (r, c) of
    # the matrix sits at ab[b, c, 2 w + r - c]
    ab = np.zeros((B, n, 3 * w + 1))
    ab[:, :, w:] = data.reshape(B, n, 2 * w + 1)
    diagonal = ab[:, r, 2 * w]
    scale = np.where(diagonal == 0.0, 1.0, np.abs(diagonal))
    cols = np.arange(max(0, r - w), min(n, r + w + 1))
    ab[:, cols, 2 * w + r - cols] = 0.0
    ab[:, r, 2 * w] = scale
    x = np.zeros((B, n))
    x[:, r] = scale
    info = np.empty(B, dtype=np.int64)
    for b in range(B):
        _, _, x[b], info[b] = _gbsv(w, w, ab[b].T, x[b], overwrite_ab=1, overwrite_b=1)
    return x, info


def _pinned_pis(x: np.ndarray, layout, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The solutions x (B, n) of _pinned_lus at pin r as distributions over
    state ids, each scaled to its largest entry, and whether each pin holds:
    it does not where the pinned entry is not finite or holds at most
    PIN_MASS_FLOOR of the largest, since a pinned state with that little
    mass is lost in rounding, or lets the others overflow. Rows whose pin
    does not hold are scaled by 1.
    """
    top = x.max(axis=1)
    held = (top < np.inf) & (x[:, r] > PIN_MASS_FLOOR * top)
    pi = np.empty(x.shape)
    pi[:, layout.order] = x / np.where(held, top, 1.0)[:, None]
    return pi, held


def _balanced(pi: np.ndarray, held: np.ndarray, data: np.ndarray, layout
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of pi (B, n) with roundoff-sized negative entries clamped
    to zero and normalized, its balance residual max|pi Q| against its
    generator of the stack, and whether it holds: held on entry, no entry
    below -1e-9 and the residual within STEADY_RESIDUAL_TOL.

    Rows not held, or with an entry below -1e-9 or not finite, come back as
    zeros: by the block-diagonal gbmv a NaN would reach the residuals of
    their neighbours. Each row is summed on its own, as one vector is.
    """
    keep = held & (pi.min(axis=1) >= -1e-9)
    pi = np.clip(pi, 0.0, None)
    total = np.array([np.add.reduce(row) for row in pi])
    if not keep.all():
        pi[~keep] = 0.0
        total[~keep] = 1.0
    pi /= total[:, None]
    xq = band_gbmv(stack_band(data, layout.width), layout.width,
                   pi.take(layout.order, axis=1), 0)
    residual = np.abs(xq).max(axis=1)
    return pi, residual, keep & (residual <= STEADY_RESIDUAL_TOL)


def _pinned_step(data: np.ndarray, layout, r: int) -> tuple[np.ndarray, ...]:
    """_pinned_lus, _pinned_pis and _balanced of a stack pinned at r: the
    solutions x, their infos, the distributions, residuals and holds."""
    x, info = _pinned_lus(data, layout, r)
    pi, held = _pinned_pis(x, layout, r)
    return (x, info, *_balanced(pi, held & (info == 0), data, layout))


def stationary_vectors(data: np.ndarray, layout) -> tuple[np.ndarray, np.ndarray]:
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
    it has alone.
    """
    x, info, pi, residual, held = _pinned_step(data, layout, layout.pins[0])
    for b in np.flatnonzero(~held):
        pins, heaviest, failed_check = list(layout.pins), None, False
        for k, r in enumerate(pins):
            if k:
                xs, infos, p, res, ok = _pinned_step(data[b:b + 1], layout, r)
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


def stationary_vector(gen: BandGenerator) -> tuple[np.ndarray, float]:
    """Stationary distribution of one BandGenerator and its balance
    residual: stationary_vectors of a stack of one."""
    pi, residual = stationary_vectors(gen.data[None], gen)
    return pi[0], float(residual[0])


def solve_steady_state(gen: Generator) -> SteadyState:
    """Unique stationary distribution of the generator, checked as
    stationary_vectors checks it."""
    pi, residual = stationary_vector(gen.matrix)
    return SteadyState(pi=pi, residual=residual)


class CellBlocking(NamedTuple):
    """Blocking of a stack of B stationary vectors over an information
    partition."""

    mass: np.ndarray                  # (B, cells) stationary mass per cell
    empty: np.ndarray                 # (B, cells) cells without stationary mass
    by_cell: np.ndarray               # (B, N, cells) blocking conditional on the cell
    per_class: np.ndarray             # (B, N) unconditional blocking per class
    overall: np.ndarray               # (B,) arrival-rate weighted over the classes


class Partition:
    """An information partition of a space: cells, a cell id per state, and
    ncells cells in all, with the bins of per-cell sums over a stack of up
    to `stack` vectors: cell_bins[b * num_states + i] is the (vector, cell)
    bin of state i, class_bins[(b * N + n) * num_states + i] its (vector,
    class, cell) bin."""

    def __init__(self, tables: ChainTables, cells: np.ndarray, ncells: int, stack: int = 1):
        N = len(tables.blocked)
        self.cells, self.ncells = cells, ncells
        self.cell_bins = (np.arange(0, stack * ncells, ncells)[:, None] + cells).ravel()
        self.class_bins = (np.arange(0, stack * N * ncells, ncells)[:, None] + cells).ravel()


def cell_blocking(tables: ChainTables, pi: np.ndarray, partition: Partition) -> CellBlocking:
    """Blocking under each row of pi (B, num_states) over a partition.

    A class is blocked at a state where every system is saturated. The
    numerator of a cell's conditional blocking is restricted to the cell's
    own states, so the result is a probability; cells without stationary
    mass report zero. The per-class sums and their weighting are taken row
    by row, as for one vector alone.
    """
    blocked = tables.blocked
    (B, nst), N, ncells = pi.shape, len(blocked), partition.ncells
    mass = np.bincount(partition.cell_bins[:B * nst], weights=pi.ravel(),
                       minlength=B * ncells).reshape(B, ncells)
    empty = mass <= EMPTY_LABEL_MASS
    per_class = np.array([[np.add.reduce(row.take(ids)) for ids in tables.blocked_ids]
                          for row in pi])
    by_cell = np.zeros((B, N, ncells))
    num = np.bincount(partition.class_bins[:B * N * nst],
                      weights=(blocked * pi[:, None]).ravel(), minlength=B * N * ncells)
    np.divide(num.reshape(B, N, ncells), mass[:, None], out=by_cell, where=~empty[:, None])
    overall = np.array([tables.class_weight @ p for p in per_class])
    return CellBlocking(mass, empty, by_cell, per_class, overall)


def per_class_blocking(space: StateSpace, steady: SteadyState) -> np.ndarray:
    """Unconditional blocking probability per class."""
    tables = chain_tables(space)
    one = Partition(tables, np.zeros(space.num_states, dtype=np.int64), 1)
    return cell_blocking(tables, steady.pi[None], one).per_class[0]
