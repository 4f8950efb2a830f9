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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .aggregation import label_array
from .config import AggregationScheme
from .rules import AssignmentRule
from .states import StateSpace, occ_index, scope_count

STEADY_RESIDUAL_TOL = 1e-10
# A pinned stationary solve is trusted only where the pinned state holds
# more than this fraction of the largest entry. Below it the pin is lost in
# rounding: the computed ratio lands near machine epsilon whatever the true
# one, and the vector is right only up to luck.
PIN_MASS_FLOOR = 1e-12
EMPTY_LABEL_MASS = 1e-12

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

        # occ_ns[n, s, i]: class-n users in system s at state i
        self.occ_ns = np.empty((N, S, nst), dtype=np.int64)
        # arrival_id[n, s, i]: id of the state with one more (n, s) user, -1
        # if that state is infeasible
        self.arrival_id = np.full((N, S, nst), -1, dtype=np.int64)
        # departure_id[n, s, i]: id after one (n, s) departure, -1 if none
        self.departure_id = np.full((N, S, nst), -1, dtype=np.int64)
        # throughput of one (n, s) user present at state i (nan if absent)
        self.throughput = np.full((N, S, nst), np.nan)

        index = space.index
        for i, state in enumerate(space.states):
            for s in range(S):
                for n in range(N):
                    j = occ_index(config, n, s)
                    self.occ_ns[n, s, i] = state[j]
                    up = state[:j] + (state[j] + 1,) + state[j + 1:]
                    self.arrival_id[n, s, i] = index.get(up, -1)
                    if state[j] > 0:
                        down = state[:j] + (state[j] - 1,) + state[j + 1:]
                        self.departure_id[n, s, i] = index[down]
                k = scope_count(config, state, s)
                if k > 0:
                    g = config.gain(k)
                    for n in range(N):
                        if state[occ_index(config, n, s)] > 0:
                            # same association order as user_throughput
                            self.throughput[n, s, i] = min(
                                config.peak_rate[n][s] * g / k, config.t_max)

        feasible = self.arrival_id >= 0                      # (N, S, nst)
        self.blocked = ~feasible.any(axis=1)                 # (N, nst)
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

    def arrival_edges(self, choice: np.ndarray, strict: bool = False):
        """Arrival triplets (src, dst, rate) for a preferred-system table of
        shape (N, num_states)."""
        config = self.space.config
        N, nst = choice.shape
        targets = self.strict_id if strict else self.admit_id
        dst = targets[np.arange(N)[:, None], choice, np.arange(nst)]
        ok = dst >= 0
        rates = np.broadcast_to(np.asarray(config.arrival_rate, dtype=float)[:, None],
                                dst.shape)
        return np.nonzero(ok)[1], dst[ok], rates[ok]


@dataclass(frozen=True)
class TaggedPlan:
    """Where the entries of one tagged (class, system) block come from.

    ids lists the tagged states in the solve order and rate the tagged
    user's throughput in each, the right-hand side of every solve; norm
    bounds |A|_inf of the block under any rule. rows and cols are the
    local positions of every entry some rule can put in the block, diagonal
    included; src is each entry's position in the data of the full
    generator's BandGenerator, and band its flat position in LAPACK band
    storage of shape band_shape (Fortran order, with kl spare rows on top
    for the LU's fill). The shift_* arrays locate the tagged user's own
    departures that stay in the block, the entries his absorption rate mu
    is taken off.
    """

    ids: np.ndarray
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


def _band_position(width: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Flat (Fortran-order) position of entry (r, c) of a matrix with
    half-bandwidth `width` in band storage of 2 width + 1 rows: row
    width + r - c of column c."""
    return c * (2 * width + 1) + width + r - c


class BandGenerator:
    """A generator Q held as its transpose in LAPACK band storage.

    The states are taken in `order`; band holds Q^T with half-bandwidth
    width in the layout of _band_position, shape (2 width + 1, n). data is
    band flattened plus one slot past its end, which takes the writes of
    arrivals that are lost. pins lists the positions in the order where the
    stationary solve tries to pin pi, in turn. shape and nnz describe Q;
    q.dot(x) is Q x and x @ q is x Q, both by BLAS gbmv on the unfactored
    band.
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
        self.band = data[:-1].reshape((2 * width + 1, n), order="F")

    @classmethod
    def from_matrix(cls, matrix, order: np.ndarray,
                    pins: tuple[int, ...]) -> "BandGenerator":
        """Band form of a dense or sparse generator, states taken in order."""
        coo = sp.coo_matrix(matrix)
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        r, c = position[coo.col], position[coo.row]
        width = int(np.abs(r - c).max(initial=0))
        data = np.zeros((2 * width + 1) * len(order) + 1)
        data[_band_position(width, r, c)] = coo.data
        return cls(data, width, order, pins)

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
        # scipy's gbmv wrapper wants at least as many rows as the band has,
        # so a short matrix gets zero rows below it (the band holds zeros
        # wherever a row past the end would be read).
        n, w = self.shape[0], self.width
        m = max(n, 2 * w + 1)
        xs = np.zeros(m if trans else n)
        xs[:n] = x[self.order]
        y = np.empty(n)
        y[self.order] = _gbmv(m, n, w, w, 1.0, self.band, xs, trans=trans)[:n]
        return y

    def dot(self, x: np.ndarray) -> np.ndarray:
        return self._gbmv(x, 1)

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return self._gbmv(x, 0)


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

    The plan also holds what assemble_dense scatters: size, the length of
    a BandGenerator's data; departures, the data position of each departure
    edge of the ChainTables (rates dep_rate); diagonal, the data position of
    each state's diagonal entry; arrivals[strict], per (class, preferred
    system, state), the data position and rate of the arrival the network
    admits (the slot past the band and rate 0 when it is lost); and
    arrival_src, the state of each entry of a (class, state) table,
    flattened.
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

        sink = (2 * self.width + 1) * nst
        self.size = sink + 1
        self.diagonal = self.band_position(loops, loops)
        self.departures = self.band_position(tables.dep_src, tables.dep_dst)
        rate = np.asarray(config.arrival_rate, dtype=float)[:, None, None]
        self.arrival_src = np.tile(loops, config.num_classes)
        self.arrivals = {}
        for strict, target in ((False, tables.admit_id), (True, tables.strict_id)):
            admitted = target >= 0
            self.arrivals[strict] = (
                np.where(admitted, self.band_position(state, target), sink),
                np.where(admitted, rate, 0.0))
        self.tagged = [[self._tagged(tables, coo.row, coo.col, n, s)
                        for s in range(config.num_systems)]
                       for n in range(config.num_classes)]

    def band_position(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Data position of the generator entry q[src, dst]."""
        return _band_position(self.width, self.position[dst], self.position[src])

    def _tagged(self, tables: ChainTables, g_rows: np.ndarray, g_cols: np.ndarray,
                n: int, s: int) -> TaggedPlan:
        config = tables.space.config
        nst = tables.space.num_states
        present = tables.occ_ns[n, s] > 0
        ids = self.order[present[self.order]]
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
            ids=ids, rate=tables.throughput[n, s, ids], norm=2.0 * outflow,
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
    """Sparse CTMC rate matrix over dense state ids; rows sum to zero."""

    matrix: sp.csr_matrix
    space: StateSpace
    rule_name: str

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def row_sum_error(self) -> float:
        return float(np.abs(np.asarray(self.matrix.sum(axis=1)).ravel()).max())

    def coo_triplets(self):
        """(row, col, rate) triplets of the off-diagonal transitions."""
        coo = self.matrix.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            if r != c and v != 0.0:
                yield int(r), int(c), float(v)


def _outflow(tables: ChainTables, arr_src: np.ndarray, arr_rate: np.ndarray) -> np.ndarray:
    """Total rate out of each state: its departures plus the arrivals
    (src, rate) admitted there. Both assemblies take their diagonal from
    here, so the band and CSR generators agree entry for entry."""
    nst = tables.space.num_states
    return tables.departure_out + np.bincount(arr_src, weights=arr_rate, minlength=nst)


def assemble_generator(tables: ChainTables, choice: np.ndarray,
                       strict: bool = False) -> sp.csr_matrix:
    arr_src, arr_dst, arr_rate = tables.arrival_edges(choice, strict=strict)
    rows = np.concatenate([arr_src, tables.dep_src])
    cols = np.concatenate([arr_dst, tables.dep_dst])
    rates = np.concatenate([arr_rate, tables.dep_rate])
    nst = tables.space.num_states
    q = sp.coo_matrix((rates, (rows, cols)), shape=(nst, nst)).tocsr()
    return q - sp.diags(_outflow(tables, arr_src, arr_rate), format="csr")


def assemble_dense(tables: ChainTables, choice: np.ndarray,
                   strict: bool = False):
    """The generator of a preferred-system table in the form the solvers
    take, a BandGenerator, at any state count. Every solver assembles
    through here.
    """
    plan = tables.solve_plan
    N, S, nst = tables.arrival_id.shape
    where, rates = plan.arrivals[strict]
    picked = (np.arange(N)[:, None] * S + choice) * nst + np.arange(nst)
    rate = rates.take(picked)
    data = np.zeros(plan.size)
    data[plan.departures] = tables.dep_rate
    # an arrival raises the population and a departure lowers it, so no
    # two edges share an entry
    data[where.take(picked)] = rate
    data[plan.diagonal] = -_outflow(tables, plan.arrival_src, rate.ravel())
    return BandGenerator(data, plan.width, plan.order, plan.pins)


def build_generator(space: StateSpace, rule: AssignmentRule,
                    strict_arrivals: bool = False) -> Generator:
    """Generator of the chain induced by an assignment rule."""
    tables = chain_tables(space)
    choice = rule.choice_table(space)
    matrix = assemble_generator(tables, choice, strict=strict_arrivals)
    return Generator(matrix=matrix, space=space, rule_name=rule.describe())


@dataclass
class SteadyState:
    """Stationary distribution and its balance residual max|pi Q|."""

    pi: np.ndarray
    residual: float


def _pinned_lu(gen: BandGenerator, r: int) -> np.ndarray:
    """Stationary distribution up to scale, in the band's order, by a banded
    LU with the balance equation of the state at position r of the order
    replaced by pinning its mass to 1; the pin row is scaled to |q_rr| like
    the row it replaces, or to 1 where the pinned state has no way out (an
    absorbing state, or the only one). The LU works on a copy of the band
    with width rows on top for its fill. Raises SingularChainError when the
    LU is singular, which happens exactly when pi_r = 0.
    """
    n, w = gen.shape[0], gen.width
    ab = np.zeros((3 * w + 1, n), order="F")
    band = ab[w:]
    band[...] = gen.band
    scale = abs(band[w, r]) or 1.0
    cols = np.arange(max(0, r - w), min(n, r + w + 1))
    band[w + r - cols, cols] = 0.0
    band[w, r] = scale
    rhs = np.zeros(n)
    rhs[r] = scale
    _, _, x, info = _gbsv(w, w, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise SingularChainError(f"pinned banded LU failed (info {info})")
    return x


def _pinned_pi(gen: BandGenerator, x: np.ndarray, r: int) -> np.ndarray:
    """The solution x of _pinned_lu at pin r as a distribution over state
    ids, scaled to its largest entry. Raises ResidualError when the pinned
    entry is not finite or holds at most PIN_MASS_FLOOR of the largest: a
    pinned state with that little mass is lost in rounding, or lets the
    others overflow.
    """
    top = x.max()
    if not (top < np.inf and x[r] > PIN_MASS_FLOOR * top):
        raise ResidualError(f"pinned entry {x[r]:.3e} is negligible next to {top:.3e}")
    pi = np.empty(len(x))
    pi[gen.order] = x / top
    return pi


def _checked(pi: np.ndarray, gen: BandGenerator, residual_tol: float
             ) -> tuple[np.ndarray, float]:
    """Normalized pi and its balance residual max|pi Q|, after clamping
    roundoff-sized negative entries to zero; negative mass, non-finite
    values and a residual above residual_tol raise ResidualError."""
    if not pi.min() >= -1e-9:
        raise ResidualError(
            f"stationary solve produced negative or non-finite mass {pi.min():.3e}")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.abs(pi @ gen).max())
    if not residual <= residual_tol:
        raise ResidualError(
            f"stationary residual {residual:.3e} exceeds {residual_tol:.1e}")
    return pi, residual


def stationary_vector(gen: BandGenerator, residual_tol: float = STEADY_RESIDUAL_TOL
                      ) -> tuple[np.ndarray, float]:
    """Stationary distribution of a BandGenerator and its balance residual
    max|pi Q|, checked by _checked.

    The chain is solved pinned at each of its pins in turn, and the first
    solution that passes its checks is kept. Where both decline, as on
    mid-load chains whose mass sits far from either end, it is pinned once
    more at the heaviest state of the first declined solution that came
    back finite. Every state drains to the empty state, so its pin is
    singular on no chain. When every pin declines all the same, the error
    names the states tried: ResidualError if any pin failed its checks,
    SingularChainError if every LU was singular.
    """
    pins, heaviest, failed_check = list(gen.pins), None, False
    for r in pins:
        try:
            x = _pinned_lu(gen, r)
            return _checked(_pinned_pi(gen, x, r), gen, residual_tol)
        except SingularChainError:
            pass
        except ResidualError:
            failed_check = True
            if heaviest is None and np.isfinite(x).all():
                heaviest = int(x.argmax())
                if heaviest not in pins:
                    pins.append(heaviest)
    error = ResidualError if failed_check else SingularChainError
    tried = ", ".join(str(int(gen.order[r])) for r in dict.fromkeys(pins))
    raise error(f"no stationary solve holds: pinned at states {tried}, each declined")


def solve_steady_state(gen: Generator, *, residual_tol: float = STEADY_RESIDUAL_TOL
                       ) -> SteadyState:
    """Unique stationary distribution of the generator, checked by
    stationary_vector."""
    plan = chain_tables(gen.space).solve_plan
    matrix = BandGenerator.from_matrix(gen.matrix, plan.order, plan.pins)
    pi, residual = stationary_vector(matrix, residual_tol)
    return SteadyState(pi=pi, residual=residual)


def blocking_by_label(space: StateSpace, scheme: AggregationScheme,
                      steady: SteadyState, user_class: int,
                      restrict_numerator: bool = True) -> np.ndarray:
    """Conditional blocking probability of one class per load label.

    The numerator is restricted to the label's own states so the result is a
    probability; restrict_numerator=False reproduces the unrestricted
    variant (blocking mass over label mass) for comparison. Labels without
    stationary mass report zero.
    """
    labels = label_array(scheme, space)
    blocked = chain_tables(space).blocked[user_class]
    L = scheme.label_count
    mass = np.bincount(labels, weights=steady.pi, minlength=L)
    if restrict_numerator:
        num = np.bincount(labels[blocked], weights=steady.pi[blocked], minlength=L)
    else:
        num = np.full(L, steady.pi[blocked].sum())
    out = np.zeros(L)
    nonempty = mass > EMPTY_LABEL_MASS
    out[nonempty] = num[nonempty] / mass[nonempty]
    return out


def overall_blocking(space: StateSpace, steady: SteadyState) -> float:
    """Arrival-rate-weighted probability that a new call finds every system
    saturated."""
    config = space.config
    total = sum(config.arrival_rate)
    blocked = chain_tables(space).blocked
    b = 0.0
    for n in range(config.num_classes):
        weight = config.arrival_rate[n] / total
        b += weight * steady.pi[blocked[n]].sum()
    return b


def per_class_blocking(space: StateSpace, steady: SteadyState) -> np.ndarray:
    """Unconditional blocking probability per class."""
    return np.array([steady.pi[blocked].sum() for blocked in chain_tables(space).blocked])
