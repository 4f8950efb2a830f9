"""Feasible-state enumeration, dense state indexing and per-state throughput.

A network state is a vector of N*S non-negative ints in system-major
order: entry occ[s * N + n] counts the class-n users connected to system s.
The enumeration and the chain tables work on all states at once, as rows of
an int64 array; the scalar functions below take one state as a tuple and
serve the simulator's admission test and the tests' oracle.
The feasible space is the set of states where every connected user reaches
the minimal codec rate; it is closed under departures because the scheduler
gain per user is non-increasing in the occupancy.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import NETWORK_WIDE, NetworkConfig

Occupancy = tuple[int, ...]

DEFAULT_STATE_CEILING = 1_000_000


class CapacityError(RuntimeError):
    """The feasible state space exceeds the configured ceiling."""


def occ_index(config: NetworkConfig, user_class: int, system: int) -> int:
    """Position of the (class, system) counter inside an occupancy tuple."""
    return system * config.num_classes + user_class


def zero_state(config: NetworkConfig) -> Occupancy:
    return (0,) * (config.num_classes * config.num_systems)


def scope_count(config: NetworkConfig, occ: Occupancy, system: int) -> int:
    """Number of users sharing the scheduler with a user of `system`."""
    if config.sharing_scope == NETWORK_WIDE:
        return sum(occ)
    n = config.num_classes
    return sum(occ[system * n:(system + 1) * n])


def user_throughput(config: NetworkConfig, occ: Occupancy,
                    user_class: int, system: int) -> float:
    """Instantaneous rate of one class-`user_class` user present in `system`.

    The state must already count the user; callers probing a hypothetical
    admission add the user first.
    """
    if occ[occ_index(config, user_class, system)] < 1:
        raise ValueError("state does not contain the probed user")
    k = scope_count(config, occ, system)
    rate = config.peak_rate[user_class][system] * config.gain(k) / k
    return min(rate, config.t_max)


def is_feasible(config: NetworkConfig, occ: Occupancy) -> bool:
    """True iff every connected user reaches the minimal rate t_min."""
    n_classes = config.num_classes
    for s in range(config.num_systems):
        base = s * n_classes
        for n in range(n_classes):
            if occ[base + n] > 0 and user_throughput(config, occ, n, s) < config.t_min:
                return False
    return True


def scope_counts(config: NetworkConfig, occ: np.ndarray) -> np.ndarray:
    """scope_count for every system of every row of occ, shape (rows, S)."""
    n, S = config.num_classes, config.num_systems
    if config.sharing_scope == NETWORK_WIDE:
        return np.repeat(occ.sum(axis=1, keepdims=True), S, axis=1)
    return occ.reshape(len(occ), S, n).sum(axis=2)


def throughput_array(config: NetworkConfig, occ: np.ndarray) -> np.ndarray:
    """user_throughput of every (class, system) pair at every row of occ,
    shape (N, S, rows), nan where the pair has no user.

    The arithmetic is user_throughput's, peak * gain(k) / k and then the
    minimum with t_max, so each entry keeps its bits.
    """
    N, S = config.num_classes, config.num_systems
    k = scope_counts(config, occ)                                # (rows, S)
    table = np.asarray(config.scheduler_gain)
    gain = table[np.clip(k, 1, len(table)) - 1]
    peak = np.asarray(config.peak_rate).T                        # (S, N)
    rate = peak * gain[:, :, None] / np.maximum(k, 1)[:, :, None]
    rate = np.minimum(rate, config.t_max)
    present = occ.reshape(len(occ), S, N) > 0
    return np.where(present, rate, np.nan).transpose(2, 1, 0)


def key_weights(radix) -> np.ndarray:
    """Place values of the mixed-radix key, first coordinate most significant,
    so keys sort as the occupancies do lexicographically.

    Raises CapacityError when the keys of the box would not fit in int64.
    """
    weights, place = [], 1
    for r in reversed(radix):
        weights.append(place)
        place *= int(r)
    if place - 1 > np.iinfo(np.int64).max:
        raise CapacityError(
            f"occupancy keys up to {place - 1} do not fit in int64")
    return np.array(weights[::-1], dtype=np.int64)


class StateSpace:
    """The enumerated feasible space with dense, lexicographic state ids.

    occ[i] is the occupancy of state i and keys[i] its mixed-radix key
    (occ[i] @ weights), strictly increasing in i; bound[j] is the largest
    count coordinate j reaches. The tuple view `states` and the dict
    `index` are built only when first read.
    """

    def __init__(self, config: NetworkConfig, occ: np.ndarray, keys: np.ndarray,
                 bound: np.ndarray, weights: np.ndarray):
        self.config = config
        self.occ = occ
        self.keys = keys
        self.bound = bound
        self.weights = weights

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_states(self) -> int:
        return len(self.keys)

    @cached_property
    def states(self) -> tuple[Occupancy, ...]:
        return tuple(map(tuple, self.occ.tolist()))

    @cached_property
    def index(self) -> dict[Occupancy, int]:
        return {occ: i for i, occ in enumerate(self.states)}

    def id_of(self, occ: Occupancy) -> int:
        return self.index[tuple(occ)]

    def get_id(self, occ: Occupancy, default: int = -1) -> int:
        return self.index.get(tuple(occ), default)

    def __contains__(self, occ) -> bool:
        return tuple(occ) in self.index

    def ids_of_keys(self, keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Ids of the states with the given keys; -1 where valid is false or
        no state has the key."""
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(valid & (self.keys[pos] == keys), pos, -1)


def _coordinate_bounds(config: NetworkConfig, max_states: int) -> list[int]:
    """Largest m such that m users of pair j alone are feasible, per
    coordinate j.

    No feasible state holds more: a pair with m users shares its scope with
    k >= m users, and m' = k alone would then be feasible too. The search
    scans the gain table, then bisects the tail, where the rate only falls.
    A bound past max_states means more than max_states feasible states.
    """
    size = config.num_classes * config.num_systems
    table_len = len(config.scheduler_gain)
    bounds = []
    for j in range(size):
        def alone(m: int) -> bool:
            return is_feasible(config, tuple(m if i == j else 0 for i in range(size)))

        best = max((m for m in range(1, table_len + 1) if alone(m)), default=0)
        if best == table_len:
            hi = 2 * best
            while alone(hi):
                if hi > max_states:
                    raise CapacityError(
                        f"feasible state space exceeds the ceiling of {max_states} states")
                best, hi = hi, 2 * hi
            while hi - best > 1:
                mid = (best + hi) // 2
                best, hi = (mid, hi) if alone(mid) else (best, mid)
        bounds.append(best)
    return bounds


def enumerate_states(config: NetworkConfig,
                     max_states: int = DEFAULT_STATE_CEILING) -> StateSpace:
    """Enumerate every feasible state by closure from the empty network.

    Level by level in the user count: a level's candidates are its states
    plus one unit vector each, dropped where a coordinate would pass its
    bound, deduplicated by mixed-radix key and tested for feasibility in one
    pass. This visits the set a breadth-first search under single arrivals
    does; feasibility is monotone in the occupancy, so that is the whole
    feasible set. Ids follow the sorted keys, the lexicographic order of
    the occupancy vectors, so two runs produce identical layouts.
    """
    bound = np.array(_coordinate_bounds(config, max_states), dtype=np.int64)
    weights = key_weights(bound + 1)
    level_occ = np.zeros((1, len(bound)), dtype=np.int64)
    level_keys = np.zeros(1, dtype=np.int64)
    occ_levels, key_levels, count = [level_occ], [level_keys], 1
    while True:
        rows, cols = np.nonzero(level_occ < bound)
        cand_keys, first = np.unique(level_keys[rows] + weights[cols],
                                     return_index=True)
        cand = level_occ[rows[first]]
        cand[np.arange(len(first)), cols[first]] += 1
        feasible = ~(throughput_array(config, cand) < config.t_min).any(axis=(0, 1))
        level_occ, level_keys = cand[feasible], cand_keys[feasible]
        if not len(level_keys):
            break
        count += len(level_keys)
        if count > max_states:
            raise CapacityError(
                f"feasible state space exceeds the ceiling of {max_states} states")
        occ_levels.append(level_occ)
        key_levels.append(level_keys)
    keys = np.concatenate(key_levels)
    order = np.argsort(keys)
    return StateSpace(config, np.concatenate(occ_levels)[order], keys[order], bound, weights)


def state_table_rows(space: StateSpace):
    """Rows for the state-table CSV dump: id, occupancy, per-(n,s) throughput.

    Throughput cells are empty for (class, system) pairs with no user in the
    state.
    """
    # (state, system, class), the occupancy's own order
    rates = throughput_array(space.config, space.occ).transpose(2, 1, 0)
    for i, (counts, rate) in enumerate(zip(space.occ.tolist(),
                                           rates.reshape(space.num_states, -1).tolist())):
        yield [i, *counts, *("" if c == 0 else r for c, r in zip(counts, rate))]
