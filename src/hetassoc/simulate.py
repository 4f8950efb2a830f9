"""Discrete-event simulation of the association system.

Independent oracle for the analytic pipeline: arrivals, admissions,
redirections and departures are replayed event by event with exponential
clocks, and every user's delivered volume integrates their instantaneous
rate over their sojourn (piecewise-constant between events, which is exact
for this model). Admission decisions are recomputed from the throughput
definition rather than read from the chain engine's tables.

A run is R = REPLICAS_PER_BATCH * num_batches independent replicas of the
system, each started empty, advanced together one event per numpy step.
Replica r simulates num_events // R events, plus one for the first
num_events % R replicas, so the run simulates num_events events in all.
Each replica discards its first (num_events // R) // WARMUP_DIVISOR
events as warm-up: nothing observed in them is reported. Replica
r reports into batch r mod num_batches, so every batch pools
REPLICAS_PER_BATCH replicas and the confidence intervals are Student-t
intervals over independent batches (replication/deletion; Law and Kelton,
Simulation Modeling and Analysis, ch. 9).

A volume is counted when its user departs during the measured events,
whenever the user arrived, and users still present after a replica's last
event are not counted. Every user departs once, so in steady state the
departures marked by their volumes (and by the occupancy each user saw)
form a stationary marked point process whose mark distribution is that of
an arriving user's, and the two ends of the window balance. Counting
users by arrival instead drops the long sojourns cut off at the end: a
version of this engine that did so, at 200 events per replica, read the
Erlang fixture's mean volume 0.76 % low (44 % of its 99 % half-width),
and that interval covered the exact value in 371 of 400 seeds against
394 when counted by departure.

REPLICAS_PER_BATCH and WARMUP_DIVISOR were fixed by the coverage and bias
tests of the Erlang fixture in tests/test_simulate.py.

Everything a step needs about an occupancy depends on that occupancy
alone, so the run keeps one record per occupancy, built the first time any
replica reaches it and packed into dense per-occupancy arrays: the total
event rate, the per-user rate of every (class, system) pair present, the
outcome of each class's arrival (the system it joins, or lost) and the
occupancy each event leads to. A record is computed from the throughput
definition, the rule's `choose` and the admission test in this module,
never from the chain engine's tables, so the simulator stays an
independent check of them; the rule is asked once per (occupancy, class).

Per-step observations go into bounded blocks of steps and are reduced as
each block ends: time per (batch, occupancy), event counts per batch and
kind, and delivered volumes as sums and counts per (batch, pair) and as
count, mean and M2 per (class, system, occupancy seen on arrival), merged
by the pairwise update of Chan, Golub and LeVeque. No per-event array
lives for the whole run.

One seeded generator drives every replica, drawing a block of steps at
a time, so runs are bit-identical given (config, rule, events, batches,
seed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

from .config import NETWORK_WIDE, ConfigError, NetworkConfig
from .rules import AssignmentRule

CI_LEVEL = 0.99
MIN_EVENTS_FOR_CI = 100_000
REPLICAS_PER_BATCH = 10
# each replica discards the first 1/WARMUP_DIVISOR of its events
WARMUP_DIVISOR = 10
# per-step observations held before they are reduced, in events
BLOCK_EVENTS = 1 << 13


@dataclass
class SimReport:
    """Empirical distributions, blocking and volumes, with CIs over
    batches of independent replicas.

    Everything but `visited` covers the measured events only, warm-up
    excluded; `total_time` and `batch_time` sum the measured time of the
    replicas they pool."""

    seed: int
    num_events: int
    num_batches: int
    replicas: int
    warmup: int                       # events each replica discards
    total_time: float
    arrivals: np.ndarray              # (batches, classes)
    blocked: np.ndarray               # (batches, classes)
    admitted: np.ndarray              # (batches, classes, systems)
    state_time: dict
    state_time_batches: list
    batch_time: np.ndarray
    arrival_seen: dict
    volume_sum: np.ndarray            # (batches, classes, systems)
    volume_count: np.ndarray
    volume_by_entry: dict = field(default_factory=dict)
    visited: set = field(default_factory=set)   # every occupancy reached

    def state_distribution(self) -> dict:
        """Time-weighted occupancy distribution (sums to one over the
        occupancies with measured time)."""
        return {occ: t / self.total_time for occ, t in self.state_time.items()}

    def arrival_distribution(self) -> dict:
        total = sum(self.arrival_seen.values())
        return {occ: c / total for occ, c in self.arrival_seen.items()}

    @staticmethod
    def _t_quantile(df: int, level: float) -> float:
        return float(stdtrit(df, 0.5 + level / 2))

    @classmethod
    def _half_width(cls, values: np.ndarray, level: float) -> float:
        """Student-t CI half-width of the mean of per-batch values; nan
        below two batches."""
        b = len(values)
        if b < 2:
            return float("nan")
        return cls._t_quantile(b - 1, level) * float(values.std(ddof=1)) / math.sqrt(b)

    def blocking_estimate(self, user_class: int,
                          level: float = CI_LEVEL) -> tuple[float, float]:
        """(estimate, CI half-width) of the class blocking probability; the
        estimate is nan without arrivals, the half-width below two batches
        with arrivals."""
        arr = self.arrivals[:, user_class]
        blk = self.blocked[:, user_class]
        ok = arr > 0
        if not ok.any():
            return float("nan"), float("nan")
        return float(blk.sum() / arr.sum()), self._half_width(blk[ok] / arr[ok], level)

    def volume_estimate(self, user_class: int, system: int,
                        level: float = CI_LEVEL) -> tuple[float, float, int]:
        """(mean delivered megabits, CI half-width, completed calls) of
        (class, system) users."""
        sums = self.volume_sum[:, user_class, system]
        counts = self.volume_count[:, user_class, system]
        ok = counts > 0
        if ok.sum() < 2:
            return float("nan"), float("nan"), int(counts.sum())
        est = sums.sum() / counts.sum()
        return float(est), self._half_width(sums[ok] / counts[ok], level), int(counts.sum())

    def state_probability_estimate(self, occ,
                                   level: float = CI_LEVEL) -> tuple[float, float]:
        """(estimate, CI half-width) of one state's stationary probability
        from per-batch time fractions; nan without measured time, and the
        half-width below two batches with measured time."""
        occ = tuple(occ)
        ok = self.batch_time > 0
        if not ok.any():
            return float("nan"), float("nan")
        fracs = np.array([bt.get(occ, 0.0) for bt in self.state_time_batches])
        est = self.state_time.get(occ, 0.0) / self.total_time
        return float(est), self._half_width(fracs[ok] / self.batch_time[ok], level)

    def entry_volume_estimate(self, user_class: int, system: int, seen
                              ) -> tuple[float, float, int]:
        """(mean, std error, count) of volumes of users admitted to `system`
        who saw state `seen` on arrival."""
        count, mean, m2 = self.volume_by_entry.get(
            (user_class, system, tuple(seen)), (0, float("nan"), 0.0))
        if count < 2:
            return mean, float("nan"), count
        return mean, math.sqrt(m2 / (count - 1) / count), count


def _admits(config: NetworkConfig, occ: tuple, sys_count: list, total: int,
            user_class: int, system: int) -> bool:
    """Would adding one (user_class, system) user keep everyone above t_min?

    Direct evaluation of the rate formula on the hypothetical state, with
    the same arithmetic as the chain engine's admission test so that
    boundary cases quantize identically.
    """
    N = config.num_classes
    peak = config.peak_rate
    t_min = config.t_min
    if config.sharing_scope == NETWORK_WIDE:
        k = total + 1
        g = config.gain(k)
        if peak[user_class][system] * g / k < t_min:
            return False
        for s in range(config.num_systems):
            base = s * N
            for n in range(N):
                if occ[base + n] > 0 and peak[n][s] * g / k < t_min:
                    return False
        return True
    k = sys_count[system] + 1
    g = config.gain(k)
    if peak[user_class][system] * g / k < t_min:
        return False
    base = system * N
    for n in range(N):
        if occ[base + n] > 0 and peak[n][system] * g / k < t_min:
            return False
    return True


def _moved(key: tuple, i: int, delta: int) -> tuple:
    return key[:i] + (key[i] + delta,) + key[i + 1:]


def _occupancy_record(config: NetworkConfig, rule: AssignmentRule, key: tuple) -> tuple:
    """Everything a step needs in occupancy `key`.

    Returns (total event rate, flows, joined):
    - flows: (flat index s*N + n, per-user rate) of every pair present,
      the rate being min(peak * g(k) / k, t_max) with k users in the
      sharing scope;
    - joined[n]: the system a class-n arrival joins, or -1 if it is lost:
      a user whose preferred system is saturated is redirected to the
      lowest-index system with room, or lost under config.strict_arrivals.
    """
    N, S = config.num_classes, config.num_systems
    sys_count = [sum(key[s * N:(s + 1) * N]) for s in range(S)]
    total = sum(key)

    flows = []
    for s in range(S):
        k = total if config.sharing_scope == NETWORK_WIDE else sys_count[s]
        if k <= 0:
            continue
        g = config.gain(k)
        for n in range(N):
            if key[s * N + n]:
                flows.append((s * N + n,
                              min(config.peak_rate[n][s] * g / k, config.t_max)))

    joined = []
    for n in range(N):
        preferred = rule.choose(config, key, n)
        system = -1
        if _admits(config, key, sys_count, total, n, preferred):
            system = preferred
        elif not config.strict_arrivals:
            for s in range(S):
                if s != preferred and _admits(config, key, sys_count, total, n, s):
                    system = s
                    break
        joined.append(system)

    rate_total = sum(config.arrival_rate) + total * config.service_rate
    return rate_total, flows, joined


class _Records:
    """One row per occupancy some replica has reached, in the order they
    were reached, built by _occupancy_record.

    A step's event is one code: p < NS, an arrival admitted to pair p =
    s*N + n; NS + p, a departure from pair p; 2*NS + n, a lost class-n
    arrival. Rows hold the total event rate, the share of it that is
    arrivals, the per-user rate of each pair (0 where absent), the user
    count, the code of each class's arrival and the row each code leads to
    (-1 until some replica first takes it)."""

    def __init__(self, config: NetworkConfig, rule: AssignmentRule):
        self.config, self.rule = config, rule
        N, S = config.num_classes, config.num_systems
        self.N, self.NS = N, N * S
        self.codes = 2 * self.NS + N
        self.ids: dict = {}
        self.keys: list[tuple] = []
        self.max_users = 0
        self._allocate(64)
        self.id_of((0,) * self.NS)

    def _allocate(self, cap: int) -> None:
        old = len(self.keys)
        tables = {"rate": np.zeros(cap),
                  "share": np.zeros(cap),
                  "flow": np.zeros((cap, self.NS)),
                  "users": np.zeros(cap, dtype=np.intp),
                  "arrive": np.zeros((cap, self.N), dtype=np.intp),
                  "next": np.full((cap, self.codes), -1, dtype=np.intp)}
        for name, table in tables.items():
            if old:
                table[:old] = getattr(self, name)[:old]
            setattr(self, name, table)

    def id_of(self, key: tuple) -> int:
        """Row of occupancy `key`, built on its first visit."""
        rid = self.ids.get(key)
        if rid is not None:
            return rid
        rid = len(self.keys)
        if rid == len(self.rate):
            self._allocate(2 * rid)
        rate_total, flows, joined = _occupancy_record(self.config, self.rule, key)
        self.rate[rid] = rate_total
        self.share[rid] = sum(self.config.arrival_rate) / rate_total
        for i, rate in flows:
            self.flow[rid, i] = rate
        self.users[rid] = sum(key)
        self.max_users = max(self.max_users, sum(key))
        for n, system in enumerate(joined):
            code = system * self.N + n if system >= 0 else 2 * self.NS + n
            self.arrive[rid, n] = code
            if system < 0:
                self.next[rid, code] = rid
        self.ids[key] = rid
        self.keys.append(key)
        return rid

    def follow(self, rid: int, code: int) -> int:
        """Row that event `code` leads to from row `rid`."""
        if self.next[rid, code] < 0:
            arrival = code < self.NS
            key = _moved(self.keys[rid], code if arrival else code - self.NS,
                         1 if arrival else -1)
            self.next[rid, code] = self.id_of(key)
        return int(self.next[rid, code])


class _Replicas:
    """The replicas' occupancy rows, cumulative per-user delivery of each
    pair, and users in (replicas, cap) arrays. Per user: `leave`, the code
    of their departure; `seen`, the row of the occupancy they saw on
    arrival; and `snap`, the cumulative delivery of their pair when they
    arrived. A replica's users are its first `users[row]` entries; a
    departure moves the last one into the leaving user's slot.

    Each event draws four numbers: its holding time, whether it is an
    arrival (with probability share[row]), the arriving class (in
    proportion to the arrival rates) and the leaving user (uniform over the
    replica's users)."""

    def __init__(self, records: _Records, replicas: int, rng):
        config = records.config
        self.records, self.rng = records, rng
        # a class-n arrival draws u below class_edges[n] and not below the
        # edge before it
        self.class_edges = np.cumsum(config.arrival_rate)[:-1] / sum(config.arrival_rate)
        self.row = np.zeros(replicas, dtype=np.intp)
        self.cum = np.zeros((replicas, records.NS))
        self.leave = np.zeros((replicas, 0), dtype=np.intp)
        self.seen = np.zeros((replicas, 0), dtype=np.intp)
        self.snap = np.zeros((replicas, 0))
        self._fit_users()

    def _fit_users(self) -> None:
        """Room for an arrival in the fullest occupancy reached."""
        cap = self.leave.shape[1]
        need = self.records.max_users + 1
        if need <= cap:
            return
        cap = max(need, 2 * cap, 16)
        for name in ("leave", "seen", "snap"):
            old = getattr(self, name)
            new = np.zeros((len(old), cap), dtype=old.dtype)
            new[:, :old.shape[1]] = old
            setattr(self, name, new)

    def advance(self, steps: int, m: int):
        """Advance replicas [0, m) by `steps` events each. Returns (steps, m)
        arrays, per step and replica: the occupancy row the event left, its
        code, the holding time before it, and for a departure the volume
        delivered and the row its user saw (garbage elsewhere)."""
        rec = self.records
        N, NS, C = rec.N, rec.NS, rec.codes
        holding = self.rng.standard_exponential((steps, m))
        picks, slots, uniform = self.rng.random((3, steps, m))
        classes = self.class_edges.searchsorted(uniform, side="right")
        rows = np.empty((steps + 1, m), dtype=np.intp)
        codes = np.empty((steps, m), dtype=np.intp)
        volumes = np.empty((steps, m))
        seens = np.empty((steps, m), dtype=np.intp)
        lane = np.arange(m)
        cum = self.cum[:m]
        cum_flat = cum.reshape(-1)
        cum_base = lane * NS
        cum_dep = cum_base - NS
        delivered = np.empty_like(cum)

        def bind():
            return (rec.rate, rec.share, rec.flow, rec.users, rec.arrive.reshape(-1),
                    rec.next.reshape(-1), self.leave[:m].reshape(-1),
                    self.seen[:m].reshape(-1), self.snap[:m].reshape(-1),
                    lane * self.leave.shape[1])

        rate_of, share_of, flow_of, users_of, arrive_of, next_of, leave, seen, snap, \
            base = bind()
        rows[0] = self.row[:m]
        # take() into `out` is unbuffered only with mode="clip"; every index
        # is in bounds unless its value is discarded, as noted below
        for k in range(steps):
            cur = rows[k]
            dt = np.divide(holding[k], rate_of.take(cur), out=holding[k])
            np.multiply(flow_of.take(cur, axis=0, out=delivered, mode="clip"), dt[:, None],
                        out=delivered)
            cum += delivered
            arrival = picks[k] < share_of.take(cur)
            count = users_of.take(cur)
            end = base + count
            # a departure's user is uniform over the replica's users, an
            # arrival takes the first free slot
            flat = (slots[k] * count).astype(np.intp)
            flat += base
            np.copyto(flat, end, where=arrival)
            code = arrive_of.take(cur * N + classes[k], out=codes[k], mode="clip")
            np.copyto(code, leave.take(flat), where=~arrival)
            seen.take(flat, out=seens[k], mode="clip")
            # Slots past a replica's users are free: an arrival's copy of the
            # last user, and a departure's write of the new-user values into
            # the slot it frees, land there. Reads whose values are
            # discarded are clipped into bounds.
            np.subtract(cum_flat.take(cum_dep + code, mode="clip"), snap.take(flat),
                        out=volumes[k])
            top = end - 1
            leave[flat] = leave.take(top, mode="clip")
            seen[flat] = seen.take(top, mode="clip")
            snap[flat] = snap.take(top, mode="clip")
            at = top + arrival
            leave[at] = code + NS
            seen[at] = cur
            snap[at] = cum_flat.take(cum_base + code, mode="clip")
            nxt = next_of.take(cur * C + code, out=rows[k + 1], mode="clip")
            i = nxt.argmin()
            if nxt[i] < 0:
                while nxt[i] < 0:
                    nxt[i] = rec.follow(int(cur[i]), int(code[i]))
                    i = nxt.argmin()
                self._fit_users()
                rate_of, share_of, flow_of, users_of, arrive_of, next_of, leave, seen, \
                    snap, base = bind()
        self.row[:m] = rows[-1]
        return rows[:-1], codes, holding, volumes, seens


class _Tallies:
    """Measured observations reduced per block: time per (batch, row),
    event counts per (batch, code), arrivals seen per row, volume sums and
    counts per (batch, pair), and count, mean and M2 of volumes per
    (pair, row seen)."""

    def __init__(self, records: _Records, num_batches: int):
        self.records, self.B = records, num_batches
        NS = records.NS
        self.time = np.zeros((num_batches, 0))
        self.events = np.zeros((num_batches, records.codes), dtype=np.int64)
        self.seen = np.zeros(0, dtype=np.int64)
        self.vol_sum = np.zeros((num_batches, NS))
        self.vol_count = np.zeros((num_batches, NS), dtype=np.int64)
        self.entry_count = np.zeros((NS, 0), dtype=np.int64)
        self.entry_mean = np.zeros((NS, 0))
        self.entry_m2 = np.zeros((NS, 0))

    def widen(self, M: int) -> None:
        """Room for M occupancy rows."""
        for name in ("time", "seen", "entry_count", "entry_mean", "entry_m2"):
            old = getattr(self, name)
            if old.shape[-1] < M:
                new = np.zeros(old.shape[:-1] + (M,), dtype=old.dtype)
                new[..., :old.shape[-1]] = old
                setattr(self, name, new)

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
        self.vol_count += np.bincount(cell, minlength=B * NS).reshape(B, NS)

        entry = pair * M + seen
        nb = np.bincount(entry, minlength=NS * M).reshape(NS, M)
        sb = np.bincount(entry, vol, NS * M).reshape(NS, M)
        mean_b = np.divide(sb, nb, out=np.zeros((NS, M)), where=nb > 0)
        m2_b = np.bincount(entry, (vol - mean_b.ravel()[entry]) ** 2,
                           NS * M).reshape(NS, M)
        # Chan, Golub and LeVeque's pairwise merge of (count, mean, M2)
        total = self.entry_count + nb
        share = np.divide(nb, total, out=np.zeros((NS, M)), where=total > 0)
        delta = mean_b - self.entry_mean
        self.entry_mean += delta * share
        self.entry_m2 += m2_b + delta * delta * self.entry_count * share
        self.entry_count = total


def simulate(config: NetworkConfig, rule: AssignmentRule, num_events: int,
             seed: int, *, num_batches: int = 25) -> SimReport:
    """Run `num_events` arrival/departure events, warm-up included, over
    REPLICAS_PER_BATCH * num_batches independent replicas, and report
    empirical distributions, blocking and per-call volumes.

    The confidence intervals need enough events; a warning is
    issued below 10^5.
    """
    if num_events < 1:
        raise ConfigError("num_events must be positive")
    if num_batches < 20:
        raise ConfigError("at least 20 batches are required for the CIs")
    if num_events < MIN_EVENTS_FOR_CI:
        warnings.warn(f"fewer than {MIN_EVENTS_FOR_CI} events; "
                      "confidence intervals may be unreliable", stacklevel=2)

    N, S = config.num_classes, config.num_systems
    R = REPLICAS_PER_BATCH * num_batches
    steps, extra = divmod(num_events, R)
    warmup = steps // WARMUP_DIVISOR
    records = _Records(config, rule)
    # replicas without events never advance, so they get no user arrays
    replicas = _Replicas(records, min(R, num_events), np.random.default_rng(seed))
    tallies = _Tallies(records, num_batches)
    block = max(1, BLOCK_EVENTS // R)
    for start in range(0, warmup, block):
        replicas.advance(min(block, warmup - start), R)
    for start in range(warmup, steps, block):
        tallies.add(*replicas.advance(min(block, steps - start), R))
    if extra:
        tallies.add(*replicas.advance(1, extra))

    B, NS, keys = num_batches, N * S, records.keys
    tallies.widen(len(keys))
    events = tallies.events
    admitted = events[:, :NS].reshape(B, S, N).transpose(0, 2, 1)
    blocked = events[:, 2 * NS:]
    batch_time = tallies.time.sum(axis=1)
    state_time_batches = [{keys[i]: t for i, t in enumerate(row) if t}
                          for row in tallies.time.tolist()]
    state_total = tallies.time.sum(axis=0).tolist()
    volume_by_entry = {
        (p % N, p // N, keys[i]): (int(tallies.entry_count[p, i]),
                                   float(tallies.entry_mean[p, i]),
                                   float(tallies.entry_m2[p, i]))
        for p, i in zip(*(a.tolist() for a in np.nonzero(tallies.entry_count)))}
    per_pair = (B, S, N)
    return SimReport(
        seed=seed, num_events=num_events, num_batches=num_batches, replicas=R,
        warmup=warmup, total_time=float(batch_time.sum()),
        arrivals=(admitted.sum(axis=2) + blocked).astype(float),
        blocked=blocked.astype(float), admitted=admitted.astype(float),
        state_time={keys[i]: t for i, t in enumerate(state_total) if t},
        state_time_batches=state_time_batches, batch_time=batch_time,
        arrival_seen={keys[i]: c for i, c in enumerate(tallies.seen.tolist()) if c},
        volume_sum=tallies.vol_sum.reshape(per_pair).transpose(0, 2, 1),
        volume_count=tallies.vol_count.reshape(per_pair).transpose(0, 2, 1),
        volume_by_entry=volume_by_entry, visited=set(keys))
