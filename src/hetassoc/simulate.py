"""Discrete-event simulation of the association system.

Independent oracle for the analytic pipeline: arrivals, admissions,
redirections and departures are replayed event by event with exponential
clocks, and every user's delivered volume integrates their instantaneous
rate over their sojourn (piecewise-constant between events, which is exact
for this model). Admission decisions are recomputed from the throughput
definition rather than read from the chain engine's tables.

Everything the event loop needs about an occupancy depends on that
occupancy alone, so the loop keeps one record per occupancy in a dict
local to the run, built the first time the loop reaches it: the per-user
rate of every (class, system) pair present, the total event rate, the
system each class's arrival ends up in (or -1 when it is lost) and the
occupancies that follow each arrival and departure. A record is computed
from the throughput definition, the rule's `choose` and the admission
test in this module, never from the chain engine's tables, so the
simulator stays an independent check of them; the rule is asked once per
(occupancy, class) instead of once per arrival.

One seeded generator drives a single stream, so runs are bit-identical
given (config, rule, events, seed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np
from scipy.special import stdtrit

from .config import NETWORK_WIDE, ConfigError, NetworkConfig
from .rules import AssignmentRule

CI_LEVEL = 0.99
MIN_EVENTS_FOR_CI = 100_000


def _uniform_stream(seed: int, block: int = 1 << 12):
    """Endless uniform draws from one seeded generator, as Python floats,
    drawn `block` at a time (the stream does not depend on `block`; a small
    one keeps the list of floats small)."""
    rng = np.random.default_rng(seed)
    while True:
        yield from rng.random(block).tolist()


@dataclass
class SimReport:
    """Empirical distributions, blocking and volumes with batch-means CIs."""

    seed: int
    num_events: int
    num_batches: int
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

    def state_distribution(self) -> dict:
        """Time-weighted occupancy distribution (sums to one over visited
        states)."""
        return {occ: t / self.total_time for occ, t in self.state_time.items()}

    def arrival_distribution(self) -> dict:
        total = sum(self.arrival_seen.values())
        return {occ: c / total for occ, c in self.arrival_seen.items()}

    @staticmethod
    def _t_quantile(df: int, level: float) -> float:
        return float(stdtrit(df, 0.5 + level / 2))

    def blocking_estimate(self, user_class: int,
                          level: float = CI_LEVEL) -> tuple[float, float]:
        """(estimate, CI half-width) of the class blocking probability."""
        arr = self.arrivals[:, user_class]
        blk = self.blocked[:, user_class]
        ok = arr > 0
        fractions = blk[ok] / arr[ok]
        est = blk.sum() / arr.sum()
        half = self._t_quantile(ok.sum() - 1, level) \
            * fractions.std(ddof=1) / math.sqrt(ok.sum())
        return float(est), float(half)

    def volume_estimate(self, user_class: int, system: int,
                        level: float = CI_LEVEL) -> tuple[float, float, int]:
        """(mean delivered megabits, CI half-width, completed calls) of
        (class, system) users."""
        sums = self.volume_sum[:, user_class, system]
        counts = self.volume_count[:, user_class, system]
        ok = counts > 0
        if ok.sum() < 2:
            return float("nan"), float("nan"), int(counts.sum())
        means = sums[ok] / counts[ok]
        est = sums.sum() / counts.sum()
        half = self._t_quantile(ok.sum() - 1, level) \
            * means.std(ddof=1) / math.sqrt(ok.sum())
        return float(est), float(half), int(counts.sum())

    def state_probability_estimate(self, occ,
                                   level: float = CI_LEVEL) -> tuple[float, float]:
        """(estimate, CI half-width) of one state's stationary probability
        from per-batch time fractions."""
        occ = tuple(occ)
        fracs = np.array([bt.get(occ, 0.0) for bt in self.state_time_batches])
        fracs = fracs / self.batch_time
        b = len(fracs)
        half = self._t_quantile(b - 1, level) * fracs.std(ddof=1) / math.sqrt(b)
        return float(self.state_time.get(occ, 0.0) / self.total_time), float(half)

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


def _occupancy_record(config: NetworkConfig, rule: AssignmentRule, key: tuple,
                      strict_arrivals: bool) -> tuple:
    """Everything the event loop needs in occupancy `key`.

    Returns (total event rate, flows, arrivals, departures):
    - flows: (flat index s*N + n, per-user rate) of every pair present,
      the rate being min(peak * g(k) / k, t_max) with k users in the
      sharing scope;
    - arrivals[n]: (system joined or -1 if lost, next occupancy);
    - departures[s*N + n]: occupancy after one (n, s) user leaves, or None
      when no such user is present.
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

    arrivals = []
    for n in range(N):
        preferred = rule.choose(config, key, n)
        joined = -1
        if _admits(config, key, sys_count, total, n, preferred):
            joined = preferred
        elif not strict_arrivals:
            for s in range(S):
                if s != preferred and _admits(config, key, sys_count, total, n, s):
                    joined = s
                    break
        arrivals.append((joined, _moved(key, joined * N + n, 1) if joined >= 0 else None))
    departures = [_moved(key, i, -1) if key[i] else None for i in range(N * S)]

    rate_total = sum(config.arrival_rate) + total * config.service_rate
    return rate_total, flows, arrivals, departures


def simulate(config: NetworkConfig, rule: AssignmentRule, num_events: int,
             seed: int, *, num_batches: int = 25,
             strict_arrivals: bool = False) -> SimReport:
    """Run `num_events` arrival/departure events and report empirical
    distributions, blocking and per-call volumes.

    Batch-means confidence intervals need enough events; a warning is
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
    mu = config.service_rate
    lam_total = sum(config.arrival_rate)
    # an arrival is of class n when the pick falls below lam_edge[n]
    lam_edge = list(accumulate(config.arrival_rate))
    # two uniforms per event: the holding time, then the event pick
    draws = _uniform_stream(seed)
    pairs = zip(draws, draws)

    records: dict = {}
    key = (0,) * (N * S)
    cum = [0.0] * (N * S)             # delivered megabits per pair, s*N + n
    users: list[tuple] = []           # (class, system, cum snapshot, seen state)

    arrivals, blocked, admitted = [], [], []
    volume_sum, volume_count = [], []
    state_time_batches: list[dict] = [{} for _ in range(num_batches)]
    batch_time = []
    arrival_seen: dict = {}
    volume_by_entry: dict = {}

    t = 0.0
    for batch in range(num_batches):
        # events ev with ev * num_batches // num_events == batch
        first = (batch * num_events + num_batches - 1) // num_batches
        last = ((batch + 1) * num_events + num_batches - 1) // num_batches
        bt = state_time_batches[batch]
        arr = [0] * N
        blk = [0] * N
        adm = [0] * (N * S)           # n*S + s, as are vsum and vcount
        vsum = [0.0] * (N * S)
        vcount = [0] * (N * S)
        elapsed = 0.0
        for u_time, u_pick in islice(pairs, last - first):
            rec = records.get(key)
            if rec is None:
                rec = records[key] = _occupancy_record(config, rule, key,
                                                       strict_arrivals)
            rate_total, flows, arrive, depart = rec
            dt = -math.log(1.0 - u_time) / rate_total
            t += dt
            elapsed += dt
            bt[key] = bt.get(key, 0.0) + dt
            for i, rate in flows:
                cum[i] += rate * dt

            pick = u_pick * rate_total
            if pick < lam_total:
                n = 0
                while pick >= lam_edge[n]:
                    n += 1
                arrival_seen[key] = arrival_seen.get(key, 0) + 1
                arr[n] += 1
                joined, nxt = arrive[n]
                if joined < 0:
                    blk[n] += 1
                    continue
                users.append((n, joined, cum[joined * N + n], key))
                adm[n * S + joined] += 1
                key = nxt
            else:
                idx = min(int((pick - lam_total) / mu), len(users) - 1)
                n, s, snapshot, seen = users[idx]
                users[idx] = users[-1]
                users.pop()
                vol = cum[s * N + n] - snapshot
                vsum[n * S + s] += vol
                vcount[n * S + s] += 1
                entry_key = (n, s, seen)
                count, mean, m2 = volume_by_entry.get(entry_key, (0, 0.0, 0.0))
                count += 1
                delta = vol - mean
                mean += delta / count
                m2 += delta * (vol - mean)
                volume_by_entry[entry_key] = (count, mean, m2)
                key = depart[s * N + n]
        arrivals.append(arr)
        blocked.append(blk)
        admitted.append(adm)
        volume_sum.append(vsum)
        volume_count.append(vcount)
        batch_time.append(elapsed)

    state_time: dict = {}
    for bt in state_time_batches:
        for key, val in bt.items():
            state_time[key] = state_time.get(key, 0.0) + val

    per_pair = (num_batches, N, S)
    return SimReport(
        seed=seed, num_events=num_events, num_batches=num_batches,
        total_time=t, arrivals=np.array(arrivals, dtype=float),
        blocked=np.array(blocked, dtype=float),
        admitted=np.array(admitted, dtype=float).reshape(per_pair),
        state_time=state_time, state_time_batches=state_time_batches,
        batch_time=np.array(batch_time), arrival_seen=arrival_seen,
        volume_sum=np.array(volume_sum).reshape(per_pair),
        volume_count=np.array(volume_count, dtype=np.int64).reshape(per_pair),
        volume_by_entry=volume_by_entry)
