"""Global and individual utilities, optimal policies, Nash equilibria and
the two information baselines.

A policy evaluation solves the policy's chain once, derives every tagged
volume table, then aggregates them three ways: the global utility (traffic
weighted, label by label, not normalized by label mass), the individual
deviation payoffs U[n, l, s] (normalized by label mass) and the blocking
table. Deviating to a saturated system is valued at the outcome the network
actually produces: the redirected system's expectation, or zero when every
system is full. Labels with (numerically) zero stationary mass carry no
strategic content; they are masked out of equilibrium comparisons and
canonicalized to system 0 when policies are reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .aggregation import label_array
from .config import AggregationScheme, NetworkConfig, Policy
# assemble_generator is not called here, but perfbench/tracer.py wraps the
# name in this module, so it stays bound
from .ctmc import (EMPTY_LABEL_MASS, ChainTables, assemble_dense,  # noqa: F401
                   assemble_generator, chain_tables, stationary_vector)
from .rules import AssignmentRule, InstantaneousRateRule, PeakRateRule
from .states import StateSpace
from .transient import solve_volume_from_matrix

NASH_EPS = 1e-9
TIE_TOL = 1e-9


class EmptyLabelError(ValueError):
    """Requested a conditional quantity on a label with no stationary mass."""


def _solve_pi(space: StateSpace, q) -> tuple[np.ndarray, float]:
    """Stationary distribution of a generator from assemble_dense, with the
    same post-solve checks the public solver applies."""
    return stationary_vector(q)


def _outcome_index(tables: ChainTables, strict: bool) -> np.ndarray:
    """index[n, s, i]: flat position in a (N, S, num_states) volume table of
    the volume a class-n user preferring system s at state i ends up with,
    after the network's admission outcome; a lost arrival points one past
    the table, where callers append a zero."""
    N, S, nst = tables.occ_ns.shape
    if strict:
        target = tables.strict_id
        sys_in = np.broadcast_to(np.arange(S)[:, None], target.shape)
    else:
        target, sys_in = tables.admit_id, tables.admit_sys
    flat = (np.arange(N)[:, None, None] * S + sys_in) * nst + target
    return np.where(target >= 0, flat, N * S * nst)


class SearchCapError(RuntimeError):
    """The policy space is too large for exhaustive enumeration."""


@dataclass
class PolicyEvaluation:
    """Everything one policy induces: chain, blocking, utilities."""

    policy: Policy
    pi: np.ndarray
    residual: float
    label_mass: np.ndarray
    empty_labels: np.ndarray          # no stationary mass (or no states at all)
    blocking: np.ndarray              # (N, L) conditional blocking per label
    global_utility: float
    individual: np.ndarray            # (N, L, S), nan on empty labels
    overall_blocking: float
    per_class_blocking: np.ndarray
    volumes: np.ndarray               # (N, S, num_states) tagged expectations

    def nash_gap(self) -> float:
        """Largest payoff any (class, label) group forgoes by following the
        policy; <= 0 means no profitable unilateral deviation exists.

        Deviations without a defined payoff (possible under the exclude
        averaging mode when a system is never feasible within a label) are
        never profitable; a policy entry without a defined payoff leaves
        that group unconstrained.
        """
        choice = np.asarray(self.policy.choice)
        N, L = choice.shape
        current = self.individual[np.arange(N)[:, None], np.arange(L), choice]
        forgone = np.fmax.reduce(self.individual, axis=2) - current
        valid = ~np.isnan(forgone) & ~self.empty_labels
        return float(forgone[valid].max(initial=0.0))

    def is_nash(self, eps: float = NASH_EPS) -> bool:
        return self.nash_gap() <= eps


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


@dataclass
class BaselineEvaluation:
    """PolicyEvaluation-like report for a state-dependent baseline rule."""

    which: str
    rule: AssignmentRule
    pi: np.ndarray
    residual: float
    global_utility: float
    overall_blocking: float
    per_class_blocking: np.ndarray
    volumes: np.ndarray


class PolicyGameSolver:
    """Evaluates policies over one (space, scheme) pair and searches the
    policy space.

    deviation_payoff selects how a deviation to a saturated system is
    averaged in U[n, l, s]: "redirect" substitutes the redirection outcome
    (zero when fully blocked), "exclude" drops those states from both the
    numerator and the denominator.
    """

    def __init__(self, space: StateSpace, scheme: AggregationScheme, *,
                 strict_arrivals: bool = False, deviation_payoff: str = "redirect",
                 use_cache: bool = True, private_tables: bool = False):
        if deviation_payoff not in ("redirect", "exclude"):
            raise ValueError("deviation_payoff must be 'redirect' or 'exclude'")
        self.space = space
        self.scheme = scheme
        self.config: NetworkConfig = space.config
        self.strict_arrivals = strict_arrivals
        self.deviation_payoff = deviation_payoff
        self.tables: ChainTables = (ChainTables(space) if private_tables
                                    else chain_tables(space))
        self.labels = label_array(scheme, space)
        self.num_labels = scheme.label_count
        self.weights = np.array(self.config.arrival_rate) / sum(self.config.arrival_rate)
        self.state_counts = np.bincount(self.labels, minlength=self.num_labels)
        self.structurally_empty = self.state_counts == 0

        N, S, L = self.config.num_classes, self.config.num_systems, self.num_labels
        self._outcome = _outcome_index(self.tables, strict_arrivals)
        # U[n, l, s] averages payoff[n, s, i] over the label's states with
        # weight payoff_weight[n, s, i] * pi[i]: the admission outcome over
        # every state, or under "exclude" the volume in system s itself over
        # the states where s can admit the user
        if deviation_payoff == "redirect":
            self._payoff = self._outcome
            self._payoff_weight = np.ones(self._outcome.shape)
        else:
            self._payoff = _outcome_index(self.tables, strict=True)
            self._payoff_weight = (self.tables.arrival_id >= 0).astype(float)
        nst = self.space.num_states
        n_idx, s_idx = np.arange(N)[:, None, None], np.arange(S)[:, None]
        # flat position of value[n, s, i] is _chosen_base[n, i] + s * nst
        self._chosen_base = np.arange(N)[:, None] * (S * nst) + np.arange(nst)
        # bins of the (n, label, s) payoff table and the (n, label) tables
        self._nls_bin = ((n_idx * L + self.labels) * S + s_idx).ravel()
        self._nl_bin = (np.arange(N)[:, None] * L + self.labels).ravel()
        self._cache: dict[tuple, PolicyEvaluation] | None = {} if use_cache else None

    # ----- evaluation -------------------------------------------------

    def positions(self) -> list[tuple[int, int]]:
        """Free policy entries in lexicographic (class, label) order; labels
        without any feasible state are pinned to system 0 and skipped."""
        return [(n, l)
                for n in range(self.config.num_classes)
                for l in range(self.num_labels)
                if not self.structurally_empty[l]]

    def policy_space_size(self) -> int:
        return self.config.num_systems ** len(self.positions())

    def canonical_policies(self):
        """All policies up to the entries that cannot matter structurally."""
        S = self.config.num_systems
        positions = self.positions()
        base = [[0] * self.num_labels for _ in range(self.config.num_classes)]
        for combo in itertools.product(range(S), repeat=len(positions)):
            rows = [row[:] for row in base]
            for (n, l), s in zip(positions, combo):
                rows[n][l] = s
            yield Policy(tuple(tuple(row) for row in rows))

    def canonicalize(self, policy: Policy, evaluation: PolicyEvaluation) -> Policy:
        """Pin entries on zero-mass labels to system 0 for reporting."""
        rows = [list(row) for row in policy.choice]
        for l in range(self.num_labels):
            if evaluation.empty_labels[l]:
                for n in range(self.config.num_classes):
                    rows[n][l] = 0
        return Policy(tuple(tuple(row) for row in rows))

    def evaluate(self, policy: Policy) -> PolicyEvaluation:
        if self._cache is not None:
            hit = self._cache.get(policy.choice)
            if hit is not None:
                return hit
        evaluation = self._evaluate(policy)
        if self._cache is not None:
            self._cache[policy.choice] = evaluation
        return evaluation

    def _steady(self, q) -> tuple[np.ndarray, float]:
        return _solve_pi(self.space, q)

    def _deviation_values(self, volumes: np.ndarray) -> np.ndarray:
        """value[n, s, i]: expected volume of a class-n user preferring
        system s at state i, after the network's admission outcome."""
        return np.append(volumes, 0.0)[self._outcome]

    def _evaluate(self, policy: Policy) -> PolicyEvaluation:
        policy.validate_for(self.config, self.scheme)
        N, S, L = self.config.num_classes, self.config.num_systems, self.num_labels
        nst = self.space.num_states
        labels = self.labels
        choice = np.asarray(policy.choice, dtype=np.int64)[:, labels]

        q = assemble_dense(self.tables, choice, strict=self.strict_arrivals)
        pi, residual = self._steady(q)
        label_mass = np.bincount(labels, weights=pi, minlength=L)
        empty = (label_mass <= EMPTY_LABEL_MASS) | self.structurally_empty

        volumes = np.empty((N, S, nst))
        for n in range(N):
            for s in range(S):
                volumes[n, s] = solve_volume_from_matrix(self.tables, q, n, s)

        blocked = self.tables.blocked
        per_class = np.array([pi[b].sum() for b in blocked])
        overall = float(self.weights @ per_class)
        blocking = np.zeros((N, L))
        num = np.bincount(self._nl_bin, weights=(blocked * pi).ravel(), minlength=N * L)
        np.divide(num.reshape(N, L), label_mass, out=blocking, where=~empty)

        value = self._deviation_values(volumes)
        chosen = value.take(self._chosen_base + choice * nst)
        inner = np.bincount(self._nl_bin, weights=(chosen * pi).ravel(),
                            minlength=N * L).reshape(N, L)
        global_u = sum(self.weights * ((1.0 - blocking) * inner).sum(axis=1))

        weight = self._payoff_weight * pi
        payoff = np.append(volumes, 0.0)[self._payoff]
        num = np.bincount(self._nls_bin, weights=(payoff * weight).ravel(),
                          minlength=N * L * S).reshape(N, L, S)
        den = np.bincount(self._nls_bin, weights=weight.ravel(),
                          minlength=N * L * S).reshape(N, L, S)
        individual = np.full((N, L, S), np.nan)
        np.divide(num, den, out=individual,
                  where=~empty[:, None] & (den > EMPTY_LABEL_MASS))

        return PolicyEvaluation(
            policy=policy, pi=pi, residual=residual, label_mass=label_mass,
            empty_labels=empty, blocking=blocking, global_utility=global_u,
            individual=individual, overall_blocking=overall,
            per_class_blocking=per_class, volumes=volumes)

    def individual_utility(self, evaluation: PolicyEvaluation, user_class: int,
                           label: int, system: int) -> float:
        """Deviation payoff U[n, l, s]; labels without mass have none."""
        if evaluation.empty_labels[label]:
            raise EmptyLabelError(f"label {label} has no stationary mass")
        return float(evaluation.individual[user_class, label, system])

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
        best_u = -np.inf
        best: list[tuple[Policy, PolicyEvaluation]] = []
        count = 0
        for policy in self.canonical_policies():
            count += 1
            ev = self.evaluate(policy)
            if ev.global_utility > best_u + TIE_TOL:
                best_u = ev.global_utility
                best = [(policy, ev)]
            elif ev.global_utility >= best_u - TIE_TOL:
                best.append((policy, ev))
        best.sort(key=lambda item: item[0].flatten())
        policy, ev = best[0]
        return OptimalResult(policy=policy, evaluation=ev,
                             ties=[p for p, _ in best], method="exhaustive",
                             policies_evaluated=count)

    def _optimal_search(self, restarts: int, seed: int) -> OptimalResult:
        rng = np.random.default_rng(seed)
        S = self.config.num_systems
        positions = self.positions()
        count = 0
        best_policy = None
        best_ev = None
        for start in self._starting_policies(restarts, rng):
            policy = start
            ev = self.evaluate(policy)
            count += 1
            improved = True
            while improved:
                improved = False
                for (n, l) in positions:
                    current = policy.choice[n][l]
                    for s in range(S):
                        if s == current:
                            continue
                        trial = policy.with_entry(n, l, s)
                        trial_ev = self.evaluate(trial)
                        count += 1
                        if trial_ev.global_utility > ev.global_utility + 1e-12:
                            policy, ev = trial, trial_ev
                            improved = True
                if not improved:
                    break
            if best_ev is None or ev.global_utility > best_ev.global_utility:
                best_policy, best_ev = policy, ev
        return OptimalResult(policy=best_policy, evaluation=best_ev,
                             ties=[best_policy], method="search",
                             policies_evaluated=count)

    def _starting_policies(self, restarts: int, rng) -> list[Policy]:
        S = self.config.num_systems
        N, L = self.config.num_classes, self.num_labels
        starts = [Policy.constant(N, L, s) for s in range(S)]
        positions = self.positions()
        while len(starts) < restarts:
            rows = [[0] * L for _ in range(N)]
            for (n, l) in positions:
                rows[n][l] = int(rng.integers(S))
            starts.append(Policy(tuple(tuple(r) for r in rows)))
        return starts[:max(restarts, 1)]

    # ----- Nash equilibria --------------------------------------------

    def find_nash(self, mode: str = "auto", *, eps: float = NASH_EPS,
                  restarts: int = 64, seed: int = 0, auto_cap: int = 4096,
                  verify: bool = True) -> list[PolicyEvaluation]:
        """All (canonical) pure equilibria found under the requested mode.

        exhaustive checks every canonical policy; best_response runs
        Gauss-Seidel argmax dynamics from several starts and keeps the fixed
        points. Candidates are re-verified on freshly solved chains before
        being returned. An empty list means no pure equilibrium was found.
        """
        if mode not in ("auto", "exhaustive", "best_response"):
            raise ValueError("mode must be auto, exhaustive or best_response")
        if mode == "auto":
            mode = "exhaustive" if self.policy_space_size() <= auto_cap else "best_response"
        if mode == "exhaustive":
            candidates = [policy for policy in self.canonical_policies()
                          if self.evaluate(policy).is_nash(eps)]
        else:
            candidates = self._best_response_candidates(restarts=restarts,
                                                        seed=seed, eps=eps)
            candidates = self._expand_ties(candidates, eps)
        checker = self.fresh_checker() if verify else None
        found: dict[tuple, PolicyEvaluation] = {}
        for policy in candidates:
            canonical = self.canonicalize(policy, self.evaluate(policy))
            if canonical.choice in found:
                continue
            ev = self.evaluate(canonical)
            if not ev.is_nash(eps):
                continue
            if checker is not None and not checker.evaluate(canonical).is_nash(eps):
                continue
            found[canonical.choice] = ev
        return [found[key] for key in sorted(found)]

    def _expand_ties(self, candidates: list[Policy], eps: float) -> list[Policy]:
        """Close a set of equilibrium candidates under near-tie entry swaps.

        Argmax dynamics never move along payoff ties, yet every tie variant
        is its own equilibrium under the reporting convention; breadth-first
        exploration of single-entry swaps whose payoff is within the
        tolerance of the entry's best recovers the whole tie class.
        """
        queue = [p for p in candidates if self.evaluate(p).is_nash(eps)]
        seen = {p.choice for p in queue}
        out = list(queue)
        while queue:
            policy = queue.pop()
            ev = self.evaluate(policy)
            for (n, l) in self.positions():
                if ev.empty_labels[l] or np.all(np.isnan(ev.individual[n, l])):
                    continue
                payoffs = ev.individual[n, l]
                top = np.nanmax(payoffs)
                for s in range(self.config.num_systems):
                    if s == policy.choice[n][l] or payoffs[s] < top - 2 * eps:
                        continue
                    neighbor = policy.with_entry(n, l, s)
                    if neighbor.choice in seen:
                        continue
                    seen.add(neighbor.choice)
                    if self.evaluate(neighbor).is_nash(eps):
                        queue.append(neighbor)
                        out.append(neighbor)
        return out

    def _best_response_candidates(self, restarts: int, seed: int,
                                  eps: float) -> list[Policy]:
        rng = np.random.default_rng(seed)
        candidates = []
        for start in self._starting_policies(restarts, rng):
            policy, _ = self.best_response_path(start, eps=eps)
            if policy is not None:
                candidates.append(policy)
        return candidates

    def best_response_path(self, start: Policy, *, eps: float = NASH_EPS,
                           max_iters: int = 2000
                           ) -> tuple[Policy | None, list[BestResponseStep]]:
        """Gauss-Seidel best-response dynamics from one starting policy.

        Positions are visited cyclically in lexicographic (class, label)
        order and at most one entry changes per iteration; the path stops at
        a fixed point (returned with the recorded steps) or when a
        (policy, position) pair repeats, which means a cycle (returns None).
        """
        positions = self.positions()
        if not positions:
            return start, []
        policy = start
        steps: list[BestResponseStep] = []
        visited: set[tuple] = set()
        stale = 0
        ptr = 0
        for _ in range(max_iters):
            state_key = (policy.choice, ptr)
            if state_key in visited:
                return None, steps
            visited.add(state_key)
            n, l = positions[ptr]
            ev = self.evaluate(policy)
            updated = False
            if not ev.empty_labels[l] and not np.all(np.isnan(ev.individual[n, l])):
                payoffs = ev.individual[n, l]
                best = int(np.nanargmax(payoffs))
                current = policy.choice[n][l]
                if payoffs[best] > payoffs[current] + eps:
                    steps.append(BestResponseStep(
                        user_class=n, label=l, old_system=current,
                        new_system=best, old_payoff=float(payoffs[current]),
                        new_payoff=float(payoffs[best])))
                    policy = policy.with_entry(n, l, best)
                    updated = True
            stale = 0 if updated else stale + 1
            if stale >= len(positions):
                return policy, steps
            ptr = (ptr + 1) % len(positions)
        return None, steps

    def fresh_checker(self) -> "PolicyGameSolver":
        """Solver that re-solves every chain and utility table from scratch,
        reusing none of this solver's cached evaluations."""
        return PolicyGameSolver(self.space, self.scheme,
                                strict_arrivals=self.strict_arrivals,
                                deviation_payoff=self.deviation_payoff,
                                use_cache=False)

    def verify_equilibrium(self, policy: Policy, eps: float = NASH_EPS) -> bool:
        """Re-check the no-profitable-deviation inequality on freshly solved
        chains and utility tables (structural transition indexes are shared;
        they contain no solved quantities)."""
        return self.fresh_checker().evaluate(policy).is_nash(eps)


def evaluate_policy(space: StateSpace, scheme: AggregationScheme, policy: Policy,
                    **kwargs) -> PolicyEvaluation:
    """One-shot policy evaluation (see PolicyGameSolver for options)."""
    return PolicyGameSolver(space, scheme, **kwargs).evaluate(policy)


def find_nash(space: StateSpace, scheme: AggregationScheme, mode: str = "auto",
              **kwargs) -> list[PolicyEvaluation]:
    return PolicyGameSolver(space, scheme).find_nash(mode, **kwargs)


def optimal_policy(space: StateSpace, scheme: AggregationScheme,
                   **kwargs) -> OptimalResult:
    return PolicyGameSolver(space, scheme).optimal_policy(**kwargs)


def evaluate_baseline(space: StateSpace, which: str,
                      strict_arrivals: bool = False) -> BaselineEvaluation:
    """Run a no-policy baseline through the same chain and utility pipeline.

    The global utility uses the rule's own information pattern in place of
    the broadcast labels: a single cell for peak-rate users (they know
    nothing), one cell per state for instantaneous-rate users (they know
    everything).
    """
    if which == "peak_rate":
        rule: AssignmentRule = PeakRateRule()
    elif which == "instantaneous_rate":
        rule = InstantaneousRateRule()
    else:
        raise ValueError("which must be 'peak_rate' or 'instantaneous_rate'")
    config = space.config
    tables = chain_tables(space)
    choice = rule.choice_table(space)
    q = assemble_dense(tables, choice, strict=strict_arrivals)
    pi, residual = _solve_pi(space, q)

    N, S = config.num_classes, config.num_systems
    nst = space.num_states
    volumes = np.empty((N, S, nst))
    for n in range(N):
        for s in range(S):
            volumes[n, s] = solve_volume_from_matrix(tables, q, n, s)

    cells, ncells = rule.information_partition(space)
    weights = np.array(config.arrival_rate) / sum(config.arrival_rate)
    value = np.append(volumes, 0.0)[_outcome_index(tables, strict_arrivals)]
    chosen = np.take_along_axis(value, choice[:, None, :], axis=1)[:, 0]
    cell_mass = np.bincount(cells, weights=pi, minlength=ncells)
    per_class = np.empty(N)
    global_u = 0.0
    for n in range(N):
        blocked = tables.blocked[n]
        per_class[n] = pi[blocked].sum()
        cell_block = np.bincount(cells[blocked], weights=pi[blocked], minlength=ncells)
        with np.errstate(invalid="ignore"):
            b_cell = np.where(cell_mass > EMPTY_LABEL_MASS, cell_block / cell_mass, 0.0)
        inner = np.bincount(cells, weights=chosen[n] * pi, minlength=ncells)
        global_u += weights[n] * float(((1.0 - b_cell) * inner).sum())

    return BaselineEvaluation(
        which=which, rule=rule, pi=pi, residual=residual,
        global_utility=global_u,
        overall_blocking=float(weights @ per_class),
        per_class_blocking=per_class, volumes=volumes)
