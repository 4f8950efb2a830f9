"""Operator-side control: choose the broadcast thresholds that minimize the
blocking users generate at equilibrium.

For each candidate aggregation scheme the user game is re-solved on a
state space the caller enumerates (the feasible space does not depend on
the thresholds, so one space serves the whole grid); the scheme whose
equilibrium blocks the least traffic wins (maximizing the acceptance ratio
1/b gives the same winner, which is checked). Equilibrium multiplicity is
surfaced instead of hidden: a declared selection rule picks the
representative equilibrium and the worst case is reported next to it.
Equilibria are read as find_nash reports them, one per fibre: every member
of a fibre has its utility and blocking, so the selection and the worst
case are taken over fibres, and the count sums their members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import AggregationScheme, ConfigError
from .game import EquilibriumFibre, PolicyGameSolver
from .states import StateSpace

SELECTION_RULES = ("max_utility", "min_blocking")


class RankingMismatchError(RuntimeError):
    """The scheme that blocks the least does not maximize the acceptance
    ratio 1/b, which a NaN blocking can cause."""


@dataclass
class SchemeOutcome:
    """Equilibrium findings for one candidate aggregation scheme: the
    equilibrium fibres find_nash found, ordered by smallest member, and
    the selected one, whose smallest member is the smallest member policy
    the selection rule picks."""

    scheme: AggregationScheme
    equilibria: list[EquilibriumFibre]
    selected: EquilibriumFibre | None
    blocking: float | None           # under the declared selection rule
    utility: float | None
    worst_blocking: float | None     # across all found equilibria
    note: str

    @property
    def count(self) -> int:
        """Number of equilibrium policies found, the fibres' members."""
        return sum(fibre.count for fibre in self.equilibria)


@dataclass
class ControlResult:
    outcomes: list[SchemeOutcome]
    best_index: int | None
    selection_rule: str

    @property
    def best(self) -> SchemeOutcome | None:
        return None if self.best_index is None else self.outcomes[self.best_index]


def threshold_lattice(num_systems: int, step: float = 0.1) -> list[AggregationScheme]:
    """All per-system (low, high) combinations on a regular grid with
    0 <= low <= high <= 1."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"lattice step must be a positive finite number, got {step!r}")
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    pairs = [(float(lo), float(hi)) for lo in ticks for hi in ticks if lo <= hi]

    def build(prefix, remaining):
        if remaining == 0:
            yield AggregationScheme(tuple(prefix))
            return
        for pair in pairs:
            yield from build(prefix + [pair], remaining - 1)

    return list(build([], num_systems))


def _select(equilibria: list[EquilibriumFibre], rule: str) -> EquilibriumFibre:
    """The first fibre, in smallest-member order, that the rule ranks
    best: ties go to the smallest member policy."""
    if rule == "max_utility":
        return max(equilibria, key=lambda ev: (ev.global_utility, -ev.overall_blocking))
    return min(equilibria, key=lambda ev: (ev.overall_blocking, -ev.global_utility))


def optimize_thresholds(space: StateSpace, grid, *,
                        selection_rule: str = "max_utility",
                        restarts: int = 64, seed: int = 0) -> ControlResult:
    """Evaluate every scheme in the grid on the caller's space and pick the
    blocking argmin.

    Each outcome holds the scheme's equilibria as find_nash returns them,
    one EquilibriumFibre per fibre, with no member expanded; its count is
    the number of member policies. Schemes for which no pure equilibrium is
    found are recorded but excluded from the argmin. The caller enumerates
    the space, under its own state ceiling, and every scheme is solved on
    it.
    """
    if selection_rule not in SELECTION_RULES:
        raise ValueError(f"selection_rule must be one of {SELECTION_RULES}")
    grid = list(grid)
    if not grid:
        raise ValueError("threshold grid must not be empty")
    outcomes = []
    for scheme in grid:
        solver = PolicyGameSolver(space, scheme)
        equilibria = solver.find_nash("auto", restarts=restarts, seed=seed)
        if not equilibria:
            outcomes.append(SchemeOutcome(
                scheme=scheme, equilibria=[], selected=None, blocking=None,
                utility=None, worst_blocking=None,
                note="no pure equilibrium found; excluded from argmin"))
            continue
        selected = _select(equilibria, selection_rule)
        worst = max(fibre.overall_blocking for fibre in equilibria)
        count = sum(fibre.count for fibre in equilibria)
        note = "" if count == 1 else f"{count} equilibria"
        outcomes.append(SchemeOutcome(
            scheme=scheme, equilibria=equilibria, selected=selected,
            blocking=selected.overall_blocking, utility=selected.global_utility,
            worst_blocking=worst, note=note))

    scored = [(i, o.blocking) for i, o in enumerate(outcomes) if o.blocking is not None]
    best_index = None
    if scored:
        best_index = min(scored, key=lambda item: item[1])[0]
        # minimizing blocking must also maximize the acceptance ratio; the
        # inversion can round blockings an ulp apart to one ratio, a tie
        inv = {i: (1.0 / b) if b > 0 else np.inf for i, b in scored}
        if not inv[best_index] >= max(inv.values()):
            raise RankingMismatchError(
                f"scheme {best_index} blocks the least but does not maximize the "
                f"acceptance ratio; blockings {[b for _, b in scored]}")
    return ControlResult(outcomes=outcomes, best_index=best_index,
                         selection_rule=selection_rule)
