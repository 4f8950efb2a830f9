"""Expected per-call transmitted volume via absorbing-chain solves.

To value one tagged (class, system) user, the chain is restricted to the
states containing him, his own departure is split off into an absorbing
state reached at rate mu, and the remaining dynamics (everyone else's
arrivals and departures, under the same assignment rule) are kept. The
expected volume sent before absorption solves a linear system whose right
hand side is the tagged user's instantaneous rate in each state.

The blocks are laid out by the space's SolvePlan (ctmc). At any state count
the generator is a ctmc.BandGenerator, Q^T in band storage over the plan's
reverse Cuthill-McKee order, and each block is gathered from that band into
its own band storage and solved by a banded LU (gbsv); every block row leaks
mu to absorption, so the block is strictly diagonally dominant and the
banded LU is stable. Every solve is checked against the full generator
afterwards, by BLAS gbmv on its unfactored band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

# assemble_generator is not called here, but perfbench/tracer.py wraps the
# name in this module, so it stays bound
from .ctmc import (ChainTables, ResidualError, TaggedPlan, assemble_dense,  # noqa: F401
                   assemble_generator, chain_tables)
from .rules import AssignmentRule
from .states import Occupancy, StateSpace

# Largest accepted |A v + r|_inf / (|A|_inf |v|_inf) of a tagged solve, with
# |A|_inf taken as the plan's bound; backward-stable LUs stay near 1e-16.
TAGGED_RESIDUAL_TOL = 1e-10

_gbsv = get_lapack_funcs("gbsv", dtype=np.float64)


class InfeasibleTargetError(LookupError):
    """The probed admission leads outside the feasible space."""


class SingularTaggedChainError(RuntimeError):
    """The tagged chain cannot reach absorption (requires mu > 0)."""


@dataclass
class TaggedChain:
    """Absorbing chain of one tagged (class, system) user.

    matrix is the dense transient-to-transient block (diagonal included) at
    any state count; the absorption column is the constant rate mu from
    every transient state. state_ids maps local rows back to dense space ids.
    """

    state_ids: np.ndarray
    matrix: np.ndarray
    absorb_rate: float
    user_class: int
    system: int

    def row_sum_error(self) -> float:
        """Deviation of (transient rows + absorption column) from the original
        zero row sums."""
        return float(np.abs(self.matrix.sum(axis=1) + self.absorb_rate).max())


def tagged_state_ids(space: StateSpace, user_class: int, system: int) -> np.ndarray:
    """Ids of the states containing at least one (user_class, system) user."""
    tables = chain_tables(space)
    return np.nonzero(tables.occ_ns[user_class, system] > 0)[0]


def _tagged_matrix(q, tables: ChainTables, user_class: int, system: int):
    """Restrict a full generator to the tagged states and lower the tagged
    departure rate by mu (the tagged user himself leaves toward absorption).

    Diagonals are kept from the original generator, so each transient row
    plus the mu absorption entry still sums to zero. Takes a BandGenerator
    and returns the block's TaggedPlan and the block in LAPACK band storage,
    gathered from the generator's band, in the plan's state order.
    """
    plan = tables.solve_plan.tagged[user_class][system]
    band = np.zeros(plan.band_shape[0] * plan.band_shape[1])
    band[plan.band] = q.data.take(plan.src)
    band[plan.shift_band] -= tables.space.config.service_rate
    return plan, band.reshape(plan.band_shape, order="F")


def build_tagged_generator(space: StateSpace, rule: AssignmentRule,
                           user_class: int, system: int,
                           strict_arrivals: bool = False) -> TaggedChain:
    """Absorbing-chain generator for a tagged (class, system) user under a
    rule, over the tagged states in ascending id order."""
    tables = chain_tables(space)
    q = assemble_dense(tables, rule.choice_table(space), strict=strict_arrivals)
    plan, band = _tagged_matrix(q, tables, user_class, system)
    block = np.zeros((len(plan.ids),) * 2)
    block[plan.rows, plan.cols] = band.ravel(order="F")[plan.band]
    ascending = np.argsort(plan.ids)
    return TaggedChain(state_ids=plan.ids[ascending],
                       matrix=block[ascending][:, ascending],
                       absorb_rate=space.config.service_rate,
                       user_class=user_class, system=system)


def _solve_tagged(plan: TaggedPlan, block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    _, _, values, info = _gbsv(plan.kl, plan.ku, block, -rhs, overwrite_ab=1,
                               overwrite_b=1)
    if info != 0:
        raise SingularTaggedChainError(f"banded LU of the tagged block failed (info {info})")
    return values


def _check_tagged(q, plan: TaggedPlan, values: np.ndarray, mu: float) -> None:
    """Raise ResidualError unless A v = -r holds to TAGGED_RESIDUAL_TOL, for
    the block A and the tagged user's rate r.

    A v is taken from the full generator rather than from the solved block,
    so an entry the block's gather missed shows up in the residual.
    """
    full = np.zeros(q.shape[0])
    full[plan.ids] = values
    av = q.dot(full)[plan.ids]
    av[plan.shift_rows] -= mu * values[plan.shift_cols]
    residual = np.abs(av + plan.rate).max()
    scale = plan.norm * np.abs(values).max()
    if not residual <= TAGGED_RESIDUAL_TOL * scale:
        raise ResidualError(
            f"tagged residual {residual:.3e} exceeds {TAGGED_RESIDUAL_TOL:.0e} "
            f"relative to |A| |v| = {scale:.3e}")


def solve_volume_from_matrix(tables: ChainTables, q, user_class: int,
                             system: int) -> np.ndarray:
    """Expected megabits of a tagged user, indexed by dense state id (nan on
    states where he is absent). Takes an already assembled full generator."""
    mu = tables.space.config.service_rate
    if mu <= 0:
        raise SingularTaggedChainError("absorption requires a positive service rate")
    plan, block = _tagged_matrix(q, tables, user_class, system)
    out = np.full(tables.space.num_states, np.nan)
    if len(plan.ids) == 0:
        return out
    values = _solve_tagged(plan, block, plan.rate)
    _check_tagged(q, plan, values, mu)
    out[plan.ids] = values
    return out


def tagged_volumes(tables: ChainTables, q) -> np.ndarray:
    """volumes[n, s, i]: solve_volume_from_matrix for every (class, system)
    pair of an assembled generator."""
    N, S, nst = tables.occ_ns.shape
    volumes = np.empty((N, S, nst))
    for n in range(N):
        for s in range(S):
            volumes[n, s] = solve_volume_from_matrix(tables, q, n, s)
    return volumes


def solve_volume(space: StateSpace, rule: AssignmentRule, user_class: int,
                 system: int, strict_arrivals: bool = False) -> np.ndarray:
    """Expected megabits sent by a tagged (class, system) user from every
    state containing him; nan elsewhere."""
    tables = chain_tables(space)
    q = assemble_dense(tables, rule.choice_table(space), strict=strict_arrivals)
    return solve_volume_from_matrix(tables, q, user_class, system)


@dataclass
class VolumeTable:
    """Expected volumes for every (class, system) pair under one rule.

    volumes[n, s, i] is the tagged-user expectation from state i, nan where
    state i holds no (n, s) user.
    """

    space: StateSpace
    volumes: np.ndarray

    def arrival_utility(self, occ_or_id, user_class: int, system: int) -> float:
        """Expected volume of a user who finds the network in the given state
        and joins `system`: the tagged expectation from the post-admission
        state."""
        space = self.space
        if isinstance(occ_or_id, (int, np.integer)):
            state_id = int(occ_or_id)
        else:
            state_id = space.id_of(tuple(occ_or_id))
        tables = chain_tables(space)
        target = tables.arrival_id[user_class, system, state_id]
        if target < 0:
            raise InfeasibleTargetError(
                f"system {system} cannot admit a class-{user_class} user from state "
                f"{space.states[state_id]}")
        return float(self.volumes[user_class, system, target])


def volume_tables(space: StateSpace, rule: AssignmentRule,
                  strict_arrivals: bool = False) -> VolumeTable:
    """Solve the full set of tagged-user volume tables for a rule."""
    tables = chain_tables(space)
    q = assemble_dense(tables, rule.choice_table(space), strict=strict_arrivals)
    return VolumeTable(space=space, volumes=tagged_volumes(tables, q))


def arrival_utility(table: VolumeTable, occ: Occupancy, user_class: int,
                    system: int) -> float:
    """Module-level convenience wrapper around VolumeTable.arrival_utility."""
    return table.arrival_utility(occ, user_class, system)
