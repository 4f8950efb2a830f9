"""Expected per-call transmitted volume via absorbing-chain solves.

To value one tagged (class, system) user, the chain is restricted to the
states containing the user, their own departure is split off into an absorbing
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

The solves take a stack of generators (ctmc.assemble_stack) and a group of
blocks at a time (ctmc.TaggedGroup): one gather of every block of the group
from every generator, one LU per generator and block, and one stacked gbmv
per block that checks it on every generator. The blocks of a stack go in
one group where their bands fit in ctmc.CHUNK_BYTES, else one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

# assemble_generator is not called here, but perfbench/tracer.py wraps the
# name in this module, so it stays bound
from .ctmc import (ChainTables, ResidualError, TaggedGroup, TaggedPlan,  # noqa: F401
                   assemble_dense, assemble_generator, band_gbmv, chain_tables,
                   stack_band)
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


def _tagged_matrix(data: np.ndarray, group: TaggedGroup, mu: float) -> np.ndarray:
    """Restrict each generator of a stack to the tagged states of each block
    of a group and lower the tagged departure rate by mu (the tagged user
    himself leaves toward absorption).

    Diagonals are kept from the original generator, so each transient row
    plus the mu absorption entry still sums to zero. Takes a (B, size)
    stack of BandGenerator data and returns the blocks in LAPACK band
    storage, gathered from the generators' bands in each plan's state
    order: row b holds generator b's blocks end to end, each flattened in
    Fortran order at its slice of group.blocks.
    """
    bands = np.zeros((len(data), group.size))
    bands[:, group.band] = data.take(group.src, axis=1)
    bands[:, group.shift_band] -= mu
    return bands


def _absorption_rate(tables: ChainTables) -> float:
    mu = tables.space.config.service_rate
    if mu <= 0:
        raise SingularTaggedChainError("absorption requires a positive service rate")
    return mu


def build_tagged_generator(space: StateSpace, rule: AssignmentRule,
                           user_class: int, system: int,
                           strict_arrivals: bool = False) -> TaggedChain:
    """Absorbing-chain generator for a tagged (class, system) user under a
    rule, over the tagged states in ascending id order."""
    tables = chain_tables(space)
    q = assemble_dense(tables, rule.choice_table(space), strict=strict_arrivals)
    plan = tables.solve_plan.tagged[user_class][system]
    band = _tagged_matrix(q.data[None], TaggedGroup([(0, plan)], space.num_states),
                          space.config.service_rate)[0]
    block = np.zeros((len(plan.ids),) * 2)
    block[plan.rows, plan.cols] = band[plan.band]
    ascending = np.argsort(plan.ids)
    return TaggedChain(state_ids=plan.ids[ascending],
                       matrix=block[ascending][:, ascending],
                       absorb_rate=space.config.service_rate,
                       user_class=user_class, system=system)


def _solve_tagged(plan: TaggedPlan, block: np.ndarray, rhs: np.ndarray
                  ) -> tuple[np.ndarray, int]:
    """The solution v of A v = -rhs for a tagged block A in band storage,
    and LAPACK's info: nonzero when the LU is singular (v then is -rhs)."""
    _, _, values, info = _gbsv(plan.kl, plan.ku, block, -rhs, overwrite_ab=1,
                               overwrite_b=1)
    return values, info


def _check_tagged(data: np.ndarray, layout, group: TaggedGroup, values: np.ndarray,
                  mu: float, info: np.ndarray) -> None:
    """Raise unless A v = -r holds to TAGGED_RESIDUAL_TOL for every block A
    of the group of every generator of the stack, its solution v and the
    tagged user's rate r. The error is that of the first generator with a
    failing block, at its first such block: SingularTaggedChainError where
    info[generator, block], the LAPACK info of that block's LU, is nonzero,
    else ResidualError.

    A v is taken from the full generators rather than from the solved
    blocks, by one band_gbmv per block over the whole stack, so an entry the
    block's gather missed shows up in the residual.
    """
    B, n, w = len(values), len(layout.order), layout.width
    band = stack_band(data, w)
    v = np.zeros((B, len(group.blocks) * n))
    v[:, group.slots] = values
    qv = np.empty(v.shape)
    for k in range(0, v.shape[1], n):
        qv[:, k:k + n] = band_gbmv(band, w, v[:, k:k + n], 1)
    av = qv.take(group.slots, axis=1)
    av[:, group.shift_rows] -= mu * values[:, group.shift_cols]
    residual = np.maximum.reduceat(np.abs(av + group.rate), group.starts, axis=1)
    scale = group.norm * np.maximum.reduceat(np.abs(values), group.starts, axis=1)
    held = (residual <= TAGGED_RESIDUAL_TOL * scale) & (info == 0)
    if not held.all():
        b, k = divmod(int(held.argmin()), held.shape[1])
        if info[b, k]:
            raise SingularTaggedChainError(
                f"banded LU of the tagged block failed (info {info[b, k]})")
        raise ResidualError(
            f"tagged residual {residual[b, k]:.3e} exceeds {TAGGED_RESIDUAL_TOL:.0e} "
            f"relative to |A| |v| = {scale[b, k]:.3e}")


def _solve_group(tables: ChainTables, data: np.ndarray, group: TaggedGroup,
                 mu: float) -> np.ndarray:
    """Checked expected megabits of a tagged user, who leaves at rate mu,
    for every block of a group and every generator of a stack: row b holds
    generator b's values, each block's at its slice of group.blocks in its
    plan's state order. Every LU runs before the checks, and the error
    raised is that of solving block by block (see _check_tagged)."""
    bands = _tagged_matrix(data, group, mu)
    values = np.empty((len(data), len(group.rate)))
    info = np.empty((len(data), len(group.blocks)), dtype=np.int64)
    for b in range(len(data)):
        for k, (plan, shape, band, value) in enumerate(group.blocks):
            values[b, value], info[b, k] = _solve_tagged(
                plan, bands[b, band].reshape(shape, order="F"), plan.rate)
    _check_tagged(data, tables.solve_plan, group, values, mu, info)
    return values


def solve_volume_from_matrix(tables: ChainTables, q, user_class: int,
                             system: int) -> np.ndarray:
    """Expected megabits of a tagged user, indexed by dense state id (nan on
    states where the user is absent). Takes an already assembled full generator."""
    mu = _absorption_rate(tables)
    nst = tables.space.num_states
    out = np.full(nst, np.nan)
    plan = tables.solve_plan.tagged[user_class][system]
    if len(plan.ids):
        group = TaggedGroup([(0, plan)], nst)
        out[plan.ids] = _solve_group(tables, q.data[None], group, mu)[0]
    return out


def tagged_volumes(tables: ChainTables, data: np.ndarray) -> np.ndarray:
    """volumes[b, n, s, i]: solve_volume_from_matrix for every (class,
    system) pair of every generator of a (B, size) stack, the blocks
    gathered together as SolvePlan.tagged_groups says."""
    mu = _absorption_rate(tables)
    N, S, nst = tables.occ_ns.shape
    B = len(data)
    volumes = np.full((B, N * S * nst), np.nan)
    for group in tables.solve_plan.tagged_groups(B):
        volumes[:, group.targets] = _solve_group(tables, data, group, mu)
    return volumes.reshape(B, N, S, nst)


def solve_volume(space: StateSpace, rule: AssignmentRule, user_class: int,
                 system: int, strict_arrivals: bool = False) -> np.ndarray:
    """Expected megabits sent by a tagged (class, system) user from every
    state containing the user; nan elsewhere."""
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
    return VolumeTable(space=space, volumes=tagged_volumes(tables, q.data[None])[0])


def arrival_utility(table: VolumeTable, occ: Occupancy, user_class: int,
                    system: int) -> float:
    """Module-level convenience wrapper around VolumeTable.arrival_utility."""
    return table.arrival_utility(occ, user_class, system)
