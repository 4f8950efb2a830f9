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

The module has no per-rule entry point: game.evaluate_rule values any rule,
its tagged volumes included, through tagged_volumes, the same path every
policy evaluation takes. solve_volume_from_matrix solves one block of one
assembled generator.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

# assemble_generator is not called here, but perfbench/tracer.py wraps the
# name in this module, so it stays bound
from .ctmc import (ChainTables, ResidualError, TaggedGroup, TaggedPlan,  # noqa: F401
                   assemble_generator, band_gbmv, stack_band)

# Largest accepted |A v + r|_inf / (|A|_inf |v|_inf) of a tagged solve, with
# |A|_inf taken as the plan's bound; backward-stable LUs stay near 1e-16.
TAGGED_RESIDUAL_TOL = 1e-10

_gbsv = get_lapack_funcs("gbsv", dtype=np.float64)


class SingularTaggedChainError(RuntimeError):
    """The tagged chain cannot reach absorption (requires mu > 0)."""


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
