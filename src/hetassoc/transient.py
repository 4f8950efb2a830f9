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

One entry point, tagged_volumes, solves a stack of generators
(ctmc.assemble_stack) on the plan's tagged blocks as one group
(SolvePlan.tagged_group): first one read of every block's entries from
the generators whose block gets an LU, then block after block one band
build and one LU per distinct block (below), and, once every block is
solved, one stacked gbmv per block that checks it on every generator
(_check_tagged). Each LU writes its solution over its right-hand side in
the group's table of values. A block's bands are carved from the head of
the band room that ctmc._solve_stationary hands over, so only one block's
bands are alive at once: for a stack of several, the tail of the scratch
buffer past the stack's bands; for a lone generator, its whole buffer,
its band included, which the entries were read from, and which is
assembled again before the checks. The check puts one block's values at
a time into one vector, laid out as the stack's states, so each gbmv
reads and writes contiguous runs; the vector and its product live in
scratch buffers the caller can reuse from stack to stack (ctmc._Scratch),
and do not grow with the block count. A space where no user is ever
admitted has a group with no blocks, and every step runs on empty arrays.

A block is keyed by what the network does at its states: the caller
passes each generator's admitted-system table (ChainTables.admit_sys read
at its choices), and a block's key is the table's bytes at the states
holding its tagged user. A block's band holds only arrivals and departures
at those states, so equal keys mean bit-equal bands, and a copy has the
bits its own LU would give. The caller also passes, per block, a dict of
the checked values of the keys it solved before. One pass over a block's
generators sorts each into cached, copied or factored: a key in the dict
takes its values, a key an earlier generator of the stack has gets a copy
of that first generator's values, by one fancy-index assignment once its
LU has run, and every other key is factored. Only the factored blocks are
read and built, since the check reads the full generator and never a
built band; every block is checked, a copied one included, and the dicts
gain the new keys only once their check has passed.

The module has no per-rule entry point: game.evaluate_rule values any rule,
its tagged volumes included, through tagged_volumes, the same path every
policy evaluation takes. solve_volume_from_matrix returns one block's
slice of tagged_volumes on a stack of one assembled generator, so the
plan's one group is the only TaggedGroup. The absorption rate mu is the
config's service rate, which NetworkConfig validates as positive;
tagged_volumes and _check_tagged read it, the plan and its group from the
tables.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# assemble_generator is not called here, but perfbench/tracer.py wraps the
# name in this module, so it stays bound
from .ctmc import (ChainTables, ResidualError, TaggedPlan, _offsets,  # noqa: F401
                   _Scratch, assemble_generator, stack_band)
from .lapack import gbmv, gbsv

# Largest accepted |A v + r|_inf / (|A|_inf |v|_inf) of a tagged solve, with
# |A|_inf taken as the plan's bound; backward-stable LUs stay near 1e-16.
TAGGED_RESIDUAL_TOL = 1e-10


class SingularTaggedChainError(RuntimeError):
    """A tagged block's banded LU is singular."""


def _tagged_matrix(entries: np.ndarray, plan: TaggedPlan, mu: float, room: np.ndarray
                   ) -> np.ndarray:
    """Restrict generators of a stack to the tagged states of one block and
    lower the tagged departure rate by mu (the tagged user's own departure
    leads to absorption).

    Diagonals are kept from the original generator, so each transient row
    plus the mu absorption entry still sums to zero. Takes entries (G,
    len(plan.src)), the BandGenerator data at plan.src of each of G
    generators, read before any band is carved (tagged_volumes), and the
    block's TaggedPlan. Returns an array (G, m, ldab) for a block of m
    states: each item is the transpose of the block of one of those
    generators in LAPACK band storage, band_shape (ldab, m) in Fortran
    order, in the plan's state order. The array is carved from the head of
    room, float memory with at least G * plan.band_size entries, and zeroed
    before the entries are scattered into it.
    """
    ldab, m = plan.band_shape
    bands = room[:len(entries) * m * ldab].reshape(len(entries), m, ldab)
    bands.fill(0.0)
    flat = bands.reshape(len(entries), m * ldab)
    flat[:, plan.band] = entries
    flat[:, plan.shift_band] -= mu
    return bands


def _solve_tagged(plan: TaggedPlan, block: np.ndarray, rhs: np.ndarray
                  ) -> tuple[np.ndarray, int]:
    """The solution v of A v = rhs for a tagged block A in band storage,
    written over rhs (a contiguous float vector), and LAPACK's info:
    nonzero when the LU is singular (rhs is then left as it was)."""
    _, _, values, info = gbsv(plan.kl, plan.ku, block, rhs, overwrite_ab=1, overwrite_b=1)
    return values, info


def _check_tagged(data: np.ndarray, tables: ChainTables, values: np.ndarray,
                  info: np.ndarray, scratch: _Scratch) -> None:
    """Raise unless A v = -r holds to TAGGED_RESIDUAL_TOL for every block A
    of the plan's tagged group of every generator of the stack, its
    solution v and the tagged user's rate r, where the tagged user leaves
    at the config's service rate mu. The error is that of the first
    generator with a failing block, at its first such block:
    SingularTaggedChainError where info[generator, block], the LAPACK info
    of that block's LU, is nonzero, else ResidualError.

    A v is taken from the full generators rather than from the solved
    blocks, by one BLAS gbmv per block over the block-diagonal matrix of the
    whole stack, so an entry the block's gather missed shows up in the
    residual. One block at a time, its values go into one vector of
    rows = max(B num_states, 2 width + 1) entries, each generator's
    num_states in the band's order and zeros after the last, so that it is
    a gbmv operand as it stands (the f2py gbmv wrapper wants at least as
    many rows as the band has); they are zeroed again once the product is
    read. The vector and its product lie in scratch's "v" and "qv" buffers.
    """
    plan = tables.solve_plan
    group, mu = plan.tagged_group, tables.config.service_rate
    B, w, n = len(values), plan.width, group.num_states
    rows, total = max(B * n, 2 * w + 1), B * n
    band = stack_band(data, w)
    v = scratch.zeros("v", rows)
    qv = scratch.get("qv", total)
    av = np.empty(values.shape)
    for _, block, value in group.blocks:
        slots = block.positions + _offsets(n, B)[:, None]
        v[slots] = values[:, value]
        gbmv(rows, total, w, w, 1.0, band, v, y=qv, overwrite_y=1, trans=1)
        av[:, value] = qv.take(slots)
        v[slots] = 0.0
    av[:, group.shift_rows] -= mu * values[:, group.shift_cols]
    av += group.rate
    residual = np.maximum.reduceat(np.abs(av, out=av), group.starts, axis=1)
    scale = np.maximum.reduceat(np.abs(values), group.starts, axis=1)
    scale *= group.norm
    held = residual <= TAGGED_RESIDUAL_TOL * scale
    if not held.all() or info.any():
        held &= info == 0
        b, k = divmod(int(held.argmin()), held.shape[1])
        if info[b, k]:
            raise SingularTaggedChainError(
                f"banded LU of the tagged block failed (info {info[b, k]})")
        raise ResidualError(
            f"tagged residual {residual[b, k]:.3e} exceeds {TAGGED_RESIDUAL_TOL:.0e} "
            f"relative to |A| |v| = {scale[b, k]:.3e}")


def solve_volume_from_matrix(tables: ChainTables, q, user_class: int,
                             system: int) -> np.ndarray:
    """Expected megabits of a tagged (user_class, system) user, indexed by
    dense state id (nan on states where the user is absent), of an already
    assembled full generator: its slice of tagged_volumes on a stack of
    one, in a room of its own. Every block is factored, since the solved
    dicts start empty, and checked, so any failing block raises."""
    N, S, nst = tables.occ_ns.shape
    admitted = np.zeros((1, N, nst), dtype=np.int8)
    volumes = tagged_volumes(tables, q.data[None], admitted, {}, _Scratch(),
                             np.empty(tables.solve_plan.largest_band))
    return volumes[0, :-1].reshape(N, S, nst)[user_class, system]


def tagged_volumes(tables: ChainTables, data: np.ndarray, admitted: np.ndarray,
                   solved: dict, scratch: _Scratch, room: np.ndarray,
                   restore: Callable[[], None] | None = None) -> np.ndarray:
    """volumes[b]: the checked expected megabits of a tagged user of every
    (class, system) pair of generator b of a (B, size) stack, who leaves at
    the config's service rate mu, by dense state id and nan where the user
    is absent, as a flattened (N, S, num_states) table followed by one
    zero. The blocks are the plan's one group (SolvePlan.tagged_group).

    The entries of every block that gets an LU are read out of data first;
    then the blocks are solved one after another, each built from its
    entries into the head of room (_tagged_matrix), which holds at least B
    times the plan's largest_band entries, and factored there. So room may
    overlap data: a lone generator hands over its whole buffer, band
    included, with restore, which assembles its clean band again once the
    LUs have run; both as _solve_stationary hands them over. Every LU runs
    before the checks, which read data, and the error raised is that of
    solving block by block (see _check_tagged).

    admitted[b] (N, num_states) is the system generator b's network admits
    each class's arrival to at each state, -1 where it is lost: int8, as
    ChainTables.admit_sys is read at the stack's choices. Every entry of a
    block's band is an arrival or departure at its states, and an arrival
    from one lands on another, so a block is keyed by the bytes of admitted
    at its states: equal keys gather bit-equal bands. solved[k] maps the
    keys of the block with index k in (class, system) order to checked
    values. Per block, one pass over the generators in order sorts each
    into one of three: its key is in solved[k], and it takes the values
    there; an earlier generator of the stack has its key, and it gets a
    copy of the first such generator's values once that one's LU has run;
    or it gets an LU of its own. Only the factored blocks are read and
    built; every block, a copied one included, is checked on the full
    generator. A copy's info is 0: had its LU failed, it failed at that
    first generator, which the check reaches earlier. The keys factored
    here join solved once the whole group has passed its check. scratch
    holds the check's vectors."""
    group, mu = tables.solve_plan.tagged_group, tables.config.service_rate
    B, size = data.shape
    # each LU writes its solution over its right-hand side, -rate
    values = np.empty((B, len(group.rate)))
    np.negative(group.rate, out=values)
    info = np.zeros((B, len(group.blocks)), dtype=np.int64)
    # per block with an LU: the first generator of each new key, the
    # copies and their sources, and the entries its LUs read
    builds = []
    for j, (k, plan, value) in enumerate(group.blocks):
        states = admitted.take(plan.ids, axis=2).reshape(B, -1)
        block_solved = solved.setdefault(k, {})
        first, copy, sources = {}, [], []
        for b, key in enumerate(states.view(f"V{states.shape[1]}")[:, 0].tolist()):
            if key in block_solved:
                values[b, value] = block_solved[key]
            elif key in first:
                copy.append(b)
                sources.append(first[key])
            else:
                first[key] = b
        if first:
            entries = data.reshape(-1).take(np.multiply(list(first.values()), size)[:, None]
                                            + plan.src)
            builds.append((j, plan, value, block_solved, first, copy, sources, entries))
    for j, plan, value, _, first, copy, sources, entries in builds:
        for b, band in zip(first.values(), _tagged_matrix(entries, plan, mu, room)):
            info[b, j] = _solve_tagged(plan, band.T, values[b, value])[1]
        if copy:
            values[copy, value] = values[sources, value]
    if builds and restore is not None:
        restore()
    _check_tagged(data, tables, values, info, scratch)
    for _, _, value, block_solved, first, *_ in builds:
        block_solved.update(zip(first, values[list(first.values()), value]))
    volumes = np.empty((B, tables.occ_ns.size + 1))
    volumes.fill(np.nan)
    volumes[:, -1] = 0.0
    volumes[:, group.targets] = values
    return volumes
