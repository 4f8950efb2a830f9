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

The solves take a stack of generators (ctmc.assemble_stack) and every
non-empty block of it as one group (SolvePlan.tagged_group): first one
read of every block's entries from the generators whose block gets an LU,
then block after block one band build and one LU per distinct block
(below), and, once every block is solved, one stacked gbmv per block that
checks it on every generator. Each LU writes its solution over its
right-hand side in the group's table of values. A block's bands are
carved from the head of the band room that ctmc._solve_stationary hands
over, so only one block's bands are alive at once: for a stack of
several, the tail of the scratch buffer past the stack's bands; for a
lone generator, its whole buffer, its band included, which the entries
were read from, and which is assembled again before the checks. The
check puts one block's values at a time into one vector, laid out as the
stack's states, so each gbmv reads and writes contiguous runs; the vector
and its product live in scratch buffers the caller can reuse from stack
to stack (ctmc._Scratch), and do not grow with the block count.

A block is keyed by what the network does at its states: the caller
passes each generator's admitted-system table (ChainTables.admit_sys read
at its choices), and a block's key is the table's bytes at the states
holding its tagged user. A block's band holds only arrivals and departures
at those states, so equal keys mean bit-equal bands, and a copy has the
bits its own LU would give. The caller also passes, per block, a dict of
the checked values of the keys it solved before. A block whose key is in
it, or was solved for an earlier generator of the stack, is not factored
again: its values are copied, a block at a time, by fancy-index
assignments. Only the factored blocks are read and built, since the check
reads the full generator and never a built band; every block is checked,
a copied one included, and the dicts gain the new keys only once their
check has passed.

The module has no per-rule entry point: game.evaluate_rule values any rule,
its tagged volumes included, through tagged_volumes, the same path every
policy evaluation takes. solve_volume_from_matrix solves one block of one
assembled generator.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

# assemble_generator is not called here, but perfbench/tracer.py wraps the
# name in this module, so it stays bound
from .ctmc import (ChainTables, ResidualError, TaggedGroup, TaggedPlan,  # noqa: F401
                   _gbmv, _offsets, _Scratch, assemble_generator, stack_band)

# Largest accepted |A v + r|_inf / (|A|_inf |v|_inf) of a tagged solve, with
# |A|_inf taken as the plan's bound; backward-stable LUs stay near 1e-16.
TAGGED_RESIDUAL_TOL = 1e-10

_gbsv = get_lapack_funcs("gbsv", dtype=np.float64)


class SingularTaggedChainError(RuntimeError):
    """The tagged chain cannot reach absorption (requires mu > 0)."""


def _tagged_matrix(entries: np.ndarray, plan: TaggedPlan, mu: float, room: np.ndarray
                   ) -> np.ndarray:
    """Restrict generators of a stack to the tagged states of one block and
    lower the tagged departure rate by mu (the tagged user's own departure
    leads to absorption).

    Diagonals are kept from the original generator, so each transient row
    plus the mu absorption entry still sums to zero. Takes entries (G,
    len(plan.src)), the BandGenerator data at plan.src of each of G
    generators, read before any band is carved (_solve_group), and the
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


def _absorption_rate(tables: ChainTables) -> float:
    mu = tables.config.service_rate
    if mu <= 0:
        raise SingularTaggedChainError("absorption requires a positive service rate")
    return mu


def _solve_tagged(plan: TaggedPlan, block: np.ndarray, rhs: np.ndarray
                  ) -> tuple[np.ndarray, int]:
    """The solution v of A v = rhs for a tagged block A in band storage,
    written over rhs (a contiguous float vector), and LAPACK's info:
    nonzero when the LU is singular (rhs is then left as it was)."""
    _, _, values, info = _gbsv(plan.kl, plan.ku, block, rhs, overwrite_ab=1, overwrite_b=1)
    return values, info


def _check_tagged(data: np.ndarray, layout, group: TaggedGroup, values: np.ndarray,
                  mu: float, info: np.ndarray, scratch: _Scratch) -> None:
    """Raise unless A v = -r holds to TAGGED_RESIDUAL_TOL for every block A
    of the group of every generator of the stack, its solution v and the
    tagged user's rate r. The error is that of the first generator with a
    failing block, at its first such block: SingularTaggedChainError where
    info[generator, block], the LAPACK info of that block's LU, is nonzero,
    else ResidualError.

    A v is taken from the full generators rather than from the solved
    blocks, by one BLAS gbmv per block over the block-diagonal matrix of the
    whole stack, so an entry the block's gather missed shows up in the
    residual. One block at a time, its values go into one vector of
    rows = max(B num_states, 2 width + 1) entries, each generator's
    num_states in the band's order and zeros after the last, so that it is
    a gbmv operand as it stands (scipy's gbmv wants at least as many rows
    as the band has); they are zeroed again once the product is read. The
    vector and its product lie in scratch's "v" and "qv" buffers.
    """
    B, w, n = len(values), layout.width, group.num_states
    rows, total = max(B * n, 2 * w + 1), B * n
    band = stack_band(data, w)
    v = scratch.zeros("v", rows)
    qv = scratch.get("qv", total)
    av = np.empty(values.shape)
    for _, plan, value in group.blocks:
        slots = plan.positions + _offsets(n, B)[:, None]
        v[slots] = values[:, value]
        _gbmv(rows, total, w, w, 1.0, band, v, y=qv, overwrite_y=1, trans=1)
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


def _solve_group(tables: ChainTables, data: np.ndarray, group: TaggedGroup, mu: float,
                 admitted: np.ndarray, solved: dict, scratch: _Scratch, room: np.ndarray,
                 restore: Callable[[], None] | None = None) -> np.ndarray:
    """Checked expected megabits of a tagged user, who leaves at rate mu,
    for every block of a group and every generator of a stack: row b holds
    generator b's values, each block's at its slice of group.blocks in its
    plan's state order. The entries of every block that gets an LU are
    read out of data first; then the blocks are solved one after another,
    each built from its entries into the head of room (_tagged_matrix),
    which holds at least B times the entries of the group's largest band,
    and factored there. So room may overlap data: a lone generator hands
    over its whole buffer, band included, with restore, which assembles
    its clean band again once the LUs have run. Every LU runs before the
    checks, which read data, and the error raised is that of solving block
    by block (see _check_tagged).

    admitted[b] (N, num_states) is the system generator b's network admits
    each class's arrival to at each state, -1 where it is lost: int8, as
    ChainTables.admit_sys is read at the stack's choices. Every entry of a
    block's band is an arrival or departure at its states, and an arrival
    from one lands on another, so a block is keyed by the bytes of admitted
    at its states: equal keys gather bit-equal bands. solved[k] maps the
    keys of the block with index k in (class, system) order to checked
    values. Per block, the generators whose key is in it get its values in
    one fancy-index assignment; a dict finds the first generator of every
    other key, where one LU runs, and every later generator with that key
    gets a copy of its values, in one more fancy-index assignment once the
    block's LUs have run. Only the blocks that get an LU are read and built;
    every block, a copied one included, is checked on the full generator.
    A copy's info is 0: had its LU failed, it failed at that first
    generator, which the check reaches earlier. The keys solved here join
    solved once the whole group has passed its check. scratch holds the
    check's vectors."""
    B, size = data.shape
    # each LU writes its solution over its right-hand side, -rate
    values = np.empty((B, len(group.rate)))
    np.negative(group.rate, out=values)
    info = np.zeros((B, len(group.blocks)), dtype=np.int64)
    everyone = list(range(B))
    # per block that gets an LU: what it factors and copies, and its
    # entries; and what joins solved once the check has passed
    builds, fresh = [], []
    for j, (k, plan, value) in enumerate(group.blocks):
        states = admitted.take(plan.ids, axis=2).reshape(B, -1)
        row_keys = states.view(f"V{states.shape[1]}")[:, 0].tolist()
        block_solved = solved.setdefault(k, {})
        todo, todo_keys = everyone, row_keys
        if not block_solved.keys().isdisjoint(row_keys):
            known = list(map(block_solved.get, row_keys))
            hit = [b for b, found in enumerate(known) if found is not None]
            values[hit, value] = [known[b] for b in hit]
            todo = [b for b, found in enumerate(known) if found is None]
            todo_keys = list(map(row_keys.__getitem__, todo))
        # the first generator of every other key: of the generators given
        # for one key, the dict keeps the last
        first = dict(zip(reversed(todo_keys), reversed(todo)))
        if len(first) == len(todo):
            factored, new, copy, sources = todo, todo_keys, [], []
        else:
            factored = sorted(first.values())
            new = list(map(row_keys.__getitem__, factored))
            copy = [b for b in todo if first[row_keys[b]] != b]
            sources = [first[row_keys[b]] for b in copy]
        if factored:
            entries = data.reshape(-1).take(np.multiply(factored, size)[:, None] + plan.src)
            builds.append((j, plan, value, factored, copy, sources, entries))
            fresh.append((block_solved, value, factored, new))
    for j, plan, value, factored, copy, sources, entries in builds:
        for b, band in zip(factored, _tagged_matrix(entries, plan, mu, room)):
            info[b, j] = _solve_tagged(plan, band.T, values[b, value])[1]
        if copy:
            values[copy, value] = values[sources, value]
    if builds and restore is not None:
        restore()
    _check_tagged(data, tables.solve_plan, group, values, mu, info, scratch)
    for block_solved, value, factored, new in fresh:
        block_solved.update(zip(new, values[factored, value]))
    return values


def solve_volume_from_matrix(tables: ChainTables, q, user_class: int,
                             system: int) -> np.ndarray:
    """Expected megabits of a tagged user, indexed by dense state id (nan on
    states where the user is absent). Takes an already assembled full
    generator. Its one block is factored whatever its key, so the key is
    read from an admitted table of zeros."""
    mu = _absorption_rate(tables)
    nst = tables.num_states
    out = np.full(nst, np.nan)
    plan = tables.solve_plan.tagged[user_class][system]
    if len(plan.ids):
        group = TaggedGroup([(0, plan)], nst)
        admitted = np.zeros((1, len(tables.occ_ns), nst), dtype=np.int8)
        out[plan.ids] = _solve_group(tables, q.data[None], group, mu, admitted, {},
                                     _Scratch(), np.empty(plan.band_size))[0]
    return out


def tagged_volumes(tables: ChainTables, data: np.ndarray, admitted: np.ndarray,
                   solved: dict, scratch: _Scratch, room: np.ndarray,
                   restore: Callable[[], None] | None = None) -> np.ndarray:
    """volumes[b]: solve_volume_from_matrix for every (class, system) pair
    of generator b of a (B, size) stack, as a flattened (N, S, num_states)
    table followed by one zero: every non-empty block in one group
    (SolvePlan.tagged_group), each built in turn into room, with at least
    B times the plan's largest_band entries, and restore, for a room that
    overlaps data, what assembles data again before the checks: both as
    _solve_stationary hands them over. admitted and solved key the blocks
    and save the LUs of repeated ones (see _solve_group)."""
    mu = _absorption_rate(tables)
    B = len(data)
    volumes = np.empty((B, tables.occ_ns.size + 1))
    volumes.fill(np.nan)
    volumes[:, -1] = 0.0
    group = tables.solve_plan.tagged_group
    if group is not None:
        volumes[:, group.targets] = _solve_group(tables, data, group, mu, admitted, solved,
                                                 scratch, room, restore)
    return volumes
