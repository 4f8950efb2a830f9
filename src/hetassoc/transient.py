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
blocks at a time (ctmc.TaggedGroup): one gather of the blocks of the group
that get an LU, one LU per distinct block (below), and one stacked gbmv per
block that checks it on every generator. The blocks of a stack go in one
group where their bands fit in ctmc.CHUNK_BYTES, else one at a time. Each
LU writes its solution over its right-hand side in the group's table of
values. The check lays its vectors out block by block, so each gbmv reads
and writes contiguous runs; they live in scratch buffers the caller can
reuse from stack to stack (ctmc._Scratch). A stack of several gathers its
bands into fresh arrays. A lone generator, solved in place by
ctmc._solve_stationary, hands over the spare room of its buffer past its
band, and each group's bands are carved from it in turn.

A block is keyed by what the network does at its states: the caller
passes each generator's admitted-system table (ChainTables.admit_sys read
at its choices), and a block's key is the table's bytes at the states
holding its tagged user. A block's band holds only arrivals and departures
at those states, so equal keys mean bit-equal bands, and a copy has the
bits its own LU would give. The caller also passes, per block, a dict of
the checked values of the keys it solved before. A block whose key is in
it, or was solved for an earlier generator of the stack, is not factored
again: its values are copied, a block at a time, by fancy-index
assignments. Only the factored blocks are gathered, since the check reads
the full generator and never a gathered band; every block is checked, a
copied one included, and the dicts gain the new keys only once their check
has passed.

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
                   _gbmv, _Scratch, assemble_generator, stack_band)

# Largest accepted |A v + r|_inf / (|A|_inf |v|_inf) of a tagged solve, with
# |A|_inf taken as the plan's bound; backward-stable LUs stay near 1e-16.
TAGGED_RESIDUAL_TOL = 1e-10

_gbsv = get_lapack_funcs("gbsv", dtype=np.float64)


class SingularTaggedChainError(RuntimeError):
    """The tagged chain cannot reach absorption (requires mu > 0)."""


def _tagged_matrix(data: np.ndarray, group: TaggedGroup, mu: float,
                   rows: list[np.ndarray], spare: np.ndarray | None = None
                   ) -> list[np.ndarray]:
    """Restrict generators of a stack to the tagged states of each block of
    a group and lower the tagged departure rate by mu (the tagged user's
    own departure leads to absorption).

    Diagonals are kept from the original generator, so each transient row
    plus the mu absorption entry still sums to zero. Takes a (B, size)
    stack of BandGenerator data and, per block j of the group, the indices
    rows[j] (a list or an array) of the generators whose block j is
    gathered. Returns per block an array (len(rows[j]), m, ldab) for a
    block of m states: each item is the transpose of the block of one of
    those generators in LAPACK band storage, band_shape (ldab, m) in
    Fortran order, gathered from its band in the plan's state order
    through flat indices into the stack.

    The bands are fresh zeros, or, given spare, float memory with room for
    group.band_size entries (a stack of one, _solve_stationary), carved
    from its head block after block and zeroed.
    """
    flat = data.reshape(-1)
    gathered = []
    at = 0
    for (_, plan, _), picked in zip(group.blocks, rows):
        ldab, m = plan.band_shape
        shape = (len(picked), m, ldab)
        if spare is None:
            bands = np.zeros(shape)
        else:
            bands = spare[at:at + len(picked) * m * ldab].reshape(shape)
            bands.fill(0.0)
            at += bands.size
        if len(picked):
            entries = bands.reshape(len(picked), m * ldab)
            entries[:, plan.band] = flat.take(
                np.multiply(picked, data.shape[1])[:, None] + plan.src)
            entries[:, plan.shift_band] -= mu
        gathered.append(bands)
    return gathered


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
    residual. The vectors are laid out block-major
    (TaggedGroup.check_layout), so each gbmv reads one contiguous run and
    writes the next. The vectors and products lie in scratch's "v" and
    "qv" buffers.
    """
    B, w = len(values), layout.width
    rows, slots = group.check_layout(B, w)
    total = B * group.num_states
    band = stack_band(data, w)
    v = scratch.zeros("v", len(group.blocks) * rows)
    v[slots] = values
    qv = scratch.get("qv", len(v))
    for at in range(0, v.size, rows):
        _gbmv(rows, total, w, w, 1.0, band, v[at:at + rows], y=qv[at:at + total],
              overwrite_y=1, trans=1)
    av = qv.take(slots)
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
                 admitted: np.ndarray, solved: dict, scratch: _Scratch,
                 spare: np.ndarray | None = None) -> np.ndarray:
    """Checked expected megabits of a tagged user, who leaves at rate mu,
    for every block of a group and every generator of a stack: row b holds
    generator b's values, each block's at its slice of group.blocks in its
    plan's state order. Every LU runs before the checks, and the error
    raised is that of solving block by block (see _check_tagged).

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
    gets a copy of its values, all in one more fancy-index assignment once
    the LUs have run. Only the blocks that get an LU are gathered; every
    block, a copied one included, is checked on the full generator. A
    copy's info is 0: had its LU failed, it failed at that first generator,
    which the check reaches earlier. The keys solved here join solved once
    the whole group has passed its check. scratch holds the check's
    vectors, and spare, if given, the gathered bands (_tagged_matrix)."""
    B = len(data)
    # each LU writes its solution over its right-hand side, -rate
    values = np.empty((B, len(group.rate)))
    np.negative(group.rate, out=values)
    info = np.zeros((B, len(group.blocks)), dtype=np.int64)
    everyone = list(range(B))
    # per block, the generators whose LU solves it; then the copies and the
    # keys the LUs solve
    rows, copies, fresh = [], [], []
    for k, plan, value in group.blocks:
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
            factored, new = todo, todo_keys
        else:
            factored = sorted(first.values())
            new = list(map(row_keys.__getitem__, factored))
            copy = [b for b in todo if first[row_keys[b]] != b]
            copies.append((copy, [first[row_keys[b]] for b in copy], value))
        rows.append(factored)
        if factored:
            fresh.append((block_solved, value, factored, new))
    for j, ((_, plan, value), picked, bands) in enumerate(
            zip(group.blocks, rows, _tagged_matrix(data, group, mu, rows, spare))):
        for b, band in zip(picked, bands):
            info[b, j] = _solve_tagged(plan, band.T, values[b, value])[1]
    for copy, source, value in copies:
        values[copy, value] = values[source, value]
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
                                     _Scratch())[0]
    return out


def tagged_volumes(tables: ChainTables, data: np.ndarray, admitted: np.ndarray,
                   solved: dict, scratch: _Scratch, spare: np.ndarray | None = None
                   ) -> np.ndarray:
    """volumes[b]: solve_volume_from_matrix for every (class, system) pair
    of generator b of a (B, size) stack, as a flattened (N, S, num_states)
    table followed by one zero, the blocks gathered together as
    SolvePlan.tagged_groups says. admitted and solved key the blocks and
    save the LUs of repeated ones (see _solve_group). A stack of one may
    pass spare, room for the bands of its largest group, where every
    group's bands are gathered in turn."""
    mu = _absorption_rate(tables)
    B = len(data)
    volumes = np.empty((B, tables.occ_ns.size + 1))
    volumes.fill(np.nan)
    volumes[:, -1] = 0.0
    for group in tables.solve_plan.tagged_groups(B):
        volumes[:, group.targets] = _solve_group(tables, data, group, mu, admitted, solved,
                                                 scratch, spare)
    return volumes
