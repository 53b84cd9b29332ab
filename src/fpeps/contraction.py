"""Exact contraction of small spin PEPS on a torus.

Tensors are B[k, l, l', r, r', u, d]; horizontal links identify (r, r') of
one site with (l, l') of its right neighbor, vertical links identify d with
the upper neighbor's u, both with periodic wraparound.  The extra primed
bond also wraps, but mapped tensor sets pin it to 0 on the boundary column,
which reproduces the open transport chain through a uniform code path.

The contraction is dense and row by row, over a stack of tensor sets at
once: every product is a batched ``matmul`` with the GEMM shapes of a
``tensordot`` on one set, so a set's amplitudes do not depend on its stack,
and ``contract_peps`` is a stack of one.  The extra bond lives inside its
row, so each row chains horizontally into a transfer tensor [U, D, phys]
whose combined vertical legs are 2^n_h wide, and the periodic
(l, l') / (r, r') bond closes inside the row.  The chain keeps each site's
(k, u, d) legs in the order the products leave them and permutes them into
site M order once, after the periodic bond is traced, when the row is 16
times smaller.  The environment [D, phys, U] absorbs a row with one product
over D; the last row is contracted together with the periodic vertical
trace over (D, U).  Every new row is merged as the more significant index,
so the amplitudes come out in site M order.  When n_v == 1 each site's
vertical self-loop is traced before chaining.  The worst case under the cap
is 6x2, whose row chain peaks at about 76 MiB.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, ResourceLimitError
from .fock import FockVector, physical_registry
from .lattice import LatticeSpec, Site
from .tensors import PEPSTensor

MAX_SITES = 12


def _row_tensors(lattice: LatticeSpec, entries: np.ndarray, v: int) -> np.ndarray:
    """Contract the horizontal chain of row v of every set into [set, U, D, phys]."""
    n_sets, n_h = entries.shape[0], lattice.n_h
    # [set, h, k, L, R, u, d]; a one-row lattice closes each vertical bond on its site
    blocks = entries[:, (v - 1) * n_h:v * n_h].reshape(n_sets, n_h, 2, 4, 4, 2, 2)
    if lattice.n_v == 1:
        blocks = np.einsum("shkLRuu->shkLR", blocks)[..., None, None]
    _, _, k, L, R, u, d = blocks.shape
    # [set, h, L, k, u, d, R]: each GEMM leaves the chain with R as its last axis
    blocks = blocks.transpose(0, 1, 3, 2, 5, 6, 4)
    row = blocks[:, 0]
    for h in range(1, n_h):
        # tensordot's GEMM over the shared (r, r') / (l, l') bond, one per set
        row = np.matmul(row.reshape(n_sets, -1, R), blocks[:, h].reshape(n_sets, L, -1))
    # [set, L_open, (k, u, d) of sites 1..n_h, R]; the periodic bond closes in the row
    row = row.reshape(n_sets, L, -1, R)
    row = sum(row[:, i, :, i] for i in range(L)).reshape((n_sets,) + (k, u, d) * n_h)
    # the last site is the most significant part of U, D and phys
    axes = [1 + 3 * h + leg for leg in (1, 2, 0) for h in reversed(range(n_h))]
    return row.transpose([0] + axes).reshape(n_sets, u**n_h, d**n_h, k**n_h)


def contract_stack(lattice: LatticeSpec, entries: np.ndarray) -> np.ndarray:
    """Amplitude vectors of a stack of spin tensor sets, as one ``(S, 2^N)`` array.

    ``entries[i, m]`` is B[k, l, l', r, r', u, d] of site ``m`` (M order) of
    set ``i``; row i of the result is that set's amplitudes in site M order,
    equal to the set contracted alone.
    """
    if lattice.n_sites > MAX_SITES:
        raise ResourceLimitError(
            f"{lattice.n_sites} sites exceed the exact-contraction cap of {MAX_SITES}"
        )
    n_sets = entries.shape[0]
    rows = [_row_tensors(lattice, entries, v) for v in range(1, lattice.n_v + 1)]
    width = rows[0].shape[1]
    env = np.eye(width).reshape(1, width, 1, width)  # [set, D_current, phys, U_open]
    for row in rows[:-1]:
        # tensordot's GEMM over the row's U and D_current, one per set
        _, U, D, P = row.shape
        n, _, phys, u_open = env.shape
        env = np.matmul(row.transpose(0, 2, 3, 1).reshape(n_sets, D * P, U),
                        env.reshape(n, U, phys * u_open)).reshape(n_sets, D, P * phys, u_open)
    # last row and the periodic vertical trace in one product, over (U, D_current) and (D, U_open)
    _, U, D, P = rows[-1].shape
    n, _, phys, u_open = env.shape
    amps = np.matmul(rows[-1].transpose(0, 3, 1, 2).reshape(n_sets, P, U * D),
                     env.transpose(0, 1, 3, 2).reshape(n, U * D, phys))
    return amps.reshape(n_sets, -1)


def contract_peps(lattice: LatticeSpec, tensors: dict[Site, PEPSTensor]) -> FockVector:
    """Full amplitude vector of the spin state, indexed in site M order.

    A stack of one for :func:`contract_stack`.
    """
    missing = [s for s in lattice.sites() if s not in tensors]
    if missing:
        raise ContractViolationError(f"missing tensors for sites {missing}")
    entries = np.stack([tensors[s].entries for s in lattice.sites()])[None]
    return FockVector(physical_registry(lattice), contract_stack(lattice, entries)[0])
