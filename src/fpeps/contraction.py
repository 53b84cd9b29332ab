"""Exact contraction of small spin PEPS on a torus.

Tensors are B[k, l, l', r, r', u, d]; horizontal links identify (r, r') of
one site with (l, l') of its right neighbor, vertical links identify d with
the upper neighbor's u, both with periodic wraparound.  The extra primed
bond also wraps, but mapped tensor sets pin it to 0 on the boundary column,
which reproduces the open transport chain through a uniform code path.

The contraction is dense and column by column.  Each column collapses to a
transfer tensor [L, phys, R] over its physical legs and the combined
(l, l') / (r, r') row indices.  The environment keeps the same layout
[L_open, phys, R], so absorbing a column is one BLAS ``tensordot`` over R and
a reshape.  The last column is contracted together with the periodic trace
over (R, L_open), so the full environment including it is never formed.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, ResourceLimitError
from .fock import FockVector, physical_registry
from .lattice import LatticeSpec, Site
from .tensors import PEPSTensor

MAX_SITES = 12


def _column_tensor(lattice: LatticeSpec, tensors, h: int) -> np.ndarray:
    """Contract the vertical chain of column h into [L, phys, R]."""
    blocks = []
    for v in range(1, lattice.n_v + 1):
        # [k, L, R, u, d] -> [u, L, k, R, d], contiguous for einsum's inner loop
        blocks.append(np.ascontiguousarray(
            tensors[(h, v)].entries.reshape(2, 4, 4, 2, 2).transpose(3, 1, 0, 2, 4)))

    col = blocks[0]
    for block in blocks[1:]:
        # merge: L, phys and R row-major (row 1 most significant)
        col = np.einsum("ulprx,xakbd->ulapkrbd", col, block)
        u, l, a, p, k, r, b, d = col.shape
        col = col.reshape(u, l * a, p * k, r * b, d)
    # periodic vertical bond (the self-loop when n_v == 1)
    return np.einsum("ulpru->lpr", col)


def contract_peps(lattice: LatticeSpec, tensors: dict[Site, PEPSTensor]) -> FockVector:
    """Full amplitude vector of the spin state, indexed in site M order."""
    if lattice.n_sites > MAX_SITES:
        raise ResourceLimitError(
            f"{lattice.n_sites} sites exceed the exact-contraction cap of {MAX_SITES}"
        )
    missing = [s for s in lattice.sites() if s not in tensors]
    if missing:
        raise ContractViolationError(f"missing tensors for sites {missing}")

    cols = [_column_tensor(lattice, tensors, h) for h in range(1, lattice.n_h + 1)]

    env = cols[0]  # [L_open, phys, R_current]
    for col in cols[1:-1]:
        env = np.tensordot(env, col, axes=([2], [0]))
        l, p, q, s = env.shape
        env = env.reshape(l, p * q, s)
    if lattice.n_h == 1:
        amps = np.einsum("lpl->p", env)
    else:
        # last column and the periodic horizontal trace in one contraction
        amps = np.tensordot(env, cols[-1], axes=([0, 2], [2, 0])).reshape(-1)

    # phys bits are column-major (column 1 most significant, rows inner);
    # reorder to the M-order Fock convention (site M on bit M-1).
    n = lattice.n_sites
    nd = amps.reshape((2,) * n)
    # source axis for site (h, v): (h-1)*n_v + (v-1); axis 0 most significant
    perm = []
    for t_axis in range(n):
        m = n - t_axis  # site with flat-index bit m-1
        h = (m - 1) % lattice.n_h + 1
        v = (m - 1) // lattice.n_h + 1
        perm.append((h - 1) * lattice.n_v + (v - 1))
    nd = np.transpose(nd, axes=perm)
    return FockVector(physical_registry(lattice), nd.reshape(-1))
