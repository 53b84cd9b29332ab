"""Exact contraction of small spin PEPS on a torus.

Tensors are B[k, l, l', r, r', u, d]; horizontal links identify (r, r') of
one site with (l, l') of its right neighbor, vertical links identify d with
the upper neighbor's u, both with periodic wraparound.  The extra primed
bond also wraps, but mapped tensor sets pin it to 0 on the boundary column,
which reproduces the open transport chain through a uniform code path.

The contraction is dense and row by row.  The extra bond lives inside its
row, so each row chains horizontally into a transfer tensor [U, D, phys]
whose combined vertical legs are 2^n_h wide, and the periodic
(l, l') / (r, r') bond closes inside the row.  The environment [D, phys, U]
absorbs a row with one BLAS ``tensordot`` over D and a reshape; the last row
is contracted together with the periodic vertical trace over (D, U).  Every
new site and row is merged as the more significant index, so the amplitudes
come out in site M order without a permutation.  When n_v == 1 each site's
vertical self-loop is traced before chaining.  The worst case under the cap
is 6x2, whose row chain peaks at about 132 MiB.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, ResourceLimitError
from .fock import FockVector, physical_registry
from .lattice import LatticeSpec, Site
from .tensors import PEPSTensor

MAX_SITES = 12


def _row_tensor(lattice: LatticeSpec, tensors, v: int) -> np.ndarray:
    """Contract the horizontal chain of row v into [U, D, phys]."""
    # [k, L, R, u, d]; a one-row lattice closes each vertical bond on its site
    blocks = [tensors[(h, v)].entries.reshape(2, 4, 4, 2, 2) for h in range(1, lattice.n_h + 1)]
    if lattice.n_v == 1:
        blocks = [np.einsum("kLRuu->kLR", b)[..., None, None] for b in blocks]
    row = blocks[0].transpose(1, 3, 4, 0, 2)  # [L_open, U, D, phys, R]
    for block in blocks[1:]:
        row = np.tensordot(row, block, axes=([4], [1]))  # [L_open, U, D, phys, k, R, u, d]
        a, U, D, P, k, R, u, d = row.shape
        # the new site's u, d and k become the more significant half of U, D and phys
        row = row.transpose(0, 6, 1, 7, 2, 4, 3, 5).reshape(a, u * U, d * D, k * P, R)
    return np.einsum("aUDPa->UDP", row)


def contract_peps(lattice: LatticeSpec, tensors: dict[Site, PEPSTensor]) -> FockVector:
    """Full amplitude vector of the spin state, indexed in site M order."""
    if lattice.n_sites > MAX_SITES:
        raise ResourceLimitError(
            f"{lattice.n_sites} sites exceed the exact-contraction cap of {MAX_SITES}"
        )
    missing = [s for s in lattice.sites() if s not in tensors]
    if missing:
        raise ContractViolationError(f"missing tensors for sites {missing}")

    rows = [_row_tensor(lattice, tensors, v) for v in range(1, lattice.n_v + 1)]
    width = rows[0].shape[0]
    env = np.eye(width).reshape(width, 1, width)  # [D_current, phys, U_open]
    for row in rows[:-1]:
        env = np.tensordot(row, env, axes=([0], [0]))
        d, p, q, u = env.shape
        env = env.reshape(d, p * q, u)
    # last row and the periodic vertical trace in one contraction
    amps = np.tensordot(rows[-1], env, axes=([0, 1], [0, 2])).reshape(-1)
    return FockVector(physical_registry(lattice), amps)
