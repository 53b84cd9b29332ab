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
row, so each row chains horizontally into a transfer tensor whose combined
vertical legs U and D are 2^n_h wide, and the periodic (l, l') / (r, r')
bond closes inside the row with one ``einsum`` trace.  The chain keeps each
site's (k, u, d) legs in the order the products leave them and permutes
them once, when the row is 16 times smaller, into site M order and the axis
order its product reads.  Each row is built just before it is absorbed, so
one row tensor lives at a time, whatever n_v is.  The environment
[D, phys, U] absorbs a row [D, phys, U] with one product over the row's U
and its own D; the last row [phys, U, D] is contracted together with the
periodic vertical trace over (U, D).  Every new row is merged as the more significant index,
so the amplitudes come out in site M order.
When n_v == 1 each site's vertical self-loop is traced before chaining.  A
stack is charged for its memory before anything is allocated, so an 8x2
full vector is refused.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, refuse_over_limit
from .fock import FockVector, physical_registry
from .lattice import LatticeSpec, Site
from .tensors import spin_stack


def _row_tensors(lattice: LatticeSpec, entries: np.ndarray, v: int, legs) -> np.ndarray:
    """Row v of every set, chained and flat, with phys (0), U (1) and D (2) in ``legs`` order."""
    n_sets, n_h = entries.shape[0], lattice.n_h
    # [set, h, k, L, R, u, d]; a one-row lattice closes each vertical bond on its site
    blocks = entries[:, (v - 1) * n_h:v * n_h].reshape(n_sets, n_h, -1, 4, 4, 2, 2)
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
    row = np.einsum("sixi->sx", row.reshape(n_sets, L, -1, R))
    # the last site is the most significant part of U, D and phys: one permutation copy
    axes = [1 + 3 * h + leg for leg in legs for h in reversed(range(n_h))]
    return row.reshape((n_sets,) + (k, u, d) * n_h).transpose([0] + axes).reshape(n_sets, -1)


def contract_stack(lattice: LatticeSpec, entries: np.ndarray) -> np.ndarray:
    """Amplitudes of an ``(S, N, P) + (2,)*6`` stack of spin tensor sets, as ``(S, P^N)``.

    ``entries[i, m, k]`` is B[k, l, l', r, r', u, d] of site ``m`` of set ``i``.  P = 2
    gives each set's amplitudes in site M order, equal to the set contracted alone; P = 1
    one configuration's amplitude per set, B[k_m] at each site m.  No sets: ``(0, P^N)``.
    """
    if entries.shape[1:] not in [(lattice.n_sites, p) + (2,) * 6 for p in (1, 2)]:
        raise ContractViolationError(f"a spin stack must have shape (S, {lattice.n_sites}, P) "
                                     f"+ (2,)*6 with P 1 or 2, got {entries.shape}")
    (n_sets, n, p), n_h, n_v = entries.shape[:3], lattice.n_h, lattice.n_v
    w = 2 if n_v > 1 else 1  # a one-row lattice traces its vertical self-loop first
    # complex numbers per set: the row chain, its input and the row it makes, 25 (P w^2)^n_h;
    # the environment, its copy and the amplitudes, 3 w^(2 n_h) P^(N - n_h); one row of the stack.
    # Traced peak/charge: 12x1 .95, 6x2 .68, 4x4 .67, 5x3 .55; P=1 .72-.75 (x1-x64 up to 9x9)
    per_set = 25 * (p * w * w) ** n_h + 3 * w ** (2 * n_h) * p ** (n - n_h) + 64 * p * n_h
    refuse_over_limit(2 * n_sets * per_set, f"{n_sets} x {p}^{n} amplitudes on {n_h}x{n_v}")
    if not n_sets:
        return np.zeros((0, p**n), np.result_type(entries, float))
    width = w**n_h  # of every U and D
    env = np.eye(width).reshape(1, width, 1, width)  # [set, D_current, phys, U_open]
    for v in range(1, n_v):
        # row v [D, phys, U] is built as it is absorbed: tensordot's GEMM over U and D_current
        env = np.matmul(_row_tensors(lattice, entries, v, (2, 0, 1)).reshape(n_sets, -1, width),
                        env.reshape(len(env), width, -1)).reshape(n_sets, width, -1, width)
    # last row [phys, U, D] and the periodic vertical trace: a GEMM over (U, D), (D_current, U_open)
    amps = np.matmul(_row_tensors(lattice, entries, n_v, (0, 1, 2)).reshape(n_sets, -1, width**2),
                     env.transpose(0, 1, 3, 2).reshape(len(env), width**2, -1))
    return amps.reshape(n_sets, -1)


def contract_peps(lattice: LatticeSpec, tensors: dict[Site, np.ndarray]) -> FockVector:
    """Full amplitude vector of the spin state, indexed in site M order.

    ``tensors`` maps every site to its ``(2,)*7`` array.  A stack of one
    for :func:`contract_stack`.
    """
    entries = np.array([spin_stack(lattice, tensors)])
    return FockVector(physical_registry(lattice), contract_stack(lattice, entries)[0])
