"""Site tensors for the fermionic and spin descriptions.

``FPEPSTensor`` holds the coefficients A[k, l, r, u, d] of a local fermionic
projector; nonzero entries require (k + l + r + u + d) mod 2 == parity, and
construction refuses any other.  Index names: k physical, l left, r right,
u up (bond toward v-1), d down (bond toward v+1).

``PEPSTensor`` is the mapped spin tensor B[k, l, l', r, r', u, d] with one
extra two-valued horizontal index pair (l', r').  First-column tensors only
populate l' = 0 and last-column tensors only r' = 0, which makes the extra
bonds an open chain along each row while every tensor keeps one uniform
shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

_PARITY = np.indices((2,) * 5).sum(axis=0) % 2  # (k + l + r + u + d) mod 2


@dataclass(frozen=True)
class FPEPSTensor:
    entries: np.ndarray  # complex, shape (2, 2, 2, 2, 2), indexed [k, l, r, u, d]
    parity: int = 0

    def __post_init__(self):
        # a private read-only copy: the parity rule checked here stays true
        arr = np.array(self.entries, dtype=complex)
        if arr.shape != (2,) * 5:
            raise ContractViolationError(
                f"fPEPS tensor must have shape (2,)*5, got {arr.shape}"
            )
        if self.parity not in (0, 1):
            raise ContractViolationError(f"parity must be 0 or 1, got {self.parity}")
        forbidden = (_PARITY != self.parity) & (arr != 0)
        bad = [tuple(idx) for idx in np.argwhere(forbidden).tolist()]
        if bad:
            raise ContractViolationError(
                f"parity-{self.parity} tensor has forbidden entries at {bad}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def nonzero_items(self):
        """(index, value) of every nonzero entry, in C order."""
        nonzero = self.entries != 0
        for idx, val in zip(np.argwhere(nonzero).tolist(), self.entries[nonzero].tolist()):
            yield tuple(idx), val

    @classmethod
    def random(cls, rng: np.random.Generator, parity: int = 0) -> "FPEPSTensor":
        """Standard complex normal entries on the 16 parity-allowed indices.

        One (16, 2) draw, rows in C order of the indices and columns (re, im),
        consumes the generator exactly as one scalar draw per component would.
        """
        arr = np.zeros((2,) * 5, dtype=complex)
        allowed = _PARITY == parity  # empty for an invalid parity, refused below
        z = rng.standard_normal((int(allowed.sum()), 2))
        arr[allowed] = z[:, 0] + 1j * z[:, 1]
        return cls(arr, parity)


@dataclass(frozen=True)
class PEPSTensor:
    entries: np.ndarray  # complex, shape (2,)*7, indexed [k, l, lp, r, rp, u, d]

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (2,) * 7:
            raise ContractViolationError(
                f"PEPS tensor must have shape (2,)*7, got {arr.shape}"
            )
        object.__setattr__(self, "entries", arr)

