"""Periodic 2D lattice geometry and site bookkeeping.

Sites are addressed as ``(h, v)`` with 1-based column ``h`` in ``1..n_h`` and
1-based row ``v`` in ``1..n_v``.  The linear site order is
``M(h, v) = (v - 1) * n_h + h``; every array indexed by site uses ``M - 1``.
Boundaries are always periodic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

Site = tuple[int, int]


@dataclass(frozen=True)
class LatticeSpec:
    """Rectangular torus of ``n_h`` columns and ``n_v`` rows."""

    n_h: int
    n_v: int

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ContractViolationError(
                f"lattice dimensions must be positive, got {self.n_h}x{self.n_v}"
            )

    @property
    def n_sites(self) -> int:
        return self.n_h * self.n_v

    def wrap(self, site: Site) -> Site:
        h, v = site
        return ((h - 1) % self.n_h + 1, (v - 1) % self.n_v + 1)

    def sites(self) -> list[Site]:
        """All sites in M order."""
        return [(h, v) for v in range(1, self.n_v + 1) for h in range(1, self.n_h + 1)]

    def shifted(self, dh: int, dv: int) -> np.ndarray:
        """Zero-based indices of the sites displaced by ``(dh, dv)``, as an (N,) array in M order."""
        v, h = np.divmod(np.arange(self.n_sites), self.n_h)
        return (v + dv) % self.n_v * self.n_h + (h + dh) % self.n_h

    def momenta(self) -> np.ndarray:
        """Reciprocal-lattice angles (2*pi*k_h/n_h, 2*pi*k_v/n_v) as (n_sites, 2) rows in M order."""
        kv, kh = np.divmod(np.arange(self.n_sites), self.n_h)
        return np.stack([2.0 * np.pi * kh / self.n_h, 2.0 * np.pi * kv / self.n_v], axis=1)


# an entry is one lattice's N site tuples
@functools.lru_cache(maxsize=128)
def site_order(lattice: LatticeSpec) -> tuple[Site, ...]:
    """All sites in M order, as one tuple per lattice shared by every caller."""
    return tuple(lattice.sites())


def parse_lattice(text: str) -> LatticeSpec:
    """Parse '3x3'-style lattice descriptions."""
    try:
        a, b = text.lower().split("x")
        return LatticeSpec(int(a), int(b))
    except (ValueError, TypeError) as exc:
        raise ContractViolationError(f"cannot parse lattice spec {text!r}") from exc
