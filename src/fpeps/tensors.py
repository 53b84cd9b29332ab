"""Site tensors and tensor sets: the one place that says what a valid set is.

``FPEPSTensor`` holds the coefficients A[k, l, r, u, d] of a local fermionic
projector; nonzero entries require (k + l + r + u + d) mod 2 == parity, and
construction refuses any other.  Index names: k physical, l left, r right,
u up (bond toward v-1), d down (bond toward v+1).

A mapped spin tensor is a plain complex ``(2,)*7`` array
B[k, l, l', r, r', u, d], with one extra two-valued horizontal index pair
(l', r').  First-column tensors only populate l' = 0 and last-column
tensors only r' = 0, which makes the extra bonds an open chain along each
row while every tensor keeps one uniform shape.

A tensor set is a dict keyed by site.  Every set enters the package
through :func:`stack_sets` (fermionic) or :func:`spin_stack` (spin), which
read it in site M order and refuse a missing site; :func:`parity_pattern`
validates every per-site parity mapping given from outside.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .lattice import LatticeSpec, Site, site_order

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
        object.__setattr__(self, "parity", int(self.parity))  # True, np.int64(1), 1.0: 1
        forbidden = forbidden_entries(arr, self.parity)
        if forbidden.any():
            bad = [tuple(idx) for idx in np.argwhere(forbidden).tolist()]
            raise ContractViolationError(
                f"parity-{self.parity} tensor has forbidden entries at {bad}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def random(cls, rng: np.random.Generator, parity: int = 0) -> "FPEPSTensor":
        """Standard complex normal entries on the 16 parity-allowed indices.

        The one-tensor set of :func:`random_stack`: one (16, 2) draw, rows in
        C order of the indices and columns (re, im).
        """
        return cls(random_stack([rng], (parity,))[0, 0], parity)


def forbidden_entries(entries: np.ndarray, parity) -> np.ndarray:
    """Mask of the nonzero entries of ``(..., 2, 2, 2, 2, 2)`` tensors that break
    the parity rule; ``parity`` broadcasts against the leading axes."""
    return (_PARITY != np.reshape(parity, np.shape(parity) + (1,) * 5)) & (entries != 0)


def random_stack(rngs, parity: tuple[int, ...]) -> np.ndarray:
    """Random tensor sets as one ``(S, N, 2, 2, 2, 2, 2)`` stack, set i drawn from ``rngs[i]``.

    Site m has parity ``parity[m]``.  Each set is one ``(N, 16, 2)`` standard
    normal draw, written into the allowed entries in site and C order, so
    it consumes its generator exactly as :meth:`FPEPSTensor.random` on each
    site in turn would, and gives the same entries.  The parity rule is
    checked once for the whole stack.
    """
    bad = [p for p in parity if p not in (0, 1)]
    if bad:
        raise ContractViolationError(f"parity must be 0 or 1, got {bad[0]}")
    parity = np.array(parity)
    allowed = _PARITY.reshape(-1) == parity[:, None]  # [site, entry]
    draws = np.empty((len(rngs), allowed.sum(), 2))
    for rng, out in zip(rngs, draws):
        rng.standard_normal(out=out)
    entries = np.zeros((len(rngs),) + allowed.shape, dtype=complex)
    entries.view(float).reshape(entries.shape + (2,))[:, allowed] = draws
    entries = entries.reshape(entries.shape[:2] + (2,) * 5)
    if forbidden_entries(entries, parity).any():
        raise ContractViolationError("random tensor stack has forbidden-parity entries")
    return entries


def parity_pattern(lattice: LatticeSpec, parity) -> tuple[int, ...]:
    """A per-site parity mapping (None: all even) as a tuple in M order.

    The mapping may name a site by any periodic image; every site must be
    given, and every value must be 0 or 1.
    """
    sites = site_order(lattice)
    if parity is None:
        return (0,) * len(sites)
    wrong = {s: c for s, c in dict(parity).items() if c not in (0, 1)}
    if wrong:
        raise ContractViolationError(f"site parities must be 0 or 1, got {wrong}")
    given = {lattice.wrap(s): int(c) for s, c in dict(parity).items()}
    missing = [s for s in sites if s not in given]
    if missing:
        raise ContractViolationError(f"parity assignment missing sites {missing}")
    return tuple(given[s] for s in sites)


def _sites(lattice: LatticeSpec, sets) -> tuple[Site, ...]:
    """The lattice's sites in M order; a set that lacks one is refused."""
    sites = site_order(lattice)
    missing = sorted({s for tensors in sets for s in sites if s not in tensors})
    if missing:
        raise ContractViolationError(f"missing tensors for sites {missing}")
    return sites


def stack_sets(lattice: LatticeSpec, sets, parity=None) -> tuple[np.ndarray, tuple[int, ...]]:
    """The entries of fermionic tensor sets keyed by site, and the parity pattern they share.

    Returns one ``(S, N, 2, 2, 2, 2, 2)`` complex array, sets in the given
    order and sites in M order, and each site's parity as an ``(N,)``
    tuple.  No sets, a set missing a site, a stack whose sets disagree on a
    site's parity, and a ``parity`` mapping (None: not checked) that disagrees
    with the tensors' own parities are refused.
    """
    if not sets:
        raise ContractViolationError("no tensor sets to stack: a stack needs a parity pattern")
    sites = _sites(lattice, sets)
    patterns = {tuple(tensors[s].parity for s in sites) for tensors in sets}
    if len(patterns) > 1:
        split = [s for j, s in enumerate(sites) if len({p[j] for p in patterns}) > 1]
        raise ContractViolationError(f"tensor sets disagree on the parity of sites {split}")
    own = patterns.pop()
    if parity is not None:
        wrong = [s for s, g, o in zip(sites, parity_pattern(lattice, parity), own) if g != o]
        if wrong:
            raise ContractViolationError(f"parity argument disagrees with the tensors' "
                                         f"parity at sites {wrong}")
    entries = np.array([[tensors[s].entries for s in sites] for tensors in sets])
    return entries, own


def spin_stack(lattice: LatticeSpec, tensors: dict[Site, np.ndarray]) -> list[np.ndarray]:
    """The complex ``(2,)*7`` tensors of a spin set, in M order.

    A missing site and a tensor of any other shape are refused.  The
    tensors are not copied when they already are complex arrays.
    """
    stack = [np.asarray(tensors[s], dtype=complex) for s in _sites(lattice, [tensors])]
    shapes = sorted({b.shape for b in stack} - {(2,) * 7})
    if shapes:
        raise ContractViolationError(f"PEPS tensor must have shape (2,)*7, got {shapes[0]}")
    return stack
