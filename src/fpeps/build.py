"""Exact construction of fermionic PEPS on small periodic lattices.

The state is assembled from maximally entangled auxiliary bonds

    H(h,v) = (1 + beta^dag_(h,v) alpha^dag_(h+1,v)) / sqrt(2)
    V(h,v) = (1 + delta^dag_(h,v) gamma^dag_(h,v+1)) / sqrt(2)

followed by one local projector per site,

    Q(h,v) = sum A[k,l,r,u,d] a^dag^k alpha^l beta^r gamma^u delta^d,

and a projection of every auxiliary mode onto the empty occupation.  The
site product of projectors is taken ascending in M left to right, so the
highest-M projector acts on the state first; for even-parity tensors the
order is immaterial since the projectors commute.

``build_stack`` builds a stack of tensor sets that share one parity
pattern and keeps only the modes that are currently live (bond applied,
projector pending, or physical mode created), as one dense ``(S, 2^w)``
array with a row per set.  A bond is two slice writes.  A site is one
batched ``matmul`` with one 2x16 matrix ``<k 0000| Q |0 l r u d>`` per set,
which contracts the site's four auxiliary axes (projecting them onto empty)
and adds the axis of ``a(site)``; the Jordan-Wigner signs from the other
live modes enter as a +-1 mask.  Each set's products are the ones it would
get alone, so a row does not depend on its stack.  ``build_fpeps`` is a
stack of one.  The cap limits the peak live width, not the total mode
count: 13 modes at 3x2, 16 at 3x3, 20 at 4x3.  The result equals composing
``apply_poly`` over the full registry (``build_fpeps_reference``).
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cache, lru_cache

import numpy as np

from .errors import ResourceLimitError
from .fock import (
    DEFAULT_MODE_CAP,
    SPECIES,
    FockVector,
    OperatorPoly,
    apply_poly,
    parity_signs,
    physical_registry,
    standard_registry,
    vacuum,
)
from .lattice import LatticeSpec, Site
from .tensors import FPEPSTensor, stack_sets

SQRT_HALF = 1.0 / np.sqrt(2.0)


def bond_h(site: Site, lattice: LatticeSpec) -> OperatorPoly:
    """Horizontal entangling bond leaving ``site`` to the right."""
    s = lattice.wrap(site)
    t = lattice.right(s)
    return OperatorPoly.from_terms([
        (SQRT_HALF, ()),
        (SQRT_HALF, ((("beta", s), True), (("alpha", t), True))),
    ])


def bond_v(site: Site, lattice: LatticeSpec) -> OperatorPoly:
    """Vertical entangling bond leaving ``site`` upward (v + 1)."""
    s = lattice.wrap(site)
    t = lattice.north(s)
    return OperatorPoly.from_terms([
        (SQRT_HALF, ()),
        (SQRT_HALF, ((("delta", s), True), (("gamma", t), True))),
    ])


def entry_monomial(site: Site, index) -> tuple:
    """The word a^dag^k alpha^l beta^r gamma^u delta^d of entry A[k, l, r, u, d]."""
    return tuple(((sp_, site), sp_ == "a") for sp_, bit in zip(SPECIES, index) if bit)


def projector_q(site: Site, tensor: FPEPSTensor) -> OperatorPoly:
    """Local projector built from a coefficient tensor."""
    return OperatorPoly.from_terms(
        (coeff, entry_monomial(site, idx)) for idx, coeff in tensor.nonzero_items()
    )


@cache
def site_signs() -> np.ndarray:
    """Signs s[k, l, r, u, d] = <k 0000| monomial |0 l r u d> on one site.

    The five modes are ordered (a, alpha, beta, gamma, delta), as in the
    standard registry, so ``A * s`` are the matrix elements of ``Q``
    between the site's auxiliary occupations and its physical one.  The
    ``n = l + r + u + d`` annihilators empty the creators in creation order,
    which reverses a word of ``n`` fermion operators: ``(-1)^(n(n-1)/2)``.
    """
    n = np.indices((2,) * 5)[1:].sum(axis=0)
    signs = (-1.0) ** (n * (n - 1) // 2)
    signs.flags.writeable = False  # one cached table for every caller
    return signs


class _ActiveState:
    """A stack of dense amplitudes over the live modes, bit i of an index on slot i.

    ``amps`` has one row per tensor set.  Live modes are kept sorted by
    registry position, so Jordan-Wigner signs agree with the full-registry
    computation (every other mode is empty and contributes no parity).  A
    physical mode goes live when its projector creates it.  Projectors act
    in descending M and the physical modes come first in the registry, so
    the new ``a(site)`` is always slot 0: no live mode precedes it, and
    ``a^dag`` picks up no sign.
    """

    def __init__(self, n_sets: int):
        self.positions: list[int] = []
        self.amps = np.ones((n_sets, 1), dtype=complex)

    def open_bond(self, pos_first: int, pos_second: int):
        """Apply (1 + c^dag_first c^dag_second) / sqrt(2) on two fresh modes.

        Live modes below both new ones are counted twice and cancel, so the
        pair picks up the parity of the live modes between them, and -1 when
        the second mode precedes the first.
        """
        pos_lo, pos_hi = sorted((pos_first, pos_second))
        below = bisect_left(self.positions, pos_lo)
        between = bisect_left(self.positions, pos_hi) - below
        n_sets = self.amps.shape[0]
        old = self.amps.reshape(n_sets, -1, 1 << between, 1 << below)
        new = np.zeros((n_sets, old.shape[1], 2, 1 << between, 2, 1 << below), dtype=complex)
        np.multiply(old, SQRT_HALF, out=new[:, :, 0, :, 0, :])
        sign = -SQRT_HALF if pos_second < pos_first else SQRT_HALF
        np.multiply(old, (sign * parity_signs(between))[:, None], out=new[:, :, 1, :, 1, :])
        self.positions.insert(below, pos_lo)
        self.positions.insert(below + between + 1, pos_hi)
        self.amps = new.reshape(n_sets, -1)

    def project_site(self, pos_a: int, pos_alpha: int, matrices: np.ndarray, parity: int):
        """Apply the site projector of every set; its auxiliary modes leave, ``a`` joins.

        ``matrices`` holds one ``(2, 16)`` matrix ``<k 0000| Q |0 l r u d>``
        per set.  The four auxiliary modes are contiguous from
        ``pos_alpha``.  The annihilators pass the live modes below
        ``alpha``, so a term picks up their parity when ``l + r + u + d`` is
        odd, that is when ``k`` differs from the site's ``parity``.
        """
        first = self.positions.index(pos_alpha)
        n_sets = self.amps.shape[0]
        amps = self.amps.reshape(n_sets, -1, 16, 1 << first)  # [set, above, d u r l, below]
        # one (below, 16) x (16, 2) product per set and value of the modes above
        out = amps.transpose(0, 1, 3, 2) @ matrices.transpose(0, 2, 1)[:, None]
        out[..., 1 - parity] *= parity_signs(first)  # [set, above, below, k]
        self.positions[first:first + 4] = []
        self.positions.insert(0, pos_a)
        self.amps = out.reshape(n_sets, -1)


# an entry is one lattice's plan: a few small tuples
@lru_cache(maxsize=128)
def _plan(lattice: LatticeSpec):
    """Each site's projector step in action order, and the peak live width.

    A step is the site's index in M order, the registry positions of its
    ``a`` and ``alpha`` modes, and the bonds to open before its projector.
    """
    registry = standard_registry(lattice)
    opened: set = set()
    steps = []
    live = width = 0
    for site in reversed(lattice.sites()):
        bonds = []
        for kind, source, target in (
            ("h", site, lattice.right(site)),              # provides beta(site)
            ("h", lattice.left(site), site),               # provides alpha(site)
            ("v", site, lattice.north(site)),              # provides delta(site)
            ("v", lattice.south(site), site),              # provides gamma(site)
        ):
            if (kind, source) in opened:
                continue
            opened.add((kind, source))
            first, second = ("beta", "alpha") if kind == "h" else ("delta", "gamma")
            bonds.append((registry.position((first, source)),
                          registry.position((second, target))))
        live += 2 * len(bonds)
        width = max(width, live)
        live -= 3  # four auxiliary modes leave, the physical one joins
        steps.append((lattice.site_index(site), registry.position(("a", site)),
                      registry.position(("alpha", site)), tuple(bonds)))
    return tuple(steps), width


def build_stack(
    lattice: LatticeSpec,
    entries: np.ndarray,
    parity: tuple[int, ...],
    cap: int = DEFAULT_MODE_CAP,
) -> np.ndarray:
    """Physical amplitudes of a stack of tensor sets, as one ``(S, 2^N)`` array.

    ``entries`` and ``parity`` are a stack from :func:`fpeps.tensors.stack_sets`:
    ``(S, N, 2, 2, 2, 2, 2)`` tensors in site M order sharing one parity
    pattern.  Row i is the state of set i in M order; each row equals the
    set built alone.  ``cap`` bounds the peak number of live modes ``w``,
    counted before allocating; the stack holds ``S 2^w`` amplitudes.
    """
    steps, width = _plan(lattice)
    if width > cap:
        raise ResourceLimitError(
            f"peak live width of {width} modes exceeds the dense cap of {cap}"
        )
    n_sets = entries.shape[0]
    # [set, site, k, d u r l]: the auxiliary bits in slot order, alpha lowest
    matrices = (entries * site_signs()).transpose(0, 1, 2, 6, 5, 4, 3).reshape(
        n_sets, lattice.n_sites, 2, 16)
    state = _ActiveState(n_sets)
    for m, pos_a, pos_alpha, bonds in steps:
        for pos_first, pos_second in bonds:
            state.open_bond(pos_first, pos_second)
        state.project_site(pos_a, pos_alpha, matrices[:, m], parity[m])
    return state.amps


def build_fpeps(
    lattice: LatticeSpec,
    tensors: dict[Site, FPEPSTensor],
    cap: int = DEFAULT_MODE_CAP,
) -> FockVector:
    """Assemble the physical state exactly; may be the zero vector.

    Tensors are keyed by site (h, v); every site must be present.  The
    returned vector lives on the physical registry in M order.  ``cap``
    bounds the peak number of live modes, counted before allocating.  A
    stack of one for :func:`build_stack`.
    """
    amps = build_stack(lattice, *stack_sets(lattice.sites(), [tensors]), cap)
    return FockVector(physical_registry(lattice), amps[0])


def build_fpeps_reference(
    lattice: LatticeSpec,
    tensors: dict[Site, FPEPSTensor],
    cap: int = DEFAULT_MODE_CAP,
) -> FockVector:
    """Slow full-registry construction used to cross-check ``build_fpeps``."""
    total_modes = 5 * lattice.n_sites
    if total_modes > cap:
        raise ResourceLimitError(
            f"{total_modes} combined modes exceed the dense cap of {cap}"
        )
    registry = standard_registry(lattice)
    state = vacuum(registry, cap=cap)
    for site in lattice.sites():
        state = apply_poly(state, bond_h(site, lattice))
        state = apply_poly(state, bond_v(site, lattice))
    for site in reversed(lattice.sites()):
        state = apply_poly(state, projector_q(site, tensors[site]))
    n_phys = lattice.n_sites
    phys_amps = state.amplitudes[: 1 << n_phys].copy()
    return FockVector(physical_registry(lattice), phys_amps)
