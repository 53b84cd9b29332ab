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
live modes enter as a +-1 mask.  The slots every bond and projector act on,
and their sign vectors, depend on the lattice alone: ``_schedule`` derives
them once per lattice, so a build does array operations only.  Each set's
products are the ones it would get alone, so a row does not depend on its
stack.  ``build_fpeps`` is a stack of one.  The cap limits the peak live
width, not the total mode count: 13 modes at 3x2, 16 at 3x3, 20 at 4x3.

Mode positions follow one registry of ``5N`` modes: ``a`` of site m at
position m, then each site's auxiliary quadruple (alpha, beta, gamma,
delta) at ``N + 4m + s``.  The tests compose operator polynomials over that
whole registry as the reference (``tests/fock_reference.py``); the result
is the same state.
"""
from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from .errors import ResourceLimitError
from .fock import DEFAULT_MODE_CAP, FockVector, parity_signs, physical_registry
from .lattice import LatticeSpec, Site
from .tensors import FPEPSTensor, stack_sets

SQRT_HALF = 1.0 / np.sqrt(2.0)


@cache
def site_signs() -> np.ndarray:
    """Signs s[k, l, r, u, d] = <k 0000| monomial |0 l r u d> on one site.

    The five modes are ordered (a, alpha, beta, gamma, delta), as in the
    registry, so ``A * s`` are the matrix elements of ``Q``
    between the site's auxiliary occupations and its physical one.  The
    ``n = l + r + u + d`` annihilators empty the creators in creation order,
    which reverses a word of ``n`` fermion operators: ``(-1)^(n(n-1)/2)``.
    """
    n = np.indices((2,) * 5)[1:].sum(axis=0)
    signs = (-1.0) ** (n * (n - 1) // 2)
    signs.flags.writeable = False  # one cached table for every caller
    return signs


# an entry is one lattice's plan: a few small tuples
@lru_cache(maxsize=128)
def _plan(lattice: LatticeSpec):
    """Each site's projector step in action order, and the peak live width.

    A step is the site's index m in M order, the registry positions of its
    ``a`` and ``alpha`` modes (m and N + 4m), and the bonds to open before
    its projector.  A bond is opened by the first of its two sites to act.
    A horizontal bond pairs ``beta`` (quadruple offset 1) of its source
    with ``alpha`` (offset 0) of its target, a vertical one ``delta`` (3)
    with ``gamma`` (2).
    """
    n = lattice.n_sites
    right, left = lattice.shifted(1, 0).tolist(), lattice.shifted(-1, 0).tolist()
    north, south = lattice.shifted(0, 1).tolist(), lattice.shifted(0, -1).tolist()
    opened: set = set()
    steps = []
    live = width = 0
    for m in reversed(range(n)):
        bonds = []
        # (alpha or gamma offset of the bond kind, source site, target site)
        for o, source, target in ((0, m, right[m]), (0, left[m], m),
                                  (2, m, north[m]), (2, south[m], m)):
            if (o, source) not in opened:
                opened.add((o, source))
                bonds.append((n + 4 * source + o + 1, n + 4 * target + o))
        live += 2 * len(bonds)
        width = max(width, live)
        live -= 3  # four auxiliary modes leave, the physical one joins
        steps.append((m, m, n + 4 * m, tuple(bonds)))
    return tuple(steps), width


# an entry is one lattice's schedule; its sign vectors hold fewer than 2^w
# floats (1.95 million at 4x4, w = 24), less than one set's amplitudes
@lru_cache(maxsize=32)
def _schedule(lattice: LatticeSpec):
    """The slots of :func:`_plan`: each step as ``(m, bonds, first, signs)``.

    Bit i of an amplitude index is slot i, the i-th live mode by registry
    position, so Jordan-Wigner signs agree with the full-registry
    computation (every other mode is empty and contributes no parity).  A
    bond is ``(below, between, pair)``: the number of live modes below its
    lower mode and between its two modes, and the signs of the occupied
    pair, ``+-sqrt(1/2) parity_signs(between)``.  Live modes below both new
    ones are counted twice and cancel, so the pair picks up the parity of
    the modes between them, and -1 when the second mode precedes the first.
    ``first`` is the slot of the site's ``alpha``, the lowest of its four
    contiguous auxiliary slots; the projector's annihilators pass the
    ``first`` modes below it, whose parity ``signs`` is.  Projectors act in
    descending M and the physical modes come first in the registry, so a new
    ``a(site)`` is always slot 0 and ``a^dag`` picks up no sign.  Read-only.
    """
    live = 0  # bit p is set while registry position p is live

    def count_below(pos):
        return (live & ((1 << pos) - 1)).bit_count()

    pairs = {}  # one read-only vector per (between, order), shared by its bonds
    steps = []
    for m, pos_a, pos_alpha, bonds in _plan(lattice)[0]:
        opened = []
        for pos_first, pos_second in bonds:
            pos_lo, pos_hi = sorted((pos_first, pos_second))
            below = count_below(pos_lo)
            between = count_below(pos_hi) - below
            key = between, pos_second < pos_first
            if key not in pairs:
                pairs[key] = (-SQRT_HALF if key[1] else SQRT_HALF) * parity_signs(between)
                pairs[key].flags.writeable = False
            opened.append((below, between, pairs[key]))
            live |= 1 << pos_lo | 1 << pos_hi
        first = count_below(pos_alpha)
        live = live & ~(15 << pos_alpha) | 1 << pos_a
        steps.append((m, tuple(opened), first, parity_signs(first)))
    return tuple(steps)


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
    counted before allocating; the stack holds ``S 2^w`` amplitudes, with
    bit i of a row's index on slot i of :func:`_schedule`.
    """
    width = _plan(lattice)[1]
    if width > cap:
        raise ResourceLimitError(
            f"peak live width of {width} modes exceeds the dense cap of {cap}"
        )
    n_sets = entries.shape[0]
    # [set, site, k, d u r l]: the auxiliary bits in slot order, alpha lowest
    matrices = (entries * site_signs()).transpose(0, 1, 2, 6, 5, 4, 3).reshape(
        n_sets, lattice.n_sites, 2, 16)
    amps = np.ones((n_sets, 1), dtype=complex)
    for m, bonds, first, signs in _schedule(lattice):
        # (1 + c^dag_first c^dag_second) / sqrt(2) on two fresh modes
        for below, between, pair in bonds:
            old = amps.reshape(n_sets, -1, 1 << between, 1 << below)
            new = np.zeros((n_sets, old.shape[1], 2, 1 << between, 2, 1 << below), dtype=complex)
            np.multiply(old, SQRT_HALF, out=new[:, :, 0, :, 0, :])
            np.multiply(old, pair[:, None], out=new[:, :, 1, :, 1, :])
            amps = new.reshape(n_sets, -1)
        # the projector: one (below, 16) x (16, 2) product per set and value
        # of the modes above; the annihilators pass the modes below alpha
        # when l + r + u + d is odd, that is when k differs from the parity
        amps = amps.reshape(n_sets, -1, 16, 1 << first)  # [set, above, d u r l, below]
        out = amps.transpose(0, 1, 3, 2) @ matrices[:, m].transpose(0, 2, 1)[:, None]
        out[..., 1 - parity[m]] *= signs  # [set, above, below, k]
        amps = out.reshape(n_sets, -1)
    return amps


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
    amps = build_stack(lattice, *stack_sets(lattice, [tensors]), cap)
    return FockVector(physical_registry(lattice), amps[0])

