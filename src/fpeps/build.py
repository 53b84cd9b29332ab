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

``build_stack`` builds a stack of tensor sets and keeps only the live modes
(projector pending, or physical mode created), as one dense ``(S, 2^w)``
array with a row per set.  A site opens its fresh bonds inside its
projector: their ends on the site are contracted at once and only the
partner ends join, with the occupations the product gives them; a bond
with both ends on the site (one row, one column) opens and closes in the
same product.  A site is one batched ``matmul`` with a small matrix per
set, gathered from its tensor, and one reordering copy that puts the new
modes at their slots with the Jordan-Wigner signs of the other live modes.
Slots, signs and gathers depend on the lattice alone: ``_schedule``
derives them once per lattice, so a build does array operations only.
Each set's products are the ones it would get alone, so a row does not
depend on its stack.  ``build_fpeps`` is a stack of one.  A stack's
memory charge is the one size rule: it grows with the peak live width (10
modes at 3x2, 13 at 3x3, 17 at 4x3, 21 at 4x4), up to 24 for one set.

Mode positions follow one registry of ``5N`` modes: ``a`` of site m at
position m, then each site's auxiliary quadruple (alpha, beta, gamma,
delta) at ``N + 4m + s``.  The tests compose operator polynomials over that
whole registry as the reference (``tests/fock_reference.py``); the result
is the same state.
"""
from __future__ import annotations

from functools import cache, lru_cache
from itertools import groupby

import numpy as np

from .errors import ResourceLimitError, refuse_over_limit
from .fock import FockVector, physical_registry
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
    ``a`` and ``alpha`` modes (m and N + 4m), and the bonds it opens.  A bond
    is opened by the first of its two sites to act.  A horizontal bond pairs
    ``beta`` (quadruple offset 1) of its source with ``alpha`` (offset 0) of
    its target, a vertical one ``delta`` (3) with ``gamma`` (2).
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
        # each opened bond's two modes join, the site's four leave and a joins
        live += 2 * len(bonds) - 3
        width = max(width, live)
        steps.append((m, m, n + 4 * m, tuple(bonds)))
    return tuple(steps), width


# an entry is one lattice's schedule: 2^(5 - L) gathered entries per site and
# one int8 sign per output amplitude of each step, 8.4 MiB in all at 4x4
@lru_cache(maxsize=32)
def _schedule(lattice: LatticeSpec):
    """The gather ``(index, coeff)`` of every site's matrix, and each step
    as ``(m, old, shape, axes, signs)``.

    Bit i of an amplitude index is slot i, the i-th live mode by registry
    position.  Every live auxiliary mode sits on a site yet to act, so a
    step's old ends (its site's modes paired earlier) are the highest slots,
    above the spectators.  Its matrix, ``rows`` by ``old = 2^(old ends)``,
    maps the old ends to ``k`` and the partners (row bits from the lowest),
    and the signs hold for either site parity.  An entry sums
    ``A[k, l, r, u, d]`` over the ``L`` self-loop bonds, times ``sqrt(1/2)``
    per bond and the signs among the site's modes and partners: the
    ``site_signs`` word, each pair passing the occupied modes between its
    ends (-1 more when its second mode precedes its first), and the
    annihilators passing the partners.  Each partner joining and each old
    end leaving passes the spectators below it: ``signs``, over the output
    in slot order, holds the partners' and the next step's old ends'.
    ``shape`` and ``axes`` group the product's ``[rows, spectators]`` bits
    into runs and put them at their slots.  Read-only.
    """
    n_loops = (lattice.n_h == 1) + (lattice.n_v == 1)
    flat_signs = site_signs().reshape(32)
    plan = _plan(lattice)[0]
    index = np.empty((lattice.n_sites, 1 << 5 - 2 * n_loops, 1 << n_loops), dtype=np.intp)
    coeff = np.empty(index.shape)
    steps = []
    live = 0  # bit p is set while registry position p is live
    for i, (m, pos_a, pos_alpha, bonds) in enumerate(plan):
        quad = 15 << pos_alpha
        old = [p for p in range(pos_alpha, pos_alpha + 4) if live >> p & 1]
        ends = [[p for p in bond if not quad >> p & 1] for bond in bonds]  # [partner] or []
        partners = sorted(sum(ends, []))
        # bits of a term j, lowest first: self-loop bonds, old ends, k, partners
        k_bit, loop_bits = n_loops + len(old), iter(range(n_loops))
        bits = [k_bit + 1 + partners.index(q[0]) if q else next(loop_bits) for q in ends]
        for j in range(2 << k_bit + len(partners)):
            occ = sum(1 << p for t, p in enumerate(old) if j >> n_loops + t & 1)
            sign = 0
            for (first, second), bit in zip(bonds, bits):
                if j >> bit & 1:  # c^dag_first c^dag_second passes the modes between
                    lo, hi = sorted((first, second))
                    sign += (second < first) + (occ & (1 << hi) - (2 << lo)).bit_count()
                    occ |= 1 << first | 1 << second
            aux = occ >> pos_alpha & 15  # alpha lowest
            sign += aux.bit_count() * (occ & ~quad).bit_count()
            entry = 16 * (j >> k_bit & 1) + sum((aux >> s & 1) << 3 - s for s in range(4))
            index[m].flat[j] = 32 * m + entry
            coeff[m].flat[j] = SQRT_HALF ** len(bonds) * (-1) ** sign * flat_signs[entry]
        spectators = live & ~quad
        live = spectators | sum(1 << q for q in partners) | 1 << pos_a
        slots = [p for p in range(live.bit_length()) if live >> p & 1]
        # the product's bits, lowest first, in runs that stay adjacent; highest run first
        source = [p for p in slots if spectators >> p & 1] + [pos_a] + partners
        runs = [[*r] for _, r in groupby(source, lambda p: slots.index(p) - source.index(p))][::-1]
        order = sorted(range(len(runs)), key=lambda r: -slots.index(runs[r][0]))
        after = 15 << plan[i + 1][2] if i + 1 < len(plan) else 0  # the next old ends
        # the slots of the next old ends and of the spectators
        ends, spectating = (sum(1 << s for s, p in enumerate(slots) if mask >> p & 1)
                            for mask in (after, spectators))
        flips = np.zeros(1, np.uint8)
        for s, p in enumerate(slots):
            # slot s set: the upper half of a table twice as long, flipped once per set slot below
            # s paired with it: a next old end and another live mode, a partner and a spectator
            pairs = (~ends if after >> p & 1 else ends) ^ (spectating if p in partners else 0)
            flips = np.concatenate([flips, flips ^ np.bitwise_count(np.arange(1 << s) & pairs) & 1])
        signs = (1 - 2 * flips.astype(np.int8)).reshape([1 << len(runs[r]) for r in order])
        signs.flags.writeable = False
        steps.append((m, 1 << len(old), tuple(1 << len(run) for run in runs),
                      (0,) + tuple(1 + r for r in order), signs))
    index.flags.writeable = coeff.flags.writeable = False
    return index, coeff, tuple(steps)


def build_stack(
    lattice: LatticeSpec,
    entries: np.ndarray,
    cap: int | None = None,
) -> np.ndarray:
    """Physical amplitudes of a stack of tensor sets, as one ``(S, 2^N)`` array.

    ``entries`` is a stack from :func:`fpeps.tensors.stack_sets`, ``(S, N, 2,
    2, 2, 2, 2)`` tensors in site M order whose nonzero entries carry each
    site's parity, so no parity pattern is read.  Row i is the state of set
    i in M order; each row equals the set built alone.  The stack is charged
    for its memory before anything is allocated, and ``cap``, when given,
    bounds the peak number of live modes ``w``; bit i of a row's index is on
    slot i of :func:`_schedule`.
    """
    width = _plan(lattice)[1]
    if cap is not None and width > cap:
        raise ResourceLimitError(f"peak live width of {width} modes exceeds the dense cap of {cap}")
    n_sets, n = entries.shape[0], lattice.n_sites
    # complex per set: the stack, its product with a site and the reordering copy, 3 2^w, the
    # gathered entries and their products with the coefficients, 64 N; numpy's two buffers for
    # the signs.  Peak/charge 1x1 x64 .08, 1x2 x64 .24, 2x2 x64 .79, 3x3 x1 .90, x64 .83, 4x4 .83
    charge = 2 * n_sets * (3 * 2**width + 64 * n) + 4 * np.getbufsize()
    refuse_over_limit(charge, f"{n_sets} sets on {lattice.n_h}x{lattice.n_v}")
    index, coeff, steps = _schedule(lattice)
    # [set, site, row x old]: every site's matrix, its self-loop terms summed
    matrices = (np.take(entries.reshape(n_sets, 32 * n), index, axis=1) * coeff).sum(axis=3)
    amps = np.ones((n_sets, 1), dtype=complex)
    # explicit sizes throughout: a stack of no sets infers none
    for m, old, shape, axes, signs in steps:
        out = (matrices[:, m].reshape(n_sets, index.shape[1] // old, old)
               @ amps.reshape(n_sets, old, amps.shape[1] // old))
        # one reordering copy puts every bit at its slot and applies the signs
        amps = np.multiply(out.reshape((n_sets,) + shape).transpose(axes), signs,
                           order="C").reshape(n_sets, signs.size)
    return amps


def build_fpeps(
    lattice: LatticeSpec,
    tensors: dict[Site, FPEPSTensor],
    cap: int | None = None,
) -> FockVector:
    """Assemble the physical state exactly; may be the zero vector.

    Tensors are keyed by site (h, v); every site must be present.  The
    returned vector lives on the physical registry in M order.  It is
    charged and ``cap`` applied as in :func:`build_stack`, of which it is a
    stack of one.
    """
    amps = build_stack(lattice, stack_sets(lattice, [tensors])[0], cap)
    return FockVector(physical_registry(lattice), amps[0])
