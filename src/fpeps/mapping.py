"""Sign-resolved mapping from fermionic site tensors to spin PEPS tensors.

The fermionic state assembled by :func:`fpeps.build.build_fpeps` equals, for
every bond-index configuration, a spin PEPS amplitude times a sign that
splits into three pieces:

* a local sign ``(-1)^f(k, u, d, l, r)`` per site,
* a boundary factor ``(-1)^(l * Pi)`` on the first column of every row, and
* a vertical factor ``(-1)^(d * Pi)`` per site,

where ``Pi(h, v)`` is the parity of all vertical indices strictly to the
right in the same row.  ``Pi`` is nonlocal, but it telescopes along a row,
so one extra two-valued horizontal bond per link transports it: bulk tensors
enforce ``l' = (r' + u + d) mod 2`` and the last column pins ``r' = 0``.

The local tables have a closed form.  Write ``m`` for a site's 0-based M
index, ``h = m mod n_h`` and ``v = m div n_h`` for its column and row, and
``c`` for the site parities.  Then, mod 2,

    f = [n_v != 2] u d + [n_h != 2] l r + [h != 0] (u + d) l + [h = 0] l
        + [v = 0] u + a_u u + a_d d + a_l l + a_r r,

where ``a_t`` is the parity of the sites ``m < j <= e_t`` if the neighbour
``e_t`` across slot ``t`` (from ``LatticeSpec.shifted``) follows ``m`` in
M order, and 0 otherwise: one difference of a prefix sum of ``c``.  The
physical index is eliminated through ``k = (l + r + u + d + c_m) mod 2``,
and every other entry is 0.  On one column ``l`` and ``r`` are one bond
variable, read as ``r``; on one row ``u`` is read as ``d``.  The tests keep
the derivation this form replaces as its reference: it normal-orders the
whole fermionic expression as one integer form over the ``2N`` bond
occupation variables, removes the boundary and vertical pieces and checks
that every remaining monomial sits on one site.

The tables depend on nothing but the lattice and each site's parity, so each
lattice and parity pattern is derived once per process and kept in a bounded
cache; callers share the read-only stack.  So is where each entry goes: a
cached, read-only gather plan, keyed like the tables, holds for every
parity-allowed entry and each ``r'`` its flat source and destination index
and its ``+-1`` sign (the table sign times the boundary or vertical phase),
with ``r' = 1`` of the last column left out.  ``map_stack`` maps a stack of
tensor sets that share one parity pattern with one gather, one multiply and
one indexed write; ``map_tensor_set`` is a stack of one.
"""
from __future__ import annotations

import functools

import numpy as np

from .lattice import LatticeSpec, Site, site_order
from .tensors import _PARITY, FPEPSTensor, parity_pattern, stack_sets

# table entries [k, u, d, l, r] as five rows of 32 columns
_ENTRIES = np.indices((2,) * 5).reshape(5, 32)


def derive_sign_functions(lattice: LatticeSpec, parity=None) -> np.ndarray:
    """Local sign tables of every site, as one read-only stack.

    The stack is a ``(N, 2, 2, 2, 2, 2)`` uint8 array of values 0 or 1,
    indexed ``[site, k, u, d, l, r]`` with sites in M order.
    ``parity`` is None (all even) or a per-site mapping.  The tables are
    the closed form of the module docstring.  Repeated calls with the same
    lattice and parities return the same stack.
    """
    return _sign_tables(lattice, parity_pattern(lattice, parity))


# an entry is one lattice's (N, 2, 2, 2, 2, 2) stack for one parity pattern
@functools.lru_cache(maxsize=128)
def _sign_tables(lattice: LatticeSpec, parities: tuple[int, ...]) -> np.ndarray:
    n_h, n_v, n = lattice.n_h, lattice.n_v, lattice.n_sites
    c = np.array(parities)
    site = np.arange(n)
    _k, u, d, l, r = _ENTRIES
    # a self-loop bond is one variable in two slots, read as the later one
    if n_h == 1:
        l = r
    if n_v == 1:
        u = d
    # A bond's creator passes exactly the fermions that lie between its
    # endpoints in M order, so each slot whose neighbour follows the site
    # carries the parity of the sites after it up to that neighbour.
    ends = np.stack([lattice.shifted(0, -1), lattice.shifted(0, 1),
                     lattice.shifted(-1, 0), lattice.shifted(1, 0)], axis=1)  # u, d, l, r
    prefix = np.cumsum(c)
    passed = np.where(ends > site[:, None], prefix[ends] - prefix[:, None], 0)
    first = (site % n_h == 0)[:, None]
    tables = ((n_v != 2) * u * d + (n_h != 2) * l * r + ~first * (u + d) * l + first * l
              + (site < n_h)[:, None] * u + passed @ np.stack([u, d, l, r])) % 2
    # parity is a bit count, the same in the table's axis order
    tables *= _PARITY.reshape(32) == c[:, None]
    tables = tables.reshape((n,) + (2,) * 5).astype(np.uint8)
    tables.flags.writeable = False
    return tables


# an entry is one lattice's plan for one parity pattern: per site 32 mapped
# entries (16 allowed entries, each for r' = 0 and 1; 16 on the last column)
# of two int64 indices and one float sign, 768 bytes
@functools.lru_cache(maxsize=128)
def _map_plan(lattice: LatticeSpec, parities: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Flat destinations in the ``(N, 2^7)`` spin stack, flat sources in the
    ``(N, 2^5)`` fermionic stack and the signs of every mapped entry; the
    pattern comes checked, from ``stack_sets`` or ``random_stack``."""
    n_h, n = lattice.n_h, lattice.n_sites
    allowed = _PARITY == np.array(parities).reshape((n,) + (1,) * 5)
    # every allowed entry [site, k, l, r, u, d], once for r' = 0 and once for r' = 1
    m, k, l, r, u, d = np.repeat(np.nonzero(allowed), 2, axis=1)
    rp = np.tile([0, 1], len(m) // 2)
    first = m % n_h == 0
    lp = np.where(first, 0, (rp + u + d) % 2)
    phase = np.where(first, d + l, d) * rp
    keep = (rp == 0) | (m % n_h != n_h - 1)
    f = _sign_tables(lattice, parities)[m, k, u, d, l, r]
    plan = (np.ravel_multi_index((m, k, l, lp, r, rp, u, d), (n,) + (2,) * 7)[keep],
            np.ravel_multi_index((m, k, l, r, u, d), (n,) + (2,) * 5)[keep],
            ((-1.0) ** (f + phase))[keep])
    for array in plan:
        array.flags.writeable = False
    return plan


def map_stack(lattice: LatticeSpec, entries: np.ndarray, parity: tuple[int, ...]) -> np.ndarray:
    """Spin tensors of a stack of tensor sets, as one ``(S, N, 2, 2, 2, 2, 2, 2, 2)`` array.

    ``entries`` and ``parity`` are a stack from :func:`fpeps.tensors.stack_sets`:
    ``(S, N, 2, 2, 2, 2, 2)`` tensors in site M order sharing one parity
    pattern, so one cached gather plan serves every set.  Entry ``[i, m]`` is
    B[k, l, l', r, r', u, d] of site ``m`` of set ``i``.  First-column
    tensors only populate l' = 0 and carry the boundary phase
    (-1)^((d + l) r'); bulk tensors enforce l' = (r' + u + d) mod 2 with
    phase (-1)^(d r'); the last column additionally pins r' = 0.
    """
    dst, src, sign = _map_plan(lattice, tuple(parity))
    n_sets, n = entries.shape[0], lattice.n_sites
    out = np.zeros((n_sets, n * 2**7), dtype=complex)
    # + 0.0: an allowed entry that is zero is written as 0.0, never -0.0
    out[:, dst] = entries.reshape(n_sets, n * 2**5)[:, src] * sign + 0.0
    return out.reshape((n_sets, n) + (2,) * 7)


def map_tensor_set(
    lattice: LatticeSpec,
    tensors: dict[Site, FPEPSTensor],
    parity=None,
) -> dict[Site, np.ndarray]:
    """Spin tensors B[k, l, l', r, r', u, d] of every site, in one pass.

    The sign tables are derived for the tensors' own parities; ``parity``,
    if given, must agree with them.  A stack of one for :func:`map_stack`;
    each site's ``(2,)*7`` array is a view of the one mapped stack.
    """
    entries, own = stack_sets(lattice, [tensors], parity)
    return dict(zip(site_order(lattice), map_stack(lattice, entries, own)[0]))
