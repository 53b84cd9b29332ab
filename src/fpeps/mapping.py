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

The local tables ``f`` are not hand-derived.  ``derive_sign_functions``
normal-orders the full fermionic expression as one integer matrix over the
``2N`` bond occupation variables (every anticommutation adds a product of
two variables), adds the boundary and vertical pieces, reduces mod 2 and
checks that every remaining monomial sits on one site.  A failure to split
raises, so any convention drift between this module and the dense oracle is
loud.

The tables depend on nothing but the lattice and each site's parity, so each
lattice and parity pattern is derived once per process and kept in a bounded
cache; callers share the read-only stack.  A failed derivation is not cached.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ContractViolationError, refuse_over_limit
from .lattice import LatticeSpec, Site
from .tensors import _PARITY, FPEPSTensor, PEPSTensor

# table entries [k, u, d, l, r] as 32 columns; rows are the values of the
# local bonds in slot order (l, r, u, d)
_SLOT_VALUES = np.indices((2,) * 5).reshape(5, 32)[[3, 4, 1, 2]]


def _normalize_parity(lattice: LatticeSpec, parity) -> dict[Site, int]:
    if parity is None:
        return {s: 0 for s in lattice.sites()}
    out = {lattice.wrap(s): int(c) for s, c in dict(parity).items()}
    missing = [s for s in lattice.sites() if s not in out]
    if missing:
        raise ContractViolationError(f"parity assignment missing sites {missing}")
    return out


def _transport_form(lattice: LatticeSpec, slots: np.ndarray) -> np.ndarray:
    """Boundary and vertical sign pieces carried by the extra bonds.

    ``slots[s, t]`` is the one-hot bond variable of slot t (l, r, u, d) at
    site s.  The result is the product matrix of ``d_s Pi_s`` over all sites
    plus ``l_s Pi_s`` over the first column.
    """
    rows = (slots[:, 2] + slots[:, 3]).reshape(lattice.n_v, lattice.n_h, -1)
    pi = (rows[:, ::-1].cumsum(axis=1)[:, ::-1] - rows).reshape(lattice.n_sites, -1)
    first = (np.arange(lattice.n_sites) % lattice.n_h == 0)[:, None]
    return (slots[:, 3] + first * slots[:, 0]).T @ pi


def derive_sign_functions(lattice: LatticeSpec, parity=None) -> np.ndarray:
    """Local sign tables of every site, as one read-only stack.

    The stack is a ``(N, 2, 2, 2, 2, 2)`` uint8 array of values 0 or 1,
    indexed ``[site, k, u, d, l, r]`` with sites in M order.
    ``parity`` is None (all even) or a per-site mapping.  The
    residual quadratic form after removing the transported pieces must split
    site-locally; a cross-site leftover raises ``ContractViolationError``,
    as does a lattice whose derivation would pass ``errors.MAX_FLOATS``.
    Repeated calls with the same lattice and parities return the same stack.

    Bond variable ``m`` is the horizontal bond leaving site ``m`` rightward
    and ``N + m`` the vertical bond leaving it toward ``v + 1``.  The
    physical index of each site is eliminated through the tensor parity
    constraint ``k = (l + r + u + d + c) mod 2``.
    """
    parity = _normalize_parity(lattice, parity)
    return _sign_tables(lattice, tuple(parity[s] for s in lattice.sites()))


# an entry is one lattice's (N, 2, 2, 2, 2, 2) stack for one parity pattern
@functools.lru_cache(maxsize=128)
def _sign_tables(lattice: LatticeSpec, parities: tuple[int, ...]) -> np.ndarray:
    n = lattice.n_sites
    # tracemalloc peaks of 42.0-42.3 floats per N^2, 10x10 to 30x30
    refuse_over_limit(43 * n**2, f"the sign derivation of the {lattice.n_h}x{lattice.n_v} lattice")
    c = np.array(parities)
    site = np.arange(n)
    left, south = lattice.shifted(-1, 0), lattice.shifted(0, -1)
    local = np.stack([left, site, n + south, n + site], axis=1)  # slots l, r, u, d
    # one-hot (N, 4, 2N); the integer counts are held as floats so that the
    # products run in BLAS, exact far beyond any lattice that fits in memory
    slots = np.eye(2 * n)[local]

    # Step 1: commute every physical creation operator to the left, out of
    # the ascending-M site product.  Moving a^dag of site M past the
    # auxiliary monomials of all earlier sites costs k_M * sum_{M'<M} q_M'.
    q = slots.sum(axis=1)
    prefix = q.cumsum(axis=0) - q
    form = q.T @ prefix + np.diag(c @ prefix)

    # Step 2: cancel the auxiliary annihilators alpha_m beta_m gamma_m delta_m
    # (M order, undone from the right) against the creator string
    # beta_m alpha_right(m) delta_m gamma_north(m) (M order), whose variables
    # are r_m, r_m, d_m, d_m.  Annihilator j meets its creator at match[j].
    match = np.stack([4 * left + 1, 4 * site, 4 * south + 3, 4 * site + 2], axis=1).ravel()
    if not (np.array_equal(np.sort(match), np.arange(4 * n))
            and np.array_equal(local[:, [1, 1, 3, 3]].ravel()[match], local.ravel())):
        raise ContractViolationError("bond creators do not match the annihilators one to one")
    # Annihilator j passes the creator of every earlier annihilator i < j
    # that stands left of its own; each pass adds x_var(j) x_var(i).
    passes = np.triu(match[:, None] < match[None, :], 1)
    var_rows = slots.reshape(4 * n, 2 * n)  # row j: the variable of annihilator j
    form += var_rows.T @ passes.T @ var_rows

    # Remove the transported pieces (mod 2 a sum), then fold to monomials:
    # x_a x_b (a < b) above the diagonal, x_a x_a = x_a on it.
    form += _transport_form(lattice, slots)
    monomials = (np.triu(form + form.T, 1) + np.diag(np.diag(form))) % 2
    a, b = np.nonzero(monomials)

    # Each monomial belongs to the first site that sees both variables.
    sees = slots.any(axis=1)  # (N, 2N)
    shared = sees[:, a] & sees[:, b]
    if not shared.any(axis=0).all():
        bad = int(np.argmin(shared.any(axis=0)))
        raise ContractViolationError(
            f"sign derivation failed: monomial {sorted({int(a[bad]), int(b[bad])})} "
            "is not site-local"
        )
    owner = shared.argmax(axis=0)

    # Self-loop bonds alias two slots onto one variable; the last matching
    # slot wins, so r takes priority over l and d over u (the aliased
    # entries only matter when equal).
    def slot_of(var_ids):
        return 3 - (local[owner][:, ::-1] == var_ids[:, None]).argmax(axis=1)

    per_site = np.zeros((n, 4, 4), dtype=np.int64)
    np.add.at(per_site, (owner, slot_of(a), slot_of(b)), 1)
    tables = np.einsum("sij,ig,jg->sg", per_site, _SLOT_VALUES, _SLOT_VALUES) % 2
    # parity is a bit count, the same in the table's axis order
    tables *= _PARITY.reshape(32) == c[:, None]
    tables = tables.reshape((n,) + (2,) * 5).astype(np.uint8)
    tables.flags.writeable = False
    return tables


def tensor_parity(
    lattice: LatticeSpec, tensors: dict[Site, FPEPSTensor], parity=None
) -> dict[Site, int]:
    """The parity each site's tensor carries.

    ``parity``, if given, is a per-site mapping that must agree with it.
    """
    own = {s: tensors[s].parity for s in lattice.sites()}
    if parity is not None:
        given = _normalize_parity(lattice, parity)
        wrong = [s for s in lattice.sites() if given[s] != own[s]]
        if wrong:
            raise ContractViolationError(
                f"parity argument disagrees with the tensors' parity at sites {wrong}"
            )
    return own


def map_tensor_set(
    lattice: LatticeSpec,
    tensors: dict[Site, FPEPSTensor],
    parity=None,
) -> dict[Site, PEPSTensor]:
    """Spin tensors B[k, l, l', r, r', u, d] of every site, in one pass.

    The sign tables are derived for the tensors' own parities; ``parity``,
    if given, must agree with them.  First-column tensors only populate
    l' = 0 and carry the boundary phase (-1)^((d + l) r'); bulk tensors
    enforce l' = (r' + u + d) mod 2 with phase (-1)^(d r'); the last column
    additionally pins r' = 0.
    """
    signs = derive_sign_functions(lattice, tensor_parity(lattice, tensors, parity))
    entries = np.stack([tensors[s].entries for s in lattice.sites()])
    nonzero = np.nonzero(entries)
    m, k, l, r, u, d = nonzero
    # the sign tables are indexed [site, k, u, d, l, r]
    base = (entries * (-1.0) ** signs.transpose(0, 1, 4, 5, 2, 3))[nonzero]
    first = m % lattice.n_h == 0
    out = np.zeros((lattice.n_sites,) + (2,) * 7, dtype=complex)
    for rp in (0, 1):
        lp = np.where(first, 0, (rp + u + d) % 2)
        out[m, k, l, lp, r, rp, u, d] = base * (-1.0) ** (np.where(first, d + l, d) * rp)
    out[lattice.n_h - 1::lattice.n_h, ..., 1, :, :] = 0.0
    return {s: PEPSTensor(b) for s, b in zip(lattice.sites(), out)}
