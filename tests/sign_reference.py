"""The normal-ordering derivation of the local sign tables: the reference of
``fpeps.mapping``'s closed form.

``normal_ordered_sign_tables`` normal-orders the full fermionic expression
as one integer matrix over the ``2N`` bond occupation variables (every
anticommutation adds a product of two variables), adds the boundary and
vertical pieces, reduces mod 2 and checks that every remaining monomial sits
on one site.  A failure to split raises, so any convention drift between
this derivation and the dense oracle is loud.

Bond variable ``m`` is the horizontal bond leaving site ``m`` rightward and
``N + m`` the vertical bond leaving it toward ``v + 1``.  The physical index
of each site is eliminated through the tensor parity constraint
``k = (l + r + u + d + c) mod 2``.  The tables come out as
``derive_sign_functions`` returns them: a ``(N, 2, 2, 2, 2, 2)`` uint8 stack
indexed ``[site, k, u, d, l, r]`` in M order.

``scatter_map_stack`` is the reference of ``fpeps.mapping._map_plan``: the
scatter form of ``map_stack`` that the plan replaced.  It multiplies the whole
stack by the ``+-1`` table signs, scans the nonzero entries, writes them once
per ``r'`` with the phase, and zeroes ``r' = 1`` on the last column.
"""
import numpy as np

from fpeps.errors import ContractViolationError
from fpeps.lattice import LatticeSpec
from fpeps.mapping import _sign_tables
from fpeps.tensors import _PARITY

# table entries [k, u, d, l, r] as 32 columns; rows are the values of the
# local bonds in slot order (l, r, u, d)
_SLOT_VALUES = np.indices((2,) * 5).reshape(5, 32)[[3, 4, 1, 2]]


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


def normal_ordered_sign_tables(lattice: LatticeSpec, parities: tuple[int, ...]) -> np.ndarray:
    """Sign tables of every site for the site parities ``parities`` in M order."""
    n = lattice.n_sites
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
    return tables.reshape((n,) + (2,) * 5).astype(np.uint8)


def scatter_map_stack(lattice: LatticeSpec, entries: np.ndarray, parity) -> np.ndarray:
    """Spin tensors of a ``(S, N, 2, 2, 2, 2, 2)`` stack, as ``map_stack`` returns them."""
    # the sign tables are indexed [site, k, u, d, l, r], the entries [site, k, l, r, u, d]
    signs = (-1.0) ** _sign_tables(lattice, tuple(parity)).transpose(0, 1, 4, 5, 2, 3)
    nonzero = np.nonzero(entries)
    i, m, k, l, r, u, d = nonzero
    base = (entries * signs)[nonzero]
    first = m % lattice.n_h == 0
    out = np.zeros(entries.shape[:2] + (2,) * 7, dtype=complex)
    for rp in (0, 1):
        lp = np.where(first, 0, (rp + u + d) % 2)
        out[i, m, k, l, lp, r, rp, u, d] = base * (-1.0) ** (np.where(first, d + l, d) * rp)
    out[:, lattice.n_h - 1::lattice.n_h, ..., 1, :, :] = 0.0
    return out
