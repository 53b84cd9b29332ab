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
symbolically normal-orders the full fermionic expression over GF(2)
(every anticommutation contributes a quadratic monomial in the bond
occupation variables), subtracts the boundary and vertical pieces, and
checks that the remainder splits site-locally.  A failure to split raises,
so any convention drift between this module and the dense oracle is loud.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .lattice import LatticeSpec, Site
from .tensors import FPEPSTensor, PEPSTensor, SignFunction

# ---------------------------------------------------------------------------
# GF(2) linear/quadratic forms over bond-occupation variables


class _Lin:
    """Affine form over GF(2): xor of variables plus a constant bit."""

    __slots__ = ("vars", "const")

    def __init__(self, vars_=(), const=0):
        self.vars = frozenset(vars_)
        self.const = const & 1

    def __xor__(self, other: "_Lin") -> "_Lin":
        return _Lin(self.vars ^ other.vars, self.const ^ other.const)


def _quad_add_product(quad: dict, a: _Lin, b: _Lin):
    """quad += a*b over GF(2); keys are frozensets of 0..2 variables."""

    def flip(key):
        quad[key] = quad.get(key, 0) ^ 1
        if not quad[key]:
            del quad[key]

    for va in a.vars:
        for vb in b.vars:
            flip(frozenset((va, vb)))  # va == vb collapses: x*x = x
    if b.const:
        for va in a.vars:
            flip(frozenset((va,)))
    if a.const:
        for vb in b.vars:
            flip(frozenset((vb,)))
    if a.const and b.const:
        flip(frozenset())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BondVars:
    """Variable ids of the bond occupations on a lattice."""

    lattice: LatticeSpec

    def x(self, site: Site) -> int:
        """Horizontal bond leaving ``site`` rightward."""
        return self.lattice.site_index(site)

    def y(self, site: Site) -> int:
        """Vertical bond leaving ``site`` upward."""
        return self.lattice.n_sites + self.lattice.site_index(site)

    def local_vars(self, site: Site) -> dict[str, int]:
        lat = self.lattice
        return {
            "l": self.x(lat.left(site)),
            "r": self.x(site),
            "u": self.y(lat.south(site)),
            "d": self.y(site),
        }


def _normalize_parity(lattice: LatticeSpec, parity) -> dict[Site, int]:
    if parity is None:
        return {s: 0 for s in lattice.sites()}
    if isinstance(parity, int):
        return {s: parity for s in lattice.sites()}
    out = {lattice.wrap(s): int(c) for s, c in dict(parity).items()}
    missing = [s for s in lattice.sites() if s not in out]
    if missing:
        raise ContractViolationError(f"parity assignment missing sites {missing}")
    return out


def _total_sign_form(lattice: LatticeSpec, parity: dict[Site, int]) -> dict:
    """Exact GF(2) quadratic form of the fermionic amplitude sign.

    Variables are the bond occupations; the physical index of each site is
    eliminated through the tensor parity constraint
    ``k = (l + r + u + d + c) mod 2``.
    """
    bonds = _BondVars(lattice)
    sites = lattice.sites()
    quad: dict = {}

    # Step 1: commute every physical creation operator to the left, out of
    # the ascending-M site product.  Moving a^dag of site M past the
    # auxiliary monomials of all earlier sites costs k_M * sum_{M'<M} q_M'.
    prefix = _Lin()
    for s in sites:
        lv = bonds.local_vars(s)
        q = _Lin((lv["l"],)) ^ _Lin((lv["r"],)) ^ _Lin((lv["u"],)) ^ _Lin((lv["d"],))
        k = q ^ _Lin((), parity[s])
        _quad_add_product(quad, k, prefix)
        prefix = prefix ^ q

    # Step 2: cancel every auxiliary annihilator against its bond creator.
    # Creator string (left to right), all bond pairs in ascending M order;
    # pair order within the string is free because the pairs are even.
    creators: list[tuple[tuple[str, Site], int]] = []
    for s in sites:
        creators.append((("beta", s), bonds.x(s)))
        creators.append((("alpha", lattice.right(s)), bonds.x(s)))
        creators.append((("delta", s), bonds.y(s)))
        creators.append((("gamma", lattice.north(s)), bonds.y(s)))

    annihilators: list[tuple[tuple[str, Site], int]] = []
    for s in sites:
        lv = bonds.local_vars(s)
        annihilators.append((("alpha", s), lv["l"]))
        annihilators.append((("beta", s), lv["r"]))
        annihilators.append((("gamma", s), lv["u"]))
        annihilators.append((("delta", s), lv["d"]))

    for label, var in reversed(annihilators):
        for pos, (clabel, cvar) in enumerate(creators):
            if clabel == label:
                if cvar != var:
                    raise ContractViolationError(
                        f"bond variable mismatch at {label}: {cvar} vs {var}"
                    )
                del creators[pos]
                break
            _quad_add_product(quad, _Lin((var,)), _Lin((cvar,)))
        else:
            raise ContractViolationError(f"no creator found for {label}")
    if creators:
        raise ContractViolationError(f"unmatched bond creators left: {creators}")
    return quad


def _transport_form(lattice: LatticeSpec) -> dict:
    """Boundary and vertical sign pieces carried by the extra bonds."""
    bonds = _BondVars(lattice)
    quad: dict = {}
    for v in range(1, lattice.n_v + 1):
        for h in range(1, lattice.n_h + 1):
            s = (h, v)
            pi = _Lin()
            for j in range(h + 1, lattice.n_h + 1):
                t = (j, v)
                lv = bonds.local_vars(t)
                pi = pi ^ _Lin((lv["u"],)) ^ _Lin((lv["d"],))
            d_form = _Lin((bonds.local_vars(s)["d"],))
            _quad_add_product(quad, d_form, pi)
            if h == 1:
                l_form = _Lin((bonds.local_vars(s)["l"],))
                _quad_add_product(quad, l_form, pi)
    return quad


def derive_sign_functions(lattice: LatticeSpec, parity=None) -> dict[Site, SignFunction]:
    """Local sign tables for every site of the lattice.

    ``parity`` is None (all even), a single int, or a per-site mapping.  The
    residual quadratic form after removing the transported pieces must split
    site-locally; a cross-site leftover raises ``ContractViolationError``.
    The constant term (a global sign) is folded into the table of site
    (1, 1).
    """
    parity = _normalize_parity(lattice, parity)
    bonds = _BondVars(lattice)
    residual = _total_sign_form(lattice, parity)
    for key, bit in _transport_form(lattice).items():
        residual[key] = residual.get(key, 0) ^ bit
        if not residual[key]:
            del residual[key]

    n = lattice.n_sites

    def visible_sites(var: int) -> set[Site]:
        if var < n:
            site = lattice.sites()[var]
            return {site, lattice.right(site)}
        site = lattice.sites()[var - n]
        return {site, lattice.north(site)}

    per_site: dict[Site, list[frozenset]] = {s: [] for s in lattice.sites()}
    const_bit = 0
    for key, bit in residual.items():
        if not bit:
            continue
        if not key:
            const_bit ^= 1
            continue
        options = None
        for var in key:
            vis = visible_sites(var)
            options = vis if options is None else options & vis
        if not options:
            raise ContractViolationError(
                f"sign derivation failed: monomial {sorted(key)} is not site-local"
            )
        owner = min(options, key=lattice.site_index)
        per_site[owner].append(key)

    tables: dict[Site, SignFunction] = {}
    for s in lattice.sites():
        lv = bonds.local_vars(s)
        table = np.zeros((2,) * 5, dtype=np.uint8)
        for k in (0, 1):
            for u in (0, 1):
                for d in (0, 1):
                    for l in (0, 1):
                        for r in (0, 1):
                            if (k + u + d + l + r) % 2 != parity[s]:
                                continue
                            # Self-loop bonds alias two local indices onto one
                            # variable; assignment order gives r and d priority
                            # (the aliased entries only matter when equal).
                            value = {lv["l"]: l, lv["u"]: u, lv["r"]: r, lv["d"]: d}
                            acc = 0
                            for key in per_site[s]:
                                prod = 1
                                for var in key:
                                    prod &= value[var]
                                acc ^= prod
                            table[k, u, d, l, r] = acc
        if s == (1, 1) and const_bit:
            table ^= 1
        tables[s] = SignFunction(table)
    return tables


# ---------------------------------------------------------------------------


def map_to_peps(
    tensor: FPEPSTensor,
    site: Site,
    sign: SignFunction,
    lattice: LatticeSpec,
) -> PEPSTensor:
    """Spin tensor B[k, l, l', r, r', u, d] of one site.

    First-column tensors only populate l' = 0 and carry the boundary phase
    (-1)^((d + l) r'); bulk tensors enforce l' = (r' + u + d) mod 2 with
    phase (-1)^(d r'); the last column additionally pins r' = 0.
    """
    tensor.validate()
    h, _ = lattice.wrap(site)
    first = h == 1
    last = h == lattice.n_h
    out = np.zeros((2,) * 7, dtype=complex)
    for (k, l, r, u, d), a_val in tensor.nonzero_items():
        base = a_val * (-1.0) ** sign(k, u, d, l, r)
        for rp in (0, 1):
            if last and rp != 0:
                continue
            if first:
                lp = 0
                phase = (-1.0) ** ((d + l) * rp)
            else:
                lp = (rp + u + d) % 2
                phase = (-1.0) ** (d * rp)
            out[k, l, lp, r, rp, u, d] = base * phase
    return PEPSTensor(out)


def map_tensor_set(
    lattice: LatticeSpec,
    tensors: dict[Site, FPEPSTensor],
    parity=None,
) -> dict[Site, PEPSTensor]:
    """Map every site tensor with freshly derived sign tables."""
    signs = derive_sign_functions(lattice, parity)
    return {
        s: map_to_peps(tensors[s], s, signs[s], lattice) for s in lattice.sites()
    }
