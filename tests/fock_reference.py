"""The Fock-space oracle route: the reference of ``fpeps.build``.

Operator polynomials act on dense vectors over the full mode registry, with
the package's one ladder kernel ``fpeps.fock._flip``.  ``standard_registry``
puts the physical modes first, in M order, then one auxiliary quadruple
(alpha, beta, gamma, delta) per site in M order: ``a`` of site m at position
m and species s of its quadruple at ``N + 4m + s``, the layout that
``fpeps.build._plan`` computes directly.  ``label_plan`` is that plan read
off the registry by label, and ``build_fpeps_reference`` composes every
bond, then every projector in descending M, and projects the auxiliary modes
onto empty, a contiguous slice of the amplitudes.

``per_bond_build_stack`` is the live-mode build that ``fpeps.build`` used
before its bonds opened inside the projectors: each bond two slice writes
on a fresh pair, each site one product, at the slots ``per_bond_schedule``
finds on a sorted list of live registry positions.  ``replay_schedule`` is
the reference of ``fpeps.build._schedule``: it replays the plan on such a
list and derives every sign from the operators as they act.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from fpeps.build import site_signs
from fpeps.errors import ContractViolationError, ResourceLimitError
from fpeps.fock import (
    _MAJORANA,
    DEFAULT_MODE_CAP,
    SPECIES,
    FockVector,
    ModeLabel,
    ModeRegistry,
    _flip,
    _parity_sectors,
    parity_signs,
    physical_registry,
)
from fpeps.lattice import LatticeSpec, Site
from fpeps.tensors import FPEPSTensor

SQRT_HALF = 1.0 / np.sqrt(2.0)


def standard_registry(lattice: LatticeSpec) -> ModeRegistry:
    """Physical modes first (by M), then per-site auxiliary quadruples.

    The auxiliary groups are site-major in M order with the fixed internal
    order (alpha, beta, gamma, delta), so projecting all auxiliary modes onto
    the empty occupation is a contiguous slice of the amplitude array.
    """
    labels: list[ModeLabel] = [("a", s) for s in lattice.sites()]
    for s in lattice.sites():
        labels.extend((sp_, s) for sp_ in ("alpha", "beta", "gamma", "delta"))
    return ModeRegistry(tuple(labels))


def position(registry: ModeRegistry, label: ModeLabel) -> int:
    """Registry position of a mode label; an unknown label is refused."""
    try:
        return registry.labels.index(label)
    except ValueError:
        raise ContractViolationError(f"unknown mode label {label!r}") from None


@dataclass(frozen=True)
class OperatorPoly:
    """Sum of scalar-weighted monomials in creation/annihilation operators.

    Each monomial is a tuple of ``(label, is_creation)`` factors; factors act
    right to left exactly as written, with no implicit normal ordering.
    """

    terms: tuple[tuple[complex, tuple[tuple[ModeLabel, bool], ...]], ...]

    @classmethod
    def from_terms(cls, terms) -> "OperatorPoly":
        return cls(tuple((complex(c), tuple(m)) for c, m in terms))


def vacuum(registry: ModeRegistry) -> FockVector:
    """All-modes-empty state; more than DEFAULT_MODE_CAP modes are refused."""
    n = len(registry)
    if n == 0:
        raise ContractViolationError("empty registry")
    if n > DEFAULT_MODE_CAP:
        raise ResourceLimitError(f"{n} modes exceed the dense-vector cap of {DEFAULT_MODE_CAP}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return FockVector(registry, amps)


def apply_poly(state: FockVector, op: OperatorPoly) -> FockVector:
    """Linear action of an operator polynomial on a state."""
    reg = state.registry
    result = np.zeros_like(state.amplitudes)
    for coeff, monomial in op.terms:
        work = state.amplitudes
        for label, create in reversed(monomial):
            work = _flip(work, position(reg, label), *((1, 0) if create else (0, 1)))
            if not work.any():
                break
        result += coeff * work
    return FockVector(reg, result)


def majorana_vector(state: FockVector, pos: int, which: int) -> np.ndarray:
    """Amplitudes of c^(which)_pos |state>, which in {1, 2}.

    c^(1) = a^dag + a and c^(2) = -i (a^dag - a).
    """
    if which not in (1, 2):
        raise ContractViolationError(f"Majorana type must be 1 or 2, got {which}")
    return _flip(state.amplitudes, pos, *_MAJORANA[which - 1])


def many_body_gap(h: np.ndarray, registry: ModeRegistry) -> float:
    """E_1 - E_0 of the dense quadratic Hamiltonian, from the two lowest
    levels of each parity sector."""
    w = np.sort(np.concatenate([np.linalg.eigvalsh(block)[:2]
                                for _, block in _parity_sectors(h, len(registry))]))
    return float(w[1] - w[0])


def nonzero_items(tensor: FPEPSTensor):
    """(index, value) of every nonzero entry of a site tensor, in C order."""
    nonzero = tensor.entries != 0
    for idx, val in zip(np.argwhere(nonzero).tolist(), tensor.entries[nonzero].tolist()):
        yield tuple(idx), val


def bond_h(site: Site, lattice: LatticeSpec) -> OperatorPoly:
    """Horizontal entangling bond leaving ``site`` to the right."""
    h, v = lattice.wrap(site)
    return OperatorPoly.from_terms([
        (SQRT_HALF, ()),
        (SQRT_HALF, ((("beta", (h, v)), True), (("alpha", lattice.wrap((h + 1, v))), True))),
    ])


def bond_v(site: Site, lattice: LatticeSpec) -> OperatorPoly:
    """Vertical entangling bond leaving ``site`` upward (v + 1)."""
    h, v = lattice.wrap(site)
    return OperatorPoly.from_terms([
        (SQRT_HALF, ()),
        (SQRT_HALF, ((("delta", (h, v)), True), (("gamma", lattice.wrap((h, v + 1))), True))),
    ])


def entry_monomial(site: Site, index) -> tuple:
    """The word a^dag^k alpha^l beta^r gamma^u delta^d of entry A[k, l, r, u, d]."""
    return tuple(((sp_, site), sp_ == "a") for sp_, bit in zip(SPECIES, index) if bit)


def projector_q(site: Site, tensor: FPEPSTensor) -> OperatorPoly:
    """Local projector built from a coefficient tensor."""
    return OperatorPoly.from_terms(
        (coeff, entry_monomial(site, idx)) for idx, coeff in nonzero_items(tensor)
    )


def build_fpeps_reference(lattice: LatticeSpec, tensors: dict[Site, FPEPSTensor]) -> FockVector:
    """Slow full-registry construction used to cross-check ``build_fpeps``."""
    state = vacuum(standard_registry(lattice))
    for site in lattice.sites():
        state = apply_poly(state, bond_h(site, lattice))
        state = apply_poly(state, bond_v(site, lattice))
    for site in reversed(lattice.sites()):
        state = apply_poly(state, projector_q(site, tensors[site]))
    phys_amps = state.amplitudes[: 1 << lattice.n_sites].copy()
    return FockVector(physical_registry(lattice), phys_amps)


def label_plan(lattice: LatticeSpec):
    """``fpeps.build._plan`` with every position looked up by mode label.

    Each site's step, in action order, is its index in M order, the
    positions of its ``a`` and ``alpha`` modes and the bonds it opens; the
    second value is the peak live width.
    """
    registry = standard_registry(lattice)
    sites = lattice.sites()
    opened: set = set()
    steps = []
    live = width = 0
    for site in reversed(sites):
        h, v = site
        bonds = []
        for kind, source, target in (
            ("h", site, lattice.wrap((h + 1, v))),         # provides beta(site)
            ("h", lattice.wrap((h - 1, v)), site),         # provides alpha(site)
            ("v", site, lattice.wrap((h, v + 1))),         # provides delta(site)
            ("v", lattice.wrap((h, v - 1)), site),         # provides gamma(site)
        ):
            if (kind, source) in opened:
                continue
            opened.add((kind, source))
            first, second = ("beta", "alpha") if kind == "h" else ("delta", "gamma")
            bonds.append((position(registry, (first, source)),
                          position(registry, (second, target))))
        # the partners join, the site's ends of earlier bonds leave, a joins
        live += 2 * len(bonds) - 3
        width = max(width, live)
        steps.append((sites.index(site), position(registry, ("a", site)),
                      position(registry, ("alpha", site)), tuple(bonds)))
    return tuple(steps), width


def per_bond_schedule(plan_steps):
    """Each step's bonds and projector slots, replayed on a sorted position list.

    A step is ``(m, bonds, first, signs)``.  Slot i is the i-th live registry
    position.  A bond ``(below, between, pair)`` puts its modes at the slots
    bisection finds for them; the pair's vector is ``+-sqrt(1/2)
    parity_signs(between)``, negative when its second mode precedes its
    first.  ``first`` is the slot of the site's ``alpha``, found by its index
    in the list, and ``signs`` the parity of the modes below it; the four
    modes leave and ``a`` joins at slot 0.
    """
    positions: list[int] = []
    steps = []
    for m, pos_a, pos_alpha, bonds in plan_steps:
        opened = []
        for pos_first, pos_second in bonds:
            pos_lo, pos_hi = sorted((pos_first, pos_second))
            below = bisect_left(positions, pos_lo)
            between = bisect_left(positions, pos_hi) - below
            sign = -SQRT_HALF if pos_second < pos_first else SQRT_HALF
            opened.append((below, between, sign * parity_signs(between)))
            positions.insert(below, pos_lo)
            positions.insert(below + between + 1, pos_hi)
        first = positions.index(pos_alpha)
        positions[first:first + 4] = []
        positions.insert(0, pos_a)
        steps.append((m, tuple(opened), first, parity_signs(first)))
    return tuple(steps)


def per_bond_build_stack(lattice: LatticeSpec, entries: np.ndarray, parity) -> np.ndarray:
    """A stack's physical amplitudes, every bond opened on a fresh pair first.

    Each bond is ``(1 + c^dag_first c^dag_second) / sqrt(2)`` on two fresh
    modes, two slice writes into an array four times the size; each site
    is one batched ``(below, 16) x (16, 2)`` product per set that projects
    its four auxiliary modes onto empty and adds ``a``, and the
    annihilators pass the modes below ``alpha`` when ``k`` differs from the
    site's parity.
    """
    n_sets = entries.shape[0]
    # [set, site, k, d u r l]: the auxiliary bits in slot order, alpha lowest
    matrices = (entries * site_signs()).transpose(0, 1, 2, 6, 5, 4, 3).reshape(
        n_sets, lattice.n_sites, 2, 16)
    amps = np.ones((n_sets, 1), dtype=complex)
    for m, bonds, first, signs in per_bond_schedule(label_plan(lattice)[0]):
        for below, between, pair in bonds:
            old = amps.reshape(n_sets, -1, 1 << between, 1 << below)
            new = np.zeros((n_sets, old.shape[1], 2, 1 << between, 2, 1 << below), dtype=complex)
            np.multiply(old, SQRT_HALF, out=new[:, :, 0, :, 0, :])
            np.multiply(old, pair[:, None], out=new[:, :, 1, :, 1, :])
            amps = new.reshape(n_sets, -1)
        amps = amps.reshape(n_sets, -1, 16, 1 << first)  # [set, above, d u r l, below]
        out = amps.transpose(0, 1, 3, 2) @ matrices[:, m].transpose(0, 2, 1)[:, None]
        out[..., 1 - parity[m]] *= signs  # [set, above, below, k]
        amps = out.reshape(n_sets, -1)
    return amps


def replay_schedule(lattice: LatticeSpec):
    """``fpeps.build._schedule`` replayed on a sorted list of live positions.

    Returns ``(index, coeff, steps)``; a step is ``(m, old, bit_axes,
    signs)``, where ``bit_axes`` puts the product's bits, one axis each, in
    output slot order (highest first) and ``signs`` is flat.  A term's
    sign follows the operators in the order they act: each pair creation
    passes the occupied modes between its ends, and each annihilator, from
    ``delta`` down, the occupied modes below it.  The spectators' part is
    read off separately: a partner's pair passes the spectators above the
    partner, every annihilator passes all of them, and ``parity(old)
    parity(spectators)`` belongs to the step before.
    """
    n_loops = (lattice.n_h == 1) + (lattice.n_v == 1)
    plan = label_plan(lattice)[0]
    index = np.empty((lattice.n_sites, 32 >> 2 * n_loops, 1 << n_loops), dtype=np.intp)
    coeff = np.empty(index.shape)
    steps = []
    positions: list[int] = []
    for i, (m, pos_a, pos_alpha, bonds) in enumerate(plan):
        site = range(pos_alpha, pos_alpha + 4)
        old = [p for p in positions if p in site]
        spectators = [p for p in positions if p not in site]
        partners = sorted(p for bond in bonds for p in bond if p not in site)
        loops = [bond for bond in bonds if all(p in site for p in bond)]
        k_bit = n_loops + len(old)  # bits of j, lowest first: loops, old ends, k, partners
        for j in range(2 << k_bit + len(partners)):
            z = {bond: j >> (loops.index(bond) if bond in loops else
                             k_bit + 1 + partners.index(min(bond))) & 1 for bond in bonds}
            occupied = [p for t, p in enumerate(old) if j >> n_loops + t & 1]
            sign = 0
            for first, second in bonds:
                if z[(first, second)]:
                    lo, hi = sorted((first, second))
                    sign += (bisect_left(occupied, hi) - bisect_left(occupied, lo)
                             + (second < first))
                    insort(occupied, lo)
                    insort(occupied, hi)
            bits = [int(p in occupied) for p in site]
            for p in reversed(site):  # delta, gamma, beta, alpha
                if p in occupied:
                    sign += occupied.index(p)
                    occupied.remove(p)
            k = j >> k_bit & 1
            index[m].flat[j] = 32 * m + int(np.ravel_multi_index([k] + bits, (2,) * 5))
            coeff[m].flat[j] = SQRT_HALF ** len(bonds) * (-1) ** sign
        positions = sorted(spectators + partners + [pos_a])
        source = partners[::-1] + [pos_a] + spectators[::-1]  # the product's bits, highest first
        bit_axes = [source.index(p) for p in reversed(positions)]
        t = np.arange(1 << len(positions))

        def count(chosen):
            mask = sum(1 << s for s, p in enumerate(positions) if p in chosen)
            return np.bitwise_count(t & mask).astype(np.int64)

        flips = count(partners) * count(spectators)
        for q in partners:
            flips += count([q]) * count([p for p in spectators if p > q])
        if i + 1 < len(plan):
            after = range(plan[i + 1][2], plan[i + 1][2] + 4)
            flips += count([p for p in positions if p in after]) * count(
                [p for p in positions if p not in after])
        steps.append((m, 1 << len(old), bit_axes, (1 - 2 * (flips % 2)).astype(np.int8)))
    return index, coeff, tuple(steps)
