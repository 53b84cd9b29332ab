"""Entangled bonds, local projectors, and the exact state assembly."""
import numpy as np
import pytest

from fock_reference import (
    apply_poly,
    bond_h,
    bond_v,
    build_fpeps_reference,
    label_plan,
    per_bond_build_stack,
    projector_q,
    replay_schedule,
    standard_registry,
    vacuum,
)
from fpeps.build import _plan, _schedule, build_fpeps, build_stack
from fpeps.errors import ContractViolationError, ResourceLimitError
from fpeps.fock import ModeRegistry, covariance_matrix
from fpeps.lattice import LatticeSpec
from fpeps.tensors import FPEPSTensor, random_stack

BOND_CM = np.array([
    [0, 0, 0, 1],
    [0, 0, -1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=float)


def pair_registry():
    return ModeRegistry((("beta", (1, 1)), ("alpha", (2, 1))))


def test_bond_creates_maximally_entangled_pair():
    lat = LatticeSpec(2, 1)
    state = apply_poly(vacuum(pair_registry()), bond_h((1, 1), lat))
    expected = np.zeros(4, dtype=complex)
    expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected)


def test_bond_covariance_is_reference_bond():
    lat = LatticeSpec(2, 1)
    state = apply_poly(vacuum(pair_registry()), bond_h((1, 1), lat))
    assert np.allclose(covariance_matrix(state), BOND_CM, atol=1e-12)


def test_vertical_bond_same_structure():
    lat = LatticeSpec(1, 2)
    reg = ModeRegistry((("delta", (1, 1)), ("gamma", (1, 2))))
    state = apply_poly(vacuum(reg), bond_v((1, 1), lat))
    assert np.allclose(covariance_matrix(state), BOND_CM, atol=1e-12)


def test_bond_is_not_a_projector():
    lat = LatticeSpec(2, 1)
    op = bond_h((1, 1), lat)
    once = apply_poly(vacuum(pair_registry()), op)
    twice = apply_poly(once, op)
    assert abs(once.norm() - 1.0) < 1e-12
    assert abs(twice.norm() - 1.0) > 0.1


def one_entry(k, l, r, u, d, parity=0):
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[k, l, r, u, d] = 1.0
    return FPEPSTensor(arr, parity)


def test_projector_identity_entry():
    op = projector_q((1, 1), one_entry(0, 0, 0, 0, 0))
    assert op.terms == ((1.0 + 0j, ()),)


def test_projector_monomial_transcription():
    op = projector_q((1, 1), one_entry(1, 1, 0, 0, 0, parity=0))
    (coeff, monomial), = op.terms
    assert coeff == 1.0
    assert monomial == ((("a", (1, 1)), True), (("alpha", (1, 1)), False))


def test_projector_rejects_parity_violation():
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[1, 0, 0, 0, 0] = 1.0  # odd entry in an even tensor
    with pytest.raises(ContractViolationError):
        projector_q((1, 1), FPEPSTensor(arr, 0))


def test_tensor_construction_refuses_any_forbidden_entry():
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[0, 0, 0, 0, 0] = 1.0
    arr[1, 0, 0, 0, 0] = 1e-300  # however small
    with pytest.raises(ContractViolationError,
                       match=r"parity-0 tensor has forbidden entries at \[\(1, 0, 0, 0, 0\)\]"):
        FPEPSTensor(arr, 0)


def test_tensor_entries_are_a_read_only_copy():
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[0, 0, 0, 0, 0] = 1.0
    tensor = FPEPSTensor(arr, 0)
    arr[1, 0, 0, 0, 0] = 1.0  # the caller's array is not the tensor's
    assert tensor.entries[1, 0, 0, 0, 0] == 0
    with pytest.raises(ValueError, match="read-only"):
        tensor.entries[1, 0, 0, 0, 0] = 1.0


def test_build_1x1_identity_tensor_gives_vacuum():
    lattice = LatticeSpec(1, 1)
    state = build_fpeps(lattice, {(1, 1): one_entry(0, 0, 0, 0, 0)})
    assert abs(state.amplitudes[0]) > 0
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-14) == 1


def test_build_matches_reference_construction():
    lattice = LatticeSpec(2, 2)
    rng = np.random.default_rng(7)
    tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
    fast = build_fpeps(lattice, tensors)
    slow = build_fpeps_reference(lattice, tensors)
    assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
@pytest.mark.parametrize("mixed", [False, True], ids=["even", "mixed"])
def test_build_matches_reference_construction_on_three_sites_or_fewer(shape, mixed):
    # every bond of these lattices touches a self-loop site or closes on one,
    # so each step opens and closes bonds inside one product
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(40 + 10 * shape[0] + shape[1])
    parity = {s: int(rng.integers(0, 2)) if mixed else 0 for s in lattice.sites()}
    tensors = {s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()}
    fast = build_fpeps(lattice, tensors)
    slow = build_fpeps_reference(lattice, tensors)
    assert slow.norm() > 1e-6
    assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-12


def test_build_matches_reference_construction_mixed_parity():
    lattice = LatticeSpec(2, 2)
    rng = np.random.default_rng(17)
    parity = {(1, 1): 1, (2, 1): 0, (1, 2): 1, (2, 2): 1}
    tensors = {s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()}
    fast = build_fpeps(lattice, tensors)
    slow = build_fpeps_reference(lattice, tensors)
    assert slow.norm() > 1e-6
    assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-12


def test_parity_superselection():
    lattice = LatticeSpec(2, 2)
    rng = np.random.default_rng(8)
    parity = {(1, 1): 1, (2, 1): 1, (1, 2): 0, (2, 2): 0}
    tensors = {s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()}
    state = build_fpeps(lattice, tensors)
    assert state.norm() > 1e-6
    occ_parity = np.array([bin(i).count("1") % 2 for i in range(16)])
    support = np.abs(state.amplitudes) > 1e-12
    assert set(occ_parity[support]) == {sum(parity.values()) % 2}


def test_even_projectors_commute():
    # applying the site projectors in two different orders gives equal states
    lattice = LatticeSpec(1, 2)
    rng = np.random.default_rng(9)
    tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
    registry = standard_registry(lattice)
    base = vacuum(registry)
    for s in lattice.sites():
        base = apply_poly(base, bond_h(s, lattice))
        base = apply_poly(base, bond_v(s, lattice))
    order_a = apply_poly(
        apply_poly(base, projector_q((1, 1), tensors[(1, 1)])),
        projector_q((1, 2), tensors[(1, 2)]),
    )
    order_b = apply_poly(
        apply_poly(base, projector_q((1, 2), tensors[(1, 2)])),
        projector_q((1, 1), tensors[(1, 1)]),
    )
    assert np.max(np.abs(order_a.amplitudes - order_b.amplitudes)) < 1e-12


def test_plan_is_the_label_based_plan():
    # registry positions by layout arithmetic: the same steps and peak width
    # as label lookups, so build_stack runs the same products
    for n_h in range(1, 7):
        for n_v in range(1, 7):
            lattice = LatticeSpec(n_h, n_v)
            assert _plan(lattice) == label_plan(lattice)


def test_width_is_three_below_the_per_bond_width():
    # the per-bond build held every fresh pair next to the live modes before
    # the projector removed four of them and added a
    for n_h in range(1, 7):
        for n_v in range(1, 7):
            steps, width = _plan(LatticeSpec(n_h, n_v))
            live = per_bond = 0
            for *_, bonds in steps:
                per_bond = max(per_bond, live + 2 * len(bonds))
                live += 2 * len(bonds) - 3
            assert width == per_bond - 3


PARITIES = {
    "even": lambda n_h, n: (0,) * n,
    "mixed": lambda n_h, n: tuple(int(b) for b in np.random.default_rng(n).integers(0, 2, n)),
    "checkerboard": lambda n_h, n: tuple((m % n_h + m // n_h) % 2 for m in range(n)),
}


@pytest.mark.parametrize("pattern", sorted(PARITIES))
@pytest.mark.parametrize("shape", [(h, v) for h in range(1, 5) for v in range(1, 4)] + [(3, 4)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_build_equals_the_per_bond_build(shape, pattern):
    # Folding sqrt(1/2) per bond into each site's matrix reassociates the
    # products and the product sums over fewer terms, so the two builds
    # differ by rounding: at most 1e-15 of the largest amplitude.
    lattice = LatticeSpec(*shape)
    parity = PARITIES[pattern](lattice.n_h, lattice.n_sites)
    entries = random_stack([np.random.default_rng(900 + i) for i in range(2)], parity)
    stack = build_stack(lattice, entries)
    reference = per_bond_build_stack(lattice, entries, parity)
    assert np.abs(reference).max() > 1e-6
    assert np.max(np.abs(stack - reference)) <= 1e-15 * np.abs(reference).max()
    for row, alone in zip(stack, entries):
        assert row.tobytes() == build_stack(lattice, alone[None])[0].tobytes()


def _moved(shape, axes):
    """Where each output amplitude of a step comes from in its product."""
    return np.arange(np.prod(shape)).reshape(shape).transpose(axes).ravel()


@pytest.mark.parametrize("shape", [(h, v) for h in range(1, 5) for v in range(1, 5)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_schedule_is_the_position_list_replay(shape):
    # the live-bit masks find the slots and signs that the position list and
    # the operators acting one by one find, and every cached array is read-only
    lattice = LatticeSpec(*shape)
    index, coeff, steps = _schedule(lattice)
    ref_index, ref_coeff, ref_steps = replay_schedule(lattice)
    assert index.tobytes() == ref_index.tobytes() and coeff.tobytes() == ref_coeff.tobytes()
    assert len(steps) == len(ref_steps)
    for step, (ref_m, ref_old, bit_axes, ref_signs) in zip(steps, ref_steps):
        m, old, shape_, axes, signs = step
        assert (m, old) == (ref_m, ref_old)
        assert signs.tobytes() == ref_signs.tobytes()
        moved = _moved(shape_, [a - 1 for a in axes[1:]])
        assert np.array_equal(moved, _moved((2,) * len(bit_axes), bit_axes))
        assert not signs.flags.writeable
    assert not index.flags.writeable and not coeff.flags.writeable


def test_missing_site_raises():
    lattice = LatticeSpec(2, 1)
    with pytest.raises(ContractViolationError, match="missing"):
        build_fpeps(lattice, {(1, 1): one_entry(0, 0, 0, 0, 0)})


def test_mode_cap():
    lattice = LatticeSpec(5, 4)  # peak live width 26 > 24
    tensors = {s: one_entry(0, 0, 0, 0, 0) for s in lattice.sites()}
    with pytest.raises(ResourceLimitError):
        build_fpeps(lattice, tensors)


@pytest.mark.parametrize("shape, per_bond_width", [((3, 2), 13), ((3, 3), 16), ((4, 3), 20),
                                                  ((4, 4), 24)])
def test_mode_cap_counts_peak_live_width(shape, per_bond_width):
    # the cap bounds the widest live set, counted before anything is allocated:
    # 10 / 13 / 17 / 21 modes, 3 below the per-bond build's
    width = per_bond_width - 3
    lattice = LatticeSpec(*shape)
    tensors = {s: one_entry(0, 0, 0, 0, 0) for s in lattice.sites()}
    with pytest.raises(ResourceLimitError, match=f"width of {width} modes"):
        build_fpeps(lattice, tensors, cap=width - 1)


def test_zero_state_is_representable():
    from fpeps.critical import example_tensor_set

    lattice = LatticeSpec(2, 2)
    state = build_fpeps(lattice, example_tensor_set(lattice))
    assert state.norm() == pytest.approx(0.0, abs=1e-12)
