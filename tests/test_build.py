"""Entangled bonds, local projectors, and the exact state assembly."""
import numpy as np
import pytest

from fock_reference import (
    apply_poly,
    bond_h,
    bond_v,
    build_fpeps_reference,
    label_plan,
    projector_q,
    replay_schedule,
    standard_registry,
    vacuum,
)
from fpeps.build import _plan, _schedule, build_fpeps
from fpeps.errors import ContractViolationError, ResourceLimitError
from fpeps.fock import ModeRegistry, covariance_matrix
from fpeps.lattice import LatticeSpec
from fpeps.tensors import FPEPSTensor

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


def _schedule_bytes(steps):
    """A schedule with every sign vector as its bytes."""
    return [(m, [(below, between, pair.tobytes()) for below, between, pair in bonds],
             first, signs.tobytes()) for m, bonds, first, signs in steps]


@pytest.mark.parametrize("shape", [(h, v) for h in range(1, 5) for v in range(1, 5)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_schedule_is_the_position_list_replay(shape):
    # the live-bit count finds the slots bisection into a sorted list finds,
    # and the cached vectors are the signs the per-bond products used
    lattice = LatticeSpec(*shape)
    steps = _schedule(lattice)
    assert _schedule_bytes(steps) == _schedule_bytes(replay_schedule(_plan(lattice)[0]))
    for _, bonds, _, signs in steps:
        assert not signs.flags.writeable
        assert not any(pair.flags.writeable for _, _, pair in bonds)


def test_missing_site_raises():
    lattice = LatticeSpec(2, 1)
    with pytest.raises(ContractViolationError, match="missing"):
        build_fpeps(lattice, {(1, 1): one_entry(0, 0, 0, 0, 0)})


def test_mode_cap():
    lattice = LatticeSpec(5, 4)  # peak live width 29 > 24
    tensors = {s: one_entry(0, 0, 0, 0, 0) for s in lattice.sites()}
    with pytest.raises(ResourceLimitError):
        build_fpeps(lattice, tensors)


@pytest.mark.parametrize("shape, width", [((3, 2), 13), ((3, 3), 16), ((4, 3), 20), ((4, 4), 24)])
def test_mode_cap_counts_peak_live_width(shape, width):
    # the cap bounds the widest live set, counted before anything is allocated
    lattice = LatticeSpec(*shape)
    tensors = {s: one_entry(0, 0, 0, 0, 0) for s in lattice.sites()}
    with pytest.raises(ResourceLimitError, match=f"width of {width} modes"):
        build_fpeps(lattice, tensors, cap=width - 1)


def test_zero_state_is_representable():
    from fpeps.critical import example_tensor_set

    lattice = LatticeSpec(2, 2)
    state = build_fpeps(lattice, example_tensor_set(lattice))
    assert state.norm() == pytest.approx(0.0, abs=1e-12)
