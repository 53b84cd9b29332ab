"""Exact spin-PEPS contraction."""
import string
from unittest import mock

import numpy as np
import pytest

from conftest import traced_peak
from fpeps import contraction
from fpeps.build import build_stack
from fpeps.contraction import contract_peps, contract_stack
from fpeps.errors import ContractViolationError
from fpeps.io import dump_peps_set
from fpeps.lattice import LatticeSpec
from fpeps.mapping import map_stack
from fpeps.tensors import random_stack


def product_tensor(amp0, amp1):
    """Rank-one tensor: physical state amp0|0> + amp1|1>, all bonds in slot 0."""
    arr = np.zeros((2,) * 7, dtype=complex)
    arr[0, 0, 0, 0, 0, 0, 0] = amp0
    arr[1, 0, 0, 0, 0, 0, 0] = amp1
    return arr


def test_product_tensors_give_product_state():
    lattice = LatticeSpec(2, 2)
    amps = [(1.0, 2.0), (3.0, 5.0), (0.5, -1.0), (2.0, 1j)]
    tensors = {s: product_tensor(*amps[i]) for i, s in enumerate(lattice.sites())}
    state = contract_peps(lattice, tensors)
    expected = np.zeros(16, dtype=complex)
    for idx in range(16):
        val = 1.0 + 0j
        for m, (a0, a1) in enumerate(amps):
            val *= a1 if (idx >> m) & 1 else a0
        expected[idx] = val
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_empty_stack_contracts_to_no_amplitudes():
    # a stack of no sets builds, maps and contracts to no amplitudes; the
    # oracle build and the contraction used to fail inside a reshape
    for shape in [(1, 1), (1, 3), (3, 1), (2, 2), (3, 2)]:
        lattice = LatticeSpec(*shape)
        parity = tuple((h + v) % 2 for h, v in lattice.sites())
        entries = random_stack([], parity)
        oracle = build_stack(lattice, entries)
        mapped = map_stack(lattice, entries, parity)
        amplitudes = contract_stack(lattice, mapped)
        assert mapped.shape == (0, lattice.n_sites) + (2,) * 7
        for amps in (oracle, amplitudes):
            assert amps.shape == (0, 2**lattice.n_sites) and amps.dtype == complex
        # a P = 1 stack of no configurations gives no amplitudes
        assert contract_stack(lattice, spin_zeros(lattice, 1, 0)).shape == (0, 1)


def test_site_order_of_amplitudes():
    # occupation of site M sits on bit M - 1
    lattice = LatticeSpec(2, 1)
    tensors = {
        (1, 1): product_tensor(0.0, 1.0),  # occupied
        (2, 1): product_tensor(1.0, 0.0),  # empty
    }
    state = contract_peps(lattice, tensors)
    assert abs(state.amplitudes[0b01]) == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-14) == 1


def test_shape_mismatch_raises():
    lattice = LatticeSpec(1, 1)
    with pytest.raises(ContractViolationError):
        contract_peps(lattice, {(1, 1): np.zeros((2, 2, 2))})
    # a set of mixed shapes is refused by name, not by numpy's stack
    mixed = {(1, 1): product_tensor(1, 0), (2, 1): np.zeros((2, 2, 2))}
    for call in (contract_peps, dump_peps_set):
        with pytest.raises(ContractViolationError, match=r"\(2,\)\*7, got \(2, 2, 2\)"):
            call(LatticeSpec(2, 1), mixed)


def test_missing_tensor_raises():
    lattice = LatticeSpec(2, 1)
    with pytest.raises(ContractViolationError, match="missing"):
        contract_peps(lattice, {(1, 1): product_tensor(1, 0)})


def spin_zeros(lattice, p, n_sets):
    """A stack of ``n_sets`` zero spin tensor sets with a physical axis of length ``p``."""
    return np.zeros((n_sets, lattice.n_sites, p) + (2,) * 6, dtype=complex)


def configuration_stack(spin, configs):
    """One ``P = 1`` set per configuration of the ``(N, 2, ...)`` spin set ``spin``.

    Site m of set j holds B[k_m], with k_m bit m of ``configs[j]`` (site M order).
    """
    n = len(spin)
    bits = np.asarray(configs)[:, None] >> np.arange(n) & 1
    return spin[np.arange(n), bits][:, :, None]


def test_stack_is_charged_by_memory():
    # full vectors of up to 12 sites, and 4x4, are admitted
    for shape in [(4, 4), (6, 2), (1, 12), (12, 1)]:
        lattice = LatticeSpec(*shape)
        assert contract_stack(lattice, spin_zeros(lattice, 2, 1)).shape == (1, 2**lattice.n_sites)
    # an 8x2 full vector is refused with one line, before the chain allocates
    lattice = LatticeSpec(8, 2)
    entries = spin_zeros(lattice, 2, 1)
    with traced_peak() as traced, \
            pytest.raises(ContractViolationError, match="1 x 2\\^16 amplitudes on 8x2") as refusal:
        contract_stack(lattice, entries)
    assert "\n" not in str(refusal.value) and traced.peak < 64 * 2**10
    # one configuration on 7x5 is admitted, a stack of them past 1 GiB is not
    lattice = LatticeSpec(7, 5)
    assert contract_stack(lattice, spin_zeros(lattice, 1, 1)).shape == (1, 1)
    with pytest.raises(ContractViolationError, match="over the 1 GiB limit"):
        contract_stack(lattice, spin_zeros(lattice, 1, 256))
    # any other trailing shape is refused, not reshaped
    lattice = LatticeSpec(2, 2)
    for shape in [(4, 3) + (2,) * 6, (4, 0) + (2,) * 6, (4,) + (2,) * 6, (4,) + (2,) * 8,
                  (3, 2) + (2,) * 6, (4, 2) + (2,) * 5 + (4,), ()]:
        with pytest.raises(ContractViolationError, match="must have shape") as refusal:
            contract_stack(lattice, np.zeros((1,) + shape, dtype=complex))
        assert "\n" not in str(refusal.value)


CHARGED = [((12, 1), 2, 1), ((6, 2), 2, 1), ((4, 4), 2, 1), ((5, 3), 2, 1),
           ((5, 5), 1, 64), ((7, 3), 1, 8), ((9, 9), 1, 1), ((5, 15), 1, 8), ((3, 21), 1, 8)]


@pytest.mark.parametrize("shape, p, n_sets", CHARGED,
                         ids=[f"{h}x{v}-P{p}-x{s}" for (h, v), p, s in CHARGED])
def test_contraction_charge_covers_its_peak(shape, p, n_sets):
    lattice = LatticeSpec(*shape)
    entries = spin_zeros(lattice, p, n_sets)
    charged = []
    with mock.patch.object(contraction, "refuse_over_limit",
                           lambda floats, _: charged.append(floats)), traced_peak() as traced:
        amplitudes = contract_stack(lattice, entries)
    assert amplitudes.shape == (n_sets, p**lattice.n_sites)
    assert traced.peak <= 8 * charged[0]


def configuration_peak(lattice):
    """The ``tracemalloc`` peak of contracting one ``P = 1`` configuration of zeros."""
    entries = spin_zeros(lattice, 1, 1)
    with traced_peak() as traced:
        contract_stack(lattice, entries)
    return traced.peak


@pytest.mark.parametrize("n_h, n_vs", [(5, (3, 15)), (3, (3, 21))], ids=["5x3-5x15", "3x3-3x21"])
def test_configuration_memory_does_not_grow_with_rows(n_h, n_vs):
    # each row is built as it is absorbed, so a configuration holds one row tensor
    few, many = (configuration_peak(LatticeSpec(n_h, n_v)) for n_v in n_vs)
    assert abs(many - few) <= 0.02 * few


FIXED = [(h, v) for v in range(1, 4) for h in range(1, 5)] + [(3, 4), (6, 2), (2, 6), (1, 12),
                                                              (12, 1)]


@pytest.mark.parametrize("mixed", [False, True], ids=["even", "mixed"])
@pytest.mark.parametrize("shape", FIXED, ids=[f"{h}x{v}" for h, v in FIXED])
def test_configuration_amplitudes_equal_the_full_vector(shape, mixed):
    # a P = 1 set per configuration gives that configuration's entry of the P = 2 vector
    lattice = LatticeSpec(*shape)
    n = lattice.n_sites
    rng = np.random.default_rng(500 + 10 * shape[1] + shape[0] + mixed)
    parity = tuple(rng.permutation(np.arange(n) % 2 if mixed else np.zeros(n, int)).tolist())
    spin = map_stack(lattice, random_stack([rng], parity), parity)
    full = contract_stack(lattice, spin)[0]
    configs = rng.choice(2**n, min(16, 2**n), replace=False)
    amps = contract_stack(lattice, configuration_stack(spin[0], configs))
    assert amps.shape == (len(configs), 1)
    assert np.max(np.abs(amps[:, 0] - full[configs])) < 1e-14 * np.max(np.abs(full))


def full_einsum(lattice, tensors):
    """Every bond of the torus summed at once, as one independent einsum.

    Site (h, v) carries B[k, l, l', r, r', u, d]; (r, r') of a site meets
    (l, l') of its right neighbor and d meets u of the site above, both
    periodic, so l' and r' wrap like every other bond.
    """
    letters = iter(string.ascii_letters)
    phys = {s: next(letters) for s in lattice.sites()}
    right = {s: next(letters) + next(letters) for s in lattice.sites()}
    north = {s: next(letters) for s in lattice.sites()}
    operands = []
    for s in lattice.sites():
        h, v = s
        left, south = right[lattice.wrap((h - 1, v))], north[lattice.wrap((h, v - 1))]
        operands += [tensors[s],
                     phys[s] + left + right[s] + south + north[s]]
    # amplitude index: site M on bit M - 1, so the last site is the first axis
    out = "".join(phys[s] for s in reversed(lattice.sites()))
    spec = ",".join(operands[1::2]) + "->" + out
    return np.einsum(spec, *operands[0::2], optimize=True).reshape(-1)


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (3, 2), (1, 4), (2, 4), (3, 4),
                                   (1, 12), (12, 1)])
def test_matches_full_einsum_on_random_tensors(shape):
    # unmapped tensors: l' and r' carry weight on every column, including the wrap;
    # n_h = 1 and n_v = 1 close the horizontal and vertical bonds on one site
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(sum(shape))
    tensors = {
        s: rng.standard_normal((2,) * 7) + 1j * rng.standard_normal((2,) * 7)
        for s in lattice.sites()
    }
    expected = full_einsum(lattice, tensors)
    with traced_peak() as traced:
        state = contract_peps(lattice, tensors)
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-10 * np.max(np.abs(expected))
    # only the 2^n_h-wide vertical bonds cross the row sweep: 3x4 and 1x12 stay small
    assert traced.peak < 32 * 2**20


def two_copy_row(lattice, entries, v):
    """Row v of every set as [set, U, D, phys], its periodic bond traced by a Python sum."""
    n_sets, n_h = entries.shape[0], lattice.n_h
    blocks = entries[:, (v - 1) * n_h:v * n_h].reshape(n_sets, n_h, -1, 4, 4, 2, 2)
    if lattice.n_v == 1:
        blocks = np.einsum("shkLRuu->shkLR", blocks)[..., None, None]
    _, _, k, L, R, u, d = blocks.shape
    blocks = blocks.transpose(0, 1, 3, 2, 5, 6, 4)
    row = blocks[:, 0]
    for h in range(1, n_h):
        row = np.matmul(row.reshape(n_sets, -1, R), blocks[:, h].reshape(n_sets, L, -1))
    row = row.reshape(n_sets, L, -1, R)
    row = sum(row[:, i, :, i] for i in range(L)).reshape((n_sets,) + (k, u, d) * n_h)
    axes = [1 + 3 * h + leg for leg in (1, 2, 0) for h in reversed(range(n_h))]
    return row.transpose([0] + axes).reshape(n_sets, u**n_h, d**n_h, k**n_h)


def two_copy_contract_stack(lattice, entries):
    """The contraction that copied every row twice: once into [U, D, phys] and once into
    the axis order of its product.  The same products in the same order."""
    n_sets, n_h, n_v = entries.shape[0], lattice.n_h, lattice.n_v
    width = (2 if n_v > 1 else 1) ** n_h
    env = np.eye(width).reshape(1, width, 1, width)
    for v in range(1, n_v):
        env = np.matmul(
            two_copy_row(lattice, entries, v).transpose(0, 2, 3, 1).reshape(n_sets, -1, width),
            env.reshape(len(env), width, -1)).reshape(n_sets, width, -1, width)
    amps = np.matmul(
        two_copy_row(lattice, entries, n_v).transpose(0, 3, 1, 2).reshape(n_sets, -1, width**2),
        env.transpose(0, 1, 3, 2).reshape(len(env), width**2, -1))
    return amps.reshape(n_sets, -1)


# stacks of 3: a set's products do not depend on its stack, so a stack of one adds nothing
TWO_COPY = [((h, v), 2, 3) for v in range(1, 13) for h in range(1, 12 // v + 1)] + [
    ((4, 4), 2, 1), ((5, 5), 1, 64), ((7, 3), 1, 8)]


@pytest.mark.parametrize("shape, p, n_sets", TWO_COPY,
                         ids=[f"{h}x{v}-P{p}-x{s}" for (h, v), p, s in TWO_COPY])
def test_contraction_is_the_two_copy_contraction_bit_for_bit(shape, p, n_sets):
    # each row is permuted once, into the order its product reads: the same bytes.  The
    # tensors are not mapped, so every term of every sum is nonzero and a reordered sum shows.
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng([n_sets, *shape])
    size = (n_sets, lattice.n_sites, p) + (2,) * 6
    spin = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps = contract_stack(lattice, spin)
    assert amps.shape == (n_sets, p**lattice.n_sites)
    assert amps.tobytes() == two_copy_contract_stack(lattice, spin).tobytes()
