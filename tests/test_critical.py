"""The critical model: channel, projector tensor, zero census, scans."""
import numpy as np
import pytest
import scipy.linalg

from fock_reference import OperatorPoly, apply_poly, nonzero_items
from fpeps.build import build_fpeps, site_signs
from fpeps.contraction import contract_peps
from fpeps.critical import (
    EXAMPLE_B,
    EXAMPLE_D,
    block_covariance,
    closed_form_ratios,
    entropy_scan,
    example_channel,
    example_projector_tensor,
    example_tensor_set,
    gap_scan,
    ground_state_blocks,
    hcrit_coefficients,
    norm_zero_locator,
)
from fpeps.errors import ContractViolationError, ZeroNormError
from fpeps.fock import (
    SPECIES,
    FockVector,
    ModeRegistry,
    covariance_matrix,
)
from fpeps.gaussian import apply_channel, channel_tensor, gamma_out_hat, lattice_bond_cm
from fpeps.lattice import LatticeSpec
from fpeps.mapping import map_tensor_set
from fpeps.quadratic import parent_hamiltonian, single_particle_spectrum


def test_channel_blocks_are_orthogonal_antisymmetric():
    ch = example_channel()
    G = ch.assembled()
    assert np.max(np.abs(G + G.T)) < 1e-12
    assert np.max(np.abs(G @ G.T - np.eye(10))) < 1e-12


def test_closed_form_reference_values():
    rp, rq = closed_form_ratios((0.0, 0.0))
    assert (rp, rq) == (0.0, -1.0)
    rp, rq = closed_form_ratios((np.pi, 0.0))
    assert rp == pytest.approx(0.0, abs=1e-12)
    assert rq == pytest.approx(1.0, abs=1e-12)


def test_closed_form_singular_momentum():
    with pytest.raises(ZeroNormError):
        closed_form_ratios((np.pi / 2, np.pi / 2))


def test_ratios_match_channel_at_random_momenta():
    ch = example_channel()
    rng = np.random.default_rng(17)
    for _ in range(100):
        phi = tuple(rng.uniform(0, 2 * np.pi, 2))
        fb = gamma_out_hat(ch, phi)
        rp, rq = closed_form_ratios(phi)
        # cross-multiplied: p/d and q/d lose precision near the removable
        # zeros of d on the phi_i = pi lines
        den = -1.0 + np.sin(phi[0]) * np.sin(phi[1])
        assert abs(den * (fb.p - fb.d * rp)) < 1e-10
        assert abs(den * (fb.q.real - fb.d * rq)) < 1e-10
        assert abs(fb.q.imag) < 1e-10


def test_projector_tensor_structure():
    tensor = example_projector_tensor()
    assert tensor.entries[0, 0, 0, 0, 0] == pytest.approx(1.0)
    assert tensor.parity == 0
    assert sum(1 for _ in nonzero_items(tensor)) == 16


# The paper's printed generator of the example projector Q = exp(sum c w):
# (c, w) with w a word of (species, creates) factors on one site.
PRINTED_GENERATOR = [
    (-1j, (("alpha", False), ("gamma", False))),
    (-1.0, (("alpha", False), ("delta", False))),
    (-1.0, (("beta", False), ("gamma", False))),
    (+1j, (("beta", False), ("delta", False))),
    (+1.0, (("alpha", False), ("beta", False))),
    (+1.0, (("gamma", False), ("delta", False))),
    (-1j, (("a", True), ("alpha", False))),
    (-1.0, (("a", True), ("beta", False))),
    (-1.0, (("a", True), ("gamma", False))),
    (+1j, (("a", True), ("delta", False))),
]


def printed_projector_entries():
    """A[k, l, r, u, d] of exp(generator), expanded in the five-mode Fock space."""
    site = (1, 1)
    reg = ModeRegistry(tuple((species, site) for species in SPECIES))
    gen = OperatorPoly.from_terms(
        (c, tuple(((species, site), creates) for species, creates in word))
        for c, word in PRINTED_GENERATOR
    )
    mat = np.stack([apply_poly(FockVector(reg, basis), gen).amplitudes
                    for basis in np.eye(32, dtype=complex)], axis=1)
    Q = scipy.linalg.expm(mat)
    # <k 0000| Q |0 l r u d>: rows k (a on bit 0), columns l + 2r + 4u + 8d
    amps = Q[:2, 0::2].reshape(2, 2, 2, 2, 2).transpose(0, 4, 3, 2, 1) / site_signs()
    return np.where(np.abs(amps) < 1e-14, 0.0, amps)


def test_example_tensor_matches_the_printed_generator():
    printed = printed_projector_entries()
    assert np.max(np.abs(example_projector_tensor().entries - printed)) <= 2e-15
    # the channel's own tensor is its particle-hole image k -> 1 - k
    own = channel_tensor(example_channel())
    assert own.parity == 1 and own.entries[1, 0, 0, 0, 0] == 1.0
    assert np.max(np.abs(own.entries[::-1] - printed)) <= 2e-15


def test_channel_tensor_of_the_vacuum_map(vacuum_site_channel):
    tensor = channel_tensor(vacuum_site_channel)
    assert tensor.parity == 0
    assert list(nonzero_items(tensor)) == [((0, 0, 0, 0, 0), 1.0)]


def test_channel_tensor_needs_a_one_site_channel(vacuum_channel):
    with pytest.raises(ContractViolationError, match="one-site channel"):
        channel_tensor(vacuum_channel)


def test_projector_state_matches_channel_up_to_mode_conjugation():
    # The exponential projector realizes the particle-hole image of the
    # channel output: covariances agree after flipping every type-2
    # physical Majorana.  The two objects fix opposite orientations for the
    # mixed-type correlation sector; the type-diagonal sector is shared.
    lattice = LatticeSpec(3, 3)
    n = lattice.n_sites
    gamma = apply_channel(
        example_channel().expand_to_lattice(n), lattice_bond_cm(lattice)
    ).matrix
    flip = np.diag([1.0] * n + [-1.0] * n)
    mapped = map_tensor_set(lattice, example_tensor_set(lattice))
    state = contract_peps(lattice, mapped)
    cm = covariance_matrix(state)
    assert np.max(np.abs(cm - flip @ gamma @ flip)) < 1e-8
    # the type-diagonal sector agrees without any dictionary
    assert np.max(np.abs(cm[:n, :n] - gamma[:n, :n])) < 1e-8


def test_projector_state_1x1_and_oracle():
    lattice = LatticeSpec(1, 1)
    state = build_fpeps(lattice, example_tensor_set(lattice))
    assert state.norm() > 0
    cm = covariance_matrix(state)
    gamma = apply_channel(
        example_channel().expand_to_lattice(1), lattice_bond_cm(lattice)
    ).matrix
    flip = np.diag([1.0, -1.0])
    assert np.max(np.abs(cm - flip @ gamma @ flip)) < 1e-12


def test_hcrit_literal_coefficients():
    table = hcrit_coefficients()
    assert table.pairing[(0, 1)] == 2j
    assert table.pairing[(1, 0)] == -2j
    assert table.hopping[(1, 1)] == -1.0
    assert table.hopping[(1, -1)] == -1.0
    assert table.mu == 0.0


def test_hcrit_rejects_even_lattice():
    with pytest.raises(ContractViolationError):
        hcrit_coefficients(LatticeSpec(4, 3))


def test_zero_census_odd_lattices_clean():
    for shape in [(3, 3), (5, 5), (7, 3)]:
        report = norm_zero_locator(LatticeSpec(*shape))
        assert not report.removable and not report.essential
        assert report.state_defined


def test_zero_census_multiple_of_four():
    report = norm_zero_locator(LatticeSpec(4, 4))
    assert not report.state_defined
    essential = {tuple(np.round(p, 9)) for p in report.essential}
    # the singular family sin(phi1) sin(phi2) = 1
    want = {
        (round(np.pi / 2, 9), round(np.pi / 2, 9)),
        (round(3 * np.pi / 2, 9), round(3 * np.pi / 2, 9)),
    }
    assert essential == want
    assert report.removable  # pi-line artifacts are present as well


def test_zero_census_removable_lines_only():
    report = norm_zero_locator(LatticeSpec(8, 3))
    assert report.state_defined
    assert report.removable
    for phi in report.removable:
        assert any(
            min(abs(c), abs(c - np.pi), abs(c - 2 * np.pi)) < 1e-9 for c in phi
        )


def test_even_torus_state_vanishes_like_census_says():
    # 2x2 carries removable zeros only; the raw construction has zero norm
    report = norm_zero_locator(LatticeSpec(2, 2))
    assert report.removable and not report.essential
    state = build_fpeps(LatticeSpec(2, 2), example_tensor_set(LatticeSpec(2, 2)))
    assert state.norm() == pytest.approx(0.0, abs=1e-12)


def test_gap_scan_power_law():
    rows = gap_scan([5, 7, 9, 13, 21])
    gaps = [g for _, g in rows]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    logs = np.log(np.array(rows, dtype=float))
    corr = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
    assert corr < -0.99


def test_gap_scan_equals_the_spectrum_gap():
    ham = parent_hamiltonian(example_channel(), radius_cap=2)
    sizes = range(5, 14, 2)
    assert gap_scan(sizes) == [(n, single_particle_spectrum(ham, LatticeSpec(n, n))[1])
                               for n in sizes]


@pytest.mark.parametrize("name", ["B", "D"])
def test_example_channel_blocks_are_read_only(name):
    # one shared channel keys the caches of its table and parent Hamiltonian;
    # its blocks are read-only copies of the module's read-only B and D
    assert example_channel() is example_channel()
    block = getattr(example_channel(), name)
    constant = {"B": EXAMPLE_B, "D": EXAMPLE_D}[name]
    assert np.array_equal(block, constant)
    before = block.copy()
    for array in (block, constant):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] += 1.0
    assert np.array_equal(getattr(example_channel(), name), before)


def test_gap_scan_rejects_even_sizes():
    with pytest.raises(ContractViolationError):
        gap_scan([4])


def test_entropy_scan_area_law():
    rows = entropy_scan(25, range(2, 7))
    lengths = np.array([l for l, _ in rows], dtype=float)
    entropies = np.array([s for _, s in rows])
    assert np.all(np.diff(entropies) > 0)
    coeffs = np.polyfit(lengths, entropies, 1)
    residual = entropies - np.polyval(coeffs, lengths)
    assert np.max(np.abs(residual / entropies)) < 0.05


def test_ground_state_blocks_match_lattice_covariance():
    # the FFT-assembled displacement blocks agree with the direct channel CM
    torus = 5
    lattice = LatticeSpec(torus, torus)
    gamma = apply_channel(
        example_channel().expand_to_lattice(lattice.n_sites),
        lattice_bond_cm(lattice),
    ).matrix
    blocks = ground_state_blocks(torus)
    sub = block_covariance(blocks, torus, torus)
    # block_covariance indexes sites as (h, v) with h fastest -> same M order
    assert np.max(np.abs(sub - gamma)) < 1e-10
    # an L = 3 block: the rows and columns of its sites in the torus matrix
    sites = [lattice.sites().index((h, v)) for v in (1, 2, 3) for h in (1, 2, 3)]
    idx = sites + [lattice.n_sites + i for i in sites]
    block = block_covariance(blocks, torus, 3)
    assert np.max(np.abs(block - gamma[np.ix_(idx, idx)])) < 1e-10
