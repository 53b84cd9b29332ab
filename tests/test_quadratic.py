"""Parent Hamiltonians, spectra, particle-form rewrites, block entropy."""
import numpy as np
import pytest

from fock_reference import OperatorPoly, apply_poly, many_body_gap
from gaussian_reference import filled_branch_energy, ground_state_cm, locality_radius
from fpeps.critical import (
    block_covariance,
    example_channel,
    ground_state_blocks,
    hcrit_coefficients,
)
from fpeps.errors import ContractViolationError, NumericalValidityError, ZeroNormError
from fpeps.fock import (
    FockVector,
    ModeRegistry,
    exact_ground_state,
    physical_registry,
    quadratic_operator,
)
from fpeps.gaussian import MajoranaCM, apply_channel, gamma_out_hat, lattice_bond_cm
from fpeps.lattice import LatticeSpec
from fpeps.quadratic import (
    DiracQuadratic,
    QuadraticHamiltonian,
    _positive_branch,
    block_entropy,
    dirac_to_majorana,
    energy_expectation,
    ground_state_cm_consistency,
    majorana_to_dirac,
    minimal_triple,
    parent_hamiltonian,
    single_particle_spectrum,
)


def test_block_antisymmetry_enforced():
    with pytest.raises(ContractViolationError):
        QuadraticHamiltonian({(1, 0): np.array([[1.0, 0.0], [0.0, 0.0]])})


def test_materialize_antisymmetric():
    ham = parent_hamiltonian(example_channel())
    h = ham.materialize(LatticeSpec(3, 3))
    assert np.max(np.abs(h + h.T)) < 1e-12


def test_hamiltonian_reality_condition():
    # h_hat(phi)^T = -h_hat(-phi) for real antisymmetric position blocks
    ham = parent_hamiltonian(example_channel())
    rng = np.random.default_rng(0)
    for _ in range(8):
        phi = rng.uniform(0, 2 * np.pi, 2)
        left = ham.h_hat(phi).T
        right = -ham.h_hat((-phi[0], -phi[1]))
        assert np.max(np.abs(left - right)) < 1e-12


def test_h_hat_on_a_stack_matches_single_momenta():
    ham = parent_hamiltonian(example_channel())
    phis = np.random.default_rng(4).uniform(0, 2 * np.pi, (3, 5, 2))
    stack = ham.h_hat(phis)
    assert stack.shape == (3, 5, 2, 2)
    for i, j in np.ndindex(3, 5):
        assert np.array_equal(stack[i, j], ham.h_hat(tuple(phis[i, j])))


def test_h_hat_matches_the_block_loop():
    # one block at a time, in insertion order: the same sum, bit for bit
    ham = parent_hamiltonian(example_channel())
    phis = LatticeSpec(41, 43).momenta()
    want = np.zeros((len(phis), 2, 2), dtype=complex)
    for (dh, dv), blk in ham.blocks.items():
        want += blk * np.exp(-1j * (phis[:, 0] * dh + phis[:, 1] * dv))[:, None, None]
    assert np.array_equal(ham.h_hat(phis), want)
    assert np.array_equal(QuadraticHamiltonian({}).h_hat(phis), np.zeros_like(want))


def test_positive_branch_matches_the_eigensolve():
    # the parent model's blocks are traceless: the closed form is within
    # 4e-16 of the eigensolve relative to the level itself
    hh = parent_hamiltonian(example_channel()).h_hat(LatticeSpec(201, 201).momenta())
    want = np.linalg.eigvalsh(1j * hh)[..., -1]
    assert np.max(np.abs(_positive_branch(hh) - want) / np.abs(want)) <= 4e-16
    # general anti-Hermitian blocks (h00 != -h11): the top level can lie near
    # zero, so compare relative to the block's largest level; eigvalsh's own
    # rounding reaches 1.3e-15 there, the closed form's 3.5e-16 (both measured
    # against an extended-precision evaluation of the closed form)
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((4000, 2, 2)) + 1j * rng.standard_normal((4000, 2, 2))
    hh = raw - raw.conj().swapaxes(-1, -2)
    assert np.all(np.abs(hh[:, 0, 0] + hh[:, 1, 1]) > 0)
    levels = np.linalg.eigvalsh(1j * hh)
    scale = np.max(np.abs(levels), axis=-1)
    assert np.max(np.abs(_positive_branch(hh) - levels[:, -1]) / scale) <= 2e-15


def test_parent_is_local_radius_one():
    ham = parent_hamiltonian(example_channel(), radius_cap=2)
    assert locality_radius(ham) == 1
    assert set(ham.blocks) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
    }


def test_parent_matches_coupling_table_with_positive_scale():
    ham = parent_hamiltonian(example_channel())
    dirac = majorana_to_dirac(ham)
    table = hcrit_coefficients()
    vec_got, vec_want = [], []
    for key in sorted(set(dirac.pairing) | set(table.pairing)):
        vec_got.append(dirac.pairing.get(key, 0.0))
        vec_want.append(table.pairing.get(key, 0.0))
    for key in sorted(set(dirac.hopping) | set(table.hopping)):
        vec_got.append(dirac.hopping.get(key, 0.0))
        vec_want.append(table.hopping.get(key, 0.0))
    vec_got, vec_want = np.array(vec_got), np.array(vec_want)
    scale = float(np.vdot(vec_want, vec_got).real / np.vdot(vec_want, vec_want).real)
    assert scale > 0
    assert np.max(np.abs(vec_got - scale * vec_want)) < 1e-10
    assert abs(dirac.mu) < 1e-12


def test_minimal_triple_of_the_example_is_exact():
    # cross-multiplied rows keep the rounding of small-d momenta out of the
    # nullspace: the triple is the quarter table to rounding, not to 1e-12
    deltas, coef = minimal_triple(example_channel())
    assert np.count_nonzero(coef) == 7
    assert np.max(np.abs(coef - np.round(4 * coef) / 4)) < 1e-14


def test_triple_search_refuses_a_vanishing_determinant(monkeypatch, cold_caches):
    # with d = 0 at every momentum, d' = 0 and q' = 1 fit the rows: a d' with
    # no constant term is refused, not taken for a Hamiltonian.  The parent
    # is cached per channel, so the search runs only with the caches empty
    import fpeps.quadratic as quadratic

    real = quadratic.gamma_out_hat
    monkeypatch.setattr(quadratic, "gamma_out_hat",
                        lambda ch, phis: real(ch, phis)._replace(d=np.zeros(len(phis))))
    with pytest.raises(NumericalValidityError, match="no constant term"):
        parent_hamiltonian(example_channel())


def test_parent_search_draws_no_random_numbers(monkeypatch, cold_caches):
    def no_draws(*args, **kwargs):
        raise AssertionError("the parent search drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert locality_radius(parent_hamiltonian(example_channel())) == 1


@pytest.mark.parametrize("seed", range(8))
def test_radius_two_parents_of_random_channels(seed, random_site_channel):
    # radius 2 is the edge of the grid's degree bound: rows of exponents up to 4
    ch = random_site_channel(seed)
    deltas, coef = minimal_triple(ch)
    assert np.max(np.abs(deltas)) == 2
    # the cross-multiplied identities hold off the fitting grid
    phis = np.random.default_rng(seed).uniform(0, 2 * np.pi, (500, 2))
    out = gamma_out_hat(ch, phis)
    sin, cos = np.sin(phis @ deltas.T), np.cos(phis @ deltas.T)
    fitted = np.stack([sin @ coef[0], cos @ coef[1], sin @ coef[2]], axis=1)
    values = np.stack([out.p, out.q.real, out.q.imag], axis=1)
    cross = values * (cos @ coef[3])[:, None]
    assert np.max(np.abs(out.d[:, None] * fitted - cross)) <= 1e-13 * np.max(np.abs(cross))
    for n in (5, 7):
        assert ground_state_cm_consistency(ch, LatticeSpec(n, n)) <= 1e-12
    with pytest.raises(ContractViolationError, match="no polynomial triple"):
        minimal_triple(ch, radius_cap=1)


def test_parent_of_vacuum_channel_is_onsite(vacuum_site_channel):
    ham = parent_hamiltonian(vacuum_site_channel, radius_cap=1)
    assert set(ham.blocks) == {(0, 0)}
    dirac = majorana_to_dirac(ham)
    assert not dirac.pairing and not dirac.hopping
    assert dirac.mu != 0.0


def test_single_mode_block_is_number_operator():
    ham = QuadraticHamiltonian({(0, 0): np.array([[0.0, 1.0], [-1.0, 0.0]])})
    dirac = majorana_to_dirac(ham)
    # i(c1 c2 - c2 c1) = 2 - 4 n
    assert dirac.mu == pytest.approx(-4.0)
    assert dirac.constant == pytest.approx(2.0)
    assert not dirac.pairing and not dirac.hopping


ROUND_TRIP_TABLE = DiracQuadratic(
    pairing={(0, 1): 2j, (1, 0): -2j, (2, -1): 0.3 - 0.7j},
    hopping={(1, 1): -1.0, (1, -1): -1.0 + 0.25j, (0, 2): 0.4j},
    mu=0.8,
    constant=0.0,
)


def test_dirac_round_trip():
    dirac = ROUND_TRIP_TABLE
    back = majorana_to_dirac(dirac_to_majorana(dirac))
    for key, val in dirac.pairing.items():
        assert back.pairing[key] == pytest.approx(val, abs=1e-14)
    for key, val in dirac.hopping.items():
        assert back.hopping[key] == pytest.approx(val, abs=1e-14)
    assert back.mu == pytest.approx(dirac.mu, abs=1e-14)


def test_hcrit_table_matches_parent_via_majorana_blocks():
    ham = parent_hamiltonian(example_channel())
    table_blocks = dirac_to_majorana(hcrit_coefficients()).blocks
    got = np.concatenate([ham.blocks[d].ravel() for d in sorted(ham.blocks)])
    want = np.concatenate([table_blocks[d].ravel() for d in sorted(table_blocks)])
    scale = float(np.dot(want, got) / np.dot(want, want))
    assert scale > 0
    assert np.max(np.abs(got - scale * want)) < 1e-10


def _particle_form_operator(table: DiracQuadratic, lattice: LatticeSpec) -> OperatorPoly:
    """The table's H term by term in ladder operators, mu a^dag a - mu/2 on each site."""
    terms = []
    for site in lattice.sites():
        a = ("a", site)
        for delta, c in table.pairing.items():
            b = ("a", lattice.wrap((site[0] + delta[0], site[1] + delta[1])))
            terms += [(c, ((a, True), (b, True))), (np.conj(c), ((b, False), (a, False)))]
        for delta, c in table.hopping.items():
            b = ("a", lattice.wrap((site[0] + delta[0], site[1] + delta[1])))
            terms += [(c, ((a, True), (b, False))), (np.conj(c), ((b, True), (a, False)))]
        terms += [(table.mu, ((a, True), (a, False))), (-table.mu / 2, ())]
    return OperatorPoly.from_terms(terms)


@pytest.mark.parametrize("make_table", [
    hcrit_coefficients,
    lambda: ROUND_TRIP_TABLE,
    lambda: majorana_to_dirac(parent_hamiltonian(example_channel())),
], ids=["hcrit", "round-trip", "parent"])
def test_particle_form_matches_fock_operators(make_table):
    # checks the rewrite convention itself, not only that the two rewrites invert
    table = make_table()
    lattice = LatticeSpec(3, 3)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(1 << 9) + 1j * rng.standard_normal(1 << 9)
    psi = FockVector(physical_registry(lattice), amps)
    want = apply_poly(psi, _particle_form_operator(table, lattice)).amplitudes
    h = dirac_to_majorana(table).materialize(lattice)
    got = quadratic_operator(h, lattice.n_sites) @ amps
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("term", ["pairing", "hopping"])
@pytest.mark.parametrize("delta", [(0, -1), (0, 0)])
def test_dirac_to_majorana_refuses_keys_outside_the_half_space(term, delta):
    table = {"pairing": {}, "hopping": {}, term: {delta: 1.0}}
    with pytest.raises(ContractViolationError, match="not in the half space"):
        dirac_to_majorana(DiracQuadratic(table["pairing"], table["hopping"], 0.0, 0.0))


@pytest.mark.parametrize("n", [3, 5, 9])
def test_gap_positive_on_odd_tori(n):
    ham = parent_hamiltonian(example_channel())
    _, gap = single_particle_spectrum(ham, LatticeSpec(n, n))
    assert gap > 1e-3


def test_gap_shrinks_with_size():
    ham = parent_hamiltonian(example_channel())
    gaps = [single_particle_spectrum(ham, LatticeSpec(n, n))[1] for n in (5, 9, 17)]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_ground_state_energy_relations():
    lattice = LatticeSpec(3, 3)
    ham = parent_hamiltonian(example_channel())
    h_full = ham.materialize(lattice)
    gamma = apply_channel(
        example_channel().expand_to_lattice(lattice.n_sites),
        lattice_bond_cm(lattice),
    )
    e_state = energy_expectation(h_full, gamma)
    e_filled = filled_branch_energy(ham, lattice)
    assert e_state / 2.0 == pytest.approx(e_filled, abs=1e-10)
    # the channel output is the ground state: equal to the ground covariance
    gs = ground_state_cm(ham, lattice)
    assert np.max(np.abs(gs.matrix - gamma.matrix)) < 1e-10


def test_one_dimensional_cut_is_gapped():
    # the parent model reduced to a 3x1 ring: too small to be gapless
    lattice = LatticeSpec(3, 1)
    ham = parent_hamiltonian(example_channel())
    h_full = ham.materialize(lattice)
    registry = ModeRegistry(tuple(("a", s) for s in lattice.sites()))
    gap = many_body_gap(h_full, registry)
    assert gap > 1e-3


def test_filled_branch_matches_dense_on_three_modes():
    lattice = LatticeSpec(3, 1)
    ham = parent_hamiltonian(example_channel())
    h_full = ham.materialize(lattice)
    registry = ModeRegistry(tuple(("a", s) for s in lattice.sites()))
    e_dense, _ = exact_ground_state(h_full, registry)
    assert e_dense == pytest.approx(2.0 * filled_branch_energy(ham, lattice), abs=1e-9)


def test_ground_energy_matches_dense_diagonalization():
    lattice = LatticeSpec(3, 3)
    ham = parent_hamiltonian(example_channel())
    h_full = ham.materialize(lattice)
    registry = ModeRegistry(tuple(("a", s) for s in lattice.sites()))
    e_dense, _ = exact_ground_state(h_full, registry)
    gamma = apply_channel(
        example_channel().expand_to_lattice(lattice.n_sites),
        lattice_bond_cm(lattice),
    )
    assert e_dense == pytest.approx(energy_expectation(h_full, gamma), abs=1e-9)


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (15, 15), (23, 23)])
def test_ground_state_cm_consistency(shape):
    # compared as eps * g + h_hat, the residual does not grow like 1/gap
    res = ground_state_cm_consistency(example_channel(), LatticeSpec(*shape))
    assert res < 1e-11


def test_consistency_detects_a_perturbed_output_block(monkeypatch):
    import fpeps.quadratic as quadratic

    # the parent is derived unperturbed; only the compared output block moves
    ham = parent_hamiltonian(example_channel())
    monkeypatch.setattr(quadratic, "parent_hamiltonian", lambda channel: ham)
    real = quadratic.g_hat
    kick = 1e-6 * np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(quadratic, "g_hat", lambda p, q, d: real(p, q, d) + kick)
    res = ground_state_cm_consistency(example_channel(), LatticeSpec(15, 15))
    assert res > 1e-7


def test_consistency_reports_zero_norm_momenta(zero_norm_momenta_4x4):
    with pytest.raises(ZeroNormError) as err:
        ground_state_cm_consistency(example_channel(), LatticeSpec(4, 4))
    assert err.value.momenta == zero_norm_momenta_4x4
    assert all(type(c) is float for phi in err.value.momenta for c in phi)


def test_block_entropy_vacuum():
    # qp-ordered vacuum of 3 modes: Gamma = [[0, I], [-I, 0]]
    vac = np.block([
        [np.zeros((3, 3)), np.eye(3)],
        [-np.eye(3), np.zeros((3, 3))],
    ])
    assert block_entropy(vac, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_block_entropy_half_bond_is_one_bit():
    bond = np.array([
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ], dtype=float)
    assert block_entropy(bond, [0]) == pytest.approx(1.0, abs=1e-12)


def test_block_entropy_rejects_invalid_eigenvalues():
    bad = np.array([[0.0, 2.0], [-2.0, 0.0]])
    with pytest.raises(NumericalValidityError):
        block_entropy(bad, [0])


def _example_3x3_cm():
    lattice = LatticeSpec(3, 3)
    return apply_channel(
        example_channel().expand_to_lattice(lattice.n_sites),
        lattice_bond_cm(lattice),
    )


def test_entropy_complement_symmetry():
    gamma = _example_3x3_cm()
    block = [0, 1, 3]
    complement = [m for m in range(9) if m not in block]
    s_block = block_entropy(gamma, block)
    s_comp = block_entropy(gamma, complement)
    assert s_block == pytest.approx(s_comp, abs=1e-8)


def _entropy_by_complex_eigvalsh(gamma, modes):
    """Reference route: the nu are the upper half of the eigenvalues of i Gamma_A."""
    m = gamma.shape[0] // 2
    idx = list(modes) + [m + k for k in modes]
    w = np.linalg.eigvalsh(1j * gamma[np.ix_(idx, idx)])
    nus = np.clip(np.sort(w)[::-1][: len(modes)], 0.0, 1.0)
    x = (1.0 + nus) / 2.0
    x = x[x < 1.0]
    return float(np.sum(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)))


def test_block_entropy_matches_complex_eigensolve():
    blocks = ground_state_blocks(61)
    for length in range(2, 9):
        gamma = block_covariance(blocks, 61, length)
        modes = range(length * length)
        want = _entropy_by_complex_eigvalsh(gamma, list(modes))
        assert abs(block_entropy(gamma, modes) - want) <= 1e-10
    gamma = _example_3x3_cm().matrix
    for modes in ([0], [4], [0, 1, 2], [0, 1, 3], [2, 4, 5, 6, 7, 8], list(range(9))):
        want = _entropy_by_complex_eigvalsh(gamma, modes)
        assert abs(block_entropy(gamma, modes) - want) <= 1e-10


@pytest.mark.parametrize("modes", [
    pytest.param([[0.5], [1.0], [0, 2.0], [True]], id="non-integer"),
    pytest.param([[-1], [3, -2], range(-1, 2)], id="negative"),
    pytest.param([[9], [0, 12], range(7, 10)], id="not-below-n"),
    pytest.param([[0, 0], [2, 5, 2], (4, 4, 4)], id="repeated"),
])
def test_block_entropy_refuses_bad_modes(modes):
    # [-1] read type-1 mode 8 as the type-2 partner of mode 0 and returned
    # bits; [0, 0] counted mode 0 twice; [9] ended in a bare IndexError
    gamma = _example_3x3_cm()
    for bad in modes:
        with pytest.raises(ContractViolationError, match="block modes"):
            block_entropy(gamma, bad)


@pytest.mark.parametrize("modes", [[], range(0), range(3, 3)], ids=["list", "range", "empty-range"])
def test_block_entropy_refuses_an_empty_block(modes):
    with pytest.raises(ContractViolationError, match="at least one mode"):
        block_entropy(_example_3x3_cm(), modes)


def test_block_entropy_reads_a_range_as_its_list():
    # a step-1 range is read by slicing, a list by gathering: the same bits
    gamma = _example_3x3_cm()
    for modes in (range(0, 1), range(0, 9), range(3, 7), range(8, 9), range(1, 9, 2)):
        assert block_entropy(gamma, modes) == block_entropy(gamma, list(modes))
    gamma = block_covariance(ground_state_blocks(61), 61, 10)
    for modes in (range(100), range(17, 83)):
        assert block_entropy(gamma, modes) == block_entropy(gamma, list(modes))


def test_block_entropy_refuses_a_non_chiral_block():
    # two-mode vacuum with its type-1 Majoranas rotated: a valid pure state
    # whose two-mode block has C = [[cos, -sin], [sin, cos]], not symmetric
    t = 0.3
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    gamma = np.block([[np.zeros((2, 2)), rot], [-rot.T, np.zeros((2, 2))]])
    assert np.allclose(gamma @ gamma.T, np.eye(4))
    assert _entropy_by_complex_eigvalsh(gamma, [0, 1]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ContractViolationError, match=r"not chiral: .*C - C\^T\| = 5.91e-01"):
        block_entropy(gamma, [0, 1])
