"""Covariance matrices, Gaussian channels, and momentum-space blocks."""
import numpy as np
import pytest

from gaussian_reference import blocks_from_matrix, circulant_reference, eq9_gamma_hat, purity_defect
from fpeps.critical import EXAMPLE_B, EXAMPLE_D, example_channel
from fpeps.errors import ContractViolationError, NumericalValidityError, ZeroNormError
from fpeps.gaussian import (
    ZERO_NORM_ATOL,
    GaussianChannel,
    MajoranaCM,
    _adjugate,
    _circulant,
    _harmonic_table,
    _rcond,
    apply_channel,
    fourier_bond,
    g_hat,
    gamma_out_hat,
    lattice_bond_cm,
    matrix_from_blocks,
    physical_cm_from_blocks,
)
from fpeps.lattice import LatticeSpec
from fpeps.quadratic import parent_hamiltonian

VACUUM_CM = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_cm_validation():
    with pytest.raises(ContractViolationError):
        MajoranaCM(np.eye(2))


@pytest.mark.parametrize("shape", [(0, 0), (0, 2), (0,)])
def test_cm_validation_refuses_an_empty_matrix(shape):
    # (0, 0) passed the shape check and then ended in numpy's zero-size
    # reduction ValueError
    with pytest.raises(ContractViolationError, match="shape"):
        MajoranaCM(np.zeros(shape))


def test_channel_validation_rejects_bad_blocks():
    with pytest.raises(ContractViolationError):
        GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))


@pytest.mark.parametrize("name, shape", [("A", (2,)), ("D", (2, 2, 2)), ("B", (2,))],
                         ids=["A-1d", "D-3d", "B-1d"])
def test_channel_refuses_blocks_that_are_not_matrices(vacuum_channel, name, shape):
    # a 1-D A or B ended in a bare IndexError, a 3-D D in numpy's hstack ValueError
    blocks = {"A": vacuum_channel.A, "B": vacuum_channel.B, "D": vacuum_channel.D,
              name: np.zeros(shape)}
    with pytest.raises(ContractViolationError) as refused:
        GaussianChannel(**blocks)
    assert str(refused.value) == f"channel block {name} must be a matrix, got shape {shape}"


@pytest.mark.parametrize("blocks, message", [
    ((np.zeros((2, 2)), np.zeros((4, 2)), VACUUM_CM), "A/B shapes inconsistent"),
    ((np.zeros((2, 3)), np.zeros((2, 2)), VACUUM_CM), "A/B shapes inconsistent"),
    ((VACUUM_CM, np.zeros((2, 2)), np.zeros((4, 4))), "B/D shapes inconsistent"),
    ((VACUUM_CM, np.zeros((2, 4)), np.zeros((4, 2))), "B/D shapes inconsistent"),
    ((np.zeros((1, 1)), np.zeros((1, 2)), VACUUM_CM), "even dimension"),
    ((VACUUM_CM, np.zeros((2, 1)), np.zeros((1, 1))), "even dimension"),
    ((VACUUM_CM, np.zeros((2, 2)), 2 * VACUUM_CM), "must be orthogonal"),
], ids=["A-rows", "A-square", "D-rows", "D-square", "odd-A", "odd-D", "not-orthogonal"])
def test_channel_refuses_inconsistent_blocks(blocks, message):
    with pytest.raises(ContractViolationError, match=message):
        GaussianChannel(*blocks)


def test_apply_channel_refuses_an_input_of_another_size(vacuum_channel):
    two_modes = MajoranaCM(np.kron(np.eye(2), VACUUM_CM))
    with pytest.raises(ContractViolationError, match=r"input covariance \(4, 4\) does not match D"):
        apply_channel(vacuum_channel, two_modes)


def test_lattice_bond_cm_is_pure_and_antisymmetric():
    for shape in [(1, 1), (2, 1), (2, 2), (3, 3)]:
        cm = lattice_bond_cm(LatticeSpec(*shape))
        assert purity_defect(cm.matrix) < 1e-12


def test_lattice_bond_cm_single_bond_block():
    # the (beta(1,1), alpha(2,1)) pair carries the reference bond CM
    lattice = LatticeSpec(2, 1)
    cm = lattice_bond_cm(lattice).matrix
    n = lattice.n_sites
    b = 4 * 0 + 1          # beta of site (1,1)
    a = 4 * 1 + 0          # alpha of site (2,1)
    sub = cm[np.ix_([b, a, 4 * n + b, 4 * n + a], [b, a, 4 * n + b, 4 * n + a])]
    assert np.allclose(sub, [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])


def test_fourier_bond_antihermitian_and_real_at_zero():
    rng = np.random.default_rng(1)
    for _ in range(5):
        phi = rng.uniform(0, 2 * np.pi, 2)
        W = fourier_bond(phi)
        assert np.max(np.abs(W + W.conj().T)) < 1e-12
    assert np.max(np.abs(fourier_bond((0.0, 0.0)).imag)) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 3), (5, 5)])
def test_momenta_are_float_rows_in_m_order(shape):
    lattice = LatticeSpec(*shape)
    momenta = lattice.momenta()
    assert momenta.shape == (lattice.n_sites, 2) and momenta.dtype == np.float64
    sites = lattice.sites()
    for h, v in sites:
        k_h, k_v = h - 1, v - 1
        want = [2.0 * np.pi * k_h / lattice.n_h, 2.0 * np.pi * k_v / lattice.n_v]
        assert momenta[sites.index((h, v))].tolist() == want


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2), (4, 3), (5, 2)])
def test_shifted_is_the_wrapped_neighbour_in_m_order(shape):
    lattice = LatticeSpec(*shape)
    sites = lattice.sites()
    for dh, dv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        want = [sites.index(lattice.wrap((h + dh, v + dv))) for h, v in sites]
        assert lattice.shifted(dh, dv).tolist() == want


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 2), (2, 3)])
def test_fourier_bond_round_trip(shape):
    lattice = LatticeSpec(*shape)
    cm = lattice_bond_cm(lattice)
    blocks = fourier_bond(lattice.momenta())
    assert blocks.shape == (lattice.n_sites, 8, 8)
    rebuilt = matrix_from_blocks(blocks, lattice)
    assert rebuilt.dtype == np.float64
    assert np.max(np.abs(rebuilt - cm.matrix)) < 1e-12
    # and the forward transform agrees entrywise
    forward = blocks_from_matrix(cm.matrix, lattice)
    assert np.max(np.abs(forward - blocks)) < 1e-12


def test_matrix_from_blocks_refuses_an_imaginary_matrix():
    lattice = LatticeSpec(3, 2)
    blocks = fourier_bond(lattice.momenta())
    with pytest.raises(NumericalValidityError, match="imaginary residue"):
        matrix_from_blocks(1j * blocks, lattice)


def test_matrix_from_blocks_rejects_wrong_stack():
    lattice = LatticeSpec(3, 2)
    blocks = fourier_bond(lattice.momenta())
    for bad in (blocks[:-1], blocks[:, :7, :7], blocks[:, :, :4]):
        with pytest.raises(ContractViolationError):
            matrix_from_blocks(bad, lattice)


# (torus, block shape, width): whole tori (no shape), then L x L blocks of the
# 61-torus and two non-square blocks; width 8 is that of fourier_bond blocks
CIRCULANT_CASES = [
    *[(torus, None, width) for torus in [(1, 1), (1, 3), (4, 2), (3, 5), (15, 15)]
      for width in (2, 8)],
    *[((61, 61), (length, length), 2) for length in (1, 7, 30)],
    ((61, 61), (1, 1), 8), ((61, 61), (7, 7), 8),
    ((9, 7), (5, 3), 2), ((9, 7), (2, 6), 8),
]


@pytest.mark.parametrize("torus, shape, width", CIRCULANT_CASES)
def test_circulant_is_bit_equal_to_the_gather(torus, shape, width):
    T = np.random.default_rng(sum(torus) + width).standard_normal(torus + (width, width))
    got, want = _circulant(T, shape), circulant_reference(T, shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and got.flags.writeable


def test_apply_channel_b_zero_returns_a(vacuum_channel):
    ch = vacuum_channel
    gamma_in = MajoranaCM(np.array([[0.0, -1.0], [1.0, 0.0]]))
    out = apply_channel(ch, gamma_in)
    assert np.allclose(out.matrix, VACUUM_CM)


def test_apply_channel_purity_propagation():
    lattice = LatticeSpec(3, 3)
    ch = example_channel().expand_to_lattice(lattice.n_sites)
    out = apply_channel(ch, lattice_bond_cm(lattice))
    assert purity_defect(out.matrix) < 1e-10


def test_apply_channel_singular_input(vacuum_channel):
    ch = vacuum_channel
    # Gamma_in equal to D makes D - Gamma_in vanish identically
    with pytest.raises(ZeroNormError) as err:
        apply_channel(ch, MajoranaCM(ch.D))
    assert err.value.determinant is not None


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (4, 3), (4, 4)])
def test_apply_channel_singular_lattices(shape):
    # tori with zero-norm momenta: D - Gamma_in is singular to rounding
    lattice = LatticeSpec(*shape)
    ch = example_channel().expand_to_lattice(lattice.n_sites)
    with pytest.raises(ZeroNormError) as err:
        apply_channel(ch, lattice_bond_cm(lattice))
    det = err.value.determinant
    assert abs(det) < ZERO_NORM_ATOL
    assert str(err.value) == f"projection is singular: det(D - Gamma_in) = {det:.3e}"


def test_apply_channel_small_determinant_of_a_well_conditioned_matrix():
    # 32 modes: det(D - Gamma_in) = det(-J/2) = 2^-64, far below
    # ZERO_NORM_ATOL, while every singular value is 1/2; the output is
    # (-J/2)^-1 = 2 J.  Large odd tori (17x19 and up) are such a case.
    J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(32))
    ch = GaussianChannel(np.zeros((64, 64)), np.eye(64), np.zeros((64, 64)))
    assert np.linalg.det(ch.D - 0.5 * J) == pytest.approx(2.0**-64)
    assert np.array_equal(apply_channel(ch, MajoranaCM(0.5 * J)).matrix, 2 * J)


def test_rcond_is_the_exact_reciprocal_condition_number():
    M = np.random.default_rng(2).standard_normal((40, 40))
    assert _rcond(M) == pytest.approx(1.0 / np.linalg.cond(M, 1), rel=1e-12)
    assert _rcond(np.ones((3, 3))) == 0.0  # a zero pivot
    assert _rcond(np.diag([1e-320, 1e-320])) == 0.0  # the inverse overflows to nan


@pytest.mark.parametrize("n_sites", [1, 3, 9, 25])
def test_expand_to_lattice_is_the_permuted_kron(n_sites):
    # P (I_N kron G) P^T, P sending (site, local component) to the global qp
    # position; the result is built without validation, so validate it here
    ch = example_channel()
    p, q = ch.p_modes, ch.q_modes
    local = np.arange(2 * (p + q))
    out = local < 2 * p
    width = np.where(out, p, q)
    mtype, mode = np.divmod(np.where(out, local, local - 2 * p), width)
    site = np.arange(n_sites)[:, None]
    perm = np.where(out, 0, 2 * p * n_sites) + (mtype * n_sites + site) * width + mode
    want = np.empty((2 * (p + q) * n_sites,) * 2)
    want[np.ix_(perm.ravel(), perm.ravel())] = np.kron(np.eye(n_sites), ch.assembled())
    big = ch.expand_to_lattice(n_sites)
    assert np.array_equal(big.assembled(), want)
    big.validate()


def test_gamma_out_hat_reference_momenta():
    ch = example_channel()
    fb = gamma_out_hat(ch, (0.0, 0.0))
    assert fb.p / fb.d == pytest.approx(0.0, abs=1e-12)
    assert fb.q.real / fb.d == pytest.approx(-1.0, abs=1e-12)
    fb = gamma_out_hat(ch, (3 * np.pi / 2, 0.0))
    assert fb.p / fb.d == pytest.approx(1.0, abs=1e-12)
    assert fb.q.real / fb.d == pytest.approx(0.0, abs=1e-12)
    fb = gamma_out_hat(ch, (np.pi / 2, 0.0))
    assert fb.p / fb.d == pytest.approx(-1.0, abs=1e-12)
    assert fb.q.real / fb.d == pytest.approx(0.0, abs=1e-12)


def test_gamma_out_hat_zero_norm_flag():
    # the singular family of the model: sin(phi1) sin(phi2) = 1
    ch = example_channel()
    fb = gamma_out_hat(ch, (np.pi / 2, np.pi / 2))
    assert fb.zero_norm
    fb = gamma_out_hat(ch, (np.pi, 1.3))  # removable line: zero determinant too
    assert fb.zero_norm
    fb = gamma_out_hat(ch, (0.7, 1.3))
    assert not fb.zero_norm


def test_gamma_out_hat_stack_matches_single_momenta():
    ch = example_channel()
    stack = np.random.default_rng(8).uniform(0, 2 * np.pi, (3, 4, 2))
    stack[0, 1] = (np.pi / 2, np.pi / 2)
    stack[2, 3] = (np.pi, 1.3)
    flat = stack.reshape(-1, 2)
    single = [gamma_out_hat(ch, phi) for phi in flat]
    for fb in single:
        assert all(np.ndim(field) == 0 for field in fb)
    for phis in (stack, flat):
        out = gamma_out_hat(ch, phis)
        for field, values in zip(out, zip(*single)):
            assert field.shape == phis.shape[:-1]
            assert np.array_equal(field.reshape(-1), np.array(values))
    zero = gamma_out_hat(ch, stack).zero_norm.reshape(-1)
    assert [tuple(phi) for phi in flat[zero]] == [(np.pi / 2, np.pi / 2), (np.pi, 1.3)]


def direct_triple(ch, phis):
    """(p, q, d) from the per-momentum adjugate of D - omega_hat."""
    adj, det = _adjugate(ch.D - fourier_bond(phis))
    R = ch.B @ adj @ ch.B.T + det[..., None, None] * ch.A
    return R[..., 0, 0].imag, R[..., 0, 1], det.real


@pytest.mark.parametrize("seed", range(8))
def test_harmonic_table_is_exact_on_random_channels(seed, random_site_channel):
    ch = random_site_channel(seed)
    rng = np.random.default_rng(seed)
    stacks = [rng.uniform(-3.0, 10.0, (500, 2))]
    stacks += [LatticeSpec(n, n).momenta() for n in (7, 9)]
    for phis in stacks:
        out = gamma_out_hat(ch, phis)
        for got, want in zip(out[:3], direct_triple(ch, phis)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_harmonic_table_is_exact_on_the_example():
    ch = example_channel()
    phis = np.random.default_rng(4).uniform(-3.0, 10.0, (1000, 2))
    out = gamma_out_hat(ch, phis)
    for got, want in zip(out[:3], direct_triple(ch, phis)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    s1, s2 = np.sin(phis.T)
    c1, c2 = np.cos(phis.T / 2)
    assert np.max(np.abs(out.d - 16 * (1 - s1 * s2) * c1**2 * c2**2)) < 1e-12


def test_harmonic_table_is_shared_and_read_only():
    table = _harmonic_table(example_channel())
    assert _harmonic_table(example_channel()) is table
    assert table.shape == (3, 5, 5)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


def test_channel_is_a_read_only_value(random_site_channel):
    source = random_site_channel(3)
    A, B, D = (block.copy() for block in (source.A, source.B, source.D))
    ch = GaussianChannel(A, B, D)
    for channel in (ch, ch.expand_to_lattice(3)):
        for name in "ABD":
            with pytest.raises(ValueError, match="read-only"):
                getattr(channel, name)[0, 0] = 1.0
    phis = np.random.default_rng(3).uniform(0, 2 * np.pi, (20, 2))
    before = gamma_out_hat(ch, phis)
    D[...] = -D  # the caller's arrays, which the channel copied
    assert np.array_equal(ch.D, source.D)
    assert all(np.array_equal(x, y) for x, y in zip(gamma_out_hat(ch, phis), before))
    # a cache entry is per channel object: an equal channel derives equal bytes
    example, fresh = example_channel(), GaussianChannel(np.zeros((2, 2)), EXAMPLE_B, EXAMPLE_D)
    assert fresh is not example
    assert _harmonic_table(fresh).tobytes() == _harmonic_table(example).tobytes()
    ham, fresh_ham = parent_hamiltonian(example), parent_hamiltonian(fresh)
    assert list(fresh_ham.blocks) == list(ham.blocks)
    assert all(fresh_ham.blocks[k].tobytes() == ham.blocks[k].tobytes() for k in ham.blocks)


def test_gamma_out_hat_refuses_a_lattice_channel():
    with pytest.raises(ContractViolationError, match="one-site channel"):
        gamma_out_hat(example_channel().expand_to_lattice(2), (0.1, 0.2))


@pytest.mark.parametrize("phis", [np.array([0.3]), np.zeros(3), np.zeros((4, 3)), np.float64(0.3)])
def test_gamma_out_hat_refuses_momenta_without_two_components(phis):
    with pytest.raises(ContractViolationError, match=r"shape \(\.\.\., 2\)"):
        gamma_out_hat(example_channel(), phis)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gamma_out_hat_refuses_non_finite_momenta(bad):
    phis = np.full((3, 2), 0.4)
    phis[1, 0] = bad
    with pytest.raises(ContractViolationError, match="finite"):
        gamma_out_hat(example_channel(), phis)


def test_purity_check_valid_and_corrupted():
    fb = gamma_out_hat(example_channel(), (0.7, 1.9))
    assert purity_defect(g_hat(fb.p, fb.q, fb.d)) < 1e-10
    assert purity_defect(g_hat(fb.p * 1.1, fb.q, fb.d)) > 1e-3


def test_purity_check_vacuum_channel_exact():
    # the vacuum block: p = 0, q = d
    assert purity_defect(g_hat(0.0, 1.0, 1.0)) == 0.0


def test_eq9_block_is_antisymmetric_and_pure():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.standard_normal()
        q = rng.standard_normal() + 1j * rng.standard_normal()
        d = np.sqrt(p * p + abs(q) ** 2)  # purity normalization
        gam = eq9_gamma_hat(p, q, d)
        assert np.max(np.abs(gam + gam.T)) < 1e-12
        assert np.max(np.abs(gam @ gam + np.eye(4))) < 1e-12


def test_eq9_block_spectrum_matches_complex_blocks():
    ch = example_channel()
    fb = gamma_out_hat(ch, (0.9, 2.2))
    w4 = np.sort(np.linalg.eigvals(eq9_gamma_hat(fb.p, fb.q, fb.d)).imag)
    assert np.allclose(w4, [-1, -1, 1, 1], atol=1e-10)


@pytest.mark.parametrize("shape", [(3, 3), (5, 5), (3, 5), (5, 3)])
def test_fourier_equivalence(shape):
    lattice = LatticeSpec(*shape)
    ch = example_channel()
    direct = apply_channel(ch.expand_to_lattice(lattice.n_sites), lattice_bond_cm(lattice))
    assembled = physical_cm_from_blocks(ch, lattice)
    assert np.max(np.abs(direct.matrix - assembled.matrix)) < 1e-10


def test_physical_cm_raises_on_zero_norm_lattice(zero_norm_momenta_4x4):
    lattice = LatticeSpec(4, 4)
    with pytest.raises(ZeroNormError) as err:
        physical_cm_from_blocks(example_channel(), lattice)
    assert err.value.momenta == zero_norm_momenta_4x4
    assert all(type(c) is float for phi in err.value.momenta for c in phi)
