"""Dense Fock-space oracle: operator algebra, covariance, diagonalization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpeps.errors import (
    ContractViolationError,
    ResourceLimitError,
    UndefinedStateError,
)
from fpeps.fock import (
    FockVector,
    ModeRegistry,
    OperatorPoly,
    apply_poly,
    covariance_matrix,
    exact_ground_state,
    majorana_vector,
    many_body_gap,
    normalized_overlaps,
    parity_signs,
    quadratic_operator,
    vacuum,
)


def reg(n):
    return ModeRegistry(tuple(("a", (i, 1)) for i in range(1, n + 1)))


def ladder(i, create, n=None):
    return OperatorPoly.from_terms([(1.0, ((("a", (i, 1)), create),))])


def test_parity_signs_match_the_doubling_loop():
    signs = np.ones(1)
    for n in range(13):
        assert parity_signs(n).dtype == np.float64
        assert np.array_equal(parity_signs(n), signs)
        signs = np.concatenate([signs, -signs])


def test_vacuum_single_mode():
    v = vacuum(reg(1))
    assert np.allclose(v.amplitudes, [1, 0])


def test_vacuum_two_modes():
    v = vacuum(reg(2))
    assert v.amplitudes[0] == 1.0
    assert np.count_nonzero(v.amplitudes) == 1


def test_vacuum_cap():
    with pytest.raises(ResourceLimitError, match="25"):
        vacuum(reg(25))


def test_creation_on_vacuum():
    v = apply_poly(vacuum(reg(2)), ladder(1, True))
    assert v.amplitudes[0b01] == 1.0
    assert np.count_nonzero(v.amplitudes) == 1


def test_pauli_exclusion():
    state = apply_poly(vacuum(reg(2)), ladder(1, True))
    state = apply_poly(state, ladder(2, True))
    state = apply_poly(state, ladder(1, True))
    assert state.norm() == 0.0


def test_anticommutation_order_sign():
    a = apply_poly(apply_poly(vacuum(reg(2)), ladder(1, True)), ladder(2, True))
    b = apply_poly(apply_poly(vacuum(reg(2)), ladder(2, True)), ladder(1, True))
    assert np.allclose(a.amplitudes, -b.amplitudes)


def test_unknown_label():
    with pytest.raises(ContractViolationError):
        apply_poly(vacuum(reg(2)), OperatorPoly.from_terms(
            [(1.0, ((("alpha", (9, 9)), True),))]
        ))


def test_monomials_apply_right_to_left():
    # a1^dag a1 on |1> keeps it; a1 a1^dag annihilates it
    occ = apply_poly(vacuum(reg(1)), ladder(1, True))
    keep = OperatorPoly.from_terms([(1.0, ((("a", (1, 1)), True), (("a", (1, 1)), False)))])
    kill = OperatorPoly.from_terms([(1.0, ((("a", (1, 1)), False), (("a", (1, 1)), True)))])
    assert apply_poly(occ, keep).norm() == pytest.approx(1.0)
    assert apply_poly(occ, kill).norm() == 0.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_majorana_anticommutation(n, data):
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    ti = data.draw(st.integers(min_value=1, max_value=2))
    tj = data.draw(st.integers(min_value=1, max_value=2))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**30)))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    state = FockVector(reg(n), amps / np.linalg.norm(amps))
    ci_cj = majorana_vector(
        FockVector(reg(n), majorana_vector(state, j, tj)), i, ti
    )
    cj_ci = majorana_vector(
        FockVector(reg(n), majorana_vector(state, i, ti)), j, tj
    )
    anti = ci_cj + cj_ci
    expected = 2.0 * state.amplitudes if (i, ti) == (j, tj) else 0.0
    assert np.allclose(anti, expected, atol=1e-12)


def test_covariance_vacuum_and_occupied():
    v = vacuum(reg(1))
    assert np.allclose(covariance_matrix(v), [[0, 1], [-1, 0]])
    occ = apply_poly(v, ladder(1, True))
    assert np.allclose(covariance_matrix(occ), [[0, -1], [1, 0]])


def test_covariance_zero_state():
    z = FockVector(reg(1), np.zeros(2, dtype=complex))
    with pytest.raises(UndefinedStateError):
        covariance_matrix(z)


def test_normalized_overlaps_are_the_one_vector_values_and_refuse_a_zero_row():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 3, 8)) + 1j * rng.standard_normal((2, 3, 8))
    got = normalized_overlaps(a, b)
    for i in range(3):  # bit for bit, whatever the stack
        assert got[i] == abs(np.vdot(a[i], b[i])) / (np.linalg.norm(a[i]) * np.linalg.norm(b[i]))
    b[1] = 0.0
    with pytest.raises(UndefinedStateError, match="zero vector"):
        normalized_overlaps(a, b)
    other = ModeRegistry(tuple(("b", (i, 1)) for i in range(1, 4)))
    with pytest.raises(ContractViolationError, match="different registries"):
        FockVector(reg(3), a[0]).normalized_overlap(FockVector(other, b[0]))


def test_covariance_pure_state_squares_to_minus_one():
    rng = np.random.default_rng(0)
    # random Gaussian state: ground state of a random quadratic Hamiltonian
    n = 3
    h = rng.standard_normal((2 * n, 2 * n))
    h = (h - h.T) / 2
    _, gs = exact_ground_state(h, reg(n))
    gamma = covariance_matrix(gs)
    assert np.max(np.abs(gamma @ gamma + np.eye(2 * n))) < 1e-10


def test_covariance_matches_pairwise_inner_products():
    rng = np.random.default_rng(2)
    n = 4
    h = rng.standard_normal((2 * n, 2 * n))
    _, gs = exact_ground_state((h - h.T) / 2, reg(n))
    vecs = [majorana_vector(gs, p, which) for which in (1, 2) for p in range(n)]
    want = np.array([[(1j * np.vdot(a, b)).real for b in vecs] for a in vecs])
    np.fill_diagonal(want, 0.0)
    assert np.max(np.abs(covariance_matrix(gs) - want)) < 1e-14


def test_exact_ground_state_zero_hamiltonian():
    e, state = exact_ground_state(np.zeros((4, 4)), reg(2))
    assert e == 0.0
    assert state.amplitudes[0] == 1.0


def test_exact_ground_state_single_mode():
    # h = [[0, t], [-t, 0]] gives H = 2 t (1 - 2 n): ground energy -2|t|
    for t in (0.7, -1.3):
        e, _ = exact_ground_state(np.array([[0.0, t], [-t, 0.0]]), reg(1))
        assert e == pytest.approx(-2 * abs(t), abs=1e-12)


def test_apply_quadratic_matches_ground_energy():
    rng = np.random.default_rng(1)
    n = 3
    h = rng.standard_normal((2 * n, 2 * n))
    h = (h - h.T) / 2
    e, gs = exact_ground_state(h, reg(n))
    hpsi = quadratic_operator(h, n) @ gs.amplitudes
    assert np.allclose(hpsi, e * gs.amplitudes, atol=1e-9)


@pytest.mark.parametrize("n,seed", [(1, 0), (3, 1), (4, 2)])
def test_quadratic_operator_is_the_sum_of_majorana_products(n, seed):
    # reference: dense c_k from majorana_vector on every basis state, summed
    # over the pairs k < l in the same order; the arithmetic is the same
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((2 * n, 2 * n))
    h = h - h.T
    basis = np.eye(1 << n)
    c = [np.array([majorana_vector(FockVector(reg(n), e), pos, which) for e in basis]).T
         for which in (1, 2) for pos in range(n)]
    want = np.zeros((1 << n, 1 << n), dtype=complex)
    for k, l in zip(*np.nonzero(np.triu(h, 1))):
        want += (2j * h[k, l]) * (c[k] @ c[l])
    assert np.array_equal(quadratic_operator(h, n).toarray(), want)


def test_sparse_eigensolves_repeat_exactly():
    # 9 modes take the eigsh path of both solvers
    h = np.random.default_rng(4).standard_normal((18, 18))
    h = h - h.T
    energies = {exact_ground_state(h, reg(9))[0] for _ in range(3)}
    gaps = {many_body_gap(h, reg(9)) for _ in range(3)}
    assert len(energies) == 1 and len(gaps) == 1


def test_quadratic_requires_antisymmetry():
    with pytest.raises(ContractViolationError):
        quadratic_operator(np.eye(2), 1) @ vacuum(reg(1)).amplitudes


def test_diagonalization_cap():
    with pytest.raises(ResourceLimitError):
        exact_ground_state(np.zeros((26, 26)), reg(13))
