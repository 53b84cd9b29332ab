"""Gaussian-side helpers that only the tests call.

The gather-and-transpose circulant matrix of a displacement array (the
reference for the package's windowed copy), the forward block Fourier
transform of a lattice matrix (the package needs only its inverse), the
paper's real 4x4 momentum block, the purity defect of covariance matrices
and momentum blocks, the locality radius of a
parent Hamiltonian, the filled-branch ground state of a quadratic
Hamiltonian (its covariance and energy from the single-particle spectrum),
and the finite-torus correlator read off the ground-state displacement
array.  Each is an independent route to a number the package computes
another way.
"""
import numpy as np

from fpeps.correlators import _check_grid, _check_kind
from fpeps.critical import ground_state_blocks
from fpeps.errors import ZeroNormError
from fpeps.gaussian import MajoranaCM, matrix_from_blocks
from fpeps.lattice import LatticeSpec
from fpeps.quadratic import QuadraticHamiltonian, _positive_branch, single_particle_spectrum


def purity_defect(g: np.ndarray) -> float:
    """max |G^2 + 1| of a covariance matrix or a ``(..., w, w)`` block stack;
    about 0 for pure Gaussian states."""
    return float(np.max(np.abs(g @ g + np.eye(g.shape[-1]))))


def circulant_reference(T: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """The matrix of ``fpeps.gaussian._circulant``, gathered pair by pair.

    Each site pair reads ``T[h_j - h_i, v_j - v_i]`` through one fancy
    index, and a six-axis transpose puts the result in qp order.
    """
    n_h, n_v, width = T.shape[:3]
    l_h, l_v = shape or (n_h, n_v)
    h, v = np.arange(l_h), np.arange(l_v)
    dh = (h[None, :] - h[:, None]) % n_h
    dv = (v[None, :] - v[:, None]) % n_v
    # pair[v_i, h_i, v_j, h_j] = T[h_j - h_i, v_j - v_i]
    pair = T[dh[None, :, None, :], dv[:, None, :, None]]
    m, s = l_h * l_v, width // 2
    pair = pair.reshape(m, m, 2, s, 2, s)
    return pair.transpose(2, 0, 3, 4, 1, 5).reshape(width * m, width * m)


def blocks_from_matrix(matrix: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Momentum blocks of a circulant qp-ordered lattice matrix.

    Returns a complex ``(n_sites, w, w)`` stack in ``lattice.momenta()``
    order, ``w`` being the number of Majorana components per site.  The
    input must be translationally invariant; displacement data is read off
    site (1, 1).
    """
    n_h, n_v = lattice.n_h, lattice.n_v
    matrix = np.asarray(matrix)
    s = matrix.shape[0] // (2 * n_h * n_v)
    # row of site (1, 1): [r, mu, c, (dv, dh), nu] -> T[dh, dv, (r, mu), (c, nu)]
    row = matrix.reshape(2, n_h * n_v, s, 2, n_h * n_v, s)[:, 0]
    T = row.reshape(2, s, 2, n_v, n_h, s).transpose(4, 3, 0, 1, 2, 5)
    hat = np.fft.fft2(T.reshape(n_h, n_v, 2 * s, 2 * s), axes=(0, 1))
    return hat.swapaxes(0, 1).reshape(-1, 2 * s, 2 * s)


def eq9_gamma_hat(p: float, q: complex, d: float) -> np.ndarray:
    """Real 4x4 momentum block over the paired (phi, -phi) real modes."""
    a, b, c = q.real / d, q.imag / d, p / d
    return np.array([
        [0.0, a, -b, c],
        [-a, 0.0, c, b],
        [b, -c, 0.0, a],
        [-c, -b, -a, 0.0],
    ])


def locality_radius(ham: QuadraticHamiltonian) -> int:
    """Largest |dh| or |dv| among the Hamiltonian's displacement blocks."""
    if not ham.blocks:
        return 0
    return max(max(abs(dh), abs(dv)) for dh, dv in ham.blocks)


def filled_branch_energy(ham: QuadraticHamiltonian, lattice: LatticeSpec) -> float:
    """Sum over momenta of the negative single-particle branch."""
    spectrum, _ = single_particle_spectrum(ham, lattice)
    return -sum(e for _, e in spectrum)


def ground_state_cm(ham: QuadraticHamiltonian, lattice: LatticeSpec) -> MajoranaCM:
    """Covariance matrix of the filled negative branch, g_hat = -h_hat/eps."""
    momenta = lattice.momenta()
    hh = ham.h_hat(momenta)
    eps = _positive_branch(hh)
    if np.any(eps < 1e-12):
        phi = tuple(momenta[np.argmax(eps < 1e-12)].tolist())
        raise ZeroNormError(f"gapless momentum {phi}: ground covariance undefined", momenta=[phi])
    return MajoranaCM(matrix_from_blocks(-hh / eps[:, None, None], lattice))


def torus_correlator(n1: int, n2: int, kind: str, grid_size: int = 401) -> float:
    """Exact correlator of a finite grid x grid torus (via FFT).

    It differs from the continuum value by image sums of order 1/grid^2.
    Kinds ``p`` and ``q`` are the type-(1, 1) and type-(1, 2) entries of the
    ground-state displacement array, so an odd grid never meets the
    singular set.
    """
    _check_grid(grid_size)
    _check_kind(kind)
    block = ground_state_blocks(grid_size)[n1 % grid_size, n2 % grid_size]
    return float(block[0, 0] if kind == "p" else block[0, 1])
