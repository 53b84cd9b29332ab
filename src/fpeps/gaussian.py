"""Majorana covariance matrices and pure Gaussian maps on a torus.

Conventions, used consistently across the package:

* Majorana operators c^(1) = a^dag + a, c^(2) = -i (a^dag - a); covariance
  Gamma_kl = <(i/2)[c_k, c_l]> is real antisymmetric, with Gamma^2 = -1 for
  pure states.
* qp ordering: all type-1 components first, then all type-2.  Within a type
  block, modes are site-major (M order) with the per-site auxiliary order
  (alpha, beta, gamma, delta).
* Block Fourier transform of a translationally invariant matrix:
  M_hat(phi)[mu, nu] = sum_Delta M[(s, mu), (s + Delta, nu)] e^{-i phi.Delta},
  i.e. momentum blocks of F M F^dag with Fourier modes carrying e^{+i phi.n}.

The virtual modes of one site connect to the neighbors through maximally
entangled bonds; the resulting 4x4 bond covariance matrix in the ordering
(c1_first, c1_second, c2_first, c2_second) is

    [[ 0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]

where "first" is the mode whose creator appears left in the bond operator
(beta for horizontal bonds, delta for vertical ones).
"""
from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    NumericalValidityError,
    ZeroNormError,
)
from .fock import SPECIES, ModeRegistry, antisymmetry_defect, exact_ground_state
from .lattice import LatticeSpec
from .tensors import _PARITY, FPEPSTensor

ANTISYM_ATOL = 1e-12
ZERO_NORM_ATOL = 1e-9

# species offsets inside a site's virtual quadruple
ALPHA, BETA, GAMMA, DELTA = 0, 1, 2, 3


@dataclass(frozen=True)
class MajoranaCM:
    """Real antisymmetric covariance matrix in qp ordering."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 or not mat.size:
            raise ContractViolationError(f"covariance matrix shape {mat.shape} invalid")
        if antisymmetry_defect(mat) > ANTISYM_ATOL:
            raise ContractViolationError("covariance matrix must be antisymmetric")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Pure Gaussian map Gamma_out = B (D - Gamma_in)^-1 B^T + A.

    A is 2p x 2p, B is 2p x 2q and D is 2q x 2q for p output and q input
    modes; the assembled block matrix [[A, B], [-B^T, D]] must be
    antisymmetric and orthogonal.  A channel is a read-only value: it keeps
    read-only copies of the blocks, checked once, and hashes by identity,
    so what is derived from it is cached per channel object.
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "D"):
            block = np.array(getattr(self, name), dtype=float)
            if block.ndim != 2:
                raise ContractViolationError(f"channel block {name} must be a matrix, "
                                             f"got shape {block.shape}")
            block.flags.writeable = False
            object.__setattr__(self, name, block)
        A, B, D = self.A, self.B, self.D
        if A.shape[0] != A.shape[1] or A.shape[0] != B.shape[0]:
            raise ContractViolationError("channel block A/B shapes inconsistent")
        if D.shape[0] != D.shape[1] or D.shape[0] != B.shape[1]:
            raise ContractViolationError("channel block B/D shapes inconsistent")
        if A.shape[0] % 2 or D.shape[0] % 2:
            raise ContractViolationError("channel blocks must have even dimension")
        self.validate()

    @property
    def p_modes(self) -> int:
        return self.A.shape[0] // 2

    @property
    def q_modes(self) -> int:
        return self.D.shape[0] // 2

    def assembled(self) -> np.ndarray:
        top = np.hstack([self.A, self.B])
        bottom = np.hstack([-self.B.T, self.D])
        return np.vstack([top, bottom])

    def validate(self):
        G = self.assembled()
        n = G.shape[0]
        if not np.all(np.isfinite(G)):
            raise ContractViolationError("channel matrix must be finite")
        if antisymmetry_defect(G) > ANTISYM_ATOL:
            raise ContractViolationError("channel matrix must be antisymmetric")
        if np.max(np.abs(G @ G.T - np.eye(n))) > ANTISYM_ATOL:
            raise ContractViolationError("channel matrix must be orthogonal")

    def expand_to_lattice(self, n_sites: int) -> "GaussianChannel":
        """Site-diagonal lattice channel in the global qp ordering.

        Each per-site type sub-block X_rs is written on the diagonal of the
        global type-(r, s) block, kron(I_N, X_rs), and nothing else is.

        The result is P (I_N kron G) P^T for a permutation P and this
        channel's matrix G: every entry is a copy of an entry of G or an
        exact zero, so it is finite, antisymmetric and orthogonal exactly
        when G is.  It is therefore not validated again; on a lattice the
        dense check costs about as much as the map it feeds.
        """
        p, q = self.p_modes, self.q_modes
        site = np.arange(n_sites)
        expanded = copy.copy(self)
        for name, rows, cols in (("A", p, p), ("B", p, q), ("D", q, q)):
            # [type, site, species] on both sides
            out = np.zeros((2, n_sites, rows, 2, n_sites, cols))
            out[:, site, :, :, site] = getattr(self, name).reshape(2, rows, 2, cols)
            out.flags.writeable = False
            object.__setattr__(expanded, name, out.reshape(2 * n_sites * rows, -1))
        return expanded


def _rcond(M: np.ndarray) -> float:
    """Exact 1-norm reciprocal condition number 1 / (|M|_1 |M^-1|_1); 0 when M is singular.

    The value of ``1 / np.linalg.cond(M, 1)``, which would hold one more
    matrix-sized temporary: here both norms take their absolute values
    while no inverse exists or in place.  A zero pivot, or an inverse
    that overflowed to nan, means M is singular to rounding.
    """
    norm = np.linalg.norm(M, 1)
    try:
        inverse = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return 0.0
    cond = norm * np.max(np.sum(np.abs(inverse, out=inverse), axis=0))
    return 0.0 if np.isnan(cond) else float(1.0 / cond)


def apply_channel(channel: GaussianChannel, gamma_in: MajoranaCM) -> MajoranaCM:
    """Evaluate the map; raises ZeroNormError when D - Gamma_in is singular.

    ``|det(D - Gamma_in)| >= ZERO_NORM_ATOL`` accepts at once.  The
    determinant is a product over all sites, though, and falls below any
    fixed bound on a large enough lattice with a well-conditioned matrix;
    a smaller determinant is singular only when the reciprocal condition
    number, which does not grow with the size, is below ZERO_NORM_ATOL too.
    """
    D, B, A = channel.D, channel.B, channel.A
    if gamma_in.matrix.shape != D.shape:
        raise ContractViolationError(
            f"input covariance {gamma_in.matrix.shape} does not match D {D.shape}"
        )
    M = D - gamma_in.matrix
    sign, logabsdet = np.linalg.slogdet(M)
    if sign == 0 or (logabsdet < np.log(ZERO_NORM_ATOL) and _rcond(M) < ZERO_NORM_ATOL):
        det = sign * np.exp(logabsdet)
        raise ZeroNormError(
            f"projection is singular: det(D - Gamma_in) = {det:.3e}",
            determinant=det,
        )
    out = B @ np.linalg.solve(M, B.T) + A
    defect = antisymmetry_defect(out)
    if defect > 1e-9:
        raise NumericalValidityError(f"channel output antisymmetry defect {defect:.2e}")
    return MajoranaCM((out - out.T) / 2.0)


# ---------------------------------------------------------------------------
# lattice bond covariance matrix and its momentum blocks


def lattice_bond_cm(lattice: LatticeSpec) -> MajoranaCM:
    """Covariance matrix of all horizontal and vertical entangled bonds.

    Each bond pairs a first component a (beta, or delta) of a site with a
    second component b (alpha of its right neighbour, or gamma of its
    north neighbour): Gamma[c1_a, c2_b] = 1 and Gamma[c1_b, c2_a] = -1,
    plus the antisymmetric partners; qp index = mtype * 4N + 4 * site + species.
    """
    n = lattice.n_sites
    a = 4 * np.arange(n) + np.array([[BETA], [DELTA]])
    b = 4 * np.stack([lattice.shifted(1, 0), lattice.shifted(0, 1)]) + np.array([[ALPHA], [GAMMA]])
    gamma = np.zeros((8 * n, 8 * n))
    gamma[a, 4 * n + b] = 1.0
    gamma[4 * n + b, a] = -1.0
    gamma[b, 4 * n + a] = -1.0
    gamma[4 * n + a, b] = 1.0
    return MajoranaCM(gamma)


def fourier_bond(phi) -> np.ndarray:
    """8x8 momentum blocks of the bond covariance matrix, shape (..., 8, 8).

    ``phi`` has shape (..., 2).  Valid on reciprocal-lattice points of any
    torus (wraparound aliases reduce to the same values there) and for
    arbitrary angles as the infinite-lattice limit.  Ordering: qp with
    species (alpha, beta, gamma, delta).
    """
    phase = np.exp(1j * np.asarray(phi, dtype=float))
    out = np.zeros(phase.shape[:-1] + (8, 8), dtype=complex)
    W = out[..., :4, 4:]
    W[..., [BETA, DELTA], [ALPHA, GAMMA]] = phase.conj()
    W[..., [ALPHA, GAMMA], [BETA, DELTA]] = -phase
    out[..., 4:, :4] = W
    return out


def _circulant(T: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """qp-ordered matrix of a translationally invariant coupling on torus sites.

    ``T[dh, dv, a, b]`` (shape ``(n_h, n_v, 2s, 2s)``, a = mtype * s +
    species) couples component a of a site to component b of the site
    displaced by (dh, dv).  The matrix covers the ``shape = (L_h, L_v)``
    rectangle of sites at the origin (default: the whole torus), in M order.

    ``E[x, y] = T[y - L_h + 1, x - L_v + 1]`` is gathered once on the window
    of displacements between the rectangle's sites; its reversed sliding
    windows, ``[v_i, h_i, a, b, v_j, h_j] = T[h_j - h_i, v_j - v_i, a, b]``,
    are the two-level Toeplitz matrix, a view copied once into qp order.
    """
    n_h, n_v, width = T.shape[:3]
    l_h, l_v = shape or (n_h, n_v)
    dh = (np.arange(2 * l_h - 1) - (l_h - 1)) % n_h
    dv = (np.arange(2 * l_v - 1) - (l_v - 1)) % n_v
    E = T[dh[None, :], dv[:, None]]
    window = np.lib.stride_tricks.sliding_window_view(E, (l_v, l_h), axis=(0, 1))[::-1, ::-1]
    s = width // 2
    out = np.empty((2, l_v, l_h, s, 2, l_v, l_h, s), dtype=E.dtype)
    # [v_i, h_i, (r, mu), (c, nu), v_j, h_j] -> [r, v_i, h_i, mu, c, v_j, h_j, nu]
    out[...] = window.reshape(l_v, l_h, 2, s, 2, s, l_v, l_h).transpose(2, 0, 1, 3, 4, 6, 7, 5)
    return out.reshape(width * l_h * l_v, -1)


def displacements(blocks: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Real displacement array ``T[dh, dv, a, b]`` of a momentum-block stack.

    ``blocks`` is an ``(n_sites, w, w)`` stack in ``lattice.momenta()``
    order; ``ifft2`` over the two momentum axes inverts the block
    transform.  Every entry of ``T`` enters any matrix gathered from it, so
    its imaginary residue is checked here and only the real part is kept.
    """
    blocks = np.asarray(blocks)
    width = blocks.shape[-1]
    if blocks.shape != (lattice.n_sites, width, width) or width % 2:
        raise ContractViolationError(
            "blocks must be an (n_sites, w, w) stack with even w, in lattice.momenta() order"
        )
    grid = blocks.reshape(lattice.n_v, lattice.n_h, width, width).swapaxes(0, 1)
    T = np.fft.ifft2(grid, axes=(0, 1))
    residue = np.max(np.abs(T.imag))
    if residue > 1e-12:
        raise NumericalValidityError(f"displacement array has imaginary residue {residue:.1e}")
    return T.real


def matrix_from_blocks(blocks: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Real qp-ordered lattice matrix of an ``(n_sites, w, w)`` momentum-block
    stack: the inverse block Fourier transform, exact on the torus."""
    return _circulant(displacements(blocks, lattice))


# ---------------------------------------------------------------------------
# one-site channels: the site tensor and the momentum-space output blocks


def _one_site(channel: GaussianChannel, use: str):
    if channel.q_modes != 4 or channel.p_modes != 1:
        raise ContractViolationError(
            f"{use} expects a one-site channel (1 physical, 4 virtual modes)"
        )


# rows of the assembled channel in qp order over the site modes
# (a, alpha, beta, gamma, delta): the type-1 rows, then the type-2 rows
_SITE_QP = np.r_[0, 2:6, 1, 6:10]


def channel_tensor(channel: GaussianChannel) -> FPEPSTensor:
    """Site tensor A[k, l, r, u, d] of a one-site channel, read off its Choi state.

    The assembled channel matrix G, taken over the five site modes, is the
    covariance of a pure Gaussian state: the ground state of
    ``H = -i sum G_kl c_k c_l``.  In registry order (a, alpha, beta, gamma,
    delta) the basis word ``k + 2l + 4r + 8u + 16d`` is the creator word of
    entry A[k, l, r, u, d], so the amplitudes are the entries, with no sign.
    The state has one parity, which the tensor carries; the entry with all
    bonds empty, ``A[parity, 0, 0, 0, 0]``, is normalised to 1.
    """
    _one_site(channel, "the site tensor")
    G = channel.assembled()[np.ix_(_SITE_QP, _SITE_QP)]
    registry = ModeRegistry(tuple((species, (1, 1)) for species in SPECIES))
    _, state = exact_ground_state(-G, registry)
    amps = state.amplitudes.reshape((2,) * 5).T  # bit i on axis i
    parity = int(np.any(amps[_PARITY == 1]))  # the state lies in one sector
    base = amps[parity, 0, 0, 0, 0]
    if abs(base) < 1e-12:
        raise ContractViolationError(
            "the channel's site tensor has no bonds-empty entry to normalise by"
        )
    entries = amps / base
    return FPEPSTensor(
        np.where((_PARITY != parity) | (np.abs(entries) < 1e-14), 0.0, entries), parity
    )


class OutputTriple(NamedTuple):
    """(p, q, d) of a channel output at each momentum, and the zero-norm mask.

    The output block is g_hat = (1/d) [[i p, q], [-conj(q), -i p]] (see
    :func:`g_hat`); ``q`` is complex in general and real for
    reflection-symmetric channels.  ``zero_norm`` marks momenta where d
    vanishes (state undefined there), while p and q (adjugate data) remain
    well defined.  All three are trigonometric polynomials of degree at most
    2 in each momentum component, read off the channel's harmonic table.
    """

    p: np.ndarray
    q: np.ndarray
    d: np.ndarray
    zero_norm: np.ndarray


def _adjugate(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(adj(M), det(M)) of a stack (..., n, n) via the Faddeev-LeVerrier recursion.

    The per-momentum reference of the output triple: the harmonic table of
    :func:`gamma_out_hat` is built from it on the 5x5 grid only.
    """
    n = M.shape[-1]
    eye = np.eye(n, dtype=M.dtype)
    Bk = eye
    for k in range(1, n):
        Mk = M @ Bk
        ck = -Mk.trace(0, -2, -1) / k
        Bk = Mk + ck[..., None, None] * eye
    cn = -(M @ Bk).trace(0, -2, -1) / n
    return (-1.0) ** (n - 1) * Bk, (-1.0) ** n * cn


# Each momentum component enters D - fourier_bond(phi) in four entries, one
# per row and column: e^{-i phi} twice and e^{+i phi} twice.  A cofactor
# expansion takes at most one entry from each row, so d, every cofactor and
# with them p and q (through B adj B^T + d A) are Laurent polynomials in
# e^{i phi1}, e^{i phi2} with exponents in [-2, 2].  Five equally spaced
# samples per axis determine them exactly: a 5-point DFT aliases only
# exponents 5 apart.  The residues of the three validity checks (Im d,
# Re R00, R10 + conj R01) are polynomials of the same kind, so a residue
# that vanishes on the 5x5 grid vanishes at every momentum.
_HARMONICS = np.fft.fftfreq(5, 1 / 5)  # exponents 0, 1, 2, -2, -1: fft order
_GRID = 2 * np.pi * np.stack(np.meshgrid(np.arange(5), np.arange(5), indexing="ij"), axis=-1) / 5


# an entry is one channel's read-only (3, 5, 5) table of the harmonic
# coefficients of (p, q, d)
@functools.lru_cache(maxsize=64)
def _harmonic_table(channel: GaussianChannel) -> np.ndarray:
    A, B, D = channel.A, channel.B, channel.D
    adj, det = _adjugate(D - fourier_bond(_GRID))
    bad = abs(det.imag) > 1e-9 * np.maximum(1.0, abs(det))
    if bad.any():
        raise NumericalValidityError(f"determinant not real: {det[bad][0]}")
    d = det.real
    R = B @ adj @ B.T + d[..., None, None] * A
    r00 = R[..., 0, 0]
    bad = abs(r00.real) > 1e-9 * np.maximum(1.0, abs(r00))
    if bad.any():
        raise NumericalValidityError(f"diagonal block entry not imaginary: {r00[bad][0]}")
    q = R[..., 0, 1]
    if (abs(R[..., 1, 0] + q.conj()) > 1e-9).any():
        raise NumericalValidityError("momentum block lost its antisymmetry pattern")
    table = np.fft.fft2(np.stack([r00.imag, q, d])) / 25
    table.flags.writeable = False
    return table


def g_hat(p, q, d) -> np.ndarray:
    """Complex blocks (1/d) [[i p, q], [-conj(q), -i p]], shape (..., 2, 2)."""
    blocks = np.stack([1j * p, q, -np.conj(q), -1j * p], axis=-1) / np.asarray(d)[..., None]
    return blocks.reshape(blocks.shape[:-1] + (2, 2))


def gamma_out_hat(channel: GaussianChannel, phis) -> OutputTriple:
    """Output momentum data of a one-site channel fed by the lattice bonds.

    ``phis`` is a finite array of shape (..., 2); each field of the result
    has shape ``...``, so a single momentum gives numpy scalars.  The values
    come from the channel's exact harmonic table (built once per channel from
    :func:`_adjugate` on 25 grid momenta and checked there), so no momentum
    costs any linear algebra.
    """
    _one_site(channel, "momentum-space evaluation")
    phis = np.asarray(phis, dtype=float)
    if phis.ndim == 0 or phis.shape[-1] != 2:
        raise ContractViolationError(f"momenta must have shape (..., 2), not {phis.shape}")
    if not np.isfinite(phis).all():
        raise ContractViolationError("momenta must be finite")
    table = _harmonic_table(channel)
    waves = np.exp(1j * phis[..., None] * _HARMONICS)
    p, q, d = np.einsum("...m,...n,tmn->t...", waves[..., 0, :], waves[..., 1, :], table)
    d = d.real
    return OutputTriple(p.real[()], q[()], d[()], (abs(d) <= ZERO_NORM_ATOL)[()])


def physical_cm_from_blocks(channel: GaussianChannel, lattice: LatticeSpec) -> MajoranaCM:
    """Real-space output covariance assembled from the momentum blocks."""
    momenta = lattice.momenta()
    out = gamma_out_hat(channel, momenta)
    if np.any(out.zero_norm):
        zero_norm = [tuple(phi) for phi in momenta[out.zero_norm].tolist()]
        raise ZeroNormError(f"state undefined: zero-norm momenta {zero_norm}", momenta=zero_norm)
    return MajoranaCM(matrix_from_blocks(g_hat(out.p, out.q, out.d), lattice))
