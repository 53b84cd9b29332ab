"""Quadratic Majorana Hamiltonians, parent construction, spectra, entropy.

A translationally invariant H = i sum_kl h_kl c_k c_l is stored through its
displacement blocks T(Delta) (real 2x2 in Majorana type space) with

    h_hat(phi) = sum_Delta T(Delta) e^{-i phi.Delta},

matching the covariance-block transform in :mod:`fpeps.gaussian`.  The
antisymmetry of h reads T(-Delta) = -T(Delta)^T.

The parent Hamiltonian of a channel output is h_hat(phi) = d(phi) *
gamma_hat(phi) with (p, q, d) the minimal-degree trigonometric polynomial
triple compatible with the channel's momentum-space ratios.  The minimal
triple is found as the one-dimensional nullspace of a linear system on an
exact momentum grid (the cross-multiplied identities d p' = p d', never the
quotients), growing the harmonic support until it exists; this
cancels whatever common polynomial factor the channel's exact harmonic
table (see :func:`fpeps.gaussian.gamma_out_hat`: degree at most 2 in each
momentum component) carries and keeps the Hamiltonian as local as the state
allows.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ContractViolationError, NumericalValidityError, ZeroNormError
from .fock import antisymmetry_defect
from .gaussian import (
    GaussianChannel,
    MajoranaCM,
    _circulant,
    g_hat,
    gamma_out_hat,
)
from .lattice import LatticeSpec

Displacement = tuple[int, int]

# in minimal_triple a singular value below TRIPLE_RTOL times the largest is zero
TRIPLE_RTOL = 1e-9
# harmonic coefficients and Hamiltonian block entries this small are zero
HARMONIC_ATOL = 1e-12
# block_entropy's bound on the chirality defect and on nu^2 leaving [0, 1]
ENTROPY_ATOL = 1e-8


def _half_space(radius: int) -> list[Displacement]:
    """(0,0) plus the Delta > (0, 0) within the radius, in tuple order."""
    span = range(-radius, radius + 1)
    return [(0, 0)] + [(dh, dv) for dh in span for dv in span if (dh, dv) > (0, 0)]


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Displacement-block form of a quadratic Majorana Hamiltonian.

    It is read-only: ``blocks`` becomes a read-only mapping of read-only
    copies of the given blocks, so one instance can be shared.
    """

    blocks: dict = field(default_factory=dict)  # Displacement -> real 2x2

    def __post_init__(self):
        clean = {}
        for delta, blk in self.blocks.items():
            arr = np.array(blk, dtype=float)
            if arr.shape != (2, 2):
                raise ContractViolationError("Hamiltonian blocks must be 2x2")
            if np.max(np.abs(arr)) > 0:
                arr.flags.writeable = False
                clean[(int(delta[0]), int(delta[1]))] = arr
        object.__setattr__(self, "blocks", MappingProxyType(clean))
        for delta, arr in clean.items():
            minus = (-delta[0], -delta[1])
            partner = clean.get(minus, np.zeros((2, 2)))
            if np.max(np.abs(arr + partner.T)) > 1e-9:
                raise ContractViolationError(
                    f"block antisymmetry violated at displacement {delta}"
                )

    def h_hat(self, phi) -> np.ndarray:
        """Momentum blocks at phi of shape (..., 2); returns (..., 2, 2)."""
        phi = np.asarray(phi, dtype=float)[..., None, :]
        dh, dv = np.array(list(self.blocks), dtype=int).reshape(-1, 2).T
        phase = np.exp(-1j * (phi[..., 0] * dh + phi[..., 1] * dv))
        # einsum sums over the blocks in insertion order
        blocks = np.array(list(self.blocks.values())).reshape(-1, 2, 2)
        return np.einsum("...m,mab->...ab", phase, blocks)

    def materialize(self, lattice: LatticeSpec) -> np.ndarray:
        """Full real antisymmetric coefficient matrix on a torus (qp order)."""
        T = np.zeros((lattice.n_h, lattice.n_v, 2, 2))
        if self.blocks:
            # displacements that alias on a small torus add up
            dh, dv = np.array(list(self.blocks)).T
            values = np.array(list(self.blocks.values()))
            np.add.at(T, (dh % lattice.n_h, dv % lattice.n_v), values)
        h = _circulant(T)
        if antisymmetry_defect(h) > 1e-9:
            raise NumericalValidityError("materialized Hamiltonian not antisymmetric")
        return (h - h.T) / 2.0


# ---------------------------------------------------------------------------
# parent Hamiltonian via the minimal polynomial triple


def minimal_triple(
    channel: GaussianChannel, radius_cap: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-support (p, q, d) matching the channel's momentum ratios.

    Returns the half-space displacements ``deltas`` (shape (m, 2), (0, 0)
    first) and the coefficients ``coef`` (shape (4, m)) of
    p = sum coef[0] sin(phi.Delta), Re q = sum coef[1] cos(phi.Delta),
    Im q = sum coef[2] sin(phi.Delta) and d = sum coef[3] cos(phi.Delta);
    coefficients of at most ``HARMONIC_ATOL`` are zero.
    """
    # p, q and d have exponents in [-2, 2] in each momentum component, so at a
    # radius r <= radius_cap every row below, such as d p' - p d', has them in
    # [-(r + 2), r + 2].  The odd grid of 2 radius_cap + 5 points per axis
    # aliases no two of those: a row that vanishes on it vanishes everywhere
    side = 2 * radius_cap + 5
    phis = LatticeSpec(side, side).momenta()
    out = gamma_out_hat(channel, phis)
    d, values = out.d, np.stack([out.p, out.q.real, out.q.imag], axis=1)

    for radius in range(radius_cap + 1):
        deltas = np.array(_half_space(radius))
        m = len(deltas)
        angle = phis[:, :1] * deltas[:, 0] + phis[:, 1:] * deltas[:, 1]
        sin, cos = np.sin(angle[:, 1:]), np.cos(angle)
        # rows (p, Re q, Im q) of each momentum, cross-multiplied: d p' - p d'
        # for the fitted p', d'.  Quotients p / d would carry the absolute
        # rounding of p and d divided by a small d, near the lines where the
        # common factor of the channel's triple vanishes, into the nullspace
        # at the 1e-12 level of HARMONIC_ATOL.  Columns p | Re q | Im q | d,
        # with no sine column at Delta = (0, 0): fewer than the 3 side^2 rows
        mat = np.zeros((len(phis), 3, 4 * m - 2))
        mat[:, 0, :m - 1] = d[:, None] * sin
        mat[:, 1, m - 1:2 * m - 1] = d[:, None] * cos
        mat[:, 2, 2 * m - 1:3 * m - 2] = d[:, None] * sin
        mat[:, :, 3 * m - 2:] = -values[:, :, None] * cos[:, None, :]
        _, svals, vt = np.linalg.svd(mat.reshape(3 * len(phis), -1), full_matrices=False)
        if svals[-1] > TRIPLE_RTOL * svals[0]:
            continue  # no exact triple at this radius
        if svals[-2] <= TRIPLE_RTOL * svals[0]:
            raise NumericalValidityError(
                f"polynomial triple at radius {radius} is not unique"
            )
        coef = np.insert(vt[-1], [0, 2 * m - 1], 0.0).reshape(4, m)
        coef[np.abs(coef) <= HARMONIC_ATOL] = 0.0
        # orient: d' = -eps <= 0 where the state is defined, so gamma_hat is
        # the ground state.  Its constant coefficient is its mean over the grid,
        # and a d' <= 0 of mean zero vanishes: it defines no Hamiltonian
        if coef[3, 0] == 0.0:
            raise NumericalValidityError(f"the fitted d' has no constant term at radius {radius}")
        return deltas, coef * -np.sign(coef[3, 0])
    raise ContractViolationError(
        f"no polynomial triple within displacement radius {radius_cap}; "
        "the parent Hamiltonian would violate the locality cap"
    )


def parent_hamiltonian(channel: GaussianChannel, radius_cap: int = 2) -> QuadraticHamiltonian:
    """Local Hamiltonian whose ground state is the channel output.

    h_hat(phi) = [[i p, q], [-conj(q), -i p]] from the minimal triple; the
    displacement blocks are the (exactly finite) harmonic content of p and q.
    Blocks beyond ``radius_cap`` cannot occur by construction; offending
    radii raise ``ContractViolationError`` inside the triple search.  It is
    derived once per channel and ``radius_cap`` in a process, and read-only.
    """
    return _parent_hamiltonian(channel, radius_cap)


# an entry is one channel's parent Hamiltonian at one radius cap
@functools.lru_cache(maxsize=64)
def _parent_hamiltonian(channel: GaussianChannel, radius_cap: int) -> QuadraticHamiltonian:
    deltas, (p, qr, qi, _) = minimal_triple(channel, radius_cap=radius_cap)
    # p = sum b sin(phi.Delta) and q = sum a cos(phi.Delta) + i c sin(phi.Delta)
    # have the harmonic blocks [[-b, a - c], [-(a + c), b]] / 2 at +Delta, and
    # T(-Delta) = -T(Delta)^T at -Delta; the on-site block is [[0, a], [-a, 0]]
    plus = np.stack([-p, qr - qi, -(qr + qi), p], axis=-1).reshape(-1, 2, 2) / 2.0
    plus[0] = [[0.0, qr[0]], [-qr[0], 0.0]]
    plus[np.abs(plus) < HARMONIC_ATOL] = 0.0
    blocks = {}
    # shortest displacements first, then descending dv: h_hat sums the blocks
    # in insertion order, so this order fixes the last bits of every spectrum
    for j in np.lexsort((-deltas[:, 1], np.abs(deltas).sum(axis=1))):
        dh, dv = deltas[j].tolist()
        blocks[(dh, dv)] = plus[j]
        if j:
            blocks[(-dh, -dv)] = -plus[j].T + 0.0  # + 0.0 turns a signed zero into 0.0
    ham = QuadraticHamiltonian(blocks)

    # cross-check: h_hat must reproduce d * g_hat; both have exponents in
    # [-radius_cap, radius_cap], so the (2 radius_cap + 1)^2 grid is exact
    phis = LatticeSpec(2 * radius_cap + 1, 2 * radius_cap + 1).momenta()
    sin, cos = np.sin(phis @ deltas.T), np.cos(phis @ deltas.T)
    want = g_hat(sin @ p, cos @ qr + 1j * (sin @ qi), 1.0)
    if np.max(np.abs(ham.h_hat(phis) - want)) > 1e-9:
        raise NumericalValidityError("parent Hamiltonian harmonics inconsistent")
    return ham


# ---------------------------------------------------------------------------
# spectra, ground-state covariance, consistency, entropy


def _positive_branch(hh: np.ndarray) -> np.ndarray:
    """Upper eigenvalue of i h_hat for a stack of momentum blocks.

    i h_hat is Hermitian 2x2 with the real diagonal (a, c) = -Im diag h_hat
    and the off-diagonal modulus |h_hat[0, 1]|.
    """
    a, c = -hh[..., 0, 0].imag, -hh[..., 1, 1].imag
    return (a + c) / 2 + np.hypot((a - c) / 2, np.abs(hh[..., 0, 1]))


def single_particle_spectrum(
    ham: QuadraticHamiltonian, lattice: LatticeSpec
) -> tuple[list[tuple[tuple[float, float], float]], float]:
    """Positive branch of eigenvalues of i h_hat(phi) per momentum, and the gap."""
    momenta = lattice.momenta()
    eps = _positive_branch(ham.h_hat(momenta))
    return list(zip(zip(*momenta.T.tolist()), eps.tolist())), float(eps.min())


def energy_expectation(h_full: np.ndarray, gamma: MajoranaCM) -> float:
    """<H> of a Gaussian state: -tr(h Gamma)."""
    return float(-np.trace(h_full @ gamma.matrix))


def ground_state_cm_consistency(channel: GaussianChannel, lattice: LatticeSpec) -> float:
    """max over momenta of |[g, h_hat]| and |eps g + h_hat| (cross-multiplied).

    The channel output block g must commute with the parent Hamiltonian block
    and equal its ground-state covariance -h_hat/eps.
    """
    ham = parent_hamiltonian(channel)
    momenta = lattice.momenta()
    out = gamma_out_hat(channel, momenta)
    if np.any(out.zero_norm):
        zero_norm = [tuple(phi) for phi in momenta[out.zero_norm].tolist()]
        raise ZeroNormError(f"zero-norm momenta on this lattice: {zero_norm}", momenta=zero_norm)
    g = g_hat(out.p, out.q, out.d)
    hh = ham.h_hat(momenta)
    comm = np.max(np.abs(g @ hh - hh @ g))
    eps = _positive_branch(hh)
    if np.any(eps <= 1e-12):
        return np.inf
    extremal = np.max(np.abs(eps[:, None, None] * g + hh))
    return max(float(comm), float(extremal))


def block_entropy(gamma, modes) -> float:
    """Entanglement entropy (bits) of a mode subset of a chiral Gaussian state.

    A qp-ordered block [[A, C], [-C^T, B]] is chiral when B = -A and C = C^T,
    as for the critical model.  In the basis (c1 +/- c2)/sqrt(2) it becomes
    [[0, R], [-R^T, 0]] with R = A - C: the covariance eigenvalues nu are the
    singular values of the n x n matrix R.

    ``modes`` lists distinct mode indices below the number of modes.  A
    ``range`` of step 1 reads A, C and B as basic slices, with no copy; any
    other list gathers them.
    """
    mat = gamma.matrix if isinstance(gamma, MajoranaCM) else np.asarray(gamma)
    n = mat.shape[0] // 2
    q = np.asarray(list(modes))
    if not q.size:
        raise ContractViolationError("block must contain at least one mode")
    if (q.ndim != 1 or q.dtype.kind not in "iu" or q.min() < 0 or q.max() >= n
            or len(np.unique(q)) != len(q)):
        raise ContractViolationError(f"block modes must be distinct integers in 0..{n - 1}")
    if isinstance(modes, range) and modes.step == 1:
        q, p = slice(modes.start, modes.stop), slice(n + modes.start, n + modes.stop)
        a, c, b = mat[q, q], mat[q, p], mat[p, p]
    else:
        p = n + q
        a, c, b = mat[np.ix_(q, q)], mat[np.ix_(q, p)], mat[np.ix_(p, p)]
    # one n x n scratch array holds A + B, then C - C^T, then R, each in place
    scratch = np.add(a, b)
    ab_defect = np.max(np.abs(scratch, out=scratch))
    c_defect = np.max(np.abs(np.subtract(c, c.T, out=scratch), out=scratch))
    if max(ab_defect, c_defect) > ENTROPY_ATOL:
        raise ContractViolationError(
            "block [[A, C], [-C^T, B]] is not chiral: "
            f"max|A + B| = {ab_defect:.2e}, max|C - C^T| = {c_defect:.2e}"
        )
    r = np.subtract(a, c, out=scratch)
    nu2 = np.linalg.eigvalsh(r.T @ r)
    if nu2[0] < -ENTROPY_ATOL or nu2[-1] > 1.0 + ENTROPY_ATOL:
        raise NumericalValidityError(f"nu^2 spans [{nu2[0]:.3g}, {nu2[-1]:.3g}], not in [0, 1]")
    # a mode with x = (1 + nu)/2 = 1 is pure and contributes nothing
    x = (1.0 + np.sqrt(np.clip(nu2, 0.0, 1.0))) / 2.0
    x = x[x < 1.0]
    return float(np.sum(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)))


# ---------------------------------------------------------------------------
# Majorana <-> Dirac rewriting


@dataclass(frozen=True)
class DiracQuadratic:
    """Canonical particle form of a translationally invariant quadratic H.

    H = sum_{Delta in half} [pairing(Delta) sum_s a^dag_s a^dag_{s+Delta} + h.c.]
      + sum_{Delta in half, != 0} [hopping(Delta) sum_s a^dag_s a_{s+Delta} + h.c.]
      + mu sum_s a^dag_s a_s  +  constant per site.
    """

    pairing: dict      # Displacement -> complex
    hopping: dict      # Displacement -> complex
    mu: float
    constant: float


def majorana_to_dirac(ham: QuadraticHamiltonian) -> DiracQuadratic:
    """Rewrite i sum h c c into normal-ordered particle operators.

    With a^dag = (c1 + i c2)/2 and T(-Delta) = -T(Delta)^T, the block T at
    Delta > (0, 0) gives pairing 2i((t11 - t22) - i(t12 + t21)) and hopping
    2i((t11 + t22) + i(t12 - t21)); the on-site block [[0, t], [-t, 0]] is
    2t (1 - 2n), so mu = -4t and the constant is 2t per site.  Coefficients
    of at most ``HARMONIC_ATOL`` are zero.
    """
    pairing, hopping, mu, constant = {}, {}, 0.0, 0.0
    for delta, T in ham.blocks.items():
        (t11, t12), (t21, t22) = T.tolist()
        if delta == (0, 0):
            mu, constant = -4.0 * t12, 2.0 * t12
        elif delta > (0, 0):
            # + 0.0 turns a signed zero into 0.0
            pairing[delta] = complex(2 * (t12 + t21) + 0.0, 2 * (t11 - t22) + 0.0)
            hopping[delta] = complex(2 * (t21 - t12) + 0.0, 2 * (t11 + t22) + 0.0)
    return DiracQuadratic(
        {d: c for d, c in pairing.items() if abs(c) > HARMONIC_ATOL},
        {d: c for d, c in hopping.items() if abs(c) > HARMONIC_ATOL},
        mu if abs(mu) > HARMONIC_ATOL else 0.0,
        constant if abs(constant) > HARMONIC_ATOL else 0.0,
    )


def dirac_to_majorana(dirac: DiracQuadratic) -> QuadraticHamiltonian:
    """Inverse rewrite; returns displacement blocks with T(-D) = -T(D)^T.

    Solves the four real equations of :func:`majorana_to_dirac` per
    displacement, whose keys must lie in the half space Delta > (0, 0);
    mu gives the on-site block [[0, -mu/4], [mu/4, 0]].
    """
    blocks = {}
    for delta, c in [*dirac.pairing.items(), *dirac.hopping.items()]:
        if not delta > (0, 0):
            raise ContractViolationError(
                f"particle-form displacement {delta} is not in the half space > (0, 0)"
            )
        # blocks go in the order of their first nonzero term, the order h_hat sums them in
        if c and delta not in blocks:
            p = complex(dirac.pairing.get(delta, 0.0))
            k = complex(dirac.hopping.get(delta, 0.0))
            T = np.array([[p.imag + k.imag, p.real - k.real],
                          [p.real + k.real, k.imag - p.imag]]) / 4.0
            blocks[delta] = T
            blocks[(-delta[0], -delta[1])] = -T.T
    blocks[(0, 0)] = np.array([[0.0, -dirac.mu], [dirac.mu, 0.0]]) / 4.0
    for T in blocks.values():
        # entries below 1e-14 are rounding residue; this also clears signed zeros
        T[np.abs(T) < 1e-14] = 0.0
    return QuadraticHamiltonian(blocks)
