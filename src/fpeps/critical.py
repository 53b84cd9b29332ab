"""The critical free-fermion example: channel, site tensor, parent model.

One physical mode per site maps from the four virtual bond modes through a
Gaussian projector.  Its channel blocks (qp ordering, species alpha..delta)
are fixed rational matrices, the one source of the example: the site tensor
is read off the channel's Choi state.  The momentum-space state has

    p(phi)/d(phi) = (sin phi1 - sin phi2) / (-1 + sin phi1 sin phi2)
    q(phi)/d(phi) = cos phi1 cos phi2 / (-1 + sin phi1 sin phi2)

and the projection determinant factorizes as

    det(D - omega_hat(phi)) = 16 (1 - sin phi1 sin phi2)
                              cos^2(phi1/2) cos^2(phi2/2).

Its zeros on pi-lines are removable loop artifacts (the state's covariance
stays finite; a boundary-bond modification could restore the norm, which
this package only detects and reports).  The zeros where
sin phi1 sin phi2 = 1 are inherent: the state is undefined whenever the
torus contains them, which happens exactly when both dimensions are
multiples of four.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolationError, NumericalValidityError, ZeroNormError
from .gaussian import (
    GaussianChannel,
    _circulant,
    channel_tensor,
    displacements,
    g_hat,
    gamma_out_hat,
)
from .lattice import LatticeSpec, Site
from .quadratic import DiracQuadratic, _levels, block_entropy, parent_hamiltonian
from .tensors import FPEPSTensor

# read-only, like the example channel's own copies of them
EXAMPLE_B = 0.5 * np.array([
    [1, -1, 0, 0, -1, 1, 0, 0],
    [0, 0, -1, 1, 0, 0, 1, -1],
], dtype=float)

EXAMPLE_D = 0.25 * np.array([
    [0, 2, 1, 1, 0, 2, -1, -1],
    [-2, 0, 1, 1, -2, 0, -1, -1],
    [-1, -1, 0, 2, 1, 1, 0, 2],
    [-1, -1, -2, 0, 1, 1, -2, 0],
    [0, 2, -1, -1, 0, 2, 1, 1],
    [-2, 0, -1, -1, -2, 0, 1, 1],
    [1, 1, 0, 2, -1, -1, 0, 2],
    [1, 1, -2, 0, -1, -1, -2, 0],
], dtype=float)
EXAMPLE_B.flags.writeable = EXAMPLE_D.flags.writeable = False


@cache
def example_channel() -> GaussianChannel:
    """The one-site Gaussian map of the critical model, one shared instance."""
    return GaussianChannel(np.zeros((2, 2)), EXAMPLE_B, EXAMPLE_D)


def closed_form_ratios(phi):
    """(p/d, q/d) of the critical model at momenta of shape (..., 2)."""
    phi = np.asarray(phi, dtype=float)
    s1, s2 = np.sin(phi[..., 0]), np.sin(phi[..., 1])
    den = -1.0 + s1 * s2
    singular = np.abs(den) < 1e-12
    if np.any(singular):
        bad = tuple(phi[singular][0].tolist())
        raise ZeroNormError(
            f"momentum {bad} sits on the singular set of the model",
            momenta=[bad],
        )
    return ((s1 - s2) / den)[()], (np.cos(phi[..., 0]) * np.cos(phi[..., 1]) / den)[()]


def odd_torus(lattice: LatticeSpec) -> LatticeSpec:
    """``lattice``, refused unless both dimensions are odd (unique ground state)."""
    if lattice.n_h % 2 == 0 or lattice.n_v % 2 == 0:
        raise ContractViolationError(
            f"critical model needs odd torus dimensions, got {lattice.n_h}x{lattice.n_v}"
        )
    return lattice


# ---------------------------------------------------------------------------
# projector tensor


def example_projector_tensor() -> FPEPSTensor:
    """Site tensor A[k, l, r, u, d] of the critical model: even, 16 nonzero entries.

    It is the particle-hole image k -> 1 - k of the channel's own tensor
    (``channel_tensor(example_channel())``, odd with ``A[1, 0, 0, 0, 0] = 1``).
    """
    tensor = channel_tensor(example_channel())
    # The flip keeps the image that the exact-mapping benchmark compares with
    # the flipped channel output; it goes when that benchmark drops the flip.
    return FPEPSTensor(tensor.entries[::-1], 1 - tensor.parity)


def example_tensor_set(lattice: LatticeSpec) -> dict[Site, FPEPSTensor]:
    tensor = example_projector_tensor()
    return {s: tensor for s in lattice.sites()}


# ---------------------------------------------------------------------------
# parent-model coefficient table


def hcrit_coefficients(lattice: LatticeSpec | None = None) -> DiracQuadratic:
    """Literal coupling table of the critical parent Hamiltonian.

    Vertical pair creation 2i, horizontal pair creation -2i, and diagonal
    hopping -1 to both (h+1, v+1) and (h+1, v-1).  When a lattice is given,
    both dimensions must be odd (unique ground state).
    """
    if lattice is not None:
        odd_torus(lattice)
    return DiracQuadratic(
        pairing={(0, 1): 2j, (1, 0): -2j},
        hopping={(1, 1): -1.0, (1, -1): -1.0},
        mu=0.0,
        constant=0.0,
    )


# ---------------------------------------------------------------------------
# zero-norm census


@dataclass(frozen=True)
class NormZeroReport:
    lattice: LatticeSpec
    removable: tuple
    essential: tuple

    @property
    def state_defined(self) -> bool:
        return len(self.essential) == 0


def norm_zero_locator(lattice: LatticeSpec) -> NormZeroReport:
    """Zeros of the projection determinant on the reciprocal lattice.

    Essential zeros (sin phi1 sin phi2 = 1) make the state undefined;
    removable ones (a momentum component on {0, pi}) are correlated-loop
    artifacts that leave the covariance data intact.
    """
    phis = lattice.momenta()
    zero = gamma_out_hat(example_channel(), phis).zero_norm
    essential = zero & (np.abs(np.sin(phis[:, 0]) * np.sin(phis[:, 1]) - 1.0) < 1e-9)
    to_line = np.abs(phis[..., None] - np.array([0.0, np.pi, 2 * np.pi])).min(axis=-1)
    removable = zero & ~essential & np.any(to_line < 1e-9, axis=1)
    stray = zero & ~essential & ~removable
    if np.any(stray):
        raise NumericalValidityError(
            f"unclassified determinant zero at momentum {tuple(phis[np.argmax(stray)].tolist())}"
        )
    removable, essential = (tuple(map(tuple, phis[hit].tolist())) for hit in (removable, essential))
    return NormZeroReport(lattice, removable, essential)


# ---------------------------------------------------------------------------
# torus scans


def ground_state_blocks(torus: int) -> np.ndarray:
    """Displacement array T[dh, dv, a, b] of the ground covariance on a torus.

    a, b index the Majorana type; T[..., 0, 0] couples two type-1
    Majoranas, T[..., 0, 1] type-1 with type-2.
    """
    lattice = odd_torus(LatticeSpec(torus, torus))
    return displacements(g_hat(*closed_form_ratios(lattice.momenta()), 1.0), lattice)


def block_covariance(blocks: np.ndarray, torus: int, length: int) -> np.ndarray:
    """qp-ordered covariance matrix of an L x L block of sites."""
    if blocks.shape[:2] != (torus, torus):
        raise ContractViolationError(f"displacement array does not fit a {torus}-torus")
    return _circulant(blocks, (length, length))


def entropy_scan(torus: int, lengths) -> list[tuple[int, float]]:
    """Block entanglement entropy S(L) in bits on an odd torus."""
    lengths = list(lengths)
    if not lengths:
        raise ContractViolationError("entropy scan needs at least one block length")
    blocks = ground_state_blocks(torus)
    out = []
    for length in lengths:
        if not 0 < length < torus:
            raise ContractViolationError(
                f"block length {length} must be between 1 and the torus size minus 1"
            )
        gamma = block_covariance(blocks, torus, length)
        out.append((length, block_entropy(gamma, range(length * length))))
    return out


def gap_scan(sizes) -> list[tuple[int, float]]:
    """Single-particle gap of the parent model on odd N x N tori."""
    lattices = [odd_torus(LatticeSpec(n, n)) for n in sizes]
    if not lattices:
        raise ContractViolationError("gap scan needs at least one torus size")
    ham = parent_hamiltonian(example_channel(), radius_cap=2)
    return [(lat.n_h, float(_levels(ham, lat.momenta()).min())) for lat in lattices]
