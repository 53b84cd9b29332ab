"""Dense Fock-space simulation of fermionic modes.

A basis state with occupation bits ``(k_0, ..., k_{n-1})`` represents
``a_0^dag^k_0 ... a_{n-1}^dag^k_{n-1} |vac>`` with the creation operators
applied in registry order (registry position i lives on bit i of the flat
amplitude index).  Creation/annihilation on mode ``j`` picks up the
Jordan-Wigner sign ``(-1)^(number of occupied modes before j)``.

Everything here is exact dense linear algebra on ``complex128`` amplitude
vectors; it is the ground truth the tensor-network and covariance-matrix
code is tested against.  Operator polynomials over the full mode registry,
the vacuum they act on, single Majorana vectors and the many-body gap are
used by the tests alone and live in ``tests/fock_reference.py``, on the
same ladder kernel ``_flip``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    NumericalValidityError,
    ResourceLimitError,
    UndefinedStateError,
)
from .lattice import LatticeSpec, Site, site_order

# The many-body solver holds H as a dense matrix and diagonalises its two
# parity sectors.  The cap is the largest size anything runs: the package
# solves at most the 3x3 parent's 9 modes and the tests 10 modes (1024
# states, 0.2 s on 2 cores).  12 modes, 4096 states, took 10-11 s and
# 500-515 MiB RSS.
DEFAULT_DIAG_CAP = 10
ANTISYM_TILE = 128

SPECIES = ("a", "alpha", "beta", "gamma", "delta")

# (species, (h, v)); "a" is the physical mode, the rest are auxiliary.
ModeLabel = tuple[str, Site]


# an entry is one read-only vector of 2^n floats
@functools.lru_cache(maxsize=32)
def parity_signs(n: int) -> np.ndarray:
    """(-1)^(number of set bits of i) for i < 2^n, read-only.

    Entry i is the Jordan-Wigner sign a ladder operator on position n picks
    up from the occupations i of the positions below it.
    """
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n)) & 1)
    signs.flags.writeable = False
    return signs


def antisymmetry_defect(M: np.ndarray) -> float:
    """max |M + M^T| of a square matrix, NaN if it holds one.

    Read in ANTISYM_TILE-square tiles on and above the diagonal, each added
    to its mirror tile transposed, so that the transposed reads stay in
    cache; every entry sum is the one ``M + M.T`` forms, so the value is
    the same bits.
    """
    n, t = M.shape[0], ANTISYM_TILE
    return float(np.max([np.max(np.abs(M[i:i + t, j:j + t] + M[j:j + t, i:i + t].T))
                         for i in range(0, n, t) for j in range(i, n, t)]))


@dataclass(frozen=True)
class ModeRegistry:
    """Fixed total ordering of labeled fermionic modes."""

    labels: tuple[ModeLabel, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ContractViolationError("duplicate mode labels in registry")

    def __len__(self) -> int:
        return len(self.labels)


# an entry is one lattice's registry of N labels
@functools.lru_cache(maxsize=128)
def physical_registry(lattice: LatticeSpec) -> ModeRegistry:
    """Physical modes only, ordered by M(h, v); one registry per lattice."""
    return ModeRegistry(tuple(("a", s) for s in site_order(lattice)))


@dataclass
class FockVector:
    """Dense state vector over a mode registry."""

    registry: ModeRegistry
    amplitudes: np.ndarray

    def __post_init__(self):
        n = len(self.registry)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << n,):
            raise ContractViolationError(
                f"amplitude array has shape {self.amplitudes.shape}, "
                f"expected ({1 << n},) for {n} modes"
            )

    @property
    def n_modes(self) -> int:
        return len(self.registry)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized_overlap(self, other: "FockVector") -> float:
        """|<self|other>| / (|self| |other|); the phase-free comparison."""
        if self.registry != other.registry:
            raise ContractViolationError("overlap between different registries")
        return float(normalized_overlaps(self.amplitudes[None], other.amplitudes[None])[0])


def normalized_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a_i|b_i>| / (|a_i| |b_i|) of the rows of two ``(S, n)`` amplitude stacks.

    Each row is computed as ``np.vdot`` and ``np.linalg.norm`` compute one
    vector, so a row's value does not depend on the stack it is in.  A zero
    row is refused.
    """
    na = np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag))
    nb = np.sqrt(np.vecdot(b.real, b.real) + np.vecdot(b.imag, b.imag))
    if not (na.all() and nb.all()):
        raise UndefinedStateError("normalized overlap with a zero vector")
    return np.abs(np.vecdot(a, b)) / (na * nb)


# (up, down) of c^(1) = a^dag + a and c^(2) = -i (a^dag - a) for _flip;
# a^dag is (1, 0) and a is (0, 1)
_MAJORANA = ((1, 1), (-1j, 1j))


def _flip(amps: np.ndarray, pos: int, up, down) -> np.ndarray:
    """``up a^dag + down a`` on registry position pos, with the Jordan-Wigner sign.

    ``up`` multiplies the amplitudes whose bit pos is raised, ``down`` those
    whose bit is lowered; a zero factor leaves its half exactly zero.
    """
    view = amps.reshape(-1, 2, 1 << pos)  # [above, pos, below]
    signs = parity_signs(pos)
    out = np.zeros(view.shape, dtype=complex)
    if up:
        out[:, 1] = up * signs * view[:, 0]
    if down:
        out[:, 0] = down * signs * view[:, 1]
    return out.reshape(-1)


def covariance_matrix(state: FockVector) -> np.ndarray:
    """Majorana covariance matrix <(i/2)[c_k, c_l]> of all modes.

    Returned qp-ordered: all type-1 Majoranas first, then all type-2, both
    in registry order.  The Gram product holds the ``2n x 2^n`` vectors
    twice, once conjugated.
    """
    nrm = state.norm()
    if nrm < 1e-14:
        raise UndefinedStateError("covariance matrix of a zero-norm state")
    n = state.n_modes
    unit = state.amplitudes / nrm
    vecs = np.empty((2 * n, 1 << n), dtype=complex)
    for k in range(2 * n):
        vecs[k] = _flip(unit, k % n, *_MAJORANA[k // n])
    # c_k is self-adjoint, so <psi|c_k c_l|psi> = <c_k psi|c_l psi>
    gram = 1j * np.triu(vecs.conj() @ vecs.T, 1)
    bad = np.argwhere(np.abs(gram.imag) > 1e-9)
    if len(bad):
        k, l = bad[0]
        raise NumericalValidityError(f"covariance entry not real: {gram[k, l]} at ({k}, {l})")
    return gram.real - gram.real.T


def quadratic_operator(h: np.ndarray, n_modes: int) -> np.ndarray:
    """Dense many-body H = i sum_kl h_kl c_k c_l for real antisymmetric h.

    The Majorana index runs qp-ordered over the registry: k < n_modes is
    c^(1) of mode k, k >= n_modes is c^(2) of mode k - n_modes.  More than
    DEFAULT_DIAG_CAP modes are refused before H is allocated.
    """
    if n_modes > DEFAULT_DIAG_CAP:
        raise ResourceLimitError(
            f"{n_modes} modes exceed the diagonalization cap of {DEFAULT_DIAG_CAP}"
        )
    h = np.asarray(h, dtype=float)
    if n_modes < 1 or h.shape != (2 * n_modes, 2 * n_modes):
        raise ContractViolationError(
            f"coefficient matrix shape {h.shape} invalid for {n_modes} modes"
        )
    if antisymmetry_defect(h) > 1e-12:
        raise ContractViolationError("quadratic coefficient matrix must be antisymmetric")
    dim = 1 << n_modes
    idx, ones = np.arange(dim), np.ones(dim)
    # c_k maps basis state i to i ^ bit_k; _flip on the all-ones vector gives
    # f_k[j] = <j|c_k|j ^ bit_k>, so c_k c_l holds f_k[j] f_l[j ^ bit_k] at
    # (j, j ^ bit_k ^ bit_l)
    f = np.array([_flip(ones, k % n_modes, *_MAJORANA[k // n_modes])
                  for k in range(2 * n_modes)])
    bit = 1 << np.arange(2 * n_modes) % n_modes
    k, l = np.nonzero(np.triu(h, 1))
    terms = (2j * h[k, l])[:, None] * (f[k] * f[l[:, None], idx ^ bit[k][:, None]])
    # pairs with one mask bit_k ^ bit_l fill the same entries, summed in pair
    # order into one entry per (row, mask)
    masks, group = np.unique(bit[k] ^ bit[l], return_inverse=True)
    values = np.zeros((len(masks), dim), dtype=complex)
    np.add.at(values, group, terms)
    H = np.zeros((dim, dim), dtype=complex)
    H[idx, idx ^ masks[:, None]] = values
    return H


def _parity_sectors(h: np.ndarray, n_modes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(basis states, block of H) of the even, then the odd sector."""
    H = quadratic_operator(h, n_modes)
    odd = parity_signs(n_modes) < 0
    return [(s, H[np.ix_(s, s)]) for s in (np.flatnonzero(~odd), np.flatnonzero(odd))]


def exact_ground_state(h: np.ndarray, registry: ModeRegistry) -> tuple[float, FockVector]:
    """Minimal eigenpair of the dense many-body quadratic Hamiltonian.

    H keeps parity, so the two sectors are diagonalised apart and the lower
    sector minimum is taken, the even one on a tie.  The returned vector is
    zero outside that one sector; a zero h gives the vacuum, since eigh of a
    zero block returns the identity.
    """
    sectors = [(np.linalg.eigh(block), states)
               for states, block in _parity_sectors(h, len(registry))]
    (w, v), states = min(sectors, key=lambda sector: sector[0].eigenvalues[0])
    amps = np.zeros(1 << len(registry), dtype=complex)
    amps[states] = v[:, 0]
    return float(w[0]), FockVector(registry, amps)

