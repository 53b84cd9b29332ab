"""Dense Fock-space simulation of fermionic modes.

A basis state with occupation bits ``(k_0, ..., k_{n-1})`` represents
``a_0^dag^k_0 ... a_{n-1}^dag^k_{n-1} |vac>`` with the creation operators
applied in registry order (registry position i lives on bit i of the flat
amplitude index).  Creation/annihilation on mode ``j`` picks up the
Jordan-Wigner sign ``(-1)^(number of occupied modes before j)``.

Everything here is exact dense linear algebra on ``complex128`` amplitude
vectors; it is the ground truth the tensor-network and covariance-matrix
code is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import zherk

from .errors import (
    ContractViolationError,
    NumericalValidityError,
    ResourceLimitError,
    UndefinedStateError,
)
from .lattice import LatticeSpec, Site

DEFAULT_MODE_CAP = 24
DEFAULT_DIAG_CAP = 12

SPECIES = ("a", "alpha", "beta", "gamma", "delta")

# (species, (h, v)); "a" is the physical mode, the rest are auxiliary.
ModeLabel = tuple[str, Site]


def parity_signs(n: int) -> np.ndarray:
    """(-1)^(number of set bits of i) for i < 2^n.

    Entry i is the Jordan-Wigner sign a ladder operator on position n picks
    up from the occupations i of the positions below it.
    """
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n)) & 1)


@dataclass(frozen=True)
class ModeRegistry:
    """Fixed total ordering of labeled fermionic modes."""

    labels: tuple[ModeLabel, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = {label: i for i, label in enumerate(self.labels)}
        if len(idx) != len(self.labels):
            raise ContractViolationError("duplicate mode labels in registry")
        object.__setattr__(self, "_index", idx)

    def __len__(self) -> int:
        return len(self.labels)

    def position(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ContractViolationError(f"unknown mode label {label!r}") from None


def physical_registry(lattice: LatticeSpec) -> ModeRegistry:
    """Physical modes only, ordered by M(h, v)."""
    return ModeRegistry(tuple(("a", s) for s in lattice.sites()))


def standard_registry(lattice: LatticeSpec) -> ModeRegistry:
    """Physical modes first (by M), then per-site auxiliary quadruples.

    The auxiliary groups are site-major in M order with the fixed internal
    order (alpha, beta, gamma, delta), so projecting all auxiliary modes onto
    the empty occupation is a contiguous slice of the amplitude array.
    """
    labels: list[ModeLabel] = [("a", s) for s in lattice.sites()]
    for s in lattice.sites():
        labels.extend((sp_, s) for sp_ in ("alpha", "beta", "gamma", "delta"))
    return ModeRegistry(tuple(labels))


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


@dataclass(frozen=True)
class OperatorPoly:
    """Sum of scalar-weighted monomials in creation/annihilation operators.

    Each monomial is a tuple of ``(label, is_creation)`` factors; factors act
    right to left exactly as written, with no implicit normal ordering.
    """

    terms: tuple[tuple[complex, tuple[tuple[ModeLabel, bool], ...]], ...]

    @classmethod
    def from_terms(cls, terms) -> "OperatorPoly":
        return cls(tuple((complex(c), tuple(m)) for c, m in terms))


def vacuum(registry: ModeRegistry, cap: int = DEFAULT_MODE_CAP) -> FockVector:
    """All-modes-empty state."""
    n = len(registry)
    if n == 0:
        raise ContractViolationError("empty registry")
    if n > cap:
        raise ResourceLimitError(f"{n} modes exceed the dense-vector cap of {cap}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return FockVector(registry, amps)


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


def apply_poly(state: FockVector, op: OperatorPoly) -> FockVector:
    """Linear action of an operator polynomial on a state."""
    reg = state.registry
    result = np.zeros_like(state.amplitudes)
    for coeff, monomial in op.terms:
        work = state.amplitudes
        for label, create in reversed(monomial):
            work = _flip(work, reg.position(label), *((1, 0) if create else (0, 1)))
            if not work.any():
                break
        result += coeff * work
    return FockVector(reg, result)


def majorana_vector(state: FockVector, pos: int, which: int) -> np.ndarray:
    """Amplitudes of c^(which)_pos |state>, which in {1, 2}.

    c^(1) = a^dag + a and c^(2) = -i (a^dag - a).
    """
    if which not in (1, 2):
        raise ContractViolationError(f"Majorana type must be 1 or 2, got {which}")
    return _flip(state.amplitudes, pos, *_MAJORANA[which - 1])


def covariance_matrix(state: FockVector) -> np.ndarray:
    """Majorana covariance matrix <(i/2)[c_k, c_l]> of all modes.

    Returned qp-ordered: all type-1 Majoranas first, then all type-2, both
    in registry order.
    """
    nrm = state.norm()
    if nrm < 1e-14:
        raise UndefinedStateError("covariance matrix of a zero-norm state")
    n = state.n_modes
    unit = state.amplitudes / nrm
    vecs = np.empty((2 * n, 1 << n), dtype=complex)
    for k in range(2 * n):
        vecs[k] = _flip(unit, k % n, *_MAJORANA[k // n])
    # c_k is self-adjoint, so <psi|c_k c_l|psi> = <c_k psi|c_l psi>; zherk
    # forms only the upper triangle of conj(vecs) vecs^T, with no conjugated copy
    gram = 1j * np.triu(zherk(1.0, vecs.T, trans=2), 1)
    bad = np.argwhere(np.abs(gram.imag) > 1e-9)
    if len(bad):
        k, l = bad[0]
        raise NumericalValidityError(f"covariance entry not real: {gram[k, l]} at ({k}, {l})")
    return gram.real - gram.real.T


def quadratic_operator(h: np.ndarray, n_modes: int) -> sp.csr_matrix:
    """Sparse many-body H = i sum_kl h_kl c_k c_l for real antisymmetric h.

    The Majorana index runs qp-ordered over the registry: k < n_modes is
    c^(1) of mode k, k >= n_modes is c^(2) of mode k - n_modes.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (2 * n_modes, 2 * n_modes):
        raise ContractViolationError(
            f"coefficient matrix shape {h.shape} does not match {n_modes} modes"
        )
    if np.max(np.abs(h + h.T)) > 1e-12:
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
    # pairs with one mask bit_k ^ bit_l fill the same entries; summing them
    # in pair order leaves one entry per (row, mask), and sums that cancel
    # are dropped
    masks, group = np.unique(bit[k] ^ bit[l], return_inverse=True)
    values = np.zeros((len(masks), dim), dtype=complex)
    np.add.at(values, group, terms)
    rows = np.broadcast_to(idx, values.shape)
    keep = values != 0
    return sp.csr_matrix((values[keep], (rows[keep], (rows ^ masks[:, None])[keep])),
                         shape=(dim, dim))


def _start_vector(dim: int) -> np.ndarray:
    """Fixed ARPACK start vector, so that repeated solves agree to the bit.

    A seeded normal draw: the all-ones vector can be orthogonal to the
    ground state.
    """
    return np.random.default_rng(0).standard_normal(dim)


def exact_ground_state(
    h: np.ndarray, registry: ModeRegistry, cap: int = DEFAULT_DIAG_CAP
) -> tuple[float, FockVector]:
    """Minimal eigenpair of the dense many-body quadratic Hamiltonian."""
    n = len(registry)
    if n > cap:
        raise ResourceLimitError(f"{n} modes exceed the diagonalization cap of {cap}")
    h = np.asarray(h, dtype=float)
    if not np.any(np.abs(h) > 0):
        return 0.0, vacuum(registry)
    H = quadratic_operator(h, n)
    dim = H.shape[0]
    if dim <= 64:
        w, v = np.linalg.eigh(H.toarray())
        return float(w[0]), FockVector(registry, v[:, 0])
    w, v = spla.eigsh(H, k=1, which="SA", v0=_start_vector(dim))
    return float(w[0]), FockVector(registry, v[:, 0])


def many_body_gap(h: np.ndarray, registry: ModeRegistry, cap: int = DEFAULT_DIAG_CAP) -> float:
    """E_1 - E_0 of the dense quadratic Hamiltonian."""
    n = len(registry)
    if n > cap:
        raise ResourceLimitError(f"{n} modes exceed the diagonalization cap of {cap}")
    H = quadratic_operator(h, n)
    if H.shape[0] <= 128:
        w = np.linalg.eigvalsh(H.toarray())
    else:
        w = np.sort(spla.eigsh(H, k=2, which="SA", v0=_start_vector(H.shape[0]),
                               return_eigenvectors=False))
    return float(w[1] - w[0])
