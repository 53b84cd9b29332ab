"""Quadratic Majorana Hamiltonians, parent construction, spectra, entropy.

A translationally invariant H = i sum_kl h_kl c_k c_l is stored through its
displacement blocks T(Delta) (real 2x2 in Majorana type space) with

    h_hat(phi) = sum_Delta T(Delta) e^{-i phi.Delta},

matching the covariance-block transform in :mod:`fpeps.gaussian`.  The
antisymmetry of h reads T(-Delta) = -T(Delta)^T.

The parent Hamiltonian of a channel output is h_hat(phi) = d(phi) *
gamma_hat(phi) with (p, q, d) the minimal-degree trigonometric polynomial
triple compatible with the channel's momentum-space ratios.  The minimal
triple is found as the one-dimensional nullspace of a linear system sampled
at random momenta, growing the harmonic support until it exists; this
cancels whatever common polynomial factor the raw adjugate data carries and
keeps the Hamiltonian as local as the state allows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericalValidityError, ZeroNormError
from .gaussian import GaussianChannel, MajoranaCM, _circulant, gamma_out_hat, matrix_from_blocks
from .lattice import LatticeSpec

Displacement = tuple[int, int]


def _half_space(radius: int) -> list[Displacement]:
    """(0,0) plus one representative per +/-Delta pair within the radius."""
    out = [(0, 0)]
    for dh in range(-radius, radius + 1):
        for dv in range(-radius, radius + 1):
            if (dh, dv) == (0, 0):
                continue
            if dh > 0 or (dh == 0 and dv > 0):
                out.append((dh, dv))
    return out


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Displacement-block form of a quadratic Majorana Hamiltonian."""

    blocks: dict = field(default_factory=dict)  # Displacement -> real 2x2

    def __post_init__(self):
        clean = {}
        for delta, blk in self.blocks.items():
            arr = np.asarray(blk, dtype=float)
            if arr.shape != (2, 2):
                raise ContractViolationError("Hamiltonian blocks must be 2x2")
            if np.max(np.abs(arr)) > 0:
                clean[(int(delta[0]), int(delta[1]))] = arr
        object.__setattr__(self, "blocks", clean)
        for delta, arr in clean.items():
            minus = (-delta[0], -delta[1])
            partner = clean.get(minus, np.zeros((2, 2)))
            if np.max(np.abs(arr + partner.T)) > 1e-9:
                raise ContractViolationError(
                    f"block antisymmetry violated at displacement {delta}"
                )

    def h_hat(self, phi) -> np.ndarray:
        """Momentum blocks at phi of shape (..., 2); returns (..., 2, 2)."""
        phi = np.asarray(phi, dtype=float)
        acc = np.zeros(phi.shape[:-1] + (2, 2), dtype=complex)
        for (dh, dv), blk in self.blocks.items():
            phase = np.exp(-1j * (phi[..., 0] * dh + phi[..., 1] * dv))
            acc += blk * phase[..., None, None]
        return acc

    def locality_radius(self) -> int:
        if not self.blocks:
            return 0
        return max(max(abs(dh), abs(dv)) for dh, dv in self.blocks)

    def materialize(self, lattice: LatticeSpec) -> np.ndarray:
        """Full real antisymmetric coefficient matrix on a torus (qp order)."""
        T = np.zeros((lattice.n_h, lattice.n_v, 2, 2))
        if self.blocks:
            # displacements that alias on a small torus add up
            dh, dv = np.array(list(self.blocks)).T
            values = np.array(list(self.blocks.values()))
            np.add.at(T, (dh % lattice.n_h, dv % lattice.n_v), values)
        h = _circulant(T)
        if np.max(np.abs(h + h.T)) > 1e-9:
            raise NumericalValidityError("materialized Hamiltonian not antisymmetric")
        return (h - h.T) / 2.0

    def scaled(self, factor: float) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(
            {d: factor * b for d, b in self.blocks.items()}
        )


# ---------------------------------------------------------------------------
# parent Hamiltonian via the minimal polynomial triple


@dataclass(frozen=True)
class PolynomialTriple:
    """Trig polynomials (p, q, d): p odd, d even, q = qr (even) + i qi (odd)."""

    radius: int
    p_sin: dict    # Displacement -> float, Delta in half space without (0,0)
    qr_cos: dict   # Displacement -> float, Delta in half space
    qi_sin: dict
    d_cos: dict

    def p(self, phi) -> float:
        return sum(
            c * np.sin(phi[0] * dh + phi[1] * dv)
            for (dh, dv), c in self.p_sin.items()
        )

    def q(self, phi) -> complex:
        qr = sum(
            c * np.cos(phi[0] * dh + phi[1] * dv)
            for (dh, dv), c in self.qr_cos.items()
        )
        qi = sum(
            c * np.sin(phi[0] * dh + phi[1] * dv)
            for (dh, dv), c in self.qi_sin.items()
        )
        return qr + 1j * qi

    def d(self, phi) -> float:
        return sum(
            c * np.cos(phi[0] * dh + phi[1] * dv)
            for (dh, dv), c in self.d_cos.items()
        )


def minimal_triple(
    channel: GaussianChannel,
    radius_cap: int = 2,
    n_samples: int = 240,
    seed: int = 20240,
    rtol: float = 1e-9,
) -> PolynomialTriple:
    """Smallest-support (p, q, d) matching the channel's momentum ratios."""
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < n_samples:
        phi = tuple(rng.uniform(0.0, 2.0 * np.pi, 2))
        fb = gamma_out_hat(channel, phi)
        if abs(fb.d) < 1e-6:
            continue
        samples.append((phi, fb.p / fb.d, fb.q / fb.d))

    for radius in range(radius_cap + 1):
        half = _half_space(radius)
        sin_basis = [d for d in half if d != (0, 0)]
        cols = []
        labels = []
        for name, basis in (
            ("p", sin_basis), ("qr", half), ("qi", sin_basis), ("d", half),
        ):
            for delta in basis:
                labels.append((name, delta))
                cols.append(None)
        n_unknowns = len(labels)
        rows = []
        for phi, rp, rq in samples:
            sin_vals = {d: np.sin(phi[0] * d[0] + phi[1] * d[1]) for d in half}
            cos_vals = {d: np.cos(phi[0] * d[0] + phi[1] * d[1]) for d in half}
            row_p = np.zeros(n_unknowns)
            row_qr = np.zeros(n_unknowns)
            row_qi = np.zeros(n_unknowns)
            for j, (name, delta) in enumerate(labels):
                if name == "p":
                    row_p[j] = sin_vals[delta]
                elif name == "qr":
                    row_qr[j] = cos_vals[delta]
                elif name == "qi":
                    row_qi[j] = sin_vals[delta]
                else:  # d couples into every ratio equation
                    row_p[j] = -rp * cos_vals[delta]
                    row_qr[j] = -rq.real * cos_vals[delta]
                    row_qi[j] = -rq.imag * cos_vals[delta]
            rows.extend((row_p, row_qr, row_qi))
        mat = np.asarray(rows)
        _, svals, vt = np.linalg.svd(mat, full_matrices=True)
        svals = np.concatenate([svals, np.zeros(max(0, n_unknowns - len(svals)))])
        if svals[-1] > rtol * svals[0]:
            continue  # no exact triple at this radius
        if n_unknowns >= 2 and svals[-2] <= rtol * svals[0]:
            raise NumericalValidityError(
                f"polynomial triple at radius {radius} is not unique"
            )
        vec = vt[-1]
        triple = _vector_to_triple(vec, labels, radius)
        # orient: d <= 0 where defined, so gamma_hat is the ground state
        d_mean = np.mean([triple.d(phi) for phi, _, _ in samples[:32]])
        if d_mean > 0:
            vec = -vec
            triple = _vector_to_triple(vec, labels, radius)
        return triple
    raise ContractViolationError(
        f"no polynomial triple within displacement radius {radius_cap}; "
        "the parent Hamiltonian would violate the locality cap"
    )


def _vector_to_triple(vec, labels, radius) -> PolynomialTriple:
    parts = {"p": {}, "qr": {}, "qi": {}, "d": {}}
    for val, (name, delta) in zip(vec, labels):
        if abs(val) > 1e-12:
            parts[name][delta] = float(val)
    return PolynomialTriple(radius, parts["p"], parts["qr"], parts["qi"], parts["d"])


def parent_hamiltonian(
    channel: GaussianChannel,
    radius_cap: int = 2,
    atol: float = 1e-12,
) -> QuadraticHamiltonian:
    """Local Hamiltonian whose ground state is the channel output.

    h_hat(phi) = [[i p, q], [-conj(q), -i p]] from the minimal triple; the
    displacement blocks are the (exactly finite) harmonic content of p and q.
    Blocks beyond ``radius_cap`` cannot occur by construction; offending
    radii raise ``ContractViolationError`` inside the triple search.
    """
    triple = minimal_triple(channel, radius_cap=radius_cap)
    blocks: dict[Displacement, np.ndarray] = {}

    def add(delta, r, c, value):
        if abs(value) < atol:
            return
        blk = blocks.setdefault(delta, np.zeros((2, 2)))
        blk[r, c] += value

    # p(phi) = sum b sin(phi.Delta) -> i p contributes -b/2 at +Delta, +b/2 at -Delta
    for delta, b in triple.p_sin.items():
        add(delta, 0, 0, -b / 2.0)
        add((-delta[0], -delta[1]), 0, 0, b / 2.0)
        add(delta, 1, 1, b / 2.0)
        add((-delta[0], -delta[1]), 1, 1, -b / 2.0)
    # q(phi) = sum a cos + i b sin -> harmonic coefficient (a - b)/2 at +Delta
    qdeltas = set(triple.qr_cos) | set(triple.qi_sin)
    for delta in qdeltas:
        a = triple.qr_cos.get(delta, 0.0)
        b = triple.qi_sin.get(delta, 0.0)
        if delta == (0, 0):
            add(delta, 0, 1, a)
            add(delta, 1, 0, -a)
            continue
        plus, minus = (a - b) / 2.0, (a + b) / 2.0
        add(delta, 0, 1, plus)
        add((-delta[0], -delta[1]), 0, 1, minus)
        # h^(21)(phi) = -conj(q)(phi): coefficient -Q_{-Delta} at +Delta
        add(delta, 1, 0, -minus)
        add((-delta[0], -delta[1]), 1, 0, -plus)

    ham = QuadraticHamiltonian(blocks)
    # cross-check: h_hat must reproduce d * g_hat at random momenta
    phis = np.random.default_rng(99).uniform(0, 2 * np.pi, (16, 2))
    # a triple without sine (or cosine) terms evaluates to a plain 0
    p = np.broadcast_to(triple.p(phis.T), len(phis))
    q = np.broadcast_to(triple.q(phis.T), len(phis))
    want = np.moveaxis(np.array([[1j * p, q], [-np.conj(q), -1j * p]]), -1, 0)
    if np.max(np.abs(ham.h_hat(phis) - want)) > 1e-9:
        raise NumericalValidityError("parent Hamiltonian harmonics inconsistent")
    return ham


# ---------------------------------------------------------------------------
# spectra, ground-state covariance, consistency, entropy


def _positive_branch(hh: np.ndarray) -> np.ndarray:
    """Upper eigenvalue of i h_hat for a stack of momentum blocks."""
    return np.linalg.eigvalsh(1j * hh)[..., -1]


def single_particle_spectrum(
    ham: QuadraticHamiltonian, lattice: LatticeSpec
) -> tuple[list[tuple[tuple[float, float], float]], float]:
    """Positive branch of eigenvalues of i h_hat(phi) per momentum, and the gap."""
    momenta = lattice.momenta()
    eps = _positive_branch(ham.h_hat(momenta))
    return list(zip(momenta, eps.tolist())), float(eps.min())


def filled_branch_energy(ham: QuadraticHamiltonian, lattice: LatticeSpec) -> float:
    """Sum over momenta of the negative single-particle branch."""
    spectrum, _ = single_particle_spectrum(ham, lattice)
    return -sum(e for _, e in spectrum)


def energy_expectation(h_full: np.ndarray, gamma: MajoranaCM) -> float:
    """<H> of a Gaussian state: -tr(h Gamma)."""
    return float(-np.trace(h_full @ gamma.matrix))


def ground_state_cm(ham: QuadraticHamiltonian, lattice: LatticeSpec) -> MajoranaCM:
    """Covariance matrix of the filled negative branch, g_hat = -h_hat/eps."""
    momenta = lattice.momenta()
    hh = ham.h_hat(momenta)
    eps = _positive_branch(hh)
    if np.any(eps < 1e-12):
        phi = momenta[int(np.argmax(eps < 1e-12))]
        raise ZeroNormError(
            f"gapless momentum {phi}: ground covariance undefined",
            momenta=[phi],
        )
    mat = matrix_from_blocks(dict(zip(momenta, -hh / eps[:, None, None])), lattice, species=1)
    if np.max(np.abs(mat.imag)) > 1e-10:
        raise NumericalValidityError("ground covariance has imaginary residue")
    return MajoranaCM(mat.real)


def ground_state_cm_consistency(
    channel: GaussianChannel, lattice: LatticeSpec, radius_cap: int = 2
) -> float:
    """max over momenta of commutator + extremality residuals.

    Checks that the channel output block commutes with the parent Hamiltonian
    block and equals its ground-state covariance -h_hat/eps.
    """
    ham = parent_hamiltonian(channel, radius_cap)
    momenta = lattice.momenta()
    fbs = [gamma_out_hat(channel, phi) for phi in momenta]
    zero_norm = [fb.phi for fb in fbs if fb.zero_norm]
    if zero_norm:
        raise ZeroNormError(
            f"zero-norm momenta on this lattice: {zero_norm}",
            momenta=zero_norm,
        )
    g = np.array([fb.g_hat for fb in fbs])
    hh = ham.h_hat(momenta)
    comm = np.max(np.abs(g @ hh - hh @ g))
    eps = _positive_branch(hh)
    if np.any(eps <= 1e-12):
        return np.inf
    extremal = np.max(np.abs(g + hh / eps[:, None, None]))
    return max(float(comm), float(extremal))


def binary_entropy_bits(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = -xi * np.log2(xi) - (1 - xi) * np.log2(1 - xi)
    return out


def block_entropy(gamma, modes, atol: float = 1e-8) -> float:
    """Entanglement entropy (bits) of a mode subset of a Gaussian state."""
    mat = gamma.matrix if isinstance(gamma, MajoranaCM) else np.asarray(gamma)
    m = mat.shape[0] // 2
    modes = list(modes)
    if not modes:
        raise ContractViolationError("block must contain at least one mode")
    idx = modes + [m + k for k in modes]
    sub = mat[np.ix_(idx, idx)]
    w = np.linalg.eigvalsh(1j * sub)
    # eigenvalues come in +/- nu pairs (nu = 0 means a maximally mixed mode)
    nus = np.sort(w)[::-1][: len(modes)]
    if np.any(nus > 1.0 + atol) or np.any(nus < -atol):
        raise NumericalValidityError(
            f"covariance eigenvalues {nus} leave the interval [0, 1]"
        )
    nus = np.clip(nus, 0.0, 1.0)
    return float(np.sum(binary_entropy_bits((1.0 + nus) / 2.0)))


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

    def cleaned(self, atol: float = 1e-12) -> "DiracQuadratic":
        return DiracQuadratic(
            {d: c for d, c in self.pairing.items() if abs(c) > atol},
            {d: c for d, c in self.hopping.items() if abs(c) > atol},
            self.mu if abs(self.mu) > atol else 0.0,
            self.constant if abs(self.constant) > atol else 0.0,
        )


def _in_half(delta: Displacement) -> bool:
    return delta > (0, 0) if delta != (0, 0) else False


def majorana_to_dirac(ham: QuadraticHamiltonian) -> DiracQuadratic:
    """Rewrite i sum h c c into normal-ordered particle operators."""
    pp: dict[Displacement, complex] = {}
    hh: dict[Displacement, complex] = {}
    ph: dict[Displacement, complex] = {}
    hp: dict[Displacement, complex] = {}

    def acc(store, delta, value):
        if value != 0:
            store[delta] = store.get(delta, 0.0) + value

    for delta, T in ham.blocks.items():
        t11, t12 = T[0, 0], T[0, 1]
        t21, t22 = T[1, 0], T[1, 1]
        acc(pp, delta, 1j * (t11 - 1j * t12 - 1j * t21 - t22))
        acc(ph, delta, 1j * (t11 + 1j * t12 - 1j * t21 + t22))
        acc(hp, delta, 1j * (t11 - 1j * t12 + 1j * t21 + t22))
        acc(hh, delta, 1j * (t11 + 1j * t12 + 1j * t21 - t22))

    constant = 0.0
    # a_x a^dag_y = delta_{xy} - a^dag_y a_x
    for delta, c in hp.items():
        if delta == (0, 0):
            constant += c.real
            if abs(c.imag) > 1e-10:
                raise NumericalValidityError("on-site constant not real")
        acc(ph, (-delta[0], -delta[1]), -c)

    pairing: dict[Displacement, complex] = {}
    for delta, c in pp.items():
        if delta == (0, 0):
            continue  # a^dag^2 = 0
        if _in_half(delta):
            pairing[delta] = pairing.get(delta, 0.0) + c
        else:
            md = (-delta[0], -delta[1])
            pairing[md] = pairing.get(md, 0.0) - c

    hh_check: dict[Displacement, complex] = {}
    for delta, c in hh.items():
        if delta == (0, 0):
            continue
        if _in_half(delta):
            hh_check[delta] = hh_check.get(delta, 0.0) + c
        else:
            md = (-delta[0], -delta[1])
            hh_check[md] = hh_check.get(md, 0.0) - c
    for delta in set(pairing) | set(hh_check):
        want = -np.conj(pairing.get(delta, 0.0))
        got = hh_check.get(delta, 0.0)
        if abs(want - got) > 1e-9:
            raise NumericalValidityError(
                f"pairing terms break Hermiticity at {delta}: {got} vs {want}"
            )

    hopping: dict[Displacement, complex] = {}
    mu = 0.0
    for delta, c in ph.items():
        if delta == (0, 0):
            if abs(c.imag) > 1e-10:
                raise NumericalValidityError("chemical potential not real")
            mu += c.real
        elif _in_half(delta):
            hopping[delta] = hopping.get(delta, 0.0) + c
    # the opposite-displacement content is the h.c. side; verify, don't add
    for delta, c in ph.items():
        if delta != (0, 0) and not _in_half(delta):
            md = (-delta[0], -delta[1])
            want = np.conj(hopping.get(md, 0.0))
            if abs(c - want) > 1e-9:
                raise NumericalValidityError(
                    f"hopping terms break Hermiticity at {delta}: {c} vs {want}"
                )
    return DiracQuadratic(pairing, hopping, mu, constant).cleaned()


def dirac_to_majorana(dirac: DiracQuadratic) -> QuadraticHamiltonian:
    """Inverse rewrite; returns displacement blocks with T(-D) = -T(D)^T."""
    # accumulate coefficients C[(r, c, Delta)] of sum_s c^(r)_s c^(c)_{s+Delta}
    C: dict[tuple[int, int, Displacement], complex] = {}

    def add(r, c, delta, value):
        if value != 0:
            key = (r, c, delta)
            C[key] = C.get(key, 0.0) + value

    def add_product(kind_x, kind_y, delta, coeff):
        # kind: 'dag' -> (c1 + i c2)/2, 'ann' -> (c1 - i c2)/2
        sx = 1j if kind_x == "dag" else -1j
        sy = 1j if kind_y == "dag" else -1j
        add(0, 0, delta, coeff * 0.25)
        add(0, 1, delta, coeff * 0.25 * sy)
        add(1, 0, delta, coeff * 0.25 * sx)
        add(1, 1, delta, coeff * 0.25 * sx * sy)

    for delta, c in dirac.pairing.items():
        add_product("dag", "dag", delta, c)
        # h.c.: conj(c) sum_s a_{s+Delta} a_s = conj(c) sum_s' a_{s'} a_{s' - Delta}
        add_product("ann", "ann", (-delta[0], -delta[1]), np.conj(c))
    for delta, c in dirac.hopping.items():
        add_product("dag", "ann", delta, c)
        add_product("dag", "ann", (-delta[0], -delta[1]), np.conj(c))
    add_product("dag", "ann", (0, 0), dirac.mu)

    # antisymmetrize: sum_s c^(r)_s c^(c)_{s+D} = -sum_s c^(c)_s c^(r)_{s-D} (+ consts)
    blocks: dict[Displacement, np.ndarray] = {}
    for (r, c, delta), value in C.items():
        anti = 0.5 * (value - C.get((c, r, (-delta[0], -delta[1])), 0.0))
        t = anti / 1j
        if abs(t.imag) > 1e-10:
            raise NumericalValidityError("Majorana block came out complex")
        if abs(t.real) < 1e-14:
            continue
        blk = blocks.setdefault(delta, np.zeros((2, 2)))
        blk[r, c] += t.real
    return QuadraticHamiltonian(blocks)
