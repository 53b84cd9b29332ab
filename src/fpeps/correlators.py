"""Two-point Majorana correlators of the critical model.

Both evaluation routes target the continuum double integral

    corr(n1, n2, "p") = (1/(2 pi)^2) Int (i p/d)(phi) e^{i n.phi} d^2 phi
    corr(n1, n2, "q") = (1/(2 pi)^2) Int (q/d)(phi)   e^{i n.phi} d^2 phi,

the covariance entries <i c^(1)_s c^(1)_{s+n}> and <i c^(1)_s c^(2)_{s+n}>
of the infinite lattice.  ``correlator_numeric`` evaluates it as a nested
adaptive quadrature with the integrable kink lines (phi_i = pi/2, 3pi/2)
as explicit panel boundaries; a plain uniform grid sum would instead give
the finite-torus correlator, whose image corrections decay only like
1/grid^2 and never reach the tolerances used here.  ``correlator_residue``
closes the inner integral around the single pole inside the unit circle
and integrates the remaining angle adaptively.

Selection rules: "p" vanishes for even n1 + n2 and is antisymmetric under
exchange of (n1, n2); "q" vanishes for odd n1 + n2 and is symmetric.  The
large-distance behavior follows K(n1, n2) = (n1+3+i n2)/(n1+1+i n2)^3:
"p" scales with Re K and "q" with Im K.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .critical import ground_state_blocks
from .errors import ContractViolationError, ZeroNormError

MIN_GRID = 101
HALF_PI = math.pi / 2.0
SPLIT = (HALF_PI, 3.0 * HALF_PI)


def _check_grid(grid_size: int):
    if grid_size % 2 == 0 or grid_size < MIN_GRID:
        raise ContractViolationError(
            f"grid size must be odd and >= {MIN_GRID}, got {grid_size}"
        )


def correlator_numeric(n1: int, n2: int, kind: str, grid_size: int = 401) -> float:
    """Adaptive quadrature of the correlator double integral.

    ``grid_size`` (odd, >= 101) caps the number of adaptive panels per axis;
    the kink lines are panel boundaries, so the quadrature converges to the
    continuum value far below the acceptance tolerances.
    """
    _check_grid(grid_size)
    if kind == "p":
        def inner_integrand(phi1, phi2, s2, cos_n2):
            s1 = math.sin(phi1)
            den = -1.0 + s1 * s2
            # Re[i (p/d) e^{i n.phi}] = -(p/d) sin(n1 phi1 + n2 phi2)
            return -((s1 - s2) / den) * math.sin(n1 * phi1 + n2 * phi2)
    elif kind == "q":
        def inner_integrand(phi1, phi2, s2, cos_phi2):
            s1 = math.sin(phi1)
            den = -1.0 + s1 * s2
            return (math.cos(phi1) * cos_phi2 / den) * math.cos(n1 * phi1 + n2 * phi2)
    else:
        raise ContractViolationError(f"kind must be 'p' or 'q', got {kind!r}")

    def outer(phi2):
        s2 = math.sin(phi2)
        c2 = math.cos(phi2)
        if abs(-1.0 + s2) < 1e-15 or abs(1.0 + s2) < 1e-15:
            raise ZeroNormError(
                f"outer node hit the singular line at phi2 = {phi2}",
                momenta=[(HALF_PI, phi2)],
            )
        val, _ = quad(
            inner_integrand, 0.0, 2.0 * math.pi, args=(phi2, s2, c2),
            points=SPLIT, limit=grid_size, epsabs=1e-12, epsrel=0.0,
        )
        return val

    total, _ = quad(
        outer, 0.0, 2.0 * math.pi,
        points=SPLIT, limit=grid_size, epsabs=1e-11, epsrel=0.0,
    )
    return total / (2.0 * math.pi) ** 2


@lru_cache(maxsize=8)
def torus_correlator_tables(grid_size: int):
    """Exact correlator tables of a finite grid x grid torus (via FFT).

    Returns (table_p, table_q) with table[n1, n2]; these differ from the
    continuum values by image sums of order 1/grid^2 and are the right tool
    for large-separation scans and block-covariance assembly.  They are the
    type-(1, 1) and type-(1, 2) entries of the ground-state displacement
    array, so an odd grid never meets the singular set.
    """
    _check_grid(grid_size)
    blocks = ground_state_blocks(grid_size)
    return blocks[..., 0, 0], blocks[..., 0, 1]


def torus_correlator(n1: int, n2: int, kind: str, grid_size: int = 401) -> float:
    table_p, table_q = torus_correlator_tables(grid_size)
    table = table_p if kind == "p" else table_q
    return float(table[n1 % grid_size, n2 % grid_size])


def _inner_residue(n1: int, phi2: float) -> complex:
    """Inner contour integral from the single pole inside |z| = 1.

    The pole z = i (1 - |cos phi2|) / sin phi2 contributes
    i^(n1+1) (1 - |cos|)^n1 |cos| / sin^(n1+1); the companion pole with
    1 + |cos| lies outside the unit circle for every angle.
    """
    c, s = abs(math.cos(phi2)), math.sin(phi2)
    return (1j ** (n1 + 1)) * (1.0 - c) ** n1 * c / s ** (n1 + 1)


def correlator_residue(n1: int, n2: int, kind: str) -> float:
    """Residue-reduced evaluation of the same correlator."""
    if kind not in ("p", "q"):
        raise ContractViolationError(f"kind must be 'p' or 'q', got {kind!r}")
    if n1 < 0 or n2 < 0:
        raise ContractViolationError("residue form expects non-negative separations")
    parity = (n1 + n2) % 2
    if kind == "p" and parity == 0:
        return 0.0
    if kind == "q" and parity == 1:
        return 0.0
    swap_sign = 1.0
    if n1 == 0:
        # exchange of (n1, n2): "p" is antisymmetric, "q" symmetric
        n1, n2 = n2, n1
        if kind == "p":
            swap_sign = -1.0
    if n1 == 0:
        raise ContractViolationError(
            "(0, 0) has no contour reduction; use correlator_numeric"
        )

    sign_n2 = (-1.0) ** n2
    if kind == "p":
        def bracket(phi2):
            return complex(
                math.cos(n2 * phi2) * (1.0 + sign_n2),
                math.sin(n2 * phi2) * (1.0 - sign_n2),
            )
        prefactor = -(1.0 / (2.0 * math.pi)) * (1.0 - (-1.0) ** (n1 + n2))
    else:
        def bracket(phi2):
            return complex(
                math.cos(n2 * phi2) * (1.0 - sign_n2),
                math.sin(n2 * phi2) * (1.0 + sign_n2),
            )
        prefactor = (1.0 / (2.0 * math.pi)) * (1.0 + (-1.0) ** (n1 + n2))

    def integrand_re(phi2):
        return (_inner_residue(n1, phi2) * bracket(phi2)).real

    val, _err = quad(integrand_re, 0.0, HALF_PI, limit=400, epsabs=1e-13, epsrel=0.0)
    return float(swap_sign * prefactor * val)


def asymptotic_k(n1: int, n2: int, kind: str) -> float:
    """Large-distance kernel with the parity prefactor."""
    if (n1, n2) == (-1, 0):
        raise ContractViolationError("kernel pole at (-1, 0)")
    K = (n1 + 3 + 1j * n2) / (n1 + 1 + 1j * n2) ** 3
    if kind == "p":
        return float((1.0 - (-1.0) ** (n1 + n2)) * K.real)
    if kind == "q":
        return float((1.0 + (-1.0) ** (n1 + n2)) * K.imag)
    raise ContractViolationError(f"kind must be 'p' or 'q', got {kind!r}")


def asymptotic_scaled(n1: int, n2: int, kind: str) -> float:
    """Signed large-distance law, proportional to the actual correlators.

    The saddle of the residue integral sits at the zone edge, which attaches
    a phase i^(n1+n2+1) to the kernel: correlators oscillate with period 4
    in n1 + n2 on top of the |K| ~ 1/n^2 decay.  For allowed parities this
    reduces to a sign (-1)^floor((n1+n2+1)/2) on top of :func:`asymptotic_k`;
    one global (negative) proportionality factor is left to the caller.
    """
    total = n1 + n2
    sign = (-1.0) ** ((total + 1) // 2)
    return sign * asymptotic_k(n1, n2, kind)


DIRECTIONS = {
    "axis": lambda n: (n, 0),
    "diagonal": lambda n: (n, n),
    "n-2n": lambda n: (n, 2 * n),
}


def correlation_scan(direction: str, max_n: int, grid_size: int = 401):
    """Rows (n1, n2, kind, numeric, residue, asymptotic) for one direction."""
    if direction not in DIRECTIONS:
        raise ContractViolationError(
            f"direction must be one of {sorted(DIRECTIONS)}, got {direction!r}"
        )
    if max_n < 1:
        raise ContractViolationError(f"max_n must be at least 1, got {max_n}")
    to_pair = DIRECTIONS[direction]
    rows = []
    for n in range(1, max_n + 1):
        n1, n2 = to_pair(n)
        for kind in ("p", "q"):
            numeric = correlator_numeric(n1, n2, kind, grid_size)
            residue = correlator_residue(n1, n2, kind)
            asym = asymptotic_k(n1, n2, kind)
            rows.append((n1, n2, kind, numeric, residue, asym))
    return rows


def fitted_scale(numbers, kernel) -> float:
    """Least-squares proportionality constant numbers ~ scale * kernel."""
    num = np.asarray(numbers, dtype=float)
    ker = np.asarray(kernel, dtype=float)
    denom = float(np.dot(ker, ker))
    if denom == 0.0:
        raise ContractViolationError("cannot fit a scale against a zero kernel")
    return float(np.dot(ker, num) / denom)
