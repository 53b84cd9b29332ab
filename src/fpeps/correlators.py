"""Two-point Majorana correlators of the critical model.

Both evaluation routes target the continuum double integral

    corr(n1, n2, "p") = (1/(2 pi)^2) Int (i p/d)(phi) e^{i n.phi} d^2 phi
    corr(n1, n2, "q") = (1/(2 pi)^2) Int (q/d)(phi)   e^{i n.phi} d^2 phi,

the covariance entries <i c^(1)_s c^(1)_{s+n}> and <i c^(1)_s c^(2)_{s+n}>
of the infinite lattice.  The integrand is analytic except at the two
corners sin phi1 sin phi2 = 1, where it stays bounded but its limit depends
on the direction of approach.

``correlator_numeric`` and ``correlation_scan`` evaluate it with one
tensor-product composite Gauss-Legendre rule on [0, 2 pi]^2.  Each axis is
split at the kink lines phi = pi/2, 3 pi/2, which pass through the corners;
panels are graded geometrically toward those lines from both sides, and the
coarse panels on axis i shrink like 1/max|n_i| so that e^{i n.phi} stays
resolved.  The integrand is evaluated in a form without cancellation,
1 - sin a sin b = sin^2((a-b)/2) + cos^2((a+b)/2), and every requested entry
comes out of one separable product E1 (W o F) E2^T (a non-uniform DFT over
the nodes), streamed over chunks of rows so that no full grid is held.  The
rule and the integrand are symmetric under phi -> phi + pi and
phi -> 2 pi - phi, and for fixed phi1 the phi2 rule maps onto itself under
phi2 -> pi - phi2, which keeps p/d and flips the sign of q/d: a symmetry
group of order 8.  So the product runs over one quarter of the phi1 nodes
and one half of the phi2 nodes, one eighth of the grid, against one
Fourier row per n2 and kind (the one that does not cancel between the two
phi2 images), and each allowed entry is eight times its sum.
Forbidden-parity entries, and "q" entries with n1 or n2 zero, are exactly
0.0.
``grid_size`` is the minimum number of nodes per axis.  A plain uniform
grid sum would instead give the finite-torus correlator, whose image
corrections decay only like 1/grid^2; the tests read it off the ground-state
displacement array of ``fpeps.critical.ground_state_blocks``
(``torus_correlator`` in ``tests/gaussian_reference.py``).

``correlator_residue`` and the ``residue`` column of ``correlation_scan``
close the inner integral around the single pole inside the unit circle and
integrate the remaining angle, tan(phi/2)^n1 cot(phi) e^{i n2 phi} on
[0, pi/2], with equal Gauss-Legendre panels whose number grows with
max(n1, n2).  The integrand is analytic there (its point at 0 is
removable), so the fixed rule converges exponentially.  The rows that
share a panel count are one array evaluation, and a higher order on the
same panels guards the column.  The route shares no integrand, panel or
fold code with the rule and is its reference: the error estimate of a
scan is the largest difference between its two columns.

Selection rules: "p" vanishes for even n1 + n2 and is antisymmetric under
exchange of (n1, n2); "q" vanishes for odd n1 + n2 and is symmetric.  The
large-distance behavior follows K(n1, n2) = (n1+3+i n2)/(n1+1+i n2)^3:
"p" scales with Re K and "q" with Im K.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import MAX_FLOATS, ContractViolationError, NumericalValidityError, refuse_over_limit

MIN_GRID = 101
HALF_PI = math.pi / 2.0

# The composite rule: Gauss order per panel, geometric grading ratio and
# number of graded panels on each side of a kink line, and the largest
# coarse panel, h <= min(pi/4, COARSE_PHASE / max|n|), which keeps the phase
# change across one panel at most COARSE_PHASE radians.  ROW_CHUNK rows of the grid are
# evaluated at a time.
GAUSS_ORDER = 12
GRADING_RATIO = 0.2
GRADING_LEVELS = 8
COARSE_PHASE = 10.0
ROW_CHUNK = 16

# The residue rule: RESIDUE_ORDER Gauss-Legendre nodes on each of
# max(RESIDUE_MIN_PANELS, ceil(max(n1, n2) / RESIDUE_PANEL_SPAN)) equal panels
# of [0, pi/2], each at most 9.4 / max(n1, n2) wide: 9.4 radians of
# e^{i n2 phi}, about nine widths 1 / n1 of the peak of tan(phi/2)^n1 cot(phi)
# next to pi/2.  The guard order on the same panels differs by at most 1.1e-16
# on the README rows, axis max-n 120 and n-2n 60, and by 2.2e-16 at (1, 300):
# RESIDUE_TOL is 45 times that.  With RESIDUE_PANEL_SPAN = 20 and one panel at
# least, the difference on those scans is 3.2e-14 and the guard fires.
RESIDUE_ORDER = 20
RESIDUE_GUARD_ORDER = 28
RESIDUE_MIN_PANELS = 4
RESIDUE_PANEL_SPAN = 6
RESIDUE_TOL = 1e-14

# Charging 8 floats per node of the widest array at the guard order and 24
# per row gives 1.1-1.3 times the tracemalloc peak of scans from README sizes
# to axis max-n 1000 and of single rows from max(n1, n2) = 600 up.
RESIDUE_NODE_FLOATS = 8
RESIDUE_ROW_FLOATS = 24

# A rule over k1 x k2 distinct separations holds both axis rules (2 nodes
# floats per axis), its Fourier rows (3 k x nodes floats per axis while
# built or, on the phi2 axis, while the rows of odd n2 swap, over the
# nodes1 / 4 rows and nodes2 / 2 columns of the folded grid), two
# nodes1 / 4 x k2 half sums, at most 8 ROW_CHUNK x nodes2 / 2 floats of one
# chunk of the integrand, and two 2 k1 x k2 sums with the k1 x k2 terms
# picked from them (6 k1 k2 in all); above errors.MAX_FLOATS (1 GiB) it is
# refused unallocated.  Next to those arrays each entry holds its tuple in
# the caller's list (12.8-16.5 floats by tracemalloc on the three scan
# directions) and two int64 indices: charged RULE_ENTRY_FLOATS.  By
# tracemalloc the charge is 1.01-1.07 times the peak of _rule_values on the
# README scans and on axis 1000, and 1.19-1.41 times on diagonal 300 and
# 800 and n-2n 300.
RULE_ENTRY_FLOATS = 20


def _check_kind(kind: str):
    if kind not in ("p", "q"):
        raise ContractViolationError(f"kind must be 'p' or 'q', got {kind!r}")


def _check_grid(grid_size: int):
    if grid_size % 2 == 0 or grid_size < MIN_GRID:
        raise ContractViolationError(
            f"grid size must be odd and >= {MIN_GRID}, got {grid_size}"
        )


def _coarse_panels(n_max: int, grid_size: int) -> tuple[float, int]:
    """Largest coarse panel h and the number of coarse panels per quarter axis."""
    # a larger n_max takes the step of 2**53, whose panels are far over any
    # limit, so a 400-digit n_max never becomes a float
    h = min(HALF_PI / 2.0, COARSE_PHASE / min(max(n_max, 1), 2**53))
    return h, max(
        math.ceil((HALF_PI - h) / h),
        -(-grid_size // (4 * GAUSS_ORDER)) - GRADING_LEVELS,
    )


def _rule_floats(axes, entries: int, grid_size: int) -> int:
    """Floats held by a rule over ``entries`` entries and ``axes``.

    ``axes`` gives (distinct separations, largest |n|) per axis.
    """
    (k1, n1_max), (k2, n2_max) = axes
    # a quarter axis has the innermost panel, GRADING_LEVELS graded and the coarse panels
    nodes1, nodes2 = (4 * GAUSS_ORDER * (1 + GRADING_LEVELS + _coarse_panels(n_max, grid_size)[1])
                      for n_max in (n1_max, n2_max))
    rows1, cols2 = nodes1 // 4, nodes2 // 2
    return (2 * (nodes1 + nodes2) + 3 * (k1 * rows1 + k2 * cols2) + 2 * rows1 * k2
            + 8 * ROW_CHUNK * cols2 + 6 * k1 * k2 + RULE_ENTRY_FLOATS * entries)


def _quarter_edges(n_max: int, grid_size: int) -> np.ndarray:
    """Panel edges of one quarter axis, as offsets 0 .. pi/2 from a kink line.

    The graded panels fill [0, h] with edges h ratio^k; coarse panels of
    length at most h fill [h, pi/2].  Their number is raised until the
    axis, four mirrored quarters, carries at least ``grid_size`` nodes at
    Gauss order GAUSS_ORDER.
    """
    h, n_coarse = _coarse_panels(n_max, grid_size)
    graded = h * GRADING_RATIO ** np.arange(GRADING_LEVELS, 0, -1)
    return np.concatenate(([0.0], graded, np.linspace(h, HALF_PI, n_coarse + 1)))


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _axis_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [pi/2, 5 pi/2] from the quarter-axis panel edges.

    The quarter is mirrored into the segment [pi/2, 3 pi/2], graded at both
    ends, and the segment is repeated shifted by pi, so the rule is
    invariant under phi -> phi + pi and phi -> 2 pi - phi (mod 2 pi), the
    symmetries behind the parity selection rules and the fold of
    ``_rule_values``.
    """
    x, w = _gauss_legendre(GAUSS_ORDER)
    half = 0.5 * np.diff(edges)[:, None]
    offsets = (half * x + edges[:-1, None] + half).ravel()
    weights = (half * w).ravel()
    segment = np.concatenate((HALF_PI + offsets, 3.0 * HALF_PI - offsets[::-1]))
    seg_weights = np.concatenate((weights, weights[::-1]))
    return (np.concatenate((segment, segment + math.pi)),
            np.concatenate((seg_weights, seg_weights)))


def _fourier_rows(ns, phi, weights) -> np.ndarray:
    """Rows w cos(n phi) for every n, then rows w sin(n phi)."""
    angle = np.outer(ns, phi)
    rows = np.empty((2 * len(ns), len(phi)))
    np.cos(angle, out=rows[:len(ns)])
    np.sin(angle, out=rows[len(ns):])
    rows *= weights
    return rows


def _ratios(phi1: np.ndarray, phi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p/d and q/d on the grid phi1 x phi2, written without cancellation.

    With den = 1 - sin a sin b = sin^2((a-b)/2) + cos^2((a+b)/2), which is
    a sum of squares and stays positive off the two corners,
    p/d = -2 cos((a+b)/2) sin((a-b)/2) / den and q/d = -cos a cos b / den.
    The half angles of the grid come from those of each axis by angle
    addition, so no trigonometric function is evaluated per grid point.
    """
    c1, s1 = np.cos(0.5 * phi1)[:, None], np.sin(0.5 * phi1)[:, None]
    c2, s2 = np.cos(0.5 * phi2), np.sin(0.5 * phi2)
    half_sum = c1 * c2 - s1 * s2
    half_diff = s1 * c2 - c1 * s2
    inv_den = 1.0 / (half_diff * half_diff + half_sum * half_sum)
    return (-2.0 * half_sum * half_diff * inv_den,
            np.outer(-np.cos(phi1), np.cos(phi2)) * inv_den)


def _rule_values(entries, grid_size: int) -> np.ndarray:
    """Continuum correlators of every (n1, n2, kind) entry, kind "p" or "q", from one rule."""
    _check_grid(grid_size)
    n1s, at1 = np.unique([int(e[0]) for e in entries], return_inverse=True)
    n2s, at2 = np.unique([int(e[1]) for e in entries], return_inverse=True)
    refuse_over_limit(_rule_floats([(len(ns), np.max(np.abs(ns))) for ns in (n1s, n2s)],
                                   len(entries), grid_size), "quadrature rule")
    phi1, w1 = _axis_rule(_quarter_edges(np.max(np.abs(n1s)), grid_size))
    phi2, w2 = _axis_rule(_quarter_edges(np.max(np.abs(n2s)), grid_size))
    # fold: both axis rules are invariant under phi -> phi + pi and
    # phi -> 2 pi - phi (mod 2 pi), so every phi1 row is one of the four
    # images of a row pi/2 + offsets of the first quarter; the phi2 rule is
    # also invariant under phi2 -> pi - phi2, which maps its first half, the
    # segment [pi/2, 3 pi/2], onto the second.  Only those rows and columns,
    # one eighth of the grid, are evaluated
    quarter = len(phi1) // 4
    phi1, w1 = phi1[:quarter], w1[:quarter]
    half = len(phi2) // 2
    phi2, w2 = phi2[:half], w2[:half]
    e1 = _fourier_rows(n1s, phi1, w1)
    # for fixed phi1, phi2 -> pi - phi2 keeps p/d, flips q/d and takes
    # e^{i n2 phi2} to (-1)^n2 e^{-i n2 phi2}.  So over the full phi2 rule
    # the p sums against cos(n2 phi2) vanish for odd n2 and those against
    # sin(n2 phi2) for even n2, the others are twice the half sums, and q is
    # the other way round.  p takes one row per n2, the cos row of an even
    # n2 and the sin row of an odd one, and q the other row: the rows of the
    # odd n2 swap blocks in place
    odd = n2s % 2 == 1
    e2 = _fourier_rows(n2s, phi2, w2).reshape(2, len(n2s), -1)
    swapped = e2[1, odd]
    np.copyto(e2[1], e2[0], where=odd[:, None])
    e2[0, odd] = swapped
    # (W o F) E2^T one chunk of phi1 rows at a time, so that no full grid
    # is ever held; then E1 on the left
    half_p = np.empty((len(phi1), len(n2s)))
    half_q = np.empty((len(phi1), len(n2s)))
    for lo in range(0, len(phi1), ROW_CHUNK):
        rows = slice(lo, lo + ROW_CHUNK)
        f_p, f_q = _ratios(phi1[rows], phi2)
        half_p[rows] = f_p @ e2[0].T
        half_q[rows] = f_q @ e2[1].T
    sums_p, sums_q = e1 @ half_p, e1 @ half_q
    # rows [cos; sin](n1): corr_p = -Im, from sin(n1) cos(n2) + cos(n1) sin(n2),
    # and corr_q = Re, from cos(n1) cos(n2) - sin(n1) sin(n2), of
    # Int (ratio) e^{i n.phi}; one of the two terms is left
    k1 = len(n1s)
    im_p = np.where(odd, sums_p[:k1], sums_p[k1:])[at1, at2]
    re_q = np.where(odd, sums_q[:k1], -sums_q[k1:])[at1, at2]
    # the phi1 images add up: (a, b) -> (a + pi, b + pi) multiplies p/d by -1,
    # q/d by +1 and e^{i n.phi} by (-1)^(n1+n2); (a, b) -> (2 pi - a, 2 pi - b)
    # does the same to p/d and q/d and conjugates e^{i n.phi}.  So the four
    # images give 4 Im for p with odd n1 + n2 and 4 Re for q with even
    # n1 + n2, and exactly 0 for the other, forbidden, parity.  With the two
    # phi2 images each allowed entry is 8 times its sum over the eighth.  q/d
    # is odd under phi2 -> pi - phi2 and under phi1 -> pi - phi1, both
    # symmetries of the rule, so q is exactly 0 as well where n2 or n1 is 0
    is_p = np.array([e[2] == "p" for e in entries])
    n1, n2 = n1s[at1], n2s[at2]
    allowed = ((n1 + n2) % 2 == is_p) & (is_p | ((n1 != 0) & (n2 != 0)))
    return np.where(allowed, 8.0 * np.where(is_p, -im_p, re_q), 0.0) / (2.0 * math.pi) ** 2


def correlator_numeric(n1: int, n2: int, kind: str, grid_size: int = 401) -> float:
    """Composite Gauss-Legendre evaluation of the correlator double integral.

    ``grid_size`` (odd, >= 101) is the minimum number of nodes per axis;
    the rule refines its coarse panels until each axis carries at least
    that many.  This is ``correlation_scan``'s table evaluation with one
    entry.
    """
    _check_kind(kind)
    return float(_rule_values([(n1, n2, kind)], grid_size)[0])


def _residue_panels(n_max):
    """Panels of the residue rule for rows whose larger separation is ``n_max``."""
    return np.maximum(RESIDUE_MIN_PANELS, -(-n_max // RESIDUE_PANEL_SPAN))


def _residue_floats(count: int, step: int) -> int:
    """Floats held by the residue column of rows with larger separation step, .., count step.

    The widest array holds the rows of one panel count: at most
    RESIDUE_MIN_PANELS RESIDUE_PANEL_SPAN / step rows on the fewest panels,
    ceil(RESIDUE_PANEL_SPAN / step) on any other count.
    """
    widest = max(
        RESIDUE_MIN_PANELS * min(count, RESIDUE_MIN_PANELS * RESIDUE_PANEL_SPAN // step),
        max(RESIDUE_MIN_PANELS, -(-count * step // RESIDUE_PANEL_SPAN))
        * min(count, -(-RESIDUE_PANEL_SPAN // step)),
    )
    return RESIDUE_NODE_FLOATS * widest * RESIDUE_GUARD_ORDER + RESIDUE_ROW_FLOATS * count


def _residue_integrals(n1, n2, cos_coef, sin_coef, order: int) -> np.ndarray:
    """Int_0^{pi/2} tan(phi/2)^n1 cot(phi) (cos_coef cos(n2 phi) + sin_coef sin(n2 phi)).

    At most one of cos_coef and sin_coef is nonzero on a row, and only its
    function is evaluated.  Each row gets _residue_panels(max(n1, n2)) equal Gauss-Legendre panels.
    The rows that share a panel count share their nodes and are evaluated
    as one array; every operation is elementwise or a sum along a row, so
    a row's value does not depend on which rows share its array.
    """
    x, w = _gauss_legendre(order)
    panels = _residue_panels(np.maximum(n1, n2))
    uses_cos = cos_coef != 0.0
    coef = np.where(uses_cos, cos_coef, sin_coef)
    sums = np.empty(len(n1))
    for count in sorted(set(panels.tolist())):
        h = HALF_PI / count
        phi = (h * np.arange(count)[:, None] + 0.5 * h * (x + 1.0)).ravel()
        for trig, rows in ((np.cos, (panels == count) & uses_cos),
                           (np.sin, (panels == count) & ~uses_cos)):
            bracket = coef[rows, None] * trig(np.outer(n2[rows], phi))
            # the pole factor: tan(phi/2) = (1 - cos)/sin without the cancellation
            # near phi = 0, and tan^n1 cot stays finite where sin^(n1+1) underflows
            pole = np.tan(0.5 * phi) ** n1[rows, None] / np.tan(phi)
            sums[rows] = np.sum(pole * bracket * np.tile(0.5 * h * w, count), axis=1)
    return sums


def _residue_values(entries) -> np.ndarray:
    """Residue-reduced correlators of every (n1, n2, kind) entry, kind "p" or "q".

    The inner integral over phi1 closes around the single pole inside the
    unit circle, z = i (1 - |cos phi2|) / sin phi2 (its companion with
    1 + |cos| lies outside), which contributes i^(n1+1) ((1 - |cos|)/sin)^n1
    |cos|/sin, the power of i reduced mod 4.  That changes by (-1)^(n1+1)
    under phi2 -> phi2 + pi and not under phi2 -> pi - phi2, so the outer
    integral folds onto [0, pi/2] with the bracket (1 +- (-1)^n2) cos(n2 phi2)
    + i (1 -+ (-1)^n2) sin(n2 phi2) and the prefactor (1 -+ (-1)^(n1+n2))/(2 pi),
    zero for the forbidden parity.  A change above RESIDUE_TOL between
    RESIDUE_ORDER and RESIDUE_GUARD_ORDER raises NumericalValidityError.
    """
    n1, n2 = (np.array([int(e[i]) for e in entries], dtype=np.int64) for i in (0, 1))
    if np.any(n1 < 0) or np.any(n2 < 0):
        raise ContractViolationError("residue form expects non-negative separations")
    is_p = np.array([e[2] == "p" for e in entries])
    allowed = (n1 + n2) % 2 == is_p
    if np.any(allowed & (n1 == 0) & (n2 == 0)):
        raise ContractViolationError(
            "(0, 0) has no contour reduction; use correlator_numeric"
        )
    n1, n2, is_p = n1[allowed], n2[allowed], is_p[allowed]
    # exchange of (n1, n2): "p" is antisymmetric, "q" symmetric
    swap = n1 == 0
    n1, n2 = np.where(swap, n2, n1), np.where(swap, n1, n2)
    parity_sign = (-1.0) ** (n1 + n2)
    prefactor = (np.where(is_p, -(1.0 - parity_sign), 1.0 + parity_sign)
                 * np.where(swap & is_p, -1.0, 1.0) * (1.0 / (2.0 * math.pi)))
    # Re[i^(n1+1) bracket]: "p" carries 1 + (-1)^n2 on the cosine and
    # 1 - (-1)^n2 on the sine, "q" the other way round
    sign_n2 = np.where(is_p, 1.0, -1.0) * (-1.0) ** n2
    power = (n1 + 1) % 4
    cos_coef = np.array([1.0, 0.0, -1.0, 0.0])[power] * (1.0 + sign_n2)
    sin_coef = np.array([0.0, -1.0, 0.0, 1.0])[power] * (1.0 - sign_n2)
    values, finer = (prefactor * _residue_integrals(n1, n2, cos_coef, sin_coef, order)
                     for order in (RESIDUE_ORDER, RESIDUE_GUARD_ORDER))
    change = float(np.max(np.abs(finer - values), initial=0.0))
    if change > RESIDUE_TOL:
        raise NumericalValidityError(
            f"residue quadrature changed by {change:.1e} at order {RESIDUE_GUARD_ORDER}, "
            f"over {RESIDUE_TOL:.0e}"
        )
    out = np.zeros(len(entries))
    out[allowed] = values
    return out


def correlator_residue(n1: int, n2: int, kind: str) -> float:
    """Residue-reduced evaluation of the same correlator, for n1, n2 >= 0.

    This is ``correlation_scan``'s residue column with one entry.
    """
    _check_kind(kind)
    refuse_over_limit(_residue_floats(1, max(int(n1), int(n2), 1)), "residue quadrature")
    return float(_residue_values([(n1, n2, kind)])[0])


def asymptotic_k(n1: int, n2: int, kind: str) -> float:
    """Large-distance kernel with the parity prefactor."""
    _check_kind(kind)
    if (n1, n2) == (-1, 0):
        raise ContractViolationError("kernel pole at (-1, 0)")
    K = (n1 + 3 + 1j * n2) / (n1 + 1 + 1j * n2) ** 3
    if kind == "p":
        return float((1.0 - (-1.0) ** (n1 + n2)) * K.real)
    return float((1.0 + (-1.0) ** (n1 + n2)) * K.imag)


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


# separation (n1, n2) = n (a, b) along each direction
DIRECTIONS = {"axis": (1, 0), "diagonal": (1, 1), "n-2n": (1, 2)}


def _scan_floats(direction: str, max_n: int, grid_size: int) -> int:
    """Floats held by a scan, the larger of its rule and its residue column."""
    # the residue column runs after the rule has freed its arrays; its integer
    # charge refuses a huge max_n before the rule's panel width makes it a float
    a, b = DIRECTIONS[direction]
    residue = _residue_floats(max_n, max(a, b))
    if residue > MAX_FLOATS:
        return residue
    return max(_rule_floats([(max_n, a * max_n), (max_n if b else 1, b * max_n)], 2 * max_n,
                            grid_size), residue)


def correlation_scan(direction: str, max_n: int, grid_size: int = 401):
    """Rows (n1, n2, kind, numeric, residue, asymptotic) for one direction.

    The numeric column of all rows comes from one evaluation of the rule.
    """
    if direction not in DIRECTIONS:
        raise ContractViolationError(
            f"direction must be one of {sorted(DIRECTIONS)}, got {direction!r}"
        )
    if max_n < 1:
        raise ContractViolationError(f"max_n must be at least 1, got {max_n}")
    a, b = DIRECTIONS[direction]
    refuse_over_limit(_scan_floats(direction, max_n, grid_size), "quadrature rule")
    entries = [(a * n, b * n, kind) for n in range(1, max_n + 1) for kind in ("p", "q")]
    numeric = _rule_values(entries, grid_size)
    residue = _residue_values(entries)
    return [
        (n1, n2, kind, float(value), float(res), asymptotic_k(n1, n2, kind))
        for (n1, n2, kind), value, res in zip(entries, numeric, residue)
    ]


def fitted_scale(numbers, kernel) -> float:
    """Least-squares proportionality constant numbers ~ scale * kernel."""
    num = np.asarray(numbers, dtype=float)
    ker = np.asarray(kernel, dtype=float)
    denom = float(np.dot(ker, ker))
    if denom == 0.0:
        raise ContractViolationError("cannot fit a scale against a zero kernel")
    return float(np.dot(ker, num) / denom)
