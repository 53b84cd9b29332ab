"""Correlator quadratures, residue reduction, asymptotics."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import traced_peak
from gaussian_reference import torus_correlator
from fpeps import correlators
from fpeps.cli import main
from fpeps.correlators import (
    asymptotic_k,
    asymptotic_scaled,
    correlation_scan,
    correlator_numeric,
    correlator_residue,
    fitted_scale,
    _axis_rule,
    _fourier_rows,
    _quarter_edges,
    _ratios,
    _rule_values,
)
from fpeps.errors import MAX_FLOATS, ContractViolationError, NumericalValidityError

README_SCANS = (("axis", 40), ("diagonal", 20), ("n-2n", 20))


def nested_quad(n1, n2, kind):
    """Independent reference: nested adaptive scipy quad, kink lines as breaks."""
    split = (math.pi / 2, 3 * math.pi / 2)
    if kind == "p":
        def inner(phi1, phi2):
            s1, s2 = math.sin(phi1), math.sin(phi2)
            return -((s1 - s2) / (-1.0 + s1 * s2)) * math.sin(n1 * phi1 + n2 * phi2)
    else:
        def inner(phi1, phi2):
            s1, s2 = math.sin(phi1), math.sin(phi2)
            return (math.cos(phi1) * math.cos(phi2) / (-1.0 + s1 * s2)
                    * math.cos(n1 * phi1 + n2 * phi2))

    def outer(phi2):
        return quad(inner, 0.0, 2 * math.pi, args=(phi2,), points=split,
                    limit=401, epsabs=1e-12, epsrel=0.0)[0]

    total = quad(outer, 0.0, 2 * math.pi, points=split, limit=401,
                 epsabs=1e-11, epsrel=0.0)[0]
    return total / (2 * math.pi) ** 2


def inner_residue(n1, phi2):
    """The pole term i^(n1+1) ((1 - |cos|)/sin)^n1 |cos|/sin at any angle phi2."""
    c, s = abs(math.cos(phi2)), math.sin(phi2)
    return (1j ** ((n1 + 1) % 4)) * ((1.0 - c) / s) ** n1 * (c / s)


def contour_quad(n1, n2, kind):
    """Independent reference: the contour-reduced integral by adaptive scipy quad."""
    if (n1 + n2) % 2 == (0 if kind == "p" else 1):
        return 0.0
    swap_sign = 1.0
    if n1 == 0:
        n1, n2 = n2, n1
        swap_sign = -1.0 if kind == "p" else 1.0
    sign_n2 = (-1.0) ** n2 * (1.0 if kind == "p" else -1.0)
    prefactor = (-(1.0 - (-1.0) ** (n1 + n2)) if kind == "p" else 1.0 + (-1.0) ** (n1 + n2))

    def integrand(phi2):
        bracket = complex(math.cos(n2 * phi2) * (1.0 + sign_n2),
                          math.sin(n2 * phi2) * (1.0 - sign_n2))
        return (inner_residue(n1, phi2) * bracket).real

    val = quad(integrand, 0.0, math.pi / 2, limit=400, epsabs=1e-13, epsrel=0.0)[0]
    return swap_sign * prefactor / (2.0 * math.pi) * val


def test_grid_preconditions():
    with pytest.raises(ContractViolationError):
        correlator_numeric(1, 2, "p", grid_size=400)
    with pytest.raises(ContractViolationError):
        correlator_numeric(1, 2, "p", grid_size=99)
    with pytest.raises(ContractViolationError):
        torus_correlator(1, 2, "p", 100)


def test_parity_selection_numeric():
    assert abs(correlator_numeric(2, 2, "p")) < 1e-12
    assert abs(correlator_numeric(1, 2, "q")) < 1e-12
    assert abs(correlator_numeric(3, 1, "p")) < 1e-12


def test_parity_selection_residue_exact():
    assert correlator_residue(2, 2, "p") == 0.0
    assert correlator_residue(2, 1, "q") == 0.0


def test_numeric_matches_residue():
    for (n1, n2, kind) in [
        (1, 2, "p"), (2, 1, "p"), (3, 4, "p"), (9, 10, "p"),
        (1, 1, "q"), (2, 4, "q"), (5, 5, "q"), (10, 10, "q"),
    ]:
        a = correlator_numeric(n1, n2, kind)
        b = correlator_residue(n1, n2, kind)
        assert abs(a - b) < 1e-10, (n1, n2, kind)


@pytest.mark.parametrize("direction,max_n", README_SCANS)
def test_scan_matches_residue_on_readme_rows(direction, max_n):
    rows = correlation_scan(direction, max_n)
    assert len(rows) == 2 * max_n
    for n1, n2, kind, numeric, residue, _asym in rows:
        assert abs(numeric - residue) <= 1e-10, (n1, n2, kind)
        if (n1 + n2) % 2 == (0 if kind == "p" else 1):
            assert abs(numeric) <= 1e-12, (n1, n2, kind)
    # the error estimate that `fpeps correlations` prints
    assert max(abs(row[3] - row[4]) for row in rows) <= 1e-12


@pytest.mark.parametrize("direction,max_n", README_SCANS + (("axis", 120), ("n-2n", 60)))
def test_residue_matches_quad_of_the_contour_integrand(direction, max_n):
    a, b = correlators.DIRECTIONS[direction]
    for n in range(1, max_n + 1):
        for kind in ("p", "q"):
            value = correlator_residue(a * n, b * n, kind)
            assert abs(value - contour_quad(a * n, b * n, kind)) <= 1e-13, (n, kind)


def test_scan_residue_column_is_the_per_row_value():
    for direction, max_n in README_SCANS:
        for n1, n2, kind, _numeric, residue, _asym in correlation_scan(direction, max_n, 101):
            value = correlator_residue(n1, n2, kind)
            assert (value, math.copysign(1.0, value)) == (residue, math.copysign(1.0, residue))


def test_residue_guard_fires_on_too_few_panels(monkeypatch):
    # three panels for (119, 0), where orders 20 and 28 differ by 3.7e-13
    monkeypatch.setattr(correlators, "RESIDUE_MIN_PANELS", 1)
    monkeypatch.setattr(correlators, "RESIDUE_PANEL_SPAN", 40)
    with pytest.raises(NumericalValidityError, match="residue quadrature changed"):
        correlator_residue(119, 0, "p")


@pytest.mark.parametrize("entries,count,step", [
    ([(n, 0, kind) for n in range(1, 301) for kind in ("p", "q")], 300, 1),
    ([(n, 2 * n, kind) for n in range(1, 151) for kind in ("p", "q")], 150, 2),
    ([(6000, 1, "p")], 1, 6000),
], ids=["axis-300", "n-2n-150", "single"])
def test_residue_charge_covers_its_peak(entries, count, step):
    correlators._residue_values(entries[:2])
    with traced_peak() as traced:
        correlators._residue_values(entries)
    assert traced.peak <= 8 * correlators._residue_floats(count, step)


def test_residue_refuses_an_oversized_separation(monkeypatch):
    monkeypatch.setattr(correlators, "_residue_integrals", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ContractViolationError, match="GiB"):
        correlator_residue(10**8, 1, "p")


@pytest.mark.parametrize("entry", [(-1, 2, "p"), (2, -1, "q"), (-3, -3, "q")])
def test_residue_refuses_a_negative_separation(monkeypatch, entry):
    monkeypatch.setattr(correlators, "_residue_integrals", lambda *args: pytest.fail("integrated"))
    with pytest.raises(ContractViolationError, match="non-negative separations"):
        correlator_residue(*entry)


@pytest.mark.parametrize("entry", [(10**400, 0, "p"), (0, -10**400, "q"), (2**53 + 1, 1, "p")])
def test_rule_refuses_a_huge_separation(monkeypatch, entry):
    # the panel step of a 400-digit separation used to raise OverflowError
    monkeypatch.setattr(correlators, "_fourier_rows", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ContractViolationError, match="GiB"):
        correlator_numeric(*entry)


def unfolded_rule(entries, grid_size):
    """The rule summed over every node of its grid, with no symmetry used."""
    n1s, n2s = (np.array([e[i] for e in entries]) for i in (0, 1))
    (phi1, w1), (phi2, w2) = (_axis_rule(_quarter_edges(np.max(np.abs(ns)), grid_size))
                              for ns in (n1s, n2s))
    k = len(entries)
    rows1, rows2 = _fourier_rows(n1s, phi1, w1), _fourier_rows(n2s, phi2, w2)
    z1, z2 = rows1[:k] + 1j * rows1[k:], rows2[:k] + 1j * rows2[k:]
    sums_p, sums_q = (np.sum((z1 @ f) * z2, axis=1) for f in _ratios(phi1, phi2))
    is_p = np.array([e[2] == "p" for e in entries])
    return np.where(is_p, -sums_p.imag, sums_q.real) / (2 * math.pi) ** 2


@pytest.mark.parametrize("grid", [101, 401])
def test_folded_rule_equals_the_full_grid(grid):
    # the rule evaluates a quarter of the phi1 rows against half of the phi2
    # columns and adds their images; the full grid must give the same allowed
    # values, and the values that the fold sets to 0.0 must vanish by
    # themselves, not by construction
    separations = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (-3, 2), (3, -2), (-2, -2),
                   (5, 0), (0, -6), (-4, 7), (6, 6), (9, -10), (2, 0), (4, 0), (0, 4),
                   (2, -1), (-1, -3), (4, -5), (-7, 8), (3, 11)]
    entries = [(n1, n2, kind) for n1, n2 in separations for kind in ("p", "q")]
    # the premise of the phi2 fold: phi2 -> pi - phi2 maps the first half of
    # the nodes onto the second, in reverse order, with the same weights
    phi2, w2 = _axis_rule(_quarter_edges(10, grid))
    first, second = np.split(phi2, 2)
    assert np.max(np.abs(np.mod(math.pi - first, 2 * math.pi)
                         - np.mod(second[::-1], 2 * math.pi))) <= 1e-15
    assert np.array_equal(w2[len(first):][::-1], w2[:len(first)])
    folded = _rule_values(entries, grid)
    full = unfolded_rule(entries, grid)
    assert np.max(np.abs(folded - full)) <= 1e-14
    forbidden = np.array([(n1 + n2) % 2 == (0 if kind == "p" else 1)
                          for n1, n2, kind in entries])
    # parity-allowed q with n1 or n2 zero: q/d is odd under phi2 -> pi - phi2
    # and under phi1 -> pi - phi1, e^{i n.phi} even under one of them
    odd_under_map = np.array([kind == "q" and n1 * n2 == 0 for n1, n2, kind in entries])
    odd_under_map &= ~forbidden
    assert {entries[i] for i in np.flatnonzero(odd_under_map)} == {
        (0, 0, "q"), (0, -6, "q"), (2, 0, "q"), (4, 0, "q"), (0, 4, "q")}
    zero = forbidden | odd_under_map
    assert np.all(folded[zero] == 0.0) and not np.any(np.signbit(folded[zero]))
    assert np.max(np.abs(full[zero])) <= 1e-12
    assert np.min(np.abs(folded[~zero])) > 1e-4


@pytest.mark.parametrize("entry", [(1, 0, "p"), (1, 1, "q"), (0, 0, "q")])
def test_rule_matches_nested_quad(entry):
    # (0, 0) has no contour reduction, so only the nested quad can check it
    assert abs(correlator_numeric(*entry) - nested_quad(*entry)) <= 1e-10


def test_ratios_finite_and_on_unit_circle_at_every_node():
    # (p/d)^2 + (q/d)^2 = 1.  Node angles are doubles, so at distance r from
    # a corner sin phi1 sin phi2 = 1 the half-angle form carries a relative
    # error ~1e-16/r (nodes come within ~2e-9 here).  The plain form
    # -1 + s1 s2 errs by ~1e-16/r^2: O(1) there, and 0/0 at some nodes.
    for n_max in (0, 40, 120):
        phi, _w = _axis_rule(_quarter_edges(n_max, 401))
        f_p, f_q = _ratios(phi, phi)
        assert np.all(np.isfinite(f_p)) and np.all(np.isfinite(f_q))
        assert np.max(np.abs(f_p ** 2 + f_q ** 2 - 1.0)) < 1e-6


def test_grid_is_minimum_nodes_per_axis():
    for n_max in (0, 10, 40):
        for grid in (101, 401, 1001):
            phi, w = _axis_rule(_quarter_edges(n_max, grid))
            assert len(phi) >= grid
            assert np.sum(w) == pytest.approx(2 * math.pi, abs=1e-13)
    # more nodes than needed leave the values unchanged
    assert abs(correlator_numeric(7, 2, "p", grid_size=1001)
               - correlator_numeric(7, 2, "p")) < 1e-12


def test_error_estimate_tracks_an_underresolved_rule(tmp_path, capsys, monkeypatch):
    # coarse panels far too long for e^{i n phi}: the estimate must see it
    monkeypatch.setattr(correlators, "COARSE_PHASE", 60.0)
    assert main(["correlations", "--dir", "axis", "--max-n", "40", "--grid", "101",
                 "--out", str(tmp_path / "axis.csv")]) == 0
    estimate = float(capsys.readouterr().err.split()[-1])
    assert estimate > 1e-8


@pytest.mark.parametrize("direction,limit", [("axis", 4838), ("diagonal", 2209), ("n-2n", 1849)])
def test_scan_size_limit(direction, limit, monkeypatch):
    # the largest --max-n that README gives for --grid 401
    charge = correlators._scan_floats(direction, limit, 401)
    assert charge <= MAX_FLOATS
    with monkeypatch.context() as patch:
        patch.setattr(correlators, "_fourier_rows", lambda *args: pytest.fail("allocated"))
        patch.setattr(correlators, "_residue_values", lambda *args: pytest.fail("allocated"))
        with pytest.raises(ContractViolationError, match="GiB"):
            correlation_scan(direction, limit + 1)
    correlation_scan(direction, 2)  # numpy's first calls allocate once per process
    with traced_peak() as traced:
        correlation_scan(direction, limit)
    assert traced.peak <= 8 * charge


def test_unknown_kind_is_refused():
    # torus_correlator used to return the "q" entry for any kind but "p"
    for call in (lambda: torus_correlator(1, 0, "x", 101), lambda: correlator_numeric(1, 0, "x"),
                 lambda: correlator_residue(1, 0, "x"), lambda: asymptotic_k(1, 0, "x")):
        with pytest.raises(ContractViolationError, match="kind must be"):
            call()


def test_exchange_structure():
    # same-type correlators are antisymmetric under exchange, mixed-type
    # ones symmetric; magnitudes are exchange symmetric either way
    assert correlator_residue(3, 4, "p") == pytest.approx(
        -correlator_residue(4, 3, "p"), abs=1e-13
    )
    assert correlator_residue(3, 5, "q") == pytest.approx(
        correlator_residue(5, 3, "q"), abs=1e-13
    )
    assert correlator_residue(0, 5, "p") == pytest.approx(
        -correlator_residue(5, 0, "p"), abs=1e-13
    )


def test_inner_residue_symmetry():
    # I(phi2 + pi) = (-1)^(n1 + 1) I(phi2) and I(pi - phi2) = I(phi2): the
    # fold of the contour integral onto [0, pi/2]
    rng = np.random.default_rng(0)
    for n1 in (1, 2, 5):
        for _ in range(5):
            phi2 = rng.uniform(0.05, np.pi / 2 - 0.05)
            lhs = inner_residue(n1, phi2 + np.pi)
            rhs = (-1.0) ** (n1 + 1) * inner_residue(n1, phi2)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert inner_residue(n1, np.pi - phi2) == pytest.approx(inner_residue(n1, phi2),
                                                                    rel=1e-12)


def test_only_inner_pole_is_inside_unit_circle():
    for phi2 in np.linspace(0.01, np.pi / 2 - 0.01, 50):
        c, s = np.cos(phi2), np.sin(phi2)
        z_minus = 1j * (1 - c) / s
        z_plus = 1j * (1 + c) / s
        assert abs(z_minus) < 1.0
        assert abs(z_plus) > 1.0


def test_zero_separation_needs_numeric():
    with pytest.raises(ContractViolationError):
        correlator_residue(0, 0, "q")
    # the quadrature handles it; the on-site entry vanishes at half filling
    val = correlator_numeric(0, 0, "q")
    assert np.isfinite(val) and abs(val) < 1e-10


def test_asymptotic_kernel_values():
    assert asymptotic_k(1, 0, "p") == pytest.approx(2 * 0.5)
    K01 = (0 + 3 + 1j) / (0 + 1 + 1j) ** 3
    assert K01 == pytest.approx(-0.5 - 1.0j)
    assert asymptotic_k(0, 1, "p") == pytest.approx(2 * K01.real)
    with pytest.raises(ContractViolationError):
        asymptotic_k(-1, 0, "p")


def test_q_vanishes_on_axis():
    # exact zero by symmetry; the kernel's axis values vanish as well
    assert correlator_residue(6, 0, "q") == 0.0
    assert abs(correlator_numeric(6, 0, "q")) < 1e-10
    # the torus value only vanishes up to image corrections
    assert abs(torus_correlator(6, 0, "q", 401)) < 1e-4
    assert asymptotic_k(6, 0, "q") == 0.0


def test_asymptotic_fit_axis():
    ns = [n for n in range(15, 41) if n % 2 == 1]
    num = [correlator_residue(n, 0, "p") for n in ns]
    ker = [asymptotic_scaled(n, 0, "p") for n in ns]
    scale = fitted_scale(num, ker)
    devs = [abs(a - scale * k) / abs(scale * k) for a, k in zip(num, ker)]
    assert max(devs) < 0.05
    assert scale == pytest.approx(-1.0 / np.pi, rel=0.01)


def test_power_law_decay_slopes():
    ns = np.arange(10, 41)
    for kind, direction in (("p", "axis"), ("q", "diagonal"), ("p", "n-2n"), ("q", "n-2n")):
        vals, used = [], []
        for n in ns:
            n1, n2 = {"axis": (n, 0), "diagonal": (n, n), "n-2n": (n, 2 * n)}[direction]
            allowed = (n1 + n2) % 2 == (1 if kind == "p" else 0)
            if not allowed:
                continue
            vals.append(abs(correlator_residue(n1, n2, kind)))
            used.append(np.hypot(n1, n2))
        slope = np.polyfit(np.log(used), np.log(vals), 1)[0]
        assert abs(slope + 2.0) < 0.3, (kind, direction, slope)


def test_correlation_scan_rows():
    rows = correlation_scan("diagonal", 2, grid_size=101)
    assert len(rows) == 4
    by_key = {(n1, n2, k): (num, res, asym) for n1, n2, k, num, res, asym in rows}
    # p rows on the diagonal vanish (even index sum)
    assert abs(by_key[(1, 1, "p")][0]) < 1e-8
    assert by_key[(1, 1, "p")][1] == 0.0
    assert abs(by_key[(2, 2, "q")][0]) > 1e-3


def test_scan_rejects_unknown_direction():
    with pytest.raises(ContractViolationError):
        correlation_scan("wild", 3)
