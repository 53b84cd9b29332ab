"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Criterion 6 asserts its documented zero-norm momentum labels verbatim.  They
follow from the documented projection determinant
``det(D - omega_hat) = 16 (1 - sin phi1 sin phi2) cos^2(phi1/2) cos^2(phi2/2)``:
its inherent zeros are those of the factor ``1 - sin phi1 sin phi2``, which
is also the denominator of the closed-form ratios of criterion 2.  The
reflected pair, where ``sin phi1 sin phi2 = -1``, is not a zero: the
determinant is 8 there.  The companion test checks the same zero set
without the time bound.
"""
import time

import numpy as np
import pytest

from gaussian_reference import filled_branch_energy
from fpeps.build import build_fpeps
from fpeps.contraction import contract_peps
from fpeps.correlators import (
    asymptotic_scaled,
    correlator_numeric,
    correlator_residue,
    fitted_scale,
)
from fpeps.critical import (
    closed_form_ratios,
    entropy_scan,
    example_channel,
    gap_scan,
    hcrit_coefficients,
    norm_zero_locator,
)
from fpeps.fock import ModeRegistry, exact_ground_state
from fpeps.gaussian import (
    apply_channel,
    gamma_out_hat,
    lattice_bond_cm,
    physical_cm_from_blocks,
)
from fpeps.lattice import LatticeSpec
from fpeps.mapping import map_tensor_set
from fpeps.quadratic import (
    dirac_to_majorana,
    energy_expectation,
    ground_state_cm_consistency,
    majorana_to_dirac,
    parent_hamiltonian,
)
from fpeps.tensors import FPEPSTensor


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {name}: {detail}")
    return ok


def test_criterion_01_mapping_equivalence():
    start = time.time()
    # 3x3 and 3x4 run the bulk parity transport, which needs three columns
    lattices = [LatticeSpec(*shape) for shape in ((1, 2), (2, 1), (2, 2), (3, 3), (3, 4))]
    worst = 0.0
    n_sets = 51
    for i in range(n_sets):
        lattice = lattices[i % len(lattices)]
        rng = np.random.default_rng(1000 + i)
        tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
        oracle = build_fpeps(lattice, tensors)
        contracted = contract_peps(lattice, map_tensor_set(lattice, tensors))
        worst = max(worst, abs(oracle.normalized_overlap(contracted) - 1.0))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    assert report(1, "mapping equivalence", ok,
                  f"{n_sets} tensor sets, worst |overlap - 1| = {worst:.2e}, "
                  f"{elapsed:.1f} s")


def test_criterion_02_closed_form_ratios():
    start = time.time()
    channel = example_channel()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        phi = tuple(rng.uniform(0.0, 2.0 * np.pi, 2))
        fb = gamma_out_hat(channel, phi)
        rp, rq = closed_form_ratios(phi)
        # cross-multiplied by the ratios' denominator: d vanishes as
        # cos^2(phi_i/2) on the phi_i = pi lines, where p/d and q/d lose
        # precision while p, q and d themselves stay well defined
        den = -1.0 + np.sin(phi[0]) * np.sin(phi[1])
        worst = max(
            worst,
            abs(den * (fb.p - fb.d * rp)),
            abs(den * (fb.q.real - fb.d * rq)),
            abs(fb.q.imag),
        )
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(2, "closed-form ratios", ok,
                  f"100 momenta, worst residual = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_channel_fourier_equivalence():
    start = time.time()
    channel = example_channel()
    worst = 0.0
    for n in (3, 5):
        lattice = LatticeSpec(n, n)
        direct = apply_channel(
            channel.expand_to_lattice(lattice.n_sites), lattice_bond_cm(lattice)
        )
        assembled = physical_cm_from_blocks(channel, lattice)
        worst = max(worst, float(np.max(np.abs(direct.matrix - assembled.matrix))))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(3, "channel/Fourier equivalence", ok,
                  f"3x3 and 5x5, worst entry = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_parent_hamiltonian():
    start = time.time()
    ham = parent_hamiltonian(example_channel(), radius_cap=2)
    dirac = majorana_to_dirac(ham)
    table = hcrit_coefficients()
    on_pattern_got, on_pattern_want = [], []
    off_pattern = abs(dirac.mu)
    for key, val in dirac.pairing.items():
        if key in table.pairing:
            on_pattern_got.append(val)
            on_pattern_want.append(table.pairing[key])
        else:
            off_pattern = max(off_pattern, abs(val))
    for key, val in dirac.hopping.items():
        if key in table.hopping:
            on_pattern_got.append(val)
            on_pattern_want.append(table.hopping[key])
        else:
            off_pattern = max(off_pattern, abs(val))
    got = np.array(on_pattern_got)
    want = np.array(on_pattern_want)
    scale = float(np.vdot(want, got).real / np.vdot(want, want).real)
    residual = float(np.max(np.abs(got - scale * want)))
    support_ok = set(dirac.pairing) <= set(table.pairing) and set(
        dirac.hopping
    ) <= set(table.hopping)
    elapsed = time.time() - start
    ok = (scale > 0 and residual <= 1e-10 and off_pattern < 1e-12
          and support_ok and len(got) == 4 and elapsed < 5.0)
    assert report(4, "parent Hamiltonian", ok,
                  f"scale = {scale:.6f}, residual = {residual:.2e}, "
                  f"off-pattern = {off_pattern:.2e}, {elapsed:.1f} s")


def test_criterion_05_ground_state_consistency():
    start = time.time()
    channel = example_channel()
    worst_comm = 0.0
    worst_energy = 0.0
    ham = parent_hamiltonian(channel, radius_cap=2)
    for n in (3, 5, 7):
        lattice = LatticeSpec(n, n)
        worst_comm = max(worst_comm, ground_state_cm_consistency(channel, lattice))
        gamma = apply_channel(
            channel.expand_to_lattice(lattice.n_sites), lattice_bond_cm(lattice)
        )
        h_full = ham.materialize(lattice)
        e_state = energy_expectation(h_full, gamma) / 2.0
        e_filled = filled_branch_energy(ham, lattice)
        worst_energy = max(worst_energy, abs(e_state - e_filled))
    # dense-diagonalization cross-check on a 9-mode instance
    lattice = LatticeSpec(3, 3)
    h_full = ham.materialize(lattice)
    registry = ModeRegistry(tuple(("a", s) for s in lattice.sites()))
    e_dense, _ = exact_ground_state(h_full, registry)
    gamma = apply_channel(
        channel.expand_to_lattice(9), lattice_bond_cm(lattice)
    )
    dense_diff = abs(e_dense - energy_expectation(h_full, gamma))
    elapsed = time.time() - start
    ok = worst_comm <= 1e-10 and worst_energy <= 1e-10 and dense_diff <= 1e-9
    assert report(5, "ground-state consistency", ok,
                  f"commutator = {worst_comm:.2e}, energy = {worst_energy:.2e}, "
                  f"dense diff = {dense_diff:.2e}, {elapsed:.1f} s")


def test_criterion_06_zero_norm_detection_verbatim():
    start = time.time()
    report_4x4 = norm_zero_locator(LatticeSpec(4, 4))
    odd_clean = all(
        norm_zero_locator(LatticeSpec(n, n)).state_defined
        and not norm_zero_locator(LatticeSpec(n, n)).removable
        for n in (3, 5, 7)
    )
    essential = {tuple(np.round(p, 9)) for p in report_4x4.essential}
    # inherent zeros of the documented determinant factor
    # 1 - sin phi1 sin phi2: sin phi1 = sin phi2 = +-1 on the 4x4 grid
    stated = {
        (round(np.pi / 2, 9), round(np.pi / 2, 9)),
        (round(3 * np.pi / 2, 9), round(3 * np.pi / 2, 9)),
    }
    elapsed = time.time() - start
    ok = essential == stated and odd_clean and elapsed < 1.0
    assert report(6, "zero-norm momenta (documented labels)", ok,
                  f"computed {sorted(essential)} vs stated {sorted(stated)}, "
                  f"odd clean = {odd_clean}, {elapsed:.1f} s")


def test_criterion_06_companion_computed_zero_set():
    # physics content: 4x4 carries inherent zeros on the singular family
    # sin phi1 sin phi2 = 1 of the model, where the determinant factor
    # 1 - sin phi1 sin phi2 vanishes; odd tori carry none.
    report_4x4 = norm_zero_locator(LatticeSpec(4, 4))
    computed = {tuple(np.round(p, 9)) for p in report_4x4.essential}
    expected = {
        (round(np.pi / 2, 9), round(np.pi / 2, 9)),
        (round(3 * np.pi / 2, 9), round(3 * np.pi / 2, 9)),
    }
    odd_clean = all(
        norm_zero_locator(LatticeSpec(n, n)).state_defined for n in (3, 5, 7)
    )
    ok = computed == expected and odd_clean
    assert report(6, "zero-norm momenta (computed labels)", ok,
                  f"essential = {sorted(computed)}, odd clean = {odd_clean}")


def test_criterion_07_correlator_agreement():
    start = time.time()
    worst_pair = 0.0
    worst_parity = 0.0
    for n1 in range(1, 11):
        for n2 in range(1, 11):
            for kind in ("p", "q"):
                numeric = correlator_numeric(n1, n2, kind, grid_size=401)
                residue = correlator_residue(n1, n2, kind)
                worst_pair = max(worst_pair, abs(numeric - residue))
                forbidden = (n1 + n2) % 2 == (0 if kind == "p" else 1)
                if forbidden:
                    worst_parity = max(worst_parity, abs(numeric))
    elapsed = time.time() - start
    ok = worst_pair <= 1e-8 and worst_parity <= 1e-8 and elapsed < 30.0
    assert report(7, "correlator agreement", ok,
                  f"numeric vs residue = {worst_pair:.2e}, "
                  f"parity = {worst_parity:.2e}, {elapsed:.1f} s")


def test_criterion_08_asymptotics():
    start = time.time()
    ns = [n for n in range(15, 41) if n % 2 == 1]
    numeric = [correlator_numeric(n, 0, "p", grid_size=401) for n in ns]
    kernel = [asymptotic_scaled(n, 0, "p") for n in ns]
    # one scale, fitted on the asymptotic tail of the window
    scale = fitted_scale(numeric[-4:], kernel[-4:])
    devs = np.array([
        abs(a - scale * k) / abs(scale * k) for a, k in zip(numeric, kernel)
    ])
    trend = float(np.polyfit(ns, devs, 1)[0])
    elapsed = time.time() - start
    ok = (devs.max() < 0.05 and trend < 0.0 and devs[-1] < devs[0]
          and elapsed < 60.0)
    assert report(8, "axis asymptotics", ok,
                  f"scale = {scale:.4f}, max dev = {devs.max():.3%}, "
                  f"trend slope = {trend:.2e}, {elapsed:.1f} s")


def test_criterion_09_criticality_and_area_law():
    start = time.time()
    sizes = list(range(5, 42, 2))
    gaps = gap_scan(sizes)
    gap_values = [g for _, g in gaps]
    decreasing = all(a > b for a, b in zip(gap_values, gap_values[1:]))
    logs_n = np.log([n for n, _ in gaps])
    logs_g = np.log(gap_values)
    corr = abs(np.corrcoef(logs_n, logs_g)[0, 1])
    # the gap closes like 1/N^2
    slope = np.polyfit(logs_n, logs_g, 1)[0]

    entropy = entropy_scan(41, range(3, 9))
    lengths = np.array([l for l, _ in entropy], dtype=float)
    bits = np.array([s for _, s in entropy])
    coeffs = np.polyfit(lengths, bits, 1)
    rel_resid = float(np.max(np.abs(bits - np.polyval(coeffs, lengths)) / bits))
    elapsed = time.time() - start
    ok = (decreasing and corr > 0.99 and abs(slope + 2.0) <= 0.02 and rel_resid < 0.05
          and elapsed < 120.0)
    assert report(9, "criticality and area law", ok,
                  f"gap corr = {corr:.5f}, gap exponent = {slope:.4f}, decreasing = {decreasing}, "
                  f"S(L) residual = {rel_resid:.3%}, {elapsed:.1f} s")


def test_criterion_10_determinism(tmp_path):
    from fpeps.cli import main

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(["verify", "--suite", "all", "--seed", "7", "--sets", "6",
                     "--lattice", "3x3", "--out", str(path)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    ok = identical
    assert report(10, "determinism", ok,
                  f"byte-identical reports = {identical}")
