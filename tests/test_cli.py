"""Exit codes, output formats, and determinism of the command driver."""
import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpeps import cli, correlators, errors, quadratic
from fpeps.build import build_fpeps
from fpeps.cli import main
from fpeps.contraction import contract_peps
from fpeps.errors import MAX_FLOATS, ContractViolationError
from fpeps.io import dump_tensor_set, load_peps_set
from fpeps.lattice import LatticeSpec, parse_lattice
from fpeps.mapping import map_tensor_set
from fpeps.tensors import FPEPSTensor
from test_golden import COMMANDS, GOLDEN


def run(argv):
    return main(argv)


def assert_config_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_mapping_small(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "mapping", "--seed", "7",
                "--sets", "6", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 6
    assert all(c["residual"] <= 1e-10 for c in report["checks"])


def test_verify_mapping_default_has_at_least_fifty_checks(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "mapping", "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["checks"]) >= 50
    assert all(abs(c["residual"]) <= 1e-10 for c in report["checks"])


def test_verify_mapping_checks_follow_the_set_index(tmp_path, monkeypatch):
    out, pairs = tmp_path / "report.json", tmp_path / "pairs.json"
    argv = ["verify", "--suite", "mapping", "--seed", "5", "--sets", "7", "--out"]
    assert run(argv + [str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    shapes = [f"{lat.n_h}x{lat.n_v}" for lat in cli.MAPPING_LATTICES]
    assert [c["name"] for c in checks] == [f"mapping-overlap-{shapes[i % 3]}-{i}" for i in range(7)]
    assert [c["seed"] for c in checks] == [5 + i for i in range(7)]
    # set i checked alone through the per-set wrappers gives the same residual
    for i, check in enumerate(checks):
        lattice = cli.MAPPING_LATTICES[i % 3]
        rng = np.random.default_rng(5 + i)
        tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
        state = contract_peps(lattice, map_tensor_set(lattice, tensors))
        assert check["residual"] == abs(build_fpeps(lattice, tensors).normalized_overlap(state) - 1.0)
    # stacks of two: a set's residual does not depend on the stack it is in
    monkeypatch.setattr(cli, "MAPPING_STACK", 2)
    assert run(argv + [str(pairs)]) == 0
    assert pairs.read_bytes() == out.read_bytes()


def test_verify_gaussian_3x3(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "gaussian", "--lattice", "3x3",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert any("fourier-equivalence" in n for n in names)


@pytest.mark.parametrize("seed", [4, 9, 10, 12])
def test_verify_gaussian_3x3_seeds_near_removable_zeros(tmp_path, seed):
    # these seeds sample momenta close to the phi_i = pi lines, where d has
    # removable zeros and the plain ratios p/d, q/d lose precision
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "gaussian", "--lattice", "3x3",
                "--seed", str(seed), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    ratios = [c for c in report["checks"] if c["name"] == "closed-form-ratios"]
    assert ratios and ratios[0]["passed"]


def test_verify_gaussian_4x4_fails_with_momenta(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "gaussian", "--lattice", "4x4",
                "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    failing = [c for c in report["checks"] if not c["passed"]]
    assert any("zero_norm_momenta" in c and c["zero_norm_momenta"] for c in failing)


def test_verify_gaussian_2x1_names_removable_zero_momenta(tmp_path):
    # 2x1 has only the removable zero (pi, 0); the dense route would see a
    # rounding-level det(D - Gamma_in) and name no momentum
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "gaussian", "--lattice", "2x1", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("fourier-equivalence-2x1", "parent-consistency-2x1"):
        assert not checks[name]["passed"]
        assert checks[name]["zero_norm_momenta"] == [[np.pi, 0.0]]


@pytest.mark.parametrize("flags", [["--sets", "0"], ["--tolerance", "nan"],
                                   ["--tolerance", "inf"], ["--tolerance", "1e400"]])
def test_verify_bad_flag_is_config_error(tmp_path, capsys, flags):
    assert_config_error(["verify", "--suite", "mapping", *flags,
                         "--out", str(tmp_path / "x.json")], capsys)


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
def test_verify_negative_tolerance_word_reaches_its_check(tmp_path, capsys, value):
    # argparse used to read the leading '-' as an option: "expected one argument"
    assert run(["verify", "--suite", "mapping", "--tolerance", value,
                "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --tolerance must be positive and finite, got {float(value)}\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("an oversized request reached the numerics")


@pytest.mark.parametrize("suite", ["gaussian", "all"])
def test_verify_oversized_lattice_is_refused_before_allocating(tmp_path, capsys, suite):
    # the dense channel of a 101x101 torus would be (80800)^2 floats
    with mock.patch.object(cli, "_gaussian_checks", _must_not_run), \
            mock.patch.object(cli, "_mapping_checks", _must_not_run):
        assert_config_error(["verify", "--suite", suite, "--lattice", "101x101",
                             "--out", str(tmp_path / "x.json")], capsys)


def test_verify_limit_admits_15x15(tmp_path):
    with mock.patch.object(cli, "_gaussian_checks", lambda *args: []):
        assert run(["verify", "--suite", "gaussian", "--lattice", "15x15",
                    "--out", str(tmp_path / "x.json")]) == 0
    # the mapping suite does not read --lattice
    with mock.patch.object(cli, "_mapping_checks", lambda *args: []):
        assert run(["verify", "--suite", "mapping", "--lattice", "101x101",
                    "--out", str(tmp_path / "x.json")]) == 0


def test_verify_gaussian_15x15_passes_at_default_tolerance(tmp_path):
    # the parent-consistency residual does not grow like 1/gap
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "gaussian", "--lattice", "15x15",
                "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["parent-consistency-15x15"]["residual"] < 1e-11


def test_verify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify", "--suite", "mapping", "--seed", "3",
                    "--sets", "4", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_correlations_requires_direction(capsys):
    assert_config_error(["correlations"], capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--sets=x"],
    ["verify", "--suite", "bogus"],
    ["bogus"],
    [],
], ids=["bad-int", "bad-choice", "bad-command", "no-command"])
def test_argparse_errors_are_one_line(capsys, argv):
    assert_config_error(argv, capsys)


def test_correlations_diagonal(tmp_path):
    out = tmp_path / "corr.csv"
    code = run(["correlations", "--dir", "diagonal", "--max-n", "2",
                "--grid", "101", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    p_rows = [r for r in rows if r["kind"] == "p"]
    assert all(abs(float(r["numeric"])) < 1e-8 for r in p_rows)
    assert {(r["n1"], r["n2"]) for r in rows} == {("1", "1"), ("2", "2")}


def test_correlations_axis_to_large_separation(tmp_path, capsys):
    # the residue route used to underflow to a ZeroDivisionError from n = 116
    out = tmp_path / "axis.csv"
    assert run(["correlations", "--dir", "axis", "--max-n", "120",
                "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 240
    assert all(abs(float(r["numeric"]) - float(r["residue"])) <= 1e-10 for r in rows)
    err = capsys.readouterr().err
    assert err.startswith("correlations: wrote 240 rows, quadrature error estimate ")
    assert err.count("\n") == 1


def test_correlations_out_is_deterministic(tmp_path, capsys):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run(["correlations", "--dir", "diagonal", "--dir", "n-2n",
                    "--max-n", "20", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # the error estimate goes to stderr only
    assert outs[0].read_text().splitlines()[0] == "n1,n2,kind,numeric,residue,asymptotic"
    assert "error" not in outs[0].read_text()
    assert capsys.readouterr().err.count("quadrature error estimate") == 2


@pytest.mark.parametrize("argv", [["--dir", "axis", "--max-n", "40", "--grid", "401"],
                                  ["--dir", "diagonal", "--dir", "n-2n", "--max-n", "20"]],
                         ids=["axis-40", "diagonal-n-2n-20"])
def test_correlations_error_estimate_is_the_largest_column_gap(tmp_path, capsys, argv):
    # the residue column is the reference: the estimate is the table's own
    # largest |numeric - residue|, not a second quadrature
    out = tmp_path / "corr.csv"
    assert run(["correlations", *argv, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    gap = max(abs(float(r["numeric"]) - float(r["residue"])) for r in rows)
    assert capsys.readouterr().err == (f"correlations: wrote {len(rows)} rows, "
                                       f"quadrature error estimate {gap:.1e}\n")


@pytest.mark.parametrize("dirs", [["axis", "axis"], ["diagonal", "n-2n", "diagonal"]])
def test_correlations_repeated_direction_is_config_error(tmp_path, capsys, dirs):
    # a repeated direction used to write its table twice
    out = tmp_path / "x.csv"
    flags = [word for d in dirs for word in ("--dir", d)]
    with mock.patch.object(cli, "correlation_scan", side_effect=AssertionError("scanned")):
        assert run(["correlations", *flags, "--max-n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --dir {dirs[0]} is given more than once\n"
    assert not out.exists()


def test_parser_built_once_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main parses every command of a process with the one parser
    assert cli.build_parser() is cli.build_parser()
    # --dir appends: a second command must not see the first one's --dir
    axis, diagonal = tmp_path / "axis.csv", tmp_path / "diagonal.csv"
    assert run(["correlations", "--dir", "axis", "--max-n", "2", "--grid", "101",
                "--out", str(axis)]) == 0
    assert run(["correlations", "--dir", "diagonal", "--max-n", "2", "--grid", "101",
                "--out", str(diagonal)]) == 0
    rows = list(csv.DictReader(diagonal.read_text().splitlines()))
    assert {(r["n1"], r["n2"]) for r in rows} == {("1", "1"), ("2", "2")}
    capsys.readouterr()
    # a parse refused half way, after one --dir was taken, leaves nothing behind
    assert_config_error(["correlations", "--dir", "axis", "--dir", "sideways"], capsys)
    out = tmp_path / "rest.csv"
    assert run([*COMMANDS["rest.csv"], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "rest.csv").read_bytes()
    # an option left out takes its default again
    seeded, default = tmp_path / "seeded.json", tmp_path / "default.json"
    for argv, path in ((["--seed", "3"], seeded), ([], default)):
        assert run(["verify", "--suite", "mapping", "--sets", "3", *argv,
                    "--out", str(path)]) == 0
    assert json.loads(seeded.read_text())["seed"] == 3
    assert json.loads(default.read_text())["seed"] == 7
    # a command wrapped after the parser was built is the one that runs
    monkeypatch.setattr(cli, "cmd_hamiltonian", lambda args: 3)
    assert run(["hamiltonian"]) == 3


def test_correlations_zero_rows_is_config_error(tmp_path, capsys):
    assert_config_error(["correlations", "--dir", "axis", "--max-n", "0",
                         "--out", str(tmp_path / "x.csv")], capsys)


@pytest.mark.parametrize("flags", [["--dir", "diagonal", "--max-n", "5000"],
                                   ["--dir", "axis", "--max-n", "10000000000"],
                                   ["--dir", "axis", "--max-n", "1", "--grid", "100000001"],
                                   ["--dir", "axis", "--dir", "diagonal", "--max-n", "2400"]],
                         ids=["diagonal-5000", "axis-1e10", "grid-1e8", "axis-diagonal-2400"])
def test_correlations_oversized_rule_is_refused_before_allocating(tmp_path, capsys, flags):
    # axis at 2400 is within the limit and diagonal is not: no scan may start
    with mock.patch.object(correlators, "_fourier_rows", _must_not_run), \
            mock.patch.object(correlators, "_residue_values", _must_not_run):
        assert_config_error(["correlations", *flags,
                             "--out", str(tmp_path / "x.csv")], capsys)


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["correlations", "--dir", "axis", "--max-n", "1" + "0" * 20],
    ["correlations", "--dir", "axis", "--max-n", "1", "--grid", HUGE],
    ["correlations", "--dir", "axis", "--max-n", HUGE],
    ["verify", "--suite", "mapping", "--sets", HUGE],
], ids=["max-n-1e20", "grid-1e400", "max-n-1e400", "sets-1e400"])
def test_huge_integer_flags_are_refused_before_allocating(tmp_path, capsys, argv):
    # charged in integer arithmetic: no float or int64 conversion overflows
    with mock.patch.object(correlators, "_fourier_rows", _must_not_run), \
            mock.patch.object(correlators, "_residue_values", _must_not_run), \
            mock.patch.object(cli, "random_stack", _must_not_run):
        assert_config_error([*argv, "--out", str(tmp_path / "x.out")], capsys)


def test_verify_sets_limit(tmp_path, capsys):
    limit = MAX_FLOATS // 176
    with mock.patch.object(cli, "random_stack", _must_not_run):
        assert_config_error(["verify", "--suite", "mapping", "--sets", str(limit + 1),
                             "--out", str(tmp_path / "x.json")], capsys)
    with mock.patch.object(cli, "_mapping_checks", lambda *args: []):
        assert run(["verify", "--suite", "mapping", "--sets", str(limit),
                    "--out", str(tmp_path / "x.json")]) == 0


def test_verify_sets_charge_covers_the_report(tmp_path):
    # the report grows by at most the 176 floats charged per set
    peaks = []
    for sets in (1000, 3000):
        tracemalloc.start()
        try:
            assert run(["verify", "--suite", "mapping", "--sets", str(sets),
                        "--out", str(tmp_path / "x.json")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 0 < peaks[1] - peaks[0] <= 8 * 176 * 2000


def test_correlations_bad_grid_is_config_error(tmp_path):
    code = run(["correlations", "--dir", "axis", "--max-n", "1",
                "--grid", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_hamiltonian_table(tmp_path):
    out = tmp_path / "ham.csv"
    assert run(["hamiltonian", "--model", "example", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    table = {(r["term"], r["dh"], r["dv"]): (float(r["re"]), float(r["im"]))
             for r in rows}
    assert table[("pairing", "0", "1")] == (0.0, 2.0)
    assert table[("pairing", "1", "0")] == (0.0, -2.0)
    assert table[("hopping", "1", "1")] == (-1.0, 0.0)
    assert table[("hopping", "1", "-1")] == (-1.0, 0.0)


def test_hamiltonian_even_lattice_is_config_error(tmp_path):
    code = run(["hamiltonian", "--model", "example", "--lattice", "4x4",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_spectrum_gap_scan(tmp_path):
    out = tmp_path / "gap.csv"
    assert run(["spectrum", "--sizes", "5,7,9", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    gaps = [float(r["gap"]) for r in rows]
    assert [r["N"] for r in rows] == ["5", "7", "9"]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_spectrum_lattice_levels(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--lattice", "3x3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2 * 9
    energies = np.array([float(r["energy"]) for r in rows])
    assert np.allclose(sorted(energies), sorted(-energies))


def test_spectrum_floats_round_trip(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--lattice", "5x5", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    cells = [cell for row in rows for cell in row]
    assert len(cells) == 3 * 2 * 25
    assert all(repr(float(cell)) == cell for cell in cells)


def test_spectrum_bad_sizes_is_config_error(tmp_path, capsys):
    assert_config_error(["spectrum", "--sizes", "4,x", "--out", str(tmp_path / "x.csv")], capsys)


@pytest.mark.parametrize("sizes, repeated", [("5,5", 5), ("5,7,9,07", 7)])
def test_spectrum_repeated_size_is_config_error(tmp_path, capsys, sizes, repeated):
    # a repeated size used to write its row twice
    out = tmp_path / "x.csv"
    with mock.patch.object(cli, "gap_scan", _must_not_run):
        assert run(["spectrum", "--sizes", sizes, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --sizes {repeated} is given more than once\n"
    assert not out.exists()


def test_spectrum_oversized_torus_is_refused_before_allocating(tmp_path, capsys):
    # 2001^2 momenta of levels, about 1.7 GiB (--lattice) and 1.2 GiB (--sizes)
    with mock.patch.object(quadratic, "parent_hamiltonian", _must_not_run), \
            mock.patch.object(quadratic, "single_particle_spectrum", _must_not_run), \
            mock.patch.object(cli, "gap_scan", _must_not_run):
        for flags in (["--lattice", "2001x2001"], ["--sizes", "5,2001"]):
            assert_config_error(["spectrum", *flags, "--out", str(tmp_path / "x.csv")], capsys)


def test_spectrum_even_lattice_is_config_error(tmp_path):
    assert run(["spectrum", "--lattice", "4x4",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_entropy_scan(tmp_path):
    out = tmp_path / "ent.csv"
    assert run(["entropy", "--torus", "15", "--blocks", "2..4",
                "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["L"] for r in rows] == ["2", "3", "4"]
    values = [float(r["entropy_bits"]) for r in rows]
    assert values[0] < values[1] < values[2]


def test_entropy_oversized_scan_is_refused_before_allocating(tmp_path, capsys):
    # a 200 x 200 block gathers (80000)^2 floats; a 100001-torus has 1e10 sites
    with mock.patch.object(cli, "entropy_scan", _must_not_run):
        for torus, blocks in (("201", "200"), ("100001", "3..8")):
            assert_config_error(["entropy", "--torus", torus, "--blocks", blocks,
                                 "--out", str(tmp_path / "x.csv")], capsys)


def test_entropy_charge_covers_its_peak(tmp_path):
    argv = ["entropy", "--torus", "61", "--blocks", "20", "--out", str(tmp_path / "x.csv")]
    assert run(argv) == 0  # numpy's first calls allocate once per process
    charged = []
    with mock.patch.object(cli, "refuse_over_limit", lambda floats, _: charged.append(floats)):
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 8 * charged[0]


@pytest.mark.parametrize("torus", ["-1", "0", "1", "2", "4"])
def test_entropy_bad_torus_is_blamed_on_the_torus(tmp_path, capsys, torus):
    with mock.patch.object(cli, "entropy_scan", _must_not_run):
        assert run(["entropy", "--torus", torus, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--blocks" not in err and f"{torus}x{torus}" in err


@pytest.mark.parametrize("blocks, repeated", [("2,2", 2), ("1,3,2,3", 3)])
def test_entropy_repeated_block_length_is_config_error(tmp_path, capsys, blocks, repeated):
    # a repeated block length used to write its row twice
    out = tmp_path / "x.csv"
    with mock.patch.object(cli, "entropy_scan", _must_not_run):
        assert run(["entropy", "--torus", "7", "--blocks", blocks, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --blocks {repeated} is given more than once\n"
    assert not out.exists()


def test_entropy_bad_blocks_is_config_error(tmp_path, capsys):
    assert_config_error(["entropy", "--blocks", "a..b", "--out", str(tmp_path / "x.csv")], capsys)


def test_convert_round_trip(tmp_path):
    lattice = LatticeSpec(2, 1)
    rng = np.random.default_rng(11)
    parity = {s: 0 for s in lattice.sites()}
    tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
    src = tmp_path / "fpeps.json"
    dst = tmp_path / "peps.json"
    src.write_text(dump_tensor_set(lattice, parity, tensors))
    assert run(["convert", "--input", str(src), "--output", str(dst)]) == 0
    lat2, mapped = load_peps_set(dst)
    assert lat2 == lattice
    assert set(mapped) == set(lattice.sites())


def test_convert_missing_file_is_config_error(tmp_path):
    assert run(["convert", "--input", str(tmp_path / "nope.json"),
                "--output", str(tmp_path / "out.json")]) == 2


def test_convert_file_without_lattice_is_config_error(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text("{}")
    assert_config_error(["convert", "--input", str(src),
                         "--output", str(tmp_path / "out.json")], capsys)


def test_convert_file_with_duplicate_site_is_config_error(tmp_path, capsys):
    lattice = LatticeSpec(2, 1)
    rng = np.random.default_rng(11)
    tensors = {s: FPEPSTensor.random(rng) for s in lattice.sites()}
    doc = json.loads(dump_tensor_set(lattice, {s: 0 for s in lattice.sites()}, tensors))
    doc["tensors"][1]["site"] = [1, 1]
    src = tmp_path / "dup.json"
    src.write_text(json.dumps(doc))
    assert_config_error(["convert", "--input", str(src),
                         "--output", str(tmp_path / "out.json")], capsys)


def _zero_set(tmp_path, shape):
    """The path of a tensor-set file of zero tensors on an ``shape`` lattice."""
    lattice = LatticeSpec(*shape)
    zero = FPEPSTensor(np.zeros((2,) * 5, dtype=complex), 0)
    src = tmp_path / f"{shape[0]}x{shape[1]}.json"
    src.write_text(dump_tensor_set(lattice, None, {s: zero for s in lattice.sites()}))
    return src


def test_convert_oversized_set_is_config_error(tmp_path, capsys, monkeypatch):
    # the charge is exactly CONVERT_SITE_FLOATS per site: a limit at 6x6's
    # charge admits 6x6 and refuses 37x1, before any mapping
    monkeypatch.setattr(errors, "MAX_FLOATS", cli.CONVERT_SITE_FLOATS * 36)
    assert run(["convert", "--input", str(_zero_set(tmp_path, (6, 6))),
                "--output", str(tmp_path / "6x6-out.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "map_tensor_set", _must_not_run)
    src = _zero_set(tmp_path, (37, 1))
    assert run(["convert", "--input", str(src), "--output", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "37x1" in err
    assert not (tmp_path / "out.json").exists()


def _convert_peak(tmp_path, side) -> int:
    """The traced peak of a second ``convert`` of a drawn side x side set, in bytes."""
    # every allowed entry of a drawn tensor is nonzero, both parities, and
    # ten or more columns put most sites in the bulk, which holds both r' slots
    lattice = LatticeSpec(side, side)
    rng = np.random.default_rng(12)
    parity = {s: int(rng.integers(0, 2)) for s in lattice.sites()}
    src = tmp_path / "set.json"
    src.write_text(dump_tensor_set(lattice, parity, {s: FPEPSTensor.random(rng, parity[s])
                                                     for s in lattice.sites()}))
    argv = ["convert", "--input", str(src), "--output", str(tmp_path / "out.json")]
    assert run(argv) == 0  # numpy's first calls allocate once per process
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convert_charge_covers_its_peak(tmp_path):
    assert _convert_peak(tmp_path, 10) <= 8 * cli.CONVERT_SITE_FLOATS * 100


def test_convert_charge_covers_its_peak_on_30x30(tmp_path):
    assert _convert_peak(tmp_path, 30) <= 8 * cli.CONVERT_SITE_FLOATS * 900


# --- fuzzing the argument grammars: parse, or exit 2 with one error line ----

GRAMMAR_TEXT = st.text(max_size=12) | st.text(alphabet="0123456789xX.,-+ _\n", max_size=12)


def assert_parsed_or_refused(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1
    else:
        assert code == 0


@settings(max_examples=200, deadline=None)
@given(text=GRAMMAR_TEXT)
def test_lattice_grammar_fuzz(text):
    try:
        lattice = parse_lattice(text)
    except ContractViolationError as exc:
        assert "\n" not in str(exc)
    else:
        assert lattice.n_h >= 1 and lattice.n_v >= 1
    assert_parsed_or_refused(["hamiltonian", "--lattice=" + text])


@settings(max_examples=200, deadline=None)
@given(text=GRAMMAR_TEXT)
@example("--")
@example("")
def test_sizes_grammar_fuzz(text):
    # only the grammar: a parsed list goes to a stub instead of the gap scan
    def parsed(sizes):
        assert all(type(n) is int for n in sizes)
        return [(n, 0.0) for n in sizes]

    with mock.patch.object(cli, "gap_scan", parsed):
        assert_parsed_or_refused(["spectrum", "--sizes=" + text])


@settings(max_examples=200, deadline=None)
@given(text=GRAMMAR_TEXT)
@example("4\nx4")
def test_spectrum_lattice_grammar_fuzz(text):
    # only the grammar and the refusals: an accepted torus gets no levels
    with mock.patch.object(quadratic, "parent_hamiltonian", lambda *args, **kw: None), \
            mock.patch.object(quadratic, "single_particle_spectrum", lambda *args: ([], 0.0)):
        assert_parsed_or_refused(["spectrum", "--lattice=" + text])


@settings(max_examples=200, deadline=None)
@given(text=GRAMMAR_TEXT)
@example("--")
@example("")
def test_blocks_grammar_fuzz(text):
    # a 5-torus keeps every accepted block length (1..4) cheap to evaluate
    assert_parsed_or_refused(["entropy", "--torus", "5", "--blocks=" + text])


def test_huge_block_range_is_refused_before_listing(tmp_path, capsys):
    assert_config_error(["entropy", "--torus", "5", "--blocks", "1..10000000000",
                         "--out", str(tmp_path / "x.csv")], capsys)


def _value_flags(of_type=None):
    """(argv prefix, flag) for every option of every subcommand that takes a value.

    With ``of_type``, only the options that convert their value with it.
    """
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        actions = [a for a in parser._actions if a.option_strings and a.nargs != 0]
        for action in actions:
            if of_type is not None and action.type is not of_type:
                continue
            # the other required options get a valid value: only the tested flag is empty
            prefix = [command]
            for other in actions:
                if other.required and other is not action:
                    prefix += [other.option_strings[0], (other.choices or ["x"])[0]]
            flag = action.option_strings[0]
            yield pytest.param(prefix, flag, id=command + flag)


@pytest.mark.parametrize("prefix, flag", _value_flags())
def test_double_dash_value_is_config_error(prefix, flag, capsys):
    # argparse passes `--opt=--` on as an empty list, skipping type and choices
    assert_config_error([*prefix, flag + "=--"], capsys)


@pytest.mark.parametrize("prefix, flag", _value_flags(int))
def test_negative_integer_is_accepted_or_refused(prefix, flag):
    # --seed -1 used to end in numpy's ValueError
    assert_parsed_or_refused([*prefix, flag + "=-1"])


@pytest.mark.parametrize("argv", [["spectrum", "--sizes="], ["hamiltonian", "--lattice="]])
def test_empty_value_is_config_error(argv, capsys):
    assert_config_error(argv, capsys)


_SCIPY_FREE = """
import sys
import numpy as np
import fpeps.cli

out, convert_input = sys.argv[1:]
for argv in (["verify", "--suite", "mapping", "--sets", "6"],
             ["verify", "--suite", "gaussian", "--lattice", "3x3"],
             ["verify", "--suite", "all", "--sets", "3", "--lattice", "3x3"],
             ["hamiltonian", "--model", "example"],
             ["spectrum", "--lattice", "5x5"],
             ["spectrum", "--sizes", "5,7"],
             ["entropy", "--torus", "11", "--blocks", "2..3"],
             ["correlations", "--dir", "axis", "--max-n", "40", "--grid", "401"],
             ["correlations", "--dir", "diagonal", "--dir", "n-2n", "--max-n", "20"]):
    assert fpeps.cli.main(argv + ["--out", out]) == 0, argv
assert fpeps.cli.main(["convert", "--input", convert_input, "--output", out]) == 0

import fock_reference
from fpeps import build, contraction, critical, fock, gaussian, mapping, quadratic
from fpeps.errors import ZeroNormError
from fpeps.lattice import LatticeSpec

# apply_channel's small-determinant branch: the singular 4x4 torus and a
# well-conditioned matrix with determinant 2^-64
lattice = LatticeSpec(4, 4)
try:
    gaussian.apply_channel(critical.example_channel().expand_to_lattice(lattice.n_sites),
                           gaussian.lattice_bond_cm(lattice))
except ZeroNormError:
    pass
else:
    raise AssertionError("the 4x4 torus is singular")
J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(32))
ch = gaussian.GaussianChannel(np.zeros((64, 64)), np.eye(64), np.zeros((64, 64)))
assert np.array_equal(gaussian.apply_channel(ch, gaussian.MajoranaCM(0.5 * J)).matrix, 2 * J)

lattice = LatticeSpec(3, 3)
tensors = critical.example_tensor_set(lattice)
oracle = build.build_fpeps(lattice, tensors)
state = contraction.contract_peps(lattice, mapping.map_tensor_set(lattice, tensors))
assert abs(oracle.normalized_overlap(state) - 1.0) < 1e-12
fock.covariance_matrix(state)
h = quadratic.parent_hamiltonian(critical.example_channel()).materialize(lattice)
assert h.shape == (18, 18)  # 512 states, on the parity-sector solver
fock.exact_ground_state(h, fock.physical_registry(lattice))
h = np.random.default_rng(5).standard_normal((20, 20))
registry = fock.physical_registry(LatticeSpec(5, 2))  # 10 modes, 1024 states
fock.exact_ground_state(h - h.T, registry)
fock_reference.many_body_gap(h - h.T, registry)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_load_no_scipy(tmp_path):
    # the package imports no scipy: a fresh interpreter running every command,
    # the README correlation tables among them, both sides of apply_channel's
    # small-determinant branch, the 3x3 example's build, mapping, contraction,
    # covariance and parent ground state, a 10-mode ground state and gap, and
    # `python -m fpeps`, stays without it; the gap solve is the tests' own
    # (fock_reference), so tests/ joins the path
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                                        str(tests)])}
    lattice = LatticeSpec(2, 1)
    rng = np.random.default_rng(3)
    src = tmp_path / "fpeps.json"
    src.write_text(dump_tensor_set(lattice, {s: 0 for s in lattice.sites()},
                                   {s: FPEPSTensor.random(rng) for s in lattice.sites()}))
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE, str(tmp_path / "out"), str(src)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    out = tmp_path / "h.csv"
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "fpeps", "hamiltonian",
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.read_text().startswith("term,dh,dv,re,im\n")
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "fpeps.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
