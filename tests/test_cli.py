"""Exit codes, output formats, and determinism of the command driver."""
import argparse
import csv
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpeps import cli, correlators, quadratic
from fpeps.build import build_fpeps
from fpeps.cli import main
from fpeps.contraction import contract_peps
from fpeps.errors import ContractViolationError
from fpeps.io import dump_tensor_set, load_peps_set
from fpeps.lattice import LatticeSpec, parse_lattice
from fpeps.mapping import map_tensor_set
from fpeps.tensors import FPEPSTensor


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


@pytest.mark.parametrize("dirs", [["axis", "axis"], ["diagonal", "n-2n", "diagonal"]])
def test_correlations_repeated_direction_is_config_error(tmp_path, capsys, dirs):
    # a repeated direction used to write its table twice
    out = tmp_path / "x.csv"
    flags = [word for d in dirs for word in ("--dir", d)]
    with mock.patch.object(cli, "correlation_scan", side_effect=AssertionError("scanned")):
        assert run(["correlations", *flags, "--max-n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --dir {dirs[0]} is given more than once\n"
    assert not out.exists()


def test_correlations_zero_rows_is_config_error(tmp_path, capsys):
    assert_config_error(["correlations", "--dir", "axis", "--max-n", "0",
                         "--out", str(tmp_path / "x.csv")], capsys)


@pytest.mark.parametrize("flags", [["--dir", "diagonal", "--max-n", "5000"],
                                   ["--dir", "axis", "--max-n", "10000000000"],
                                   ["--dir", "axis", "--max-n", "1", "--grid", "100000001"]],
                         ids=["diagonal-5000", "axis-1e10", "grid-1e8"])
def test_correlations_oversized_rule_is_refused_before_allocating(tmp_path, capsys, flags):
    with mock.patch.object(correlators, "_fourier_rows", _must_not_run), \
            mock.patch.object(correlators, "correlator_residue", _must_not_run):
        assert_config_error(["correlations", *flags,
                             "--out", str(tmp_path / "x.csv")], capsys)


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


@pytest.mark.parametrize("torus", ["-1", "0", "1", "2", "4"])
def test_entropy_bad_torus_is_blamed_on_the_torus(tmp_path, capsys, torus):
    with mock.patch.object(cli, "entropy_scan", _must_not_run):
        assert run(["entropy", "--torus", torus, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--blocks" not in err and f"{torus}x{torus}" in err


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


def test_convert_oversized_set_is_config_error(tmp_path, capsys):
    # the sign derivation of 43x43 sites would pass the 1 GiB limit
    lattice = LatticeSpec(43, 43)
    zero = FPEPSTensor(np.zeros((2,) * 5, dtype=complex), 0)
    src = tmp_path / "big.json"
    src.write_text(dump_tensor_set(lattice, None, {s: zero for s in lattice.sites()}))
    assert run(["convert", "--input", str(src), "--output", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "43x43" in err
    assert not (tmp_path / "out.json").exists()


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
