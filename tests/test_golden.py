"""Every README output file, pinned byte for byte.

``tests/golden/`` holds the ``--out`` file of each README command line and
the ``convert`` output of a seeded 3x3 tensor set with both parities (three
columns, so the bulk transport branch runs).  Each file is regenerated
through ``fpeps.cli.main`` and compared as bytes, with no tolerance.  The
files were written with numpy 2.4.6 on scipy-openblas 0.3.31; another numpy
or BLAS may round the dense and FFT routes differently in the last digit.
A change that moves bytes on purpose rewrites every file with
``python tests/golden/regenerate.py``, and the diff lists the moved values.
"""
from pathlib import Path

import numpy as np
import pytest

from fpeps.cli import main
from fpeps.io import dump_tensor_set
from fpeps.lattice import LatticeSpec
from fpeps.tensors import FPEPSTensor

GOLDEN = Path(__file__).parent / "golden"
CONVERT_INPUT = "fpeps-3x3.json"

# file name: the README command line that writes it, less its --out
COMMANDS = {
    "verify-mapping.json": ["verify", "--suite", "mapping", "--seed", "7"],
    "verify-gaussian.json": ["verify", "--suite", "gaussian", "--lattice", "3x3"],
    "report.json": ["verify", "--suite", "all", "--lattice", "5x5"],
    "axis.csv": ["correlations", "--dir", "axis", "--max-n", "40", "--grid", "401"],
    "rest.csv": ["correlations", "--dir", "diagonal", "--dir", "n-2n", "--max-n", "20"],
    "hamiltonian.csv": ["hamiltonian", "--model", "example"],
    "levels.csv": ["spectrum", "--lattice", "5x5"],
    "gaps.csv": ["spectrum", "--sizes", "5,7,9,11,13"],
    "entropy.csv": ["entropy", "--torus", "41", "--blocks", "3..8"],
    "peps-3x3.json": ["convert", "--input", str(GOLDEN / CONVERT_INPUT)],
}


def seeded_tensor_set() -> str:
    """The ``convert`` input: a 3x3 set from seed 26, four odd sites and five even."""
    lattice = LatticeSpec(3, 3)
    rng = np.random.default_rng(26)
    bits = rng.permutation(np.arange(lattice.n_sites) % 2)
    parity = {s: int(b) for s, b in zip(lattice.sites(), bits)}
    tensors = {s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}
    return dump_tensor_set(lattice, parity, tensors)


def write(name: str, directory: Path):
    """Write golden file ``name`` into ``directory``; ``convert`` reads the committed input."""
    path = directory / name
    if name == CONVERT_INPUT:
        path.write_bytes(seeded_tensor_set().encode())
        return
    argv = COMMANDS[name]
    assert main(argv + ["--output" if argv[0] == "convert" else "--out", str(path)]) == 0


@pytest.mark.parametrize("name", [CONVERT_INPUT, *COMMANDS])
def test_readme_output_is_byte_identical(tmp_path, name):
    write(name, tmp_path)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
