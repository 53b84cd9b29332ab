"""The package's functools caches: read-only values, and no effect on results.

Every cache holds what depends only on its key (a lattice, a parity
pattern, a read-only channel, a size), so a call gives the same bytes with
every cache empty and with every cache filled.
"""
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import package_caches
from fpeps import build, cli, correlators, fock, gaussian, io, lattice, mapping, quadratic
from fpeps.build import build_fpeps
from fpeps.contraction import contract_peps
from fpeps.critical import example_channel
from fpeps.fock import covariance_matrix
from fpeps.lattice import LatticeSpec
from fpeps.mapping import map_tensor_set
from fpeps.tensors import FPEPSTensor

CHECKERBOARD_3X2 = (0, 1, 0, 1, 0, 1)


# one call of every cache; a cache without an entry fails the listing test
CACHE_CALLS = {
    "fpeps.build._plan": lambda: build._plan(LatticeSpec(3, 2)),
    "fpeps.build._schedule": lambda: build._schedule(LatticeSpec(3, 2)),
    "fpeps.build.site_signs": build.site_signs,
    "fpeps.cli.build_parser": cli.build_parser,
    "fpeps.correlators._gauss_legendre": lambda: correlators._gauss_legendre(8),
    "fpeps.critical.example_channel": example_channel,
    "fpeps.fock.parity_signs": lambda: fock.parity_signs(5),
    "fpeps.fock.physical_registry": lambda: fock.physical_registry(LatticeSpec(3, 2)),
    "fpeps.gaussian._harmonic_table": lambda: gaussian._harmonic_table(example_channel()),
    "fpeps.io._entry_templates": lambda: io._entry_templates(io._SPIN_KEYS),
    "fpeps.lattice.site_order": lambda: lattice.site_order(LatticeSpec(3, 2)),
    "fpeps.mapping._map_plan": lambda: mapping._map_plan(LatticeSpec(3, 2), CHECKERBOARD_3X2),
    "fpeps.mapping._sign_tables": lambda: mapping._sign_tables(LatticeSpec(3, 2), CHECKERBOARD_3X2),
    "fpeps.quadratic._parent_hamiltonian":
        lambda: quadratic._parent_hamiltonian(example_channel(), 2),
}


def _arrays(value):
    """The arrays in a cached value, inside nested tuples, lists, mappings,
    channels and Hamiltonians."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, gaussian.GaussianChannel):
        yield from _arrays([value.A, value.B, value.D])
    elif isinstance(value, quadratic.QuadraticHamiltonian):
        yield from _arrays(value.blocks)
    elif isinstance(value, Mapping):
        yield from _arrays(list(value.values()))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_every_cache_is_listed():
    assert sorted(package_caches()) == sorted(CACHE_CALLS)


@pytest.mark.parametrize("name", sorted(CACHE_CALLS))
def test_cached_arrays_are_read_only(cold_caches, name):
    value = CACHE_CALLS[name]()
    assert CACHE_CALLS[name]() is value
    for array in _arrays(value):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array.copy()


def test_cached_parent_hamiltonian_is_read_only(cold_caches):
    ham = quadratic.parent_hamiltonian(example_channel())
    assert quadratic.parent_hamiltonian(example_channel()) is ham
    assert ham.blocks and all(not block.flags.writeable for block in ham.blocks.values())
    with pytest.raises(TypeError):
        ham.blocks[(9, 9)] = np.zeros((2, 2))
    with pytest.raises(TypeError):
        del ham.blocks[(0, 0)]


@pytest.mark.parametrize("argv", [["spectrum", "--lattice", "5x5"], ["verify", "--suite", "gaussian"]],
                         ids=lambda argv: argv[0])
def test_cold_and_warm_commands_write_the_same_bytes(cold_caches, capsys, argv):
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1] == outputs[0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 2), (3, 3)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_cold_and_warm_calls_give_the_same_bytes(cold_caches, shape):
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(700 + 10 * shape[0] + shape[1])
    parity = {(h, v): (h + v) % 2 for h, v in lattice.sites()}
    tensors = {s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}

    def run():
        state = build_fpeps(lattice, tensors)
        mapped = map_tensor_set(lattice, tensors, parity)
        spin = contract_peps(lattice, mapped)
        return ([state.amplitudes.tobytes(), spin.amplitudes.tobytes(),
                 covariance_matrix(state).tobytes()]
                + [mapped[s].tobytes() for s in lattice.sites()])

    cold = run()
    assert run() == cold
