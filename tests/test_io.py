"""File formats round-trip bit-exactly."""
import json

import numpy as np
import pytest

from fpeps.critical import example_channel
from fpeps.errors import ContractViolationError
from fpeps.io import (
    dump_channel,
    dump_peps_set,
    dump_tensor_set,
    load_channel,
    load_peps_set,
    load_tensor_set,
)
from fpeps.lattice import LatticeSpec
from fpeps.mapping import map_tensor_set
from fpeps.tensors import FPEPSTensor


def random_set(lattice, seed=0, parity=None):
    rng = np.random.default_rng(seed)
    parity = parity or {s: 0 for s in lattice.sites()}
    return parity, {
        s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()
    }


def test_tensor_set_round_trip(tmp_path):
    lattice = LatticeSpec(2, 2)
    parity, tensors = random_set(lattice, seed=5)
    text = dump_tensor_set(lattice, parity, tensors)
    path = tmp_path / "set.json"
    path.write_text(text)
    lat2, parity2, tensors2 = load_tensor_set(path)
    assert lat2 == lattice
    assert parity2 == parity
    for s in lattice.sites():
        assert np.array_equal(tensors2[s].entries, tensors[s].entries)
    # serialization is bit-stable
    assert dump_tensor_set(lat2, parity2, tensors2) == text


def test_tensor_set_missing_site(tmp_path):
    payload = {
        "lattice": {"nh": 2, "nv": 1},
        "parity": [[0, 0]],
        "tensors": [{"site": [1, 1], "entries": []}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ContractViolationError, match="missing"):
        load_tensor_set(path)


def test_peps_set_round_trip(tmp_path):
    lattice = LatticeSpec(2, 1)
    parity, tensors = random_set(lattice, seed=6)
    mapped = map_tensor_set(lattice, tensors)
    text = dump_peps_set(lattice, mapped)
    path = tmp_path / "peps.json"
    path.write_text(text)
    lat2, mapped2 = load_peps_set(path)
    assert lat2 == lattice
    for s in lattice.sites():
        assert np.array_equal(mapped2[s].entries, mapped[s].entries)


def test_channel_round_trip(tmp_path):
    ch = example_channel()
    path = tmp_path / "channel.json"
    path.write_text(dump_channel(ch))
    ch2 = load_channel(path)
    assert np.array_equal(ch2.B, ch.B)
    assert np.array_equal(ch2.D, ch.D)
