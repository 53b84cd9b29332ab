"""File formats: fermionic tensor sets and mapped spin tensor sets.

JSON floats are serialized with Python's shortest round-trip repr, so a
fixed input produces byte-identical output files.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ContractViolationError
from .lattice import LatticeSpec, Site
from .tensors import FPEPSTensor, PEPSTensor


@contextmanager
def _reading(kind: str, path):
    """Turn any malformed-content error into a one-line ContractViolationError."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError, OverflowError) as exc:
        raise ContractViolationError(
            f"malformed {kind} file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _lattice_of(data, listed: int, kind: str) -> LatticeSpec:
    """The file's lattice, refused before any per-site loop if sites are missing."""
    lat = LatticeSpec(int(data["lattice"]["nh"]), int(data["lattice"]["nv"]))
    if lat.n_sites > listed:
        raise ContractViolationError(
            f"{kind} file missing sites: {listed} tensors for {lat.n_sites} sites"
        )
    return lat


def _require_all_sites(kind: str, lattice: LatticeSpec, tensors: dict) -> None:
    missing = [s for s in lattice.sites() if s not in tensors]
    if missing:
        raise ContractViolationError(f"{kind} file missing sites {missing}")


def _entry_index(item: dict, keys) -> tuple[int, ...]:
    """The entry's index tuple; each component must be the JSON integer 0 or 1."""
    index = tuple(item[key] for key in keys)
    for key, value in zip(keys, index):
        if type(value) is not int or value not in (0, 1):
            raise ValueError(f"entry index {key}={value!r} is not 0 or 1")
    return index


def load_tensor_set(path) -> tuple[LatticeSpec, dict[Site, int], dict[Site, FPEPSTensor]]:
    with _reading("tensor-set", path):
        data = json.loads(Path(path).read_text())
        lat = _lattice_of(data, len(data["tensors"]), "tensor-set")
        parity_rows = data.get("parity")
        parity: dict[Site, int] = {}
        for v in range(1, lat.n_v + 1):
            for h in range(1, lat.n_h + 1):
                parity[(h, v)] = (
                    int(parity_rows[v - 1][h - 1]) if parity_rows is not None else 0
                )
        tensors: dict[Site, FPEPSTensor] = {}
        for entry in data["tensors"]:
            site = (int(entry["site"][0]), int(entry["site"][1]))
            arr = np.zeros((2,) * 5, dtype=complex)
            for item in entry["entries"]:
                arr[_entry_index(item, "klrud")] = complex(item["re"], item["im"])
            tensors[site] = FPEPSTensor(arr, parity[site])
    _require_all_sites("tensor-set", lat, tensors)
    return lat, parity, tensors


def dump_tensor_set(
    lattice: LatticeSpec, parity: dict[Site, int], tensors: dict[Site, FPEPSTensor]
) -> str:
    payload = {
        "lattice": {"nh": lattice.n_h, "nv": lattice.n_v},
        "parity": [
            [parity[(h, v)] for h in range(1, lattice.n_h + 1)]
            for v in range(1, lattice.n_v + 1)
        ],
        "tensors": [
            {
                "site": list(site),
                "entries": [
                    {
                        "k": k, "l": l, "r": r, "u": u, "d": d,
                        "re": val.real, "im": val.imag,
                    }
                    for (k, l, r, u, d), val in tensors[site].nonzero_items()
                ],
            }
            for site in lattice.sites()
        ],
    }
    return json.dumps(payload, indent=1)


def dump_peps_set(lattice: LatticeSpec, tensors: dict[Site, PEPSTensor]) -> str:
    payload = {
        "lattice": {"nh": lattice.n_h, "nv": lattice.n_v},
        "tensors": [
            {
                "site": list(site),
                "entries": [
                    {
                        "k": int(idx[0]), "l": int(idx[1]), "lp": int(idx[2]),
                        "r": int(idx[3]), "rp": int(idx[4]),
                        "u": int(idx[5]), "d": int(idx[6]),
                        "re": tensors[site].entries[idx].real,
                        "im": tensors[site].entries[idx].imag,
                    }
                    for idx in np.ndindex(*(2,) * 7)
                    if tensors[site].entries[idx] != 0
                ],
            }
            for site in lattice.sites()
        ],
    }
    return json.dumps(payload, indent=1)


def load_peps_set(path) -> tuple[LatticeSpec, dict[Site, PEPSTensor]]:
    with _reading("PEPS-set", path):
        data = json.loads(Path(path).read_text())
        lat = _lattice_of(data, len(data["tensors"]), "PEPS-set")
        tensors: dict[Site, PEPSTensor] = {}
        for entry in data["tensors"]:
            site = (int(entry["site"][0]), int(entry["site"][1]))
            arr = np.zeros((2,) * 7, dtype=complex)
            for item in entry["entries"]:
                arr[_entry_index(item, ("k", "l", "lp", "r", "rp", "u", "d"))] = complex(
                    item["re"], item["im"]
                )
            tensors[site] = PEPSTensor(arr)
    _require_all_sites("PEPS-set", lat, tensors)
    return lat, tensors

