"""File formats: fermionic tensor sets and mapped spin tensor sets.

Both formats share one JSON layout and one codec: the lattice, the parity
rows (tensor sets only), then per site the nonzero entries of its array in
C order of the indices, named by ``_FERMION_KEYS`` or ``_SPIN_KEYS``.

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
from .mapping import tensor_parity
from .tensors import FPEPSTensor, PEPSTensor

# entry index names of the two file formats, in array axis order
_FERMION_KEYS = ("k", "l", "r", "u", "d")
_SPIN_KEYS = ("k", "l", "lp", "r", "rp", "u", "d")


@contextmanager
def _reading(kind: str, path):
    """Turn any malformed-content error into a one-line ContractViolationError."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError, OverflowError) as exc:
        raise ContractViolationError(
            f"malformed {kind} file {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _entry_index(item: dict, keys) -> tuple[int, ...]:
    """The entry's index tuple; each component must be the JSON integer 0 or 1."""
    index = tuple(item[key] for key in keys)
    for key, value in zip(keys, index):
        if type(value) is not int or value not in (0, 1):
            raise ValueError(f"entry index {key}={value!r} is not 0 or 1")
    return index


def _load(path, kind: str, keys) -> tuple[LatticeSpec, dict, dict[Site, np.ndarray]]:
    """The file's lattice, its JSON document and the entry array of every site.

    A lattice with more sites than the file lists tensors is refused before
    any per-site loop; a site listed twice or outside the lattice is refused
    by name.  A file that passes all three lists every site exactly once.
    A site or entry index that is not a JSON integer, and an entry listed
    twice within one site, are refused rather than truncated or overwritten.
    """
    with _reading(kind, path):
        data = json.loads(Path(path).read_text())
        lattice = LatticeSpec(int(data["lattice"]["nh"]), int(data["lattice"]["nv"]))
        listed = data["tensors"]
        if lattice.n_sites > len(listed):
            raise ContractViolationError(
                f"{kind} file missing sites: {len(listed)} tensors for {lattice.n_sites} sites"
            )
        arrays: dict[Site, np.ndarray] = {}
        for entry in listed:
            site = tuple(entry["site"])
            if len(site) != 2 or any(type(c) is not int for c in site):
                raise ValueError(f"site {entry['site']!r} is not two integers")
            if site in arrays:
                raise ContractViolationError(f"{kind} file lists site {site} twice")
            if lattice.wrap(site) != site:
                raise ContractViolationError(
                    f"{kind} file site {site} lies outside the "
                    f"{lattice.n_h}x{lattice.n_v} lattice"
                )
            arr = arrays[site] = np.zeros((2,) * len(keys), dtype=complex)
            seen = set()
            for item in entry["entries"]:
                index = _entry_index(item, keys)
                if index in seen:
                    raise ValueError(f"site {site} lists entry {index} twice")
                seen.add(index)
                arr[index] = complex(item["re"], item["im"])
    return lattice, data, arrays


def _dump(lattice: LatticeSpec, keys, arrays: dict[Site, np.ndarray], **header) -> str:
    """The JSON document of one entry array per site; ``header`` follows the lattice."""
    tensors = []
    for site in lattice.sites():
        arr = arrays[site]
        nonzero = arr != 0
        tensors.append({"site": list(site), "entries": [
            {**dict(zip(keys, idx)), "re": val.real, "im": val.imag}
            for idx, val in zip(np.argwhere(nonzero).tolist(), arr[nonzero].tolist())
        ]})
    payload = {"lattice": {"nh": lattice.n_h, "nv": lattice.n_v}, **header, "tensors": tensors}
    return json.dumps(payload, indent=1)


def load_tensor_set(path) -> tuple[LatticeSpec, dict[Site, int], dict[Site, FPEPSTensor]]:
    lattice, data, arrays = _load(path, "tensor-set", _FERMION_KEYS)
    with _reading("tensor-set", path):
        rows = data.get("parity")
        parity = {(h, v): rows[v - 1][h - 1] if rows is not None else 0
                  for h, v in lattice.sites()}
        for site, value in parity.items():
            if type(value) is not int:
                raise ValueError(f"parity {value!r} of site {site} is not an integer")
        tensors = {s: FPEPSTensor(arrays[s], parity[s]) for s in lattice.sites()}
    return lattice, parity, tensors


def dump_tensor_set(
    lattice: LatticeSpec, parity: dict[Site, int], tensors: dict[Site, FPEPSTensor]
) -> str:
    """The tensor-set file; ``parity`` must agree with the tensors' own."""
    parity = tensor_parity(lattice, tensors, parity)
    rows = [[parity[(h, v)] for h in range(1, lattice.n_h + 1)]
            for v in range(1, lattice.n_v + 1)]
    arrays = {s: tensors[s].entries for s in lattice.sites()}
    return _dump(lattice, _FERMION_KEYS, arrays, parity=rows)


def load_peps_set(path) -> tuple[LatticeSpec, dict[Site, PEPSTensor]]:
    lattice, _, arrays = _load(path, "PEPS-set", _SPIN_KEYS)
    return lattice, {s: PEPSTensor(arrays[s]) for s in lattice.sites()}


def dump_peps_set(lattice: LatticeSpec, tensors: dict[Site, PEPSTensor]) -> str:
    return _dump(lattice, _SPIN_KEYS, {s: tensors[s].entries for s in lattice.sites()})
