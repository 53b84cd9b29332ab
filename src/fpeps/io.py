"""File formats: fermionic tensor sets and mapped spin tensor sets.

Both formats share one JSON layout and one codec: the lattice, the parity
rows (tensor sets only), then per site the nonzero entries of its array in
C order of the indices, named by ``_FERMION_KEYS`` or ``_SPIN_KEYS``.  A set
is written from its stack in site M order, as :func:`fpeps.tensors.stack_sets`
and :func:`fpeps.tensors.spin_stack` read it, so a set missing a site is
refused as everywhere else.  A loaded spin set is a dict of ``(2,)*7``
arrays.

Both files, and ``fpeps verify``'s report, are written by one JSON writer,
:func:`json_text`, which gives the bytes of ``json.dumps(value, indent=1)``
without its pure-Python encoder: floats in their shortest round-trip repr,
so a fixed input produces byte-identical output files.  A tensor file is
written site by site, each nonzero entry from one text template per format.
"""
from __future__ import annotations

import functools
import itertools
import json
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ContractViolationError
from .lattice import LatticeSpec, Site, site_order
from .tensors import FPEPSTensor, spin_stack, stack_sets

# entry index names of the two file formats, in array axis order
_FERMION_KEYS = ("k", "l", "r", "u", "d")
_SPIN_KEYS = ("k", "l", "lp", "r", "rp", "u", "d")
# a tensor file's sites start two spaces in, and their entries four
_SITE_PAD, _ENTRY_PAD = "\n  ", "\n    "


class _Text(str):
    """JSON text that :func:`json_text` copies as it stands."""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    """A float as ``json`` writes it: its shortest repr, or NaN, Infinity, -Infinity."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=1)``, without its pure-Python encoder.

    ``value`` nests dicts with str keys, lists and tuples of str, int, bool,
    float and None; a :class:`_Text` is copied as it stands.  ``pad`` is a
    newline and the indentation of the line ``value`` starts on.  Each
    container is joined from the text of its items, so a document is a few
    large strings rather than one per token.
    """
    if isinstance(value, str):
        return value if type(value) is _Text else encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = pad + " "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [json_text(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets, items = "{}", [f"{encode_basestring_ascii(key)}: {json_text(item, inner)}"
                                 for key, item in value.items()]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


# an entry is one file format's entry texts, one per C-order flat index of a
# site's array, each with a %s hole for its real and one for its imaginary part
@functools.lru_cache(maxsize=2)
def _entry_templates(keys: tuple[str, ...]) -> tuple[str, ...]:
    hole = _Text("%s")
    return tuple(json_text({**dict(zip(keys, index)), "re": hole, "im": hole}, _ENTRY_PAD)
                 for index in itertools.product((0, 1), repeat=len(keys)))


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
    A lattice size, site or entry index that is not a JSON integer, and an
    entry listed twice within one site, are refused rather than truncated
    or overwritten.
    """
    with _reading(kind, path):
        data = json.loads(Path(path).read_text())
        size = data["lattice"]["nh"], data["lattice"]["nv"]
        # int() first: an infinite size overflows, as any out-of-range number does
        if any(int(n) != n or type(n) is not int for n in size):
            raise ValueError(f"lattice size {size} is not two integers")
        lattice = LatticeSpec(*size)
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


def _dump(lattice: LatticeSpec, keys, stack, **header):
    """The file's JSON text in chunks: its head, one chunk per site, its tail.

    ``stack`` holds the sites' arrays in M order.

    Joined, the chunks are ``json.dumps(document, indent=1)`` of the document
    with one dict per nonzero entry (its index by ``keys``, then "re" and
    "im"); ``header`` follows the lattice.  That document is never built.
    """
    mark = _Text("\0")  # the writer escapes every other NUL
    head, tail = json_text({"lattice": {"nh": lattice.n_h, "nv": lattice.n_v}, **header,
                            "tensors": [mark]}).split(mark)
    templates = _entry_templates(keys)
    yield head
    for i, (site, arr) in enumerate(zip(site_order(lattice), stack)):
        arr = arr.ravel()
        flat = np.flatnonzero(arr)
        values = arr[flat]
        parts = values.real.tolist(), values.imag.tolist()
        if not np.isfinite(values).all():
            parts = [[_float(x) for x in part] for part in parts]
        entries = [_Text(templates[f] % pair) for f, pair in zip(flat.tolist(), zip(*parts))]
        chunk = json_text({"site": list(site), "entries": entries}, _SITE_PAD)
        yield "," + _SITE_PAD + chunk if i else chunk
    yield tail


def load_tensor_set(path) -> tuple[LatticeSpec, dict[Site, int], dict[Site, FPEPSTensor]]:
    lattice, data, arrays = _load(path, "tensor-set", _FERMION_KEYS)
    with _reading("tensor-set", path):
        rows = data.get("parity")
        if rows is None:
            rows = [[0] * lattice.n_h] * lattice.n_v
        if type(rows) is not list or len(rows) != lattice.n_v or any(
                type(row) is not list or len(row) != lattice.n_h for row in rows):
            raise ValueError(f"parity is not {lattice.n_v} rows of {lattice.n_h} integers")
        parity = {(h, v): rows[v - 1][h - 1] for h, v in lattice.sites()}
        for site, value in parity.items():
            if type(value) is not int:
                raise ValueError(f"parity {value!r} of site {site} is not an integer")
        tensors = {s: FPEPSTensor(arrays[s], parity[s]) for s in lattice.sites()}
    return lattice, parity, tensors


def dump_tensor_set(
    lattice: LatticeSpec, parity: dict[Site, int], tensors: dict[Site, FPEPSTensor]
) -> str:
    """The tensor-set file; ``parity`` (None: not checked) must agree with the tensors' own."""
    entries, own = stack_sets(lattice, [tensors], parity)
    rows = [list(own[v * lattice.n_h:(v + 1) * lattice.n_h]) for v in range(lattice.n_v)]
    return "".join(_dump(lattice, _FERMION_KEYS, entries[0], parity=rows))


def load_peps_set(path) -> tuple[LatticeSpec, dict[Site, np.ndarray]]:
    lattice, _, arrays = _load(path, "PEPS-set", _SPIN_KEYS)
    return lattice, {s: arrays[s] for s in lattice.sites()}


def peps_set_chunks(lattice: LatticeSpec, tensors: dict[Site, np.ndarray]):
    """The PEPS-set file's text in chunks, one per site between its head and tail."""
    return _dump(lattice, _SPIN_KEYS, spin_stack(lattice, tensors))


def dump_peps_set(lattice: LatticeSpec, tensors: dict[Site, np.ndarray]) -> str:
    return "".join(peps_set_chunks(lattice, tensors))
