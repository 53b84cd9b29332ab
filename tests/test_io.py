"""File formats round-trip bit-exactly; malformed files raise one error type."""
import contextlib
import copy
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpeps.cli import main
from fpeps.critical import example_channel
from fpeps.errors import ContractViolationError
from fpeps.gaussian import GaussianChannel
from fpeps.io import dump_peps_set, dump_tensor_set, json_text, load_peps_set, load_tensor_set
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


@pytest.mark.parametrize("odd", [True, np.int64(1), 1.0], ids=["True", "int64", "float"])
def test_parity_round_trips_as_an_int(tmp_path, odd):
    # True used to be written as true, which load_tensor_set refused;
    # np.int64(1) failed in the writer, and 1.0 was written as 1.0
    lattice = LatticeSpec(2, 1)
    rng = np.random.default_rng(9)
    tensors = {(1, 1): FPEPSTensor.random(rng, 0),
               (2, 1): FPEPSTensor(FPEPSTensor.random(rng, 1).entries, odd)}
    assert type(tensors[(2, 1)].parity) is int
    text = dump_tensor_set(lattice, None, tensors)
    path = tmp_path / "set.json"
    path.write_text(text)
    _, parity, loaded = load_tensor_set(path)
    assert parity == {(1, 1): 0, (2, 1): 1}
    assert dump_tensor_set(lattice, parity, loaded) == text


def test_dump_refuses_a_parity_that_disagrees_with_the_tensors():
    # used to write parity rows that load_tensor_set then refused
    lattice = LatticeSpec(2, 1)
    _, tensors = random_set(lattice, seed=5)
    with pytest.raises(ContractViolationError, match=r"disagrees .* sites \[\(1, 1\), \(2, 1\)\]"):
        dump_tensor_set(lattice, {s: 1 for s in lattice.sites()}, tensors)


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
        assert np.array_equal(mapped2[s], mapped[s])


# sha256 of both dumps of one mixed-parity 3x2 set (parities drawn first,
# then the tensors), computed with the two per-format codecs that the
# shared one replaced
DUMP_DIGESTS = (
    "9efa9168943e3136863f1b86fa61376a09f249645db62da017f8d92976198c86",
    "27e943706b0fde136a347f47e0e8784b24ba51ef222e592b53b280366ceb305b",
)


def test_dumps_are_pinned():
    lattice = LatticeSpec(3, 2)
    rng = np.random.default_rng(11)
    parity = {s: int(rng.integers(0, 2)) for s in lattice.sites()}
    tensors = {s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}
    texts = (dump_tensor_set(lattice, parity, tensors),
             dump_peps_set(lattice, map_tensor_set(lattice, tensors, parity)))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == DUMP_DIGESTS


# --- the writer: json.dumps(value, indent=1), byte for byte ----------------

# floats at the edges of repr's notations, signed zero, the smallest
# subnormal and normal, and the three values json spells out
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e16, 9999999999999998.0, 1e-7, 1e-4, 9.999999999999999e-05, 0.1,
               float("nan"), float("inf"), float("-inf")]
EDGE_TEXT = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", "\u2028", "\ud800",
             "\U0001f600", ""]
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.sampled_from(EDGE_FLOATS) | st.sampled_from(EDGE_FLOATS).map(np.float64)
    | st.text() | st.sampled_from(EDGE_TEXT)
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(value=JSON_TREES)
def test_writer_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("value", [[], {}, [[]], {"a": {}}, [{}, [], ""], EDGE_FLOATS,
                                   dict(zip(EDGE_TEXT, EDGE_FLOATS))])
def test_writer_equals_json_dumps_on_empty_and_edge_values(value):
    assert json_text(value) == json.dumps(value, indent=1)


def one_dict_per_entry(lattice, keys, arrays, **header) -> str:
    """A tensor file as the codec wrote it before: one dict per nonzero entry, then json.dumps."""
    documents = []
    for site in lattice.sites():
        arr = arrays[site]
        nonzero = arr != 0
        documents.append({"site": list(site), "entries": [
            {**dict(zip(keys, idx)), "re": val.real, "im": val.imag}
            for idx, val in zip(np.argwhere(nonzero).tolist(), arr[nonzero].tolist())
        ]})
    document = {"lattice": {"nh": lattice.n_h, "nv": lattice.n_v}, **header, "tensors": documents}
    return json.dumps(document, indent=1)


def _entries(tensors):
    return {s: tensor.entries for s, tensor in tensors.items()}


def _convert_text(tmp_path, lattice, parity, tensors):
    """``fpeps convert`` output of the set, and the set's own file text."""
    src, out = tmp_path / "set.json", tmp_path / "out.json"
    src.write_text(dump_tensor_set(lattice, parity, tensors))
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["convert", "--input", str(src), "--output", str(out)]) == 0
    return out.read_text(), src.read_text()


SPIN_KEYS = ("k", "l", "lp", "r", "rp", "u", "d")
FERMION_KEYS = ("k", "l", "r", "u", "d")


@pytest.mark.parametrize("zero_site", [None, (2, 3)], ids=["drawn", "one-zero-site"])
def test_convert_equals_json_dumps(tmp_path, zero_site):
    lattice = LatticeSpec(10, 10)
    rng = np.random.default_rng(32)
    parity = {s: int(rng.integers(0, 2)) for s in lattice.sites()}
    tensors = {s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}
    if zero_site:
        tensors[zero_site] = FPEPSTensor(np.zeros((2,) * 5, dtype=complex), parity[zero_site])
    text, source = _convert_text(tmp_path, lattice, parity, tensors)
    rows = [[parity[(h, v)] for h in range(1, 11)] for v in range(1, 11)]
    assert source == one_dict_per_entry(lattice, FERMION_KEYS, _entries(tensors), parity=rows)
    mapped = map_tensor_set(lattice, tensors)
    assert text == one_dict_per_entry(lattice, SPIN_KEYS, mapped) + "\n"
    if zero_site:
        assert '"entries": []' in text


def test_dump_equals_json_dumps_on_signed_zero_and_non_finite_entries():
    lattice = LatticeSpec(2, 1)
    entries = np.zeros((2,) * 5, dtype=complex)
    entries[0, 0, 0, 0, 0] = complex(float("nan"), -0.0)
    entries[1, 1, 0, 0, 0] = complex(float("inf"), 5e-324)
    entries[0, 1, 1, 0, 0] = complex(-0.0, float("-inf"))
    entries[1, 0, 1, 0, 0] = complex(1e16, 1e-7)
    tensors = {s: FPEPSTensor(entries, 0) for s in lattice.sites()}
    text = dump_tensor_set(lattice, None, tensors)
    assert text == one_dict_per_entry(lattice, FERMION_KEYS, _entries(tensors), parity=[[0, 0]])
    assert "NaN" in text and "-Infinity" in text


LOADERS = (load_tensor_set, load_peps_set)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", ["{}", "not json", "[1, 2]"])
def test_malformed_file_is_contract_violation(tmp_path, loader, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ContractViolationError, match="malformed"):
        loader(path)


@pytest.mark.parametrize("rows", [[[0, 0, 1, 1], [1, 1]], [[0, 0, 1]], [[0]], [], [[0], [0]],
                                  [0, 0], "00"],
                         ids=["two-long-rows", "long-row", "short-row", "no-rows", "two-rows",
                              "flat", "text"])
def test_parity_must_be_one_row_of_n_h_per_lattice_row(tmp_path, capsys, rows):
    # [[0, 0, 1, 1], [1, 1]] used to load on a 2x1 lattice as all even
    doc = json.loads(_dump_one_of(load_tensor_set, LatticeSpec(2, 1), seed=4))
    doc["parity"] = rows
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError, match="parity is not 1 rows of 2 integers") as info:
        load_tensor_set(path)
    assert "\n" not in str(info.value)
    assert main(["convert", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("loader", LOADERS)
def test_lattice_larger_than_tensor_list_is_refused_first(tmp_path, loader):
    # refused from the counts, before any loop over the lattice's sites,
    # which would not end for a lattice of, say, 10^9 x 10^9
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"lattice": {"nh": 300, "nv": 300}, "tensors": []}))
    with pytest.raises(ContractViolationError, match="0 tensors for 90000 sites"):
        loader(path)


def _dump_one_of(loader, lattice, seed):
    """The file format that ``loader`` reads, for one random even set."""
    parity, tensors = random_set(lattice, seed=seed)
    if loader is load_tensor_set:
        return dump_tensor_set(lattice, parity, tensors)
    return dump_peps_set(lattice, map_tensor_set(lattice, tensors))


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("site,message", [
    ([1, 1], r"lists site \(1, 1\) twice"),
    ([9, 9], r"site \(9, 9\) lies outside the 2x1 lattice"),
], ids=["duplicate", "stray"])
def test_each_site_once_and_inside_the_lattice(tmp_path, loader, site, message):
    # both loaders used to keep the last of two entries for one site
    lattice = LatticeSpec(2, 1)
    doc = json.loads(_dump_one_of(loader, lattice, seed=3))
    doc["tensors"].append({**doc["tensors"][0], "site": site})
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError, match=message) as info:
        loader(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("value", [True, 2, 1.0, -1, -2, None],
                         ids=["true", "2", "1.0", "-1", "-2", "null"])
def test_entry_index_must_be_zero_or_one(tmp_path, loader, value):
    # numpy would send -2 to 0 and None (a new axis) to two entries
    doc = json.loads(_dump_one_of(loader, LatticeSpec(1, 1), seed=2))
    doc["tensors"][0]["entries"][0]["k"] = value
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError, match="entry index k=") as info:
        loader(path)
    assert "\n" not in str(info.value)


TRUNCATION_MESSAGES = {
    "lattice": r"lattice size \(1\.9, 1\) is not two integers",
    "lattice-text": r"lattice size \(1, '1'\) is not two integers",
    "site": r"site \[1\.9, True\] is not two integers",
    "parity": r"parity 1\.7 of site \(1, 1\) is not an integer",
    "entry": r"site \(1, 1\) lists entry \(\d(, \d)+\) twice",
}


@pytest.mark.parametrize("loader,fault", [
    (load_tensor_set, "lattice"), (load_peps_set, "lattice"), (load_tensor_set, "lattice-text"),
    (load_tensor_set, "site"), (load_peps_set, "site"), (load_tensor_set, "parity"),
    (load_tensor_set, "entry"), (load_peps_set, "entry"),
], ids=["tensor-set-lattice", "peps-set-lattice", "tensor-set-lattice-text",
        "tensor-set-site", "peps-set-site", "tensor-set-parity",
        "tensor-set-entry", "peps-set-entry"])
def test_values_are_refused_not_truncated(tmp_path, loader, fault):
    # these used to load as a 1x1 lattice, site (1, 1), parity 1 and the
    # entry's last value
    doc = json.loads(_dump_one_of(loader, LatticeSpec(1, 1), seed=2))
    if fault == "lattice":
        doc["lattice"]["nh"] = 1.9
    elif fault == "lattice-text":
        doc["lattice"]["nv"] = "1"
    elif fault == "site":
        doc["tensors"][0]["site"] = [1.9, True]
    elif fault == "parity":
        doc["parity"] = [[1.7]]
    else:
        entries = doc["tensors"][0]["entries"]
        entries.append({**entries[0], "re": 5.0, "im": 0.0})
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError, match=TRUNCATION_MESSAGES[fault]) as info:
        loader(path)
    assert "\n" not in str(info.value)


def test_entry_forbidden_by_parity_is_refused_at_load(tmp_path):
    # used to load, and only the mapping refused the tensor
    doc = json.loads(_dump_one_of(load_tensor_set, LatticeSpec(1, 1), seed=2))
    doc["tensors"][0]["entries"].append(
        {"k": 1, "l": 0, "r": 0, "u": 0, "d": 0, "re": 1.0, "im": 0.0})
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError,
                       match=r"parity-0 tensor has forbidden entries at \[\(1, 0, 0, 0, 0\)\]"):
        load_tensor_set(path)


DELETE = object()


def _valid_documents():
    return {loader: json.loads(_dump_one_of(loader, LatticeSpec(1, 1), seed=1))
            for loader in LOADERS}


VALID = _valid_documents()


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("loader,path,value", [
    (load_tensor_set, ("lattice", "nh"), float("inf")),
    (load_tensor_set, ("tensors", 0, "entries", 0, "re"), 10**400),
    (load_peps_set, ("lattice", "nv"), float("inf")),
    (load_peps_set, ("tensors", 0, "entries", 0, "im"), 10**400),
], ids=["tensor-set-inf", "tensor-set-huge", "peps-set-inf", "peps-set-huge"])
def test_out_of_range_number_is_contract_violation(tmp_path, loader, path, value):
    # int(inf) and float(10**400) raise OverflowError
    target = tmp_path / "big.json"
    target.write_text(json.dumps(_replaced(VALID[loader], path, value)))
    with pytest.raises(ContractViolationError, match="OverflowError"):
        loader(target)


def test_channel_with_nan_is_refused():
    ch = example_channel()
    A = ch.A.copy()
    A[0, 1] = float("nan")
    with pytest.raises(ContractViolationError, match="finite"):
        GaussianChannel(A, ch.B, ch.D)


# --- fuzzing: every loader returns or raises ContractViolationError ---------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
def _load_or_refuse(loader, path):
    try:
        loader(path)
    except ContractViolationError as exc:
        assert "\n" not in str(exc)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=150, deadline=None)
@given(loader=st.sampled_from(LOADERS), doc=JSON_VALUES)
def test_loaders_on_arbitrary_json(fuzz_path, loader, doc):
    fuzz_path.write_text(json.dumps(doc))
    _load_or_refuse(loader, fuzz_path)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), loader=st.sampled_from(LOADERS))
def test_loaders_on_corrupted_valid_files(fuzz_path, data, loader):
    doc = VALID[loader]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON_VALUES | st.just(DELETE) if path else JSON_VALUES)
    fuzz_path.write_text(json.dumps(_replaced(doc, path, value)))
    _load_or_refuse(loader, fuzz_path)


@settings(max_examples=150, deadline=None)
@given(loader=st.sampled_from(LOADERS), raw=st.binary(max_size=64))
def test_loaders_on_arbitrary_bytes(fuzz_path, loader, raw):
    fuzz_path.write_bytes(raw)
    _load_or_refuse(loader, fuzz_path)
