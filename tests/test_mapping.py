"""Sign derivation and the fermionic-to-spin tensor translation."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from fpeps import errors
from fpeps.build import build_fpeps, build_stack
from fpeps.cli import MAPPING_LATTICES
from fpeps.contraction import contract_peps, contract_stack
from fpeps.errors import ContractViolationError
from fpeps.lattice import LatticeSpec
from fpeps import mapping
from fpeps.mapping import derive_sign_functions, map_stack, map_tensor_set
from fpeps.tensors import FPEPSTensor, stack_sets


def map_with_zero_signs(monkeypatch, lattice, site, tensor):
    """The spin tensor of ``site`` mapped with all-zero sign tables, every other site empty."""
    monkeypatch.setattr(mapping, "derive_sign_functions",
                        lambda lattice, parity: np.zeros((lattice.n_sites,) + (2,) * 5, np.uint8))
    tensors = {s: FPEPSTensor(np.zeros((2,) * 5, dtype=complex)) for s in lattice.sites()}
    tensors[site] = tensor
    return map_tensor_set(lattice, tensors)[site].entries


def one_entry(k, l, r, u, d, value=1.0):
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[k, l, r, u, d] = value
    return FPEPSTensor(arr, (k + l + r + u + d) % 2)


def test_map_identity_entry_first_column(monkeypatch):
    lattice = LatticeSpec(3, 3)
    B = map_with_zero_signs(monkeypatch, lattice, (1, 1), one_entry(0, 0, 0, 0, 0))
    # d + l = 0: both r' slots carry +1, l' pinned to 0
    assert B[0, 0, 0, 0, 0, 0, 0] == 1.0
    assert B[0, 0, 0, 0, 1, 0, 0] == 1.0
    assert np.count_nonzero(B) == 2


def test_map_first_column_boundary_phase(monkeypatch):
    lattice = LatticeSpec(3, 3)
    B = map_with_zero_signs(monkeypatch, lattice, (1, 1), one_entry(0, 0, 1, 0, 1))
    # r = d = 1, l = 0: the r' = 1 slot picks up (-1)^(d + l) = -1
    assert B[0, 0, 0, 1, 0, 0, 1] == 1.0
    assert B[0, 0, 0, 1, 1, 0, 1] == -1.0


def test_map_bulk_delta_constraint(monkeypatch):
    lattice = LatticeSpec(3, 3)
    rng = np.random.default_rng(0)
    tensor = FPEPSTensor.random(rng, parity=0)
    B = map_with_zero_signs(monkeypatch, lattice, (2, 1), tensor)
    for (k, l, lp, r, rp, u, d) in np.argwhere(np.abs(B) > 0):
        assert lp == (rp + u + d) % 2
    # exactly half the (l', r') slots can be populated
    assert np.count_nonzero(B) == 2 * np.count_nonzero(tensor.entries)


def test_map_last_column_pins_rprime(monkeypatch):
    lattice = LatticeSpec(3, 3)
    rng = np.random.default_rng(1)
    tensor = FPEPSTensor.random(rng, parity=0)
    B = map_with_zero_signs(monkeypatch, lattice, (3, 2), tensor)
    assert np.count_nonzero(B[:, :, :, :, 1, :, :]) == 0


def test_map_rejects_invalid_tensor():
    # construction refuses the tensor, so no invalid tensor reaches the mapping
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[1, 0, 0, 0, 0] = 1.0
    with pytest.raises(ContractViolationError):
        FPEPSTensor(arr, 0)


def test_zero_tensor_maps_to_zero(monkeypatch):
    lattice = LatticeSpec(2, 2)
    zero = FPEPSTensor(np.zeros((2,) * 5, dtype=complex), 0)
    B = map_with_zero_signs(monkeypatch, lattice, (2, 2), zero)
    assert np.count_nonzero(B) == 0


def test_sign_function_depends_only_on_local_indices():
    # one read-only uint8 table of 0 and 1 per site, indexed [site, k, u, d, l, r]
    tables = derive_sign_functions(LatticeSpec(2, 2))
    assert tables.shape == (4,) + (2,) * 5
    assert tables.dtype == np.uint8 and not tables.flags.writeable
    assert set(np.unique(tables)) <= {0, 1}


def assert_oracle_matches_contraction(lattice, tensors, parity=None):
    oracle = build_fpeps(lattice, tensors)
    contracted = contract_peps(lattice, map_tensor_set(lattice, tensors, parity))
    # the translation is exact including the global phase
    scale = 2.0 ** lattice.n_sites
    assert np.max(
        np.abs(contracted.amplitudes - scale * oracle.amplitudes)
    ) < 1e-10 * max(1.0, np.max(np.abs(contracted.amplitudes)))
    assert abs(oracle.normalized_overlap(contracted) - 1.0) < 1e-10


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 2)])
def test_oracle_equivalence_even_tensors(shape):
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(123)
    for _ in range(8):
        tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
        assert_oracle_matches_contraction(lattice, tensors)


def test_oracle_equivalence_mixed_parity():
    lattice = LatticeSpec(2, 2)
    rng = np.random.default_rng(321)
    for _ in range(6):
        parity = {s: int(rng.integers(0, 2)) for s in lattice.sites()}
        tensors = {
            s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()
        }
        assert_oracle_matches_contraction(lattice, tensors, parity)


@pytest.mark.parametrize("mixed", [False, True], ids=["even", "mixed"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 3)], ids=["1x1", "1x3"])
def test_oracle_equivalence_on_self_loop_lattices(shape, mixed):
    # one column: l and r of every site are the same bond variable, and on
    # 1x1 u and d are as well
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(500 + 10 * shape[1] + mixed)
    for _ in range(6):
        parity = {s: int(rng.integers(0, 2)) if mixed else 0 for s in lattice.sites()}
        tensors = {
            s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()
        }
        assert_oracle_matches_contraction(lattice, tensors, parity)


@pytest.fixture
def fresh_sign_cache():
    """An empty sign-table cache, emptied again afterwards."""
    mapping._sign_tables.cache_clear()
    yield
    mapping._sign_tables.cache_clear()


@pytest.mark.usefixtures("fresh_sign_cache")
@pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["2x2", "3x2"])
def test_sign_derivation_without_transport_is_not_site_local(monkeypatch, shape):
    # the boundary and vertical pieces are what makes the residual local
    monkeypatch.setattr(mapping, "_transport_form", lambda *args: 0.0)
    with pytest.raises(ContractViolationError, match="not site-local"):
        derive_sign_functions(LatticeSpec(*shape))


# sha256 of the concatenated tables in M order, even and with the
# checkerboard parity (h + v) mod 2; no contraction reaches 4x4 or 5x2, but
# convert maps them, and 1x3 aliases l and r onto one bond variable
SIGN_TABLE_DIGESTS = {
    ((4, 4), False): "9a551a6d42916a66172b8520eaff868121f880fda6ee5f0244073dc00476b8e0",
    ((4, 4), True): "edc93d61e65e1ecaf1e52986883cc2c6ce8f6155df84d0b750af0582852e9ecd",
    ((5, 2), False): "42b0bb735d7f99030e17eb980624aacfbc15fc8ef4341ecaf64acc5b6ac9a2b4",
    ((5, 2), True): "a89abb7d505823cf7bf6982578155cc2b4cda820ef1d73cb3ff0ab584ffde4b7",
    ((1, 3), False): "072ae0d4e48a9f03c8422714efaeadb2c146f3f9481df236be9de022577f0dd5",
    ((1, 3), True): "c4451048a8e8c9fc10e4ffa0b561d98a2b94f9a7b4230fe4e4c589255e1a2f55",
}


@pytest.mark.parametrize(
    "shape,mixed", list(SIGN_TABLE_DIGESTS),
    ids=[f"{h}x{v}-{'mixed' if m else 'even'}" for (h, v), m in SIGN_TABLE_DIGESTS],
)
def test_sign_tables_are_pinned(shape, mixed):
    lattice = LatticeSpec(*shape)
    parity = {(h, v): (h + v) % 2 for h, v in lattice.sites()} if mixed else None
    tables = derive_sign_functions(lattice, parity)
    assert hashlib.sha256(tables.tobytes()).hexdigest() == SIGN_TABLE_DIGESTS[(shape, mixed)]


def _parity_patterns(lattice):
    """All even (None) and the checkerboard (h + v) mod 2."""
    return None, {(h, v): (h + v) % 2 for h, v in lattice.sites()}


def test_sign_tables_are_derived_once_and_shared():
    lattice = LatticeSpec(2, 2)
    first = derive_sign_functions(lattice)
    # an explicit all-even mapping is the same key as None
    assert derive_sign_functions(LatticeSpec(2, 2), {s: 0 for s in lattice.sites()}) is first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0, 0, 0, 0, 0] = 1


def test_cached_sign_tables_equal_a_fresh_derivation(fresh_sign_cache):
    lattices = list(MAPPING_LATTICES) + [LatticeSpec(*shape) for shape, _ in SIGN_TABLE_DIGESTS]
    keys = [(lattice, parity) for lattice in lattices for parity in _parity_patterns(lattice)]
    cached = [derive_sign_functions(lattice, parity) for lattice, parity in keys]
    mapping._sign_tables.cache_clear()
    for (lattice, parity), table in zip(keys, cached):
        fresh = derive_sign_functions(lattice, parity)
        assert fresh is not table and fresh.tobytes() == table.tobytes()


@pytest.mark.parametrize("even_first", [True, False], ids=["even-first", "checkerboard-first"])
def test_sign_cache_key_holds_the_parity(fresh_sign_cache, even_first):
    lattice = LatticeSpec(4, 4)
    even, checkerboard = _parity_patterns(lattice)
    order = [(False, even), (True, checkerboard)]
    for mixed, parity in order if even_first else order[::-1]:
        tables = derive_sign_functions(lattice, parity)
        assert hashlib.sha256(tables.tobytes()).hexdigest() == SIGN_TABLE_DIGESTS[((4, 4), mixed)]


def _peak_bytes(call):
    """The tracemalloc peak of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_derivation_is_refused_over_the_size_limit(fresh_sign_cache):
    # 43 x 43 sites would hold 43 N^2 = 1.1 GiB of floats
    def refused_twice():  # a refusal is not cached
        for _ in range(2):
            with pytest.raises(ContractViolationError,
                               match=r"sign derivation of the 43x43 lattice needs .* GiB"):
                derive_sign_functions(LatticeSpec(43, 43))

    assert _peak_bytes(refused_twice) < 2**20


def test_sign_derivation_charge_covers_its_peak(fresh_sign_cache, monkeypatch):
    lattice = LatticeSpec(10, 10)
    assert _peak_bytes(lambda: derive_sign_functions(lattice)) <= 8 * 43 * lattice.n_sites**2
    # the charge is exactly 43 floats per N^2: a limit at 6x6's charge admits 6x6
    monkeypatch.setattr(errors, "MAX_FLOATS", 43 * 36**2)
    derive_sign_functions(LatticeSpec(6, 6))
    with pytest.raises(ContractViolationError, match="37x1"):
        derive_sign_functions(LatticeSpec(37, 1))


def test_parity_assignment_must_cover_every_site():
    with pytest.raises(ContractViolationError, match="missing sites"):
        derive_sign_functions(LatticeSpec(2, 1), {(1, 1): 0})


@pytest.mark.parametrize("value", [2, -1, 1.7])
def test_site_parity_other_than_0_or_1_is_refused(value):
    # 2 and -1 used to give an all-zero sign table, and 1.7 the cached
    # table of parity 1
    lattice = LatticeSpec(2, 1)
    derive_sign_functions(lattice, {(1, 1): 1, (2, 1): 0})
    with pytest.raises(ContractViolationError, match=r"must be 0 or 1, got \{\(1, 1\): "):
        derive_sign_functions(lattice, {(1, 1): value, (2, 1): 0})


@pytest.mark.parametrize("mixed", [False, True], ids=["even", "mixed"])
@pytest.mark.parametrize("shape", [(3, 1), (3, 2), (3, 3), (4, 3), (3, 4)],
                         ids=["3x1", "3x2", "3x3", "4x3", "3x4"])
def test_oracle_equivalence_with_bulk_columns(shape, mixed):
    # bulk columns run the branch l' = r' + u + d with r' = 1
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(400 + 10 * shape[1] + shape[0] + mixed)
    for _ in range({3: 4, 6: 4, 9: 2, 12: 1}[lattice.n_sites]):
        bits = np.arange(lattice.n_sites) % 2 if mixed else np.zeros(lattice.n_sites)
        bits = rng.permutation(bits)
        parity = {s: int(b) for s, b in zip(lattice.sites(), bits)}
        tensors = {
            s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()
        }
        mapped = map_tensor_set(lattice, tensors, parity)
        assert np.any(mapped[(2, 1)].entries[:, :, :, :, 1] != 0)
        assert_oracle_matches_contraction(lattice, tensors, parity)


def test_parity_transport_telescopes():
    # the primed index of every bulk tensor equals the vertical parity sum
    # accumulated from the boundary column: r'(h) = sum_{j > h} (u_j + d_j)
    lattice = LatticeSpec(3, 1)
    rng = np.random.default_rng(5)
    tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
    mapped = map_tensor_set(lattice, tensors)
    for h in (2, 3):
        B = mapped[(h, 1)].entries
        for (k, l, lp, r, rp, u, d) in np.argwhere(np.abs(B) > 0):
            assert lp == (rp + u + d) % 2
            if h == 3:
                assert rp == 0


def test_sign_tables_cover_all_sites():
    lattice = LatticeSpec(3, 3)
    tables = derive_sign_functions(lattice)
    assert tables.shape == (lattice.n_sites,) + (2,) * 5


def _drawn_set(lattice, seed, parity=None):
    """Random tensors; without ``parity`` each site's parity is drawn first."""
    rng = np.random.default_rng(seed)
    if parity is None:
        parity = {s: int(rng.integers(0, 2)) for s in lattice.sites()}
    return parity, {s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}


@pytest.mark.parametrize("checkerboard", [False, True], ids=["drawn", "checkerboard"])
def test_map_tensor_set_reads_parity_from_the_tensors(checkerboard):
    # without the parity argument the tables used to be derived for all-even
    # sites, which put the state at |overlap - 1| = 0.877 on the drawn set
    # (default_rng(4) draws all six sites odd)
    lattice = LatticeSpec(3, 2)
    checker = {(h, v): (h + v) % 2 for h, v in lattice.sites()} if checkerboard else None
    parity, tensors = _drawn_set(lattice, 4, checker)
    assert any(parity.values())
    oracle = build_fpeps(lattice, tensors)
    contracted = contract_peps(lattice, map_tensor_set(lattice, tensors))
    assert abs(oracle.normalized_overlap(contracted) - 1.0) < 1e-10


def test_map_tensor_set_refuses_a_disagreeing_parity_argument():
    lattice = LatticeSpec(3, 2)
    parity, tensors = _drawn_set(lattice, 4)
    wrong = {**parity, (2, 2): 1 - parity[(2, 2)]}
    with pytest.raises(ContractViolationError, match=r"\(2, 2\)"):
        map_tensor_set(lattice, tensors, wrong)
    # the agreeing argument is accepted and changes nothing
    with_arg = map_tensor_set(lattice, tensors, parity)
    without = map_tensor_set(lattice, tensors)
    assert all(np.array_equal(with_arg[s].entries, without[s].entries) for s in lattice.sites())


def _mixed_stack(lattice, n_sets, seed):
    """Random tensor sets sharing one parity pattern that holds both parities."""
    rng = np.random.default_rng(seed)
    bits = rng.permutation(np.arange(lattice.n_sites) % 2)
    parity = {s: int(b) for s, b in zip(lattice.sites(), bits)}
    return [{s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}
            for _ in range(n_sets)]


@pytest.mark.parametrize("shape, n_sets", [
    ((1, 2), 4), ((2, 1), 4), ((2, 2), 4), ((2, 2), 1), ((3, 1), 3), ((3, 2), 3),
    ((3, 3), 2), ((3, 4), 2),
], ids=["1x2", "2x1", "2x2", "2x2-one", "3x1", "3x2", "3x3", "3x4"])
def test_stack_cores_match_the_per_set_route(shape, n_sets):
    lattice = LatticeSpec(*shape)
    sets = _mixed_stack(lattice, n_sets, 700 + 10 * shape[0] + shape[1] + n_sets)
    entries, parity = stack_sets(lattice.sites(), sets)
    oracle = build_stack(lattice, entries, parity)
    spin = map_stack(lattice, entries, parity)
    amps = contract_stack(lattice, spin)
    assert oracle.shape == amps.shape == (n_sets, 2**lattice.n_sites)
    for i, tensors in enumerate(sets):
        assert np.array_equal(oracle[i], build_fpeps(lattice, tensors).amplitudes)
        mapped = map_tensor_set(lattice, tensors)
        assert all(np.array_equal(spin[i, m], mapped[s].entries)
                   for m, s in enumerate(lattice.sites()))
        single = contract_peps(lattice, mapped).amplitudes
        assert np.max(np.abs(amps[i] - single)) <= 1e-14 * np.max(np.abs(single))
        # and the stack is the exact translation of its oracle, phase included
        assert np.max(np.abs(amps[i] - 2.0**lattice.n_sites * oracle[i])) < (
            1e-10 * max(1.0, np.max(np.abs(amps[i]))))


def test_stack_of_disagreeing_parity_patterns_is_refused():
    lattice = LatticeSpec(2, 2)
    first, second = _mixed_stack(lattice, 2, 5)
    flipped = {**second, (2, 1): FPEPSTensor.random(np.random.default_rng(6),
                                                     1 - second[(2, 1)].parity)}
    with pytest.raises(ContractViolationError) as refused:
        stack_sets(lattice.sites(), [first, second, flipped])
    assert str(refused.value) == "tensor sets disagree on the parity of sites [(2, 1)]"
