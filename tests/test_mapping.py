"""Sign derivation and the fermionic-to-spin tensor translation."""
import hashlib

import numpy as np
import pytest

from fpeps.build import build_fpeps, build_stack
from fpeps.cli import MAPPING_LATTICES
from fpeps.contraction import contract_peps, contract_stack
from fpeps.critical import example_tensor_set
from fpeps.errors import ContractViolationError
from fpeps.io import dump_peps_set, dump_tensor_set
from fpeps.lattice import LatticeSpec
from fpeps import mapping
from fpeps.mapping import derive_sign_functions, map_stack, map_tensor_set
from fpeps.tensors import FPEPSTensor, forbidden_entries, random_stack, spin_stack, stack_sets

import sign_reference
from test_contraction import configuration_stack


def map_with_zero_signs(monkeypatch, lattice, site, tensor):
    """The spin tensor of ``site`` mapped with all-zero sign tables, every other site empty.

    The gather plan reads ``_sign_tables``; the caller's ``cold_caches`` keeps
    a plan built before, or with, the patch out of every other test.
    """
    monkeypatch.setattr(mapping, "_sign_tables",
                        lambda lattice, parities: np.zeros((lattice.n_sites,) + (2,) * 5, np.uint8))
    tensors = {s: FPEPSTensor(np.zeros((2,) * 5, dtype=complex)) for s in lattice.sites()}
    tensors[site] = tensor
    return map_tensor_set(lattice, tensors)[site]


def one_entry(k, l, r, u, d, value=1.0):
    arr = np.zeros((2,) * 5, dtype=complex)
    arr[k, l, r, u, d] = value
    return FPEPSTensor(arr, (k + l + r + u + d) % 2)


def test_map_identity_entry_first_column(cold_caches, monkeypatch):
    lattice = LatticeSpec(3, 3)
    B = map_with_zero_signs(monkeypatch, lattice, (1, 1), one_entry(0, 0, 0, 0, 0))
    # d + l = 0: both r' slots carry +1, l' pinned to 0
    assert B[0, 0, 0, 0, 0, 0, 0] == 1.0
    assert B[0, 0, 0, 0, 1, 0, 0] == 1.0
    assert np.count_nonzero(B) == 2


def test_map_first_column_boundary_phase(cold_caches, monkeypatch):
    lattice = LatticeSpec(3, 3)
    B = map_with_zero_signs(monkeypatch, lattice, (1, 1), one_entry(0, 0, 1, 0, 1))
    # r = d = 1, l = 0: the r' = 1 slot picks up (-1)^(d + l) = -1
    assert B[0, 0, 0, 1, 0, 0, 1] == 1.0
    assert B[0, 0, 0, 1, 1, 0, 1] == -1.0


def test_map_bulk_delta_constraint(cold_caches, monkeypatch):
    lattice = LatticeSpec(3, 3)
    rng = np.random.default_rng(0)
    tensor = FPEPSTensor.random(rng, parity=0)
    B = map_with_zero_signs(monkeypatch, lattice, (2, 1), tensor)
    for (k, l, lp, r, rp, u, d) in np.argwhere(np.abs(B) > 0):
        assert lp == (rp + u + d) % 2
    # exactly half the (l', r') slots can be populated
    assert np.count_nonzero(B) == 2 * np.count_nonzero(tensor.entries)
    # r' = 0 carries no phase, so with zero tables every entry keeps its
    # sign; the real table of this site flips some of them
    k, l, r, u, d = np.indices((2,) * 5)
    assert np.array_equal(B[k, l, (u + d) % 2, r, 0, u, d], tensor.entries)


def test_map_last_column_pins_rprime(cold_caches, monkeypatch):
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


def test_zero_tensor_maps_to_zero(cold_caches, monkeypatch):
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
    mapped = map_tensor_set(lattice, tensors, parity)
    contracted = contract_peps(lattice, mapped)
    # the translation is exact including the global phase
    scale = 2.0 ** lattice.n_sites
    assert np.max(
        np.abs(contracted.amplitudes - scale * oracle.amplitudes)
    ) < 1e-10 * max(1.0, np.max(np.abs(contracted.amplitudes)))
    assert abs(oracle.normalized_overlap(contracted) - 1.0) < 1e-10
    # and so is each configuration contracted alone, as one P = 1 set
    n = lattice.n_sites
    configs = np.random.default_rng(n).choice(2**n, min(16, 2**n), replace=False)
    spin = np.stack(spin_stack(lattice, mapped))
    amps = contract_stack(lattice, configuration_stack(spin, configs))
    assert np.max(np.abs(amps[:, 0] - scale * oracle.amplitudes[configs])) < (
        1e-14 * np.max(np.abs(contracted.amplitudes)))


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


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["2x2", "3x2"])
def test_sign_derivation_without_transport_is_not_site_local(monkeypatch, shape):
    # the boundary and vertical pieces are what makes the residual local
    monkeypatch.setattr(sign_reference, "_transport_form", lambda *args: 0.0)
    lattice = LatticeSpec(*shape)
    with pytest.raises(ContractViolationError, match="not site-local"):
        sign_reference.normal_ordered_sign_tables(lattice, (0,) * lattice.n_sites)


def _reference_patterns(lattice):
    """All even, the checkerboard (h + v) mod 2 and two random site parities, in M order."""
    rng = np.random.default_rng(900 + 10 * lattice.n_h + lattice.n_v)
    return [(0,) * lattice.n_sites, tuple((h + v) % 2 for h, v in lattice.sites()),
            *(tuple(rng.integers(0, 2, lattice.n_sites).tolist()) for _ in range(2))]


@pytest.mark.parametrize("shape", [(h, v) for h in range(1, 8) for v in range(1, 8)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_closed_form_equals_the_normal_ordering_reference(cold_caches, shape):
    # 1xN, Nx1 and 2xN alias or double up bonds; three or more columns run the bulk
    lattice = LatticeSpec(*shape)
    for parities in _reference_patterns(lattice):
        tables = derive_sign_functions(lattice, dict(zip(lattice.sites(), parities)))
        reference = sign_reference.normal_ordered_sign_tables(lattice, parities)
        assert tables.tobytes() == reference.tobytes()


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


def test_cached_sign_tables_equal_a_fresh_derivation(cold_caches):
    lattices = list(MAPPING_LATTICES) + [LatticeSpec(*shape) for shape, _ in SIGN_TABLE_DIGESTS]
    keys = [(lattice, parity) for lattice in lattices for parity in _parity_patterns(lattice)]
    cached = [derive_sign_functions(lattice, parity) for lattice, parity in keys]
    mapping._sign_tables.cache_clear()
    for (lattice, parity), table in zip(keys, cached):
        fresh = derive_sign_functions(lattice, parity)
        assert fresh is not table and fresh.tobytes() == table.tobytes()


@pytest.mark.parametrize("even_first", [True, False], ids=["even-first", "checkerboard-first"])
def test_sign_cache_key_holds_the_parity(cold_caches, even_first):
    lattice = LatticeSpec(4, 4)
    even, checkerboard = _parity_patterns(lattice)
    order = [(False, even), (True, checkerboard)]
    for mixed, parity in order if even_first else order[::-1]:
        tables = derive_sign_functions(lattice, parity)
        assert hashlib.sha256(tables.tobytes()).hexdigest() == SIGN_TABLE_DIGESTS[((4, 4), mixed)]


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
@pytest.mark.parametrize("shape", [(3, 1), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 3)],
                         ids=["3x1", "3x2", "3x3", "4x3", "3x4", "4x4", "5x3"])
def test_oracle_equivalence_with_bulk_columns(shape, mixed):
    # bulk columns run the branch l' = r' + u + d with r' = 1
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(400 + 10 * shape[1] + shape[0] + mixed)
    for _ in range({3: 4, 6: 4, 9: 2, 12: 1, 15: 1, 16: 1}[lattice.n_sites]):
        bits = np.arange(lattice.n_sites) % 2 if mixed else np.zeros(lattice.n_sites)
        bits = rng.permutation(bits)
        parity = {s: int(b) for s, b in zip(lattice.sites(), bits)}
        tensors = {
            s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()
        }
        mapped = map_tensor_set(lattice, tensors, parity)
        assert np.any(mapped[(2, 1)][:, :, :, :, 1] != 0)
        assert_oracle_matches_contraction(lattice, tensors, parity)


def test_parity_transport_telescopes():
    # the primed index of every bulk tensor equals the vertical parity sum
    # accumulated from the boundary column: r'(h) = sum_{j > h} (u_j + d_j)
    lattice = LatticeSpec(3, 1)
    rng = np.random.default_rng(5)
    tensors = {s: FPEPSTensor.random(rng, parity=0) for s in lattice.sites()}
    mapped = map_tensor_set(lattice, tensors)
    for h in (2, 3):
        B = mapped[(h, 1)]
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
    assert all(np.array_equal(with_arg[s], without[s]) for s in lattice.sites())


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
    entries, parity = stack_sets(lattice, sets)
    oracle = build_stack(lattice, entries)
    spin = map_stack(lattice, entries, parity)
    amps = contract_stack(lattice, spin)
    assert oracle.shape == amps.shape == (n_sets, 2**lattice.n_sites)
    for i, tensors in enumerate(sets):
        assert np.array_equal(oracle[i], build_fpeps(lattice, tensors).amplitudes)
        mapped = map_tensor_set(lattice, tensors)
        assert all(np.array_equal(spin[i, m], mapped[s])
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
        stack_sets(lattice, [first, second, flipped])
    assert str(refused.value) == "tensor sets disagree on the parity of sites [(2, 1)]"


def test_stack_of_no_sets_is_refused():
    # no set has no parity pattern to return
    with pytest.raises(ContractViolationError, match="no tensor sets"):
        stack_sets(LatticeSpec(2, 2), [])


def _without_site_2_1(tensors):
    return {s: t for s, t in tensors.items() if s != (2, 1)}


SET_ENTRY_POINTS = {
    "build_fpeps": lambda lattice, tensors: build_fpeps(lattice, _without_site_2_1(tensors)),
    "map_tensor_set": lambda lattice, tensors: map_tensor_set(lattice, _without_site_2_1(tensors)),
    "contract_peps": lambda lattice, tensors: contract_peps(
        lattice, _without_site_2_1(map_tensor_set(lattice, tensors))),
    "dump_tensor_set": lambda lattice, tensors: dump_tensor_set(
        lattice, None, _without_site_2_1(tensors)),
    "dump_peps_set": lambda lattice, tensors: dump_peps_set(
        lattice, _without_site_2_1(map_tensor_set(lattice, tensors))),
}


@pytest.mark.parametrize("entry_point", list(SET_ENTRY_POINTS))
def test_every_set_entry_point_refuses_a_missing_site_alike(entry_point):
    # the two dump functions used to raise a bare KeyError
    lattice = LatticeSpec(2, 2)
    _, tensors = _drawn_set(lattice, 8)
    with pytest.raises(ContractViolationError) as refused:
        SET_ENTRY_POINTS[entry_point](lattice, tensors)
    assert str(refused.value) == "missing tensors for sites [(2, 1)]"


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (3, 2)])
def test_random_stack_draws_one_16_by_2_block_per_tensor(shape):
    # set i consumes rngs[i] as one (16, 2) draw per site in turn, written
    # (re, im) into the parity-allowed entries in C order
    lattice = LatticeSpec(*shape)
    parity = tuple(i % 2 for i in range(lattice.n_sites))[::-1]
    rngs = [np.random.default_rng(40 + i) for i in range(3)]
    entries = random_stack(rngs, parity)
    assert entries.shape == (3, lattice.n_sites) + (2,) * 5
    assert not forbidden_entries(entries, parity).any()
    index_parity = np.indices((2,) * 5).sum(axis=0) % 2
    for i in range(3):
        rng = np.random.default_rng(40 + i)
        for m, p in enumerate(parity):
            z = rng.standard_normal((16, 2))
            expected = np.zeros((2,) * 5, dtype=complex)
            expected[index_parity == p] = z[:, 0] + 1j * z[:, 1]
            assert np.array_equal(entries[i, m], expected)
        # and leaves the generator where those draws leave it
        assert rngs[i].random() == rng.random()


def test_random_stack_refuses_a_parity_other_than_0_or_1():
    with pytest.raises(ContractViolationError, match="parity must be 0 or 1, got 2"):
        random_stack([np.random.default_rng(0)], (0, 2))


def _with_zeros(entries, rng):
    """``entries`` with about a third of them, allowed ones included, set to exactly 0."""
    return np.where(rng.random(entries.shape) < 0.3, 0.0, entries)


@pytest.mark.parametrize("shape", [(h, v) for h in range(1, 5) for v in range(1, 4)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_map_stack_equals_the_scatter_reference(cold_caches, shape):
    # even, checkerboard and drawn patterns on stacks of three sets; a zero at
    # an allowed entry is gathered and signed, and must still be written 0.0
    lattice = LatticeSpec(*shape)
    rng = np.random.default_rng(950 + 10 * shape[0] + shape[1])
    patterns = [(0,) * lattice.n_sites, tuple((h + v) % 2 for h, v in lattice.sites()),
                tuple(rng.integers(0, 2, lattice.n_sites).tolist())]
    stacks = [(_with_zeros(random_stack([rng] * 3, parity), rng), parity) for parity in patterns]
    # the example tensor's entry [0, 0, 0, 0, 0] is exactly 1 + 0j
    stacks.append(stack_sets(lattice, [example_tensor_set(lattice)] * 2))
    for entries, parity in stacks:
        reference = sign_reference.scatter_map_stack(lattice, entries, parity)
        assert map_stack(lattice, entries, parity).tobytes() == reference.tobytes()


def test_map_stack_writes_no_negative_zero():
    # real and imaginary entries and zeros: a part that is 0 is written as
    # 0.0 whatever the sign it is multiplied by
    lattice = LatticeSpec(3, 2)
    rng = np.random.default_rng(17)
    parity = tuple(rng.integers(0, 2, lattice.n_sites).tolist())
    drawn = _with_zeros(random_stack([rng] * 4, parity), rng)
    spin = map_stack(lattice, np.concatenate([drawn.real + 0j, 1j * drawn.imag]), parity)
    parts = spin.view(float)
    assert not np.signbit(parts[parts == 0]).any()


def _checkerboard_set(lattice, seed):
    parity = {(h, v): (h + v) % 2 for h, v in lattice.sites()}
    rng = np.random.default_rng(seed)
    return parity, {s: FPEPSTensor.random(rng, parity[s]) for s in lattice.sites()}


def _replaced(parity, site, value):
    return {**parity, site: value}


# map_tensor_set's parity argument on the 3x2 checkerboard, whose site (1, 1)
# is even and (2, 1) odd: the argument, then the refusal's message or None
PARITY_ARGUMENTS = {
    "dict": lambda p: (dict(p), None),
    "wrapped-keys": lambda p: ({(h + 3, v - 2): c for (h, v), c in p.items()}, None),
    "one-wrapped-key": lambda p: ({(4, 1) if s == (1, 1) else s: c for s, c in p.items()}, None),
    "list-of-pairs": lambda p: (list(p.items()), None),
    "extra-agreeing-key": lambda p: ({**p, (4, 1): 0}, None),
    "extra-disagreeing-key": lambda p: (
        {**p, (4, 1): 1}, "parity argument disagrees with the tensors' parity at sites [(1, 1)]"),
    "missing-site": lambda p: (
        {s: c for s, c in p.items() if s != (2, 2)}, "parity assignment missing sites [(2, 2)]"),
    "value-2": lambda p: (_replaced(p, (2, 1), 2), "site parities must be 0 or 1, got {(2, 1): 2}"),
    "value-minus-1": lambda p: (
        _replaced(p, (2, 1), -1), "site parities must be 0 or 1, got {(2, 1): -1}"),
    "value-1.7": lambda p: (
        _replaced(p, (2, 1), 1.7), "site parities must be 0 or 1, got {(2, 1): 1.7}"),
    "True": lambda p: (_replaced(p, (2, 1), True), None),
    "int64-1": lambda p: (_replaced(p, (2, 1), np.int64(1)), None),
    "float-0": lambda p: (_replaced(p, (1, 1), 0.0), None),
    "True-on-even": lambda p: (
        _replaced(p, (1, 1), True),
        "parity argument disagrees with the tensors' parity at sites [(1, 1)]"),
    "one-disagreeing-site": lambda p: (
        _replaced(p, (2, 2), 1),
        "parity argument disagrees with the tensors' parity at sites [(2, 2)]"),
}


@pytest.mark.parametrize("case", list(PARITY_ARGUMENTS))
def test_map_tensor_set_parity_argument(case):
    lattice = LatticeSpec(3, 2)
    parity, tensors = _checkerboard_set(lattice, 31)
    argument, refusal = PARITY_ARGUMENTS[case](parity)
    if refusal is None:
        mapped = map_tensor_set(lattice, tensors, argument)
        without = map_tensor_set(lattice, tensors)
        assert all(mapped[s].tobytes() == without[s].tobytes()
                   for s in lattice.sites())
    else:
        with pytest.raises(ContractViolationError) as refused:
            map_tensor_set(lattice, tensors, argument)
        assert str(refused.value) == refusal
