"""The benchmark's workloads: seeded inputs, timed items and their checks.

Each workload is a list of items run back to back by one caller.  An item's
``call`` is the timed part, made of calls into ``fpeps``; its ``check``
compares the result against the tolerance of the acceptance criterion it
mirrors and raises :class:`CheckFailure` when the result misses it.

Calls go through module attributes (``build.build_fpeps``, not an imported
name) so that the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io as textio
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fpeps import (
    build,
    cli,
    contraction,
    critical,
    fock,
    gaussian,
    io,
    mapping,
    quadratic,
)
from fpeps.lattice import LatticeSpec
from fpeps.tensors import FPEPSTensor

OVERLAP_TOL = 1e-10        # criterion 01
COVARIANCE_3X3_TOL = 1e-8  # projector state against the dense channel output
GAUSSIAN_TOL = 1e-10       # criteria 02, 03 and 05
GROUND_ENERGY_TOL = 1e-9   # criterion 05, dense diagonalisation
CORRELATOR_TOL = 1e-8      # criterion 07
CORRUPTION = 1e-6          # size of the reference error the self-check injects

HEALTH = (
    "mapping.max_overlap_defect",
    "gaussian.max_fourier_dense_diff",
    "gaussian.max_ratio_defect",
    "correlators.max_numeric_residue_diff",
)


class CheckFailure(Exception):
    """An item's result misses its acceptance tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


@dataclass
class Item:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    items: list[Item] = field(default_factory=list)
    warmup: Item | None = None
    health: dict[str, float] = field(default_factory=lambda: dict.fromkeys(HEALTH, 0.0))
    workdir: Path | None = None

    def record(self, key: str, value: float) -> None:
        self.health[key] = max(self.health[key], float(value))

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


# ---------------------------------------------------------------------------
# exact_mapping: claim one, the sign-exact mapping to spin PEPS


def _random_set(rng: np.random.Generator, lattice: LatticeSpec, mixed: bool):
    parity = {s: int(rng.integers(0, 2)) if mixed else 0 for s in lattice.sites()}
    tensors = {s: FPEPSTensor.random(rng, parity=parity[s]) for s in lattice.sites()}
    return parity, tensors


def exact_mapping(seed: int, tiny: bool = False, corrupt: bool = False, root=None) -> Workload:
    """Random tensor sets on 1x2 .. 3x2 plus the critical example on 3x3.

    Every set is built as a dense oracle (cap lifted to its mode count),
    mapped, contracted and compared by normalized overlap; the 3x3 item is
    the only one that runs the three-column bulk branch of the mapping.
    """
    shapes = ((1, 2), (2, 1)) if tiny else ((1, 2), (2, 1), (2, 2), (3, 1), (3, 2))
    rng = np.random.default_rng(seed)
    wl = Workload()

    def set_item(name, lattice, parity, tensors, expected):
        def call():
            oracle = build.build_fpeps(lattice, tensors, cap=5 * lattice.n_sites)
            mapped = mapping.map_tensor_set(lattice, tensors, parity)
            return oracle.normalized_overlap(contraction.contract_peps(lattice, mapped))

        def check(overlap):
            defect = abs(overlap - expected)
            wl.record("mapping.max_overlap_defect", defect)
            require(defect <= OVERLAP_TOL, f"{name}: |overlap - 1| = {defect:.3e}")

        return Item(name, call, check)

    for cycle in range(1 if tiny else 2):
        for nh, nv in shapes:
            lattice = LatticeSpec(nh, nv)
            for mixed in (False, True):
                parity, tensors = _random_set(rng, lattice, mixed)
                expected = 1.0 + (CORRUPTION if corrupt and not wl.items else 0.0)
                name = f"set-{nh}x{nv}-{'mixed' if mixed else 'even'}-{cycle}"
                wl.items.append(set_item(name, lattice, parity, tensors, expected))

    example = LatticeSpec(1, 1) if tiny else LatticeSpec(3, 3)
    n = example.n_sites
    example_tensors = critical.example_tensor_set(example)
    flip = np.diag([1.0] * n + [-1.0] * n)

    def example_call():
        state = contraction.contract_peps(example, mapping.map_tensor_set(example, example_tensors))
        dense = gaussian.apply_channel(
            critical.example_channel().expand_to_lattice(n), gaussian.lattice_bond_cm(example)
        )
        return fock.covariance_matrix(state), dense.matrix

    def example_check(result):
        cm, gamma = result
        diff = float(np.max(np.abs(cm - flip @ gamma @ flip)))
        require(diff <= COVARIANCE_3X3_TOL, f"example covariance differs by {diff:.3e}")

    wl.items.append(Item(f"example-{example.n_h}x{example.n_v}", example_call, example_check))
    wl.warmup = wl.items[0]
    return wl


# ---------------------------------------------------------------------------
# gaussian_torus: claim two, the parent Hamiltonian of the Gaussian fPEPS


def gaussian_torus(seed: int, tiny: bool = False, corrupt: bool = False, root=None) -> Workload:
    """The checks of ``verify --suite gaussian`` on odd tori, spectra and entropies.

    The consistency residual grows as 1/gap (about N^2): it is 1.06e-10 at
    N = 13 and 1.41e-10 at N = 15.  Its tolerance is criterion 05's 1e-10
    on the 7x7 torus, the largest that criterion uses, scaled by
    gap(7) / gap(N).  A ratio p/d loses absolute accuracy where d vanishes
    (the removable zeros on phi_i = pi), so the ratio tolerance is 1e-10
    divided by min(1, |d|); the absolute worst is reported as
    ``gaussian.max_ratio_defect``.
    """
    tori = (5,) if tiny else (5, 9, 11, 15)
    spectra = (11,) if tiny else (51, 101, 201)
    entropy_torus, lengths = (7, (2,)) if tiny else (61, (10, 20, 30))
    n_random = 10 if tiny else 100
    rng = np.random.default_rng(seed)
    channel = critical.example_channel()
    ham = quadratic.parent_hamiltonian(channel, radius_cap=2)
    gaps = {n: quadratic.single_particle_spectrum(ham, LatticeSpec(n, n))[1]
            for n in sorted({7, *tori})}
    wl = Workload()

    def ratios_item(n):
        lattice = LatticeSpec(n, n)
        phis = list(lattice.momenta()) + [tuple(p) for p in rng.uniform(0.0, 2 * np.pi, (n_random, 2))]
        shift = CORRUPTION if corrupt and not wl.items else 0.0

        def call():
            return [gaussian.gamma_out_hat(channel, phi) for phi in phis]

        def check(blocks):
            for phi, fb in zip(phis, blocks):
                rp, rq = critical.closed_form_ratios(phi)
                defect = max(abs(fb.p / fb.d - rp - shift), abs(fb.q.real / fb.d - rq),
                             abs(fb.q.imag / fb.d))
                wl.record("gaussian.max_ratio_defect", defect)
                tol = GAUSSIAN_TOL / min(1.0, abs(fb.d))
                require(defect <= tol, f"ratios at {phi}: {defect:.3e} > {tol:.3e}")

        return Item(f"ratios-{n}", call, check)

    def fourier_item(n):
        lattice = LatticeSpec(n, n)

        def call():
            dense = gaussian.apply_channel(
                channel.expand_to_lattice(lattice.n_sites), gaussian.lattice_bond_cm(lattice)
            )
            return dense.matrix, gaussian.physical_cm_from_blocks(channel, lattice).matrix

        def check(result):
            diff = float(np.max(np.abs(result[0] - result[1])))
            wl.record("gaussian.max_fourier_dense_diff", diff)
            require(diff <= GAUSSIAN_TOL, f"fourier-{n}: dense and momentum routes differ by {diff:.3e}")

        return Item(f"fourier-{n}", call, check)

    def consistency_item(n):
        lattice = LatticeSpec(n, n)
        tol = GAUSSIAN_TOL * max(1.0, gaps[7] / gaps[n])

        def check(residual):
            require(residual <= tol, f"consistency-{n}: residual {residual:.3e} > {tol:.3e}")

        return Item(f"consistency-{n}",
                    lambda: quadratic.ground_state_cm_consistency(channel, lattice), check)

    for n in tori:
        wl.items += [ratios_item(n), fourier_item(n), consistency_item(n)]

    small = LatticeSpec(3, 3)
    registry = fock.ModeRegistry(tuple(("a", s) for s in small.sites()))
    h_small = ham.materialize(small)

    def energy_call():
        e_dense, _ = fock.exact_ground_state(h_small, registry)
        gamma = gaussian.apply_channel(channel.expand_to_lattice(small.n_sites),
                                       gaussian.lattice_bond_cm(small))
        return e_dense, quadratic.energy_expectation(h_small, gamma)

    def energy_check(result):
        diff = abs(result[0] - result[1])
        require(diff <= GROUND_ENERGY_TOL, f"3x3 ground energy differs by {diff:.3e}")

    wl.items.append(Item("ground-energy-3x3", energy_call, energy_check))

    def spectrum_item(m):
        def check(result):
            levels, gap = result
            energies = np.array([e for _, e in levels])
            require(len(levels) == m * m, f"spectrum-{m}: {len(levels)} momenta")
            require(bool(np.all(np.isfinite(energies)) and np.all(energies > 0.0)),
                    f"spectrum-{m}: non-positive level")
            require(gap == energies.min(), f"spectrum-{m}: gap is not the lowest level")

        return Item(f"spectrum-{m}",
                    lambda: quadratic.single_particle_spectrum(ham, LatticeSpec(m, m)), check)

    wl.items += [spectrum_item(m) for m in spectra]

    first_entropy: dict[int, float] = {}

    def entropy_item(length):
        def call():
            blocks = critical.ground_state_blocks(entropy_torus)
            gamma = critical.block_covariance(blocks, entropy_torus, length)
            return quadratic.block_entropy(gamma, range(length * length))

        def check(entropy):
            require(0.0 < entropy <= length * length, f"entropy-L{length}: {entropy} bits")
            # repeated runs of one configuration give identical numbers
            require(first_entropy.setdefault(length, entropy) == entropy,
                    f"entropy-L{length}: {entropy!r} != {first_entropy[length]!r}")

        return Item(f"entropy-L{length}", call, check)

    wl.items += [entropy_item(length) for length in lengths]
    wl.warmup = wl.items[0]
    return wl


# ---------------------------------------------------------------------------
# readme_cli and readme_correlations: the command lines of README's
# "Command line" section, split so that the two correlation tables (nearly
# all of the time) do not leave the other lines one latency sample a run


README_LINES = (
    "verify --suite mapping --seed {seed}",
    "verify --suite gaussian --lattice 3x3",
    "verify --suite all --lattice 5x5 --out {dir}/report.json",
    "correlations --dir axis --max-n 40 --grid 401 --out {dir}/axis.csv",
    "correlations --dir diagonal --dir n-2n --max-n 20 --out {dir}/rest.csv",
    "hamiltonian --model example",
    "spectrum --lattice 5x5 --out {dir}/levels.csv",
    "spectrum --sizes 5,7,9,11,13 --out {dir}/gaps.csv",
    "entropy --torus 41 --blocks 3..8 --out {dir}/entropy.csv",
    "convert --input {dir}/fpeps.json --output {dir}/peps.json",
)

# Small arguments for the harness self-check; same commands, same order.
TINY_LINES = (
    "verify --suite mapping --seed {seed} --sets 3",
    "verify --suite gaussian --lattice 3x3",
    "verify --suite all --lattice 3x3 --sets 3 --out {dir}/report.json",
    "correlations --dir axis --max-n 1 --grid 101 --out {dir}/axis.csv",
    "correlations --dir diagonal --dir n-2n --max-n 1 --grid 101 --out {dir}/rest.csv",
    "hamiltonian --model example",
    "spectrum --lattice 3x3 --out {dir}/levels.csv",
    "spectrum --sizes 5,7 --out {dir}/gaps.csv",
    "entropy --torus 9 --blocks 2..3 --out {dir}/entropy.csv",
    "convert --input {dir}/fpeps.json --output {dir}/peps.json",
)

CORRELATIONS_WARMUP = "correlations --dir axis --max-n 1 --out {dir}/warmup.csv"


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(textio.StringIO(text)))


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _readme(seed: int, tiny: bool, corrupt: bool, root, correlations: bool) -> Workload:
    """README lines through ``fpeps.cli.main`` in this process.

    ``--out`` files go to a temporary directory inside ``root``.  Every
    output must be byte-identical to the first one this run produced for
    the same line (criterion 10).
    """
    rng = np.random.default_rng(seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    wl = Workload(workdir=workdir)
    verify_seed = int(rng.integers(1, 1_000_000))
    shift = CORRUPTION if corrupt else 0.0

    if not correlations:
        lattice = LatticeSpec(2, 2)
        parity, tensors = _random_set(rng, lattice, mixed=True)
        (workdir / "fpeps.json").write_text(io.dump_tensor_set(lattice, parity, tensors) + "\n")
        oracle = build.build_fpeps(lattice, tensors)
    digests: dict[str, str] = {}

    def check_verify(_argv, text):
        report = json.loads(text)
        require(report["passed"], "verify reported a failed check")
        for entry in report["checks"]:
            if entry["name"].startswith("mapping-overlap"):
                wl.record("mapping.max_overlap_defect", entry["residual"])
            elif entry["name"].startswith("fourier-equivalence"):
                wl.record("gaussian.max_fourier_dense_diff", entry["residual"])

    def check_correlations(argv, text):
        rows = _csv_rows(text)
        n_rows = 2 * int(_flag(argv, "--max-n")) * argv.count("--dir")
        require(len(rows) == n_rows, f"{len(rows)} correlator rows, expected {n_rows}")
        for row in rows:
            diff = abs(float(row["numeric"]) - float(row["residue"]) - shift)
            wl.record("correlators.max_numeric_residue_diff", diff)
            require(diff <= CORRELATOR_TOL,
                    f"correlator {row['n1']},{row['n2']},{row['kind']}: {diff:.3e}")

    def check_hamiltonian(_argv, text):
        table = {(r["term"], int(r["dh"]), int(r["dv"])): complex(float(r["re"]), float(r["im"]))
                 for r in _csv_rows(text)}
        want = {("pairing", 0, 1): 2j + shift, ("pairing", 1, 0): -2j, ("hopping", 1, 1): -1.0}
        for key, value in want.items():
            require(table.get(key) == value, f"coupling {key} = {table.get(key)}, expected {value}")

    def check_spectrum(argv, text):
        rows = _csv_rows(text)
        if "--sizes" in argv:
            gaps = np.array([float(r["gap"]) for r in rows])
            sizes = [int(n) for n in _flag(argv, "--sizes").split(",")]
            require([int(r["N"]) for r in rows] == sizes, "gap scan sizes")
            require(bool(np.all(gaps > 0) and np.all(np.diff(gaps) < 0)),
                    "gap does not close with the torus size")
        else:
            energies = np.array([float(r["energy"]) for r in rows])
            n_h, n_v = (int(n) for n in _flag(argv, "--lattice").split("x"))
            require(len(energies) == 2 * n_h * n_v, f"{len(energies)} levels")
            require(bool(np.all(energies[0::2] > 0) and np.all(energies[1::2] == -energies[0::2])),
                    "levels are not +/- pairs of positive energies")

    def check_entropy(argv, text):
        rows = _csv_rows(text)
        entropies = np.array([float(r["entropy_bits"]) for r in rows])
        lo, hi = (int(n) for n in _flag(argv, "--blocks").split(".."))
        require([int(r["L"]) for r in rows] == list(range(lo, hi + 1)), "entropy block sizes")
        require(bool(np.all(entropies > 0) and np.all(np.diff(entropies) > 0)),
                "entropy does not grow with the block")

    def check_convert(_argv, _text):
        got_lattice, mapped = io.load_peps_set(workdir / "peps.json")
        state = contraction.contract_peps(got_lattice, mapped)
        defect = abs(oracle.normalized_overlap(state) - 1.0)
        wl.record("mapping.max_overlap_defect", defect)
        require(defect <= OVERLAP_TOL, f"converted tensors: |overlap - 1| = {defect:.3e}")

    checks = {
        "verify": check_verify,
        "correlations": check_correlations,
        "hamiltonian": check_hamiltonian,
        "spectrum": check_spectrum,
        "entropy": check_entropy,
        "convert": check_convert,
    }

    def line_item(line):
        argv = line.format(seed=verify_seed, dir=workdir).split()
        out_flag = next((f for f in ("--out", "--output") if f in argv), None)
        out_path = Path(_flag(argv, out_flag)) if out_flag else None
        content_check = checks[argv[0]]

        def call():
            stdout, stderr = textio.StringIO(), textio.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            return code, stdout.getvalue(), stderr.getvalue()

        def check(result):
            code, stdout, stderr = result
            require(code == 0, f"fpeps {line}: exit {code}: {stderr.strip()}")
            data = out_path.read_bytes() if out_path else stdout.encode()
            digest = hashlib.sha256(data).hexdigest()
            require(digests.setdefault(line, digest) == digest,
                    f"fpeps {line}: output differs from this run's first output")
            content_check(argv, data.decode())

        words = line.split()
        return Item(" ".join(words[:words.index(out_flag)] if out_flag else words), call, check)

    lines = TINY_LINES if tiny else README_LINES
    wl.items = [line_item(line) for line in lines
                if line.startswith("correlations") == correlations]
    wl.warmup = line_item(CORRELATIONS_WARMUP if correlations else "hamiltonian --model example")
    return wl


def readme_cli(seed: int, tiny: bool = False, corrupt: bool = False, root=None) -> Workload:
    """Every README command line except the two correlation tables."""
    return _readme(seed, tiny, corrupt, root, correlations=False)


def readme_correlations(seed: int, tiny: bool = False, corrupt: bool = False,
                        root=None) -> Workload:
    """The two README correlation tables (nested quadrature)."""
    return _readme(seed, tiny, corrupt, root, correlations=True)


WORKLOADS = {
    "exact_mapping": exact_mapping,
    "gaussian_torus": gaussian_torus,
    "readme_cli": readme_cli,
    "readme_correlations": readme_correlations,
}
