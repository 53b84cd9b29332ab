"""Command-line driver: verification suites and data generation.

Machine-readable results (JSON/CSV) go to --out or stdout; human summaries
go to stderr.  Exit codes: 0 all checks passed / data written, 1 at least
one check failed, 2 configuration or precondition error.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys

import numpy as np

from . import io as fio
from .build import build_stack
from .contraction import contract_stack
from .critical import (
    closed_form_ratios,
    entropy_scan,
    example_channel,
    gap_scan,
    hcrit_coefficients,
    norm_zero_locator,
    odd_torus,
)
from .correlators import _scan_floats, correlation_scan
from .errors import ContractViolationError, FpepsError, ZeroNormError, refuse_over_limit
from .fock import normalized_overlaps
from .gaussian import (
    apply_channel,
    g_hat,
    gamma_out_hat,
    lattice_bond_cm,
    physical_cm_from_blocks,
)
from .lattice import LatticeSpec, parse_lattice
from .mapping import map_stack, map_tensor_set
from .quadratic import ground_state_cm_consistency, parent_hamiltonian, single_particle_spectrum
from .tensors import random_stack

MAPPING_LATTICES = (LatticeSpec(1, 2), LatticeSpec(2, 1), LatticeSpec(2, 2))
MAPPING_STACK = 64  # the most tensor sets checked as one stack; see the charges below
CONVERT_SITE_FLOATS = 1100  # charged per site of a convert; see the charges below

# A request whose arrays would pass errors.MAX_FLOATS (1 GiB) is refused
# before anything is allocated.  What each command holds, measured:
# * verify's gaussian suite: at most four (8 N)^2 float arrays of the dense
#   lattice channel for N sites (D, the bond covariance, their difference
#   and one LU copy of it) next to smaller ones (B, A, B's solve).  Charged
#   five; traced at 0.74 of that to 17x17, 0.88 from 19x19 (its rcond inverse).
# * spectrum: 52-53 floats per momentum of --lattice (the levels as Python
#   tuples, and the text) and 34-35 per momentum of the largest of --sizes,
#   traced from 101^2 to 401^2; charged 56 and 40.
# * entropy: 24 floats per torus site, then 8 of them next to 1.50
#   (2 L^2)^2 arrays for the largest block length L: the block's covariance,
#   copied once from a window of the displacement array, and two L^2 x L^2
#   arrays, R = A - C and R^T R.  The chirality checks run in R's array
#   before it holds R, so they peak lower; A, C and B are slices of the
#   covariance.  Traced at torus 61-801 and L = 20-50; charged 24 per site
#   plus two such arrays.
# * convert: 986-1,013 floats per site of a set with every allowed entry
#   nonzero, all of it while the input file is read (its text, then its
#   parsed document next to the entry arrays).  The mapped set, with the
#   mapping's cached gather plan (up to 96 floats per site), is written as
#   one chunk of JSON text per site and peaks lower.  Traced with every
#   cache empty from 10x10 to 100x100, 3x300 and 300x3; charged
#   CONVERT_SITE_FLOATS once the lattice is read.
# * verify's mapping suite: one stack of tensor sets (drawn tensors, oracle,
#   spin tensors, contraction) peaks at 7.6-8.1 KiB per set on 1x2 and 2x1
#   and 31.3 KiB on 2x2 (oracle 11.0, mapped contraction 29.0), traced with
#   stacks of 64 and 256; MAPPING_STACK sets per stack keep it under 2.2 MiB.
#   The report's checks and JSON text add 98-104 floats per set from 4000 to
#   16000 sets; at 2000 sets the stacks put the peak at 169: charged 176.


def _emit(text, out_path, end: str = ""):
    """Write ``text`` and then ``end`` to ``out_path``, or to stdout.

    ``text`` is one str, or an iterable of str chunks written as they come.
    """
    chunks = (text,) if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(chunks)
            fh.write(end)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write(end)


# ---------------------------------------------------------------------------
# verify


def _residual_check(name: str, residual, tolerance: float, **extra) -> dict:
    return {"name": name, **extra, "residual": residual, "tolerance": tolerance,
            "passed": bool(residual <= tolerance)}


def _zero_norm_check(name: str, momenta, error: str) -> dict:
    return {"name": name, "passed": False,
            "zero_norm_momenta": [list(p) for p in momenta], "error": error}


def _mapping_checks(seed: int, n_sets: int, tolerance: float):
    """Set i is drawn from ``default_rng(seed + i)`` on ``MAPPING_LATTICES[i % 3]``.

    The sets of one lattice are checked as stacks of at most
    ``MAPPING_STACK``: one oracle build, one mapping, one contraction and
    one normalized overlap per stack.  A set's residual does not depend on
    the stack it is in.
    """
    checks = [None] * n_sets
    for j, lattice in enumerate(MAPPING_LATTICES):
        indices = range(j, n_sets, len(MAPPING_LATTICES))
        for start in range(0, len(indices), MAPPING_STACK):
            chunk = indices[start:start + MAPPING_STACK]
            parity = (0,) * lattice.n_sites
            entries = random_stack([np.random.default_rng(seed + i) for i in chunk], parity)
            oracle = build_stack(lattice, entries)
            contracted = contract_stack(lattice, map_stack(lattice, entries, parity))
            residuals = np.abs(normalized_overlaps(oracle, contracted) - 1.0)
            for i, residual in zip(chunk, residuals.tolist()):
                checks[i] = _residual_check(f"mapping-overlap-{lattice.n_h}x{lattice.n_v}-{i}",
                                            residual, tolerance, seed=seed + i)
    return checks


def _gaussian_checks(lattice: LatticeSpec, seed: int, tolerance: float):
    channel = example_channel()
    size = f"{lattice.n_h}x{lattice.n_v}"
    rng = np.random.default_rng(seed)

    phis = rng.uniform(0, 2 * np.pi, (100, 2))
    out = gamma_out_hat(channel, phis)
    rp, rq = closed_form_ratios(phis)
    # cross-multiplied: p/d and q/d lose precision near the removable
    # zeros of d on the phi_i = pi lines, while p, q and d do not
    den = -1.0 + np.sin(phis[:, 0]) * np.sin(phis[:, 1])
    residual = float(np.max(np.abs([
        den * (out.p - out.d * rp), den * (out.q.real - out.d * rq), out.q.imag,
    ])))
    checks = [_residual_check("closed-form-ratios", residual, tolerance)]

    report = norm_zero_locator(lattice)
    if not report.state_defined:
        checks.append(_zero_norm_check(
            f"fourier-equivalence-{size}", report.essential,
            "state undefined: essential zero-norm momenta on this lattice"))
        return checks

    out = gamma_out_hat(channel, lattice.momenta())
    defined = ~out.zero_norm
    g = g_hat(out.p[defined], out.q[defined], out.d[defined])
    purity = float(np.max(np.abs(g @ g + np.eye(2)), initial=0.0))
    checks.append(_residual_check(f"momentum-purity-{size}", purity, tolerance))

    def dense_difference():
        # the momentum route first: on a lattice with removable zero-norm
        # momenta it refuses naming them, where the dense route only sees
        # a rounding-level determinant
        assembled = physical_cm_from_blocks(channel, lattice)
        big = channel.expand_to_lattice(lattice.n_sites)
        direct = apply_channel(big, lattice_bond_cm(lattice))
        return float(np.max(np.abs(direct.matrix - assembled.matrix)))

    for name, compute in (
        (f"fourier-equivalence-{size}", dense_difference),
        (f"parent-consistency-{size}", lambda: ground_state_cm_consistency(channel, lattice)),
    ):
        try:
            checks.append(_residual_check(name, compute(), tolerance))
        except ZeroNormError as exc:
            checks.append(_zero_norm_check(name, exc.momenta, str(exc)))
    return checks


def cmd_verify(args) -> int:
    lattice = parse_lattice(args.lattice)
    if not 0.0 < args.tolerance < np.inf:
        raise ContractViolationError(
            f"--tolerance must be positive and finite, got {args.tolerance}")
    if args.seed < 0:
        raise ContractViolationError(f"--seed must be non-negative, got {args.seed}")
    if args.suite in ("mapping", "all"):
        if args.sets < 1:
            raise ContractViolationError(f"--sets must be at least 1, got {args.sets}")
        refuse_over_limit(176 * args.sets, f"--sets {args.sets}")
    if args.suite in ("gaussian", "all"):
        refuse_over_limit(5 * (8 * lattice.n_sites) ** 2, f"--lattice {lattice.n_h}x{lattice.n_v}")
    checks = []
    if args.suite in ("mapping", "all"):
        checks.extend(_mapping_checks(args.seed, args.sets, args.tolerance))
    if args.suite in ("gaussian", "all"):
        checks.extend(_gaussian_checks(lattice, args.seed, args.tolerance))
    passed = all(c["passed"] for c in checks)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "lattice": [lattice.n_h, lattice.n_v],
        "tolerance": args.tolerance,
        "checks": checks,
        "passed": passed,
    }
    _emit(fio.json_text(report), args.out, end="\n")
    n_pass = sum(1 for c in checks if c["passed"])
    print(f"verify: {n_pass}/{len(checks)} checks passed", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# data generation


def cmd_correlations(args) -> int:
    repeated = [d for i, d in enumerate(args.dir) if d in args.dir[:i]]
    if repeated:
        raise ContractViolationError(f"--dir {repeated[0]} is given more than once")
    for direction in args.dir:  # every scan is charged before the first one runs
        refuse_over_limit(_scan_floats(direction, args.max_n, args.grid), "quadrature rule")
    rows = []
    for direction in args.dir:
        rows.extend(correlation_scan(direction, args.max_n, args.grid))
    # the residue column is the independent reference of the numeric one
    error = max(abs(numeric - residue) for _n1, _n2, _kind, numeric, residue, _asym in rows)
    text = "n1,n2,kind,numeric,residue,asymptotic\n" + "".join(
        f"{n1},{n2},{kind},{numeric!r},{residue!r},{asym!r}\n"
        for n1, n2, kind, numeric, residue, asym in rows)
    _emit(text, args.out)
    print(f"correlations: wrote {len(rows)} rows, "
          f"quadrature error estimate {error:.1e}", file=sys.stderr)
    return 0


def cmd_hamiltonian(args) -> int:
    table = hcrit_coefficients()
    lines = ["term,dh,dv,re,im"]
    for (dh, dv), c in sorted(table.pairing.items()):
        lines.append(f"pairing,{dh},{dv},{c.real + 0.0!r},{c.imag + 0.0!r}")
    for (dh, dv), c in sorted(table.hopping.items()):
        lines.append(f"hopping,{dh},{dv},{c.real + 0.0!r},{c.imag + 0.0!r}")
    lines.append(f"mu,0,0,{table.mu + 0.0!r},0.0")
    _emit("\n".join(lines), args.out, end="\n")
    print("hamiltonian: coefficient table written", file=sys.stderr)
    return 0


def cmd_spectrum(args) -> int:
    if args.sizes is not None:
        sizes = _int_list(args.sizes, "--sizes")
        largest = max(sizes, default=0)
        refuse_over_limit(40 * largest**2, f"the {largest}x{largest} torus of --sizes")
        rows = gap_scan(sizes)
        text = "N,gap\n" + "".join(f"{n},{g!r}\n" for n, g in rows)
        _emit(text, args.out)
        print(f"spectrum: gap scan over {len(rows)} sizes", file=sys.stderr)
        return 0

    lattice = odd_torus(parse_lattice(args.lattice))
    refuse_over_limit(56 * lattice.n_sites, f"--lattice {lattice.n_h}x{lattice.n_v}")
    ham = parent_hamiltonian(example_channel(), radius_cap=2)
    spectrum, _gap = single_particle_spectrum(ham, lattice)
    # written as they are formatted: a joined text would hold every row twice
    rows = (f"{p1!r},{p2!r},{eps!r}\n{p1!r},{p2!r},{-eps!r}\n" for (p1, p2), eps in spectrum)
    _emit(itertools.chain(["phi1,phi2,energy\n"], rows), args.out)
    print(f"spectrum: {2 * len(spectrum)} levels written", file=sys.stderr)
    return 0


def _int_list(text: str, flag: str) -> list[int]:
    """A comma-separated list of distinct integers; empty items are skipped."""
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ContractViolationError(f"cannot parse {flag} {text!r}") from exc
    seen = set()
    for value in values:
        if value in seen:  # it would write its row twice
            raise ContractViolationError(f"{flag} {value} is given more than once")
        seen.add(value)
    return values


def _block_lengths(text: str, torus: int) -> list[int]:
    """``--blocks``: a range ``a..b`` inside ``1..torus-1``, or a comma list."""
    if ".." not in text:
        return _int_list(text, "--blocks")
    try:
        lo, hi = (int(tok) for tok in text.split(".."))
    except ValueError as exc:
        raise ContractViolationError(f"cannot parse --blocks {text!r}") from exc
    # checked before the range is listed, so a huge upper end allocates nothing
    if not 0 < lo <= hi < torus:
        raise ContractViolationError(
            f"--blocks range {text!r} must be non-empty and inside 1..{torus - 1}"
        )
    return list(range(lo, hi + 1))


def cmd_entropy(args) -> int:
    odd_torus(LatticeSpec(args.torus, args.torus))  # before --blocks is read against it
    if args.torus < 3:
        raise ContractViolationError(
            f"a {args.torus}x{args.torus} torus has no block length; entropy needs at least 3x3")
    lengths = _block_lengths(args.blocks, args.torus)
    length = max(lengths, default=0)
    refuse_over_limit(24 * args.torus**2 + 2 * (2 * length**2) ** 2,
                      f"block length {length} on the {args.torus}-torus")
    rows = entropy_scan(args.torus, lengths)
    text = "L,entropy_bits\n" + "".join(f"{l},{s!r}\n" for l, s in rows)
    _emit(text, args.out)
    print(f"entropy: scan over {len(rows)} block sizes", file=sys.stderr)
    return 0


def cmd_convert(args) -> int:
    lattice, _, tensors = fio.load_tensor_set(args.input)
    refuse_over_limit(CONVERT_SITE_FLOATS * lattice.n_sites,
                      f"convert of the {lattice.n_h}x{lattice.n_v} lattice")
    mapped = map_tensor_set(lattice, tensors)
    _emit(fio.peps_set_chunks(lattice, mapped), args.output, end="\n")
    print(f"convert: mapped {lattice.n_sites} tensors", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises its command-line errors, so that main reports them in one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word such as -1e-3 or -inf is a value for its flag's own check, not an option
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ContractViolationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged: every call fills a fresh namespace.
    """
    parser = _Parser(
        prog="fpeps",
        description="fermionic PEPS: verification suites and model data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("mapping", "gaussian", "all"), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sets", type=int, default=51,
                   help="number of random tensor sets for the mapping suite")
    p.add_argument("--lattice", default="3x3")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("correlations", help="two-point correlator tables")
    p.add_argument("--dir", action="append", required=True,
                   choices=("axis", "diagonal", "n-2n"))
    p.add_argument("--max-n", type=int, default=40)
    p.add_argument("--grid", type=int, default=401,
                   help="minimum quadrature nodes per axis (odd, >= 101)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_correlations)

    p = sub.add_parser("hamiltonian", help="parent-model coupling table")
    p.add_argument("--model", choices=("example",), default="example")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("spectrum", help="single-particle spectra and gaps")
    p.add_argument("--sizes", default=None,
                   help="comma-separated odd torus sizes for a gap scan")
    p.add_argument("--lattice", default="5x5")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("entropy", help="block entanglement entropy scan")
    p.add_argument("--torus", type=int, default=41)
    p.add_argument("--blocks", default="3..8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("convert", help="map a fermionic tensor set to spin tensors")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # argparse hands `--opt=--` over as an empty list, unconverted and
        # unchecked against its choices (inside a list for --dir)
        for name, value in vars(args).items():
            if value in ("", []) or (isinstance(value, list) and [] in value):
                raise ContractViolationError(f"--{name.replace('_', '-')} needs a value")
        # the command is looked up by name when it runs, not taken from the
        # parser built once: a wrapper that replaces a cmd_* of this module
        # later (perfbench's tracer) still sees the call
        return globals()[args.func.__name__](args)
    except (FpepsError, OSError) as exc:
        # one line, whatever line breaks an argument or a path carries
        print("error: " + str(exc).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
