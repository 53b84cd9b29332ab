"""Spans around the public functions of ``fpeps``, recorded from benchmark code.

A :class:`Tracer` replaces each listed function with a wrapper wherever a
loaded ``fpeps`` module refers to it, so calls the package makes to itself
are seen as well as the benchmark's own calls.  Spans nest: the self time
of a span is its duration minus the time its child spans cover.  Work
counts are taken from arguments and results at the same boundaries.

The program is not changed; :meth:`Tracer.uninstall` puts every original
function back.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _lattice_tag(lattice) -> str:
    return f"{lattice.n_h}x{lattice.n_v}"


def _build_tag(lattice, *_args, **_kwargs):
    if (lattice.n_h, lattice.n_v) == (3, 2):
        return "3x2"
    if lattice.n_h <= 2 and lattice.n_v <= 2:
        return "le2x2"
    return None


def _torus_side(n_sites: int) -> str:
    side = round(n_sites ** 0.5)
    return f"{side}x{side}" if side * side == n_sites else str(n_sites)


@dataclass(frozen=True)
class SpanSpec:
    """One traced function.

    ``tag`` maps the call's arguments to a size label; calls whose label is
    listed in ``tags`` are also recorded under ``<name>.<label>``.
    ``count`` names a work count and maps (args, kwargs, result) to the
    amount added to it.
    """

    name: str
    module: str
    attr: str
    tags: tuple[str, ...] = ()
    tag: Callable | None = None
    count: tuple[str, Callable] | None = None


SPANS = (
    SpanSpec("build.build_fpeps", "build", "build_fpeps", ("3x2", "le2x2"), _build_tag),
    SpanSpec("mapping.derive_sign_functions", "mapping", "derive_sign_functions"),
    SpanSpec("mapping.map_tensor_set", "mapping", "map_tensor_set"),
    SpanSpec("contraction.contract_peps", "contraction", "contract_peps", ("3x3",),
             lambda lattice, *_a, **_k: _lattice_tag(lattice)),
    SpanSpec("fock.normalized_overlap", "fock", "FockVector.normalized_overlap"),
    SpanSpec("fock.covariance_matrix", "fock", "covariance_matrix"),
    SpanSpec("fock.exact_ground_state", "fock", "exact_ground_state"),
    SpanSpec("gaussian.gamma_out_hat", "gaussian", "gamma_out_hat"),
    SpanSpec("gaussian.physical_cm_from_blocks", "gaussian", "physical_cm_from_blocks",
             ("15x15",), lambda _channel, lattice, *_a, **_k: _lattice_tag(lattice)),
    SpanSpec("gaussian.matrix_from_blocks", "gaussian", "matrix_from_blocks"),
    SpanSpec("gaussian.apply_channel", "gaussian", "apply_channel", ("15x15",),
             lambda channel, *_a, **_k: _torus_side(channel.p_modes)),
    SpanSpec("quadratic.minimal_triple", "quadratic", "minimal_triple"),
    SpanSpec("quadratic.parent_hamiltonian", "quadratic", "parent_hamiltonian"),
    SpanSpec("quadratic.single_particle_spectrum", "quadratic", "single_particle_spectrum",
             ("201x201",), lambda _ham, lattice, *_a, **_k: _lattice_tag(lattice),
             ("quadratic.spectrum_momenta", lambda args, _kw, _res: args[1].n_sites)),
    SpanSpec("quadratic.ground_state_cm_consistency", "quadratic",
             "ground_state_cm_consistency"),
    SpanSpec("quadratic.block_entropy", "quadratic", "block_entropy", ("L30",),
             lambda _gamma, modes, *_a, **_k: f"L{round(len(modes) ** 0.5)}",
             ("quadratic.entropy_dim", lambda args, _kw, _res: 2 * len(args[1]))),
    SpanSpec("critical.ground_state_blocks", "critical", "ground_state_blocks"),
    SpanSpec("critical.block_covariance", "critical", "block_covariance", ("L30",),
             lambda _blocks, _torus, length, *_a, **_k: f"L{length}"),
    SpanSpec("correlators.correlation_scan", "correlators", "correlation_scan",
             count=("correlators.numeric_entries", lambda _args, _kw, res: len(res))),
    SpanSpec("correlators.correlator_numeric", "correlators", "correlator_numeric"),
    SpanSpec("correlators.correlator_residue", "correlators", "correlator_residue"),
    SpanSpec("io.load_tensor_set", "io", "load_tensor_set"),
    SpanSpec("io.dump_peps_set", "io", "dump_peps_set"),
    *(SpanSpec(f"cli.{cmd}", "cli", f"cmd_{cmd}")
      for cmd in ("verify", "correlations", "hamiltonian", "spectrum", "entropy", "convert")),
)


def span_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every span and work count, in report order."""
    out = []
    for spec in SPANS:
        for base in (spec.name, *(f"{spec.name}.{t}" for t in spec.tags)):
            out += [(f"{base}.busy_s", "s"), (f"{base}.calls", "count")]
        if spec.count:
            out.append((spec.count[0], "count"))
    return out


class Tracer:
    """Records nested spans while installed and ``active``.

    ``busy`` holds self time and ``span`` whole-span time, both summed per
    function and per size label.

    Benchmark code clears ``active`` while it checks results, so that calls
    made only to check an output are not counted as the program's work.
    """

    def __init__(self):
        self.active = False
        self.busy = defaultdict(float)
        self.span = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, spec: SpanSpec, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            covered = [0.0]
            tracer._stack.append(covered)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += span
                label = spec.tag(*args, **kwargs) if spec.tag else None
                keys = [spec.name] + ([f"{spec.name}.{label}"] if label in spec.tags else [])
                for key in keys:
                    tracer.busy[key] += span - covered[0]
                    tracer.span[key] += span
                    tracer.calls[key] += 1
            if spec.count:
                tracer.counts[spec.count[0]] += spec.count[1](args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for spec in SPANS:
            owner = sys.modules[f"{package.__name__}.{spec.module}"]
            *path, attr = spec.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(spec, original)
            targets = [(owner, attr)] if path else [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original
            ]
            for target, key in targets:
                self._patched.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()
        self.active = False

    def metrics(self, n_passes: int) -> dict[str, float]:
        """Self time, calls and work counts per traced pass."""
        values = {}
        for name, unit in span_metric_names():
            if name.endswith(".busy_s"):
                raw = self.busy[name[: -len(".busy_s")]]
            elif name.endswith(".calls"):
                raw = self.calls[name[: -len(".calls")]]
            else:
                raw = self.counts[name]
            values[name] = (raw / n_passes, unit)
        return values
