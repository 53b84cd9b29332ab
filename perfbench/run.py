"""fpeps benchmark: one workload, one caller, items back to back.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_mapping --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; the run fails with
exit code 2 when it is not there.  Inputs are generated from ``--seed``.
Whole passes over the workload's items run back to back until ``--seconds``
have gone by (at least one pass), so every run measures the same mix of
items.  Every result is checked; a failing item is counted in ``failed``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: the median of three imports of the package (this one and
  two in new interpreters), plus the median of three set-ups (input
  generation and one warm-up item);
* ``wall_s``: median time of one pass;
* ``item_p50_ms``, ``item_p90_ms``: item latencies pooled over the passes;
* ``peak_rss_mb``: peak resident set of this process.

The four times are scaled to a reference machine speed measured in the
same run (see :class:`SpeedProbe`); the unscaled values and the scale are in
the metadata line.

With ``--trace 1`` the first half of ``--seconds`` runs untraced and the
second half traced; the run reports self time and calls per pass for each
traced function, work counts, numerical health values and
``trace.overhead_ratio`` (median traced pass over median untraced pass).

A line of run metadata precedes the result; the result is the last line of
standard output.  A human summary goes to standard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Median time of SpeedProbe.kernel on the 2-core machine the bounds were set
# on, in a quiet phase.  End-to-end times are reported at this speed.
KERNEL_REFERENCE_S = 0.0065
KERNEL_INTERVAL_S = 0.2
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
                "import fpeps, workloads; print(time.perf_counter() - t)")

# Rows of the ROADMAP "Baseline" table: traced metric, seconds per call.
BASELINE = (
    ("gaussian.physical_cm_from_blocks.15x15", 1.30),
    ("gaussian.apply_channel.15x15", 0.76),
    ("quadratic.single_particle_spectrum.201x201", 1.73),
    ("critical.block_covariance.L30", 1.46),
    ("quadratic.block_entropy.L30", 1.76),
    ("build.build_fpeps.3x2", 0.25),
    ("contraction.contract_peps.3x3", 0.69),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)


class SpeedProbe:
    """Times a fixed kernel of Python and numpy work all through a run.

    The speed of a shared machine drifts by tens of percent over minutes,
    for any code.  While the probe is entered, a timer signal runs the
    kernel every ``KERNEL_INTERVAL_S`` (inside long numpy or LAPACK calls it
    waits for the call to return), so the kernel's median time measures the
    speed the run saw, and end-to-end times can be scaled to the speed at
    which the kernel takes ``KERNEL_REFERENCE_S``.  The kernel does not touch
    fpeps, and its own time is taken out of every item and pass.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._index = rng.permutation(1 << 16)
        sym = rng.standard_normal((64, 64))
        self._sym = sym + sym.T
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def kernel(self, *_signal_args) -> None:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for i in range(50000):
            total += i * i
        table = {(i, i % 7): str(i) for i in range(12500)}
        gathered = self._index[self._index]
        np.linalg.eigvalsh(self._sym)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        del total, table, gathered

    def __enter__(self) -> "SpeedProbe":
        self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_INTERVAL_S, KERNEL_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.kernel()

    def scale(self) -> float:
        return KERNEL_REFERENCE_S / statistics.median(self.samples)


def run_item(item, tally: Tally, tracer=None, probe: SpeedProbe | None = None) -> None:
    """Time ``item.call``, then check its result; a failure is counted, not raised."""
    tally.attempted += 1
    try:
        if tracer is not None:
            tracer.active = True
        probe_before = probe.spent if probe else 0.0
        start = time.perf_counter()
        result = item.call()
        elapsed = time.perf_counter() - start - (probe.spent - probe_before if probe else 0.0)
        if tracer is not None:
            tracer.active = False
        tally.latencies.append(elapsed)
        item.check(result)
    except Exception:  # the run goes on: every item is attempted and counted
        if tracer is not None:
            tracer.active = False
        tally.failed += 1
        print(f"item {item.name} failed:\n{traceback.format_exc()}", file=sys.stderr)


def run_passes(workload, seconds: float, tally: Tally, tracer=None,
               probe: SpeedProbe | None = None) -> list[float]:
    """Whole passes back to back until ``seconds`` have passed; pass times.

    The time of a ``probe``'s kernel is not part of a pass or an item.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        probe_before = probe.spent if probe else 0.0
        for item in workload.items:
            run_item(item, tally, tracer, probe)
        probe_time = probe.spent - probe_before if probe else 0.0
        passes.append(time.perf_counter() - t0 - probe_time)
    return passes


def import_package():
    """Import ``fpeps`` from this checkout's ``src``; seconds taken and modules."""
    if not (SRC / "fpeps" / "__init__.py").is_file():
        print(f"error: no fpeps package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import fpeps
    import workloads
    elapsed = time.perf_counter() - start
    if Path(fpeps.__file__).resolve().parent != SRC / "fpeps":
        print(f"error: imported fpeps from {fpeps.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed, fpeps, workloads


def fresh_import_seconds() -> float:
    """Import time of the package in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def _blas_info() -> dict:
    """BLAS name and version from numpy's build, and its thread count if it is OpenBLAS."""
    import ctypes

    import numpy as np

    config = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    # numpy wheels bundle OpenBLAS next to the package; loading it again
    # returns the handle numpy already uses
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def metadata(seed: int, fpeps_threads) -> dict:
    import numpy as np
    import scipy

    sources = sorted((SRC / "fpeps").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_fpeps_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "fpeps_threads_env": fpeps_threads,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, corrupt: bool = False) -> tuple[dict, dict]:
    """One benchmark run in this process; (result, metadata)."""
    fpeps_threads = os.environ.pop("FPEPS_THREADS", None)
    first_import_s, fpeps, workloads = import_package()
    import numpy as np

    make = workloads.WORKLOADS[workload_name]

    tally = Tally()
    setups = []
    workload = None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            start = time.perf_counter()
            workload = make(seed, tiny=tiny, corrupt=corrupt, root=ROOT)
            run_item(workload.warmup, tally)
            setups.append(time.perf_counter() - start)
        tally.latencies.clear()
        imports = [first_import_s]

        if not trace:
            imports += [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
            with SpeedProbe() as probe:
                passes = run_passes(workload, seconds, tally, probe=probe)
            lat_ms = np.array(tally.latencies) * 1e3
            raw = {
                "setup_s": statistics.median(imports) + statistics.median(setups),
                "wall_s": statistics.median(passes),
                "item_p50_ms": float(np.percentile(lat_ms, 50)),
                "item_p90_ms": float(np.percentile(lat_ms, 90)),
            }
            scale = probe.scale()
            metrics = {name: (value * scale, "ms" if name.endswith("_ms") else "s")
                       for name, value in raw.items()}
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            extra = {"speed_scale": scale, "kernel_runs": len(probe.samples), "unscaled": raw}
            summary = (f"{len(passes)} passes, {len(lat_ms)} item samples, "
                       f"pass times {[round(p, 3) for p in passes]}")
            if not tally.failed:
                per_item = np.median(lat_ms.reshape(len(passes), -1), axis=0)
                summary += "\nmedian item latency (ms): " + ", ".join(
                    f"{item.name} {ms:.1f}" for item, ms in zip(workload.items, per_item))
        else:
            from tracing import Tracer

            untraced = run_passes(workload, seconds / 2, tally)
            tracer = Tracer()
            tracer.install(fpeps)
            try:
                traced = run_passes(workload, seconds / 2, tally, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(len(traced))
            metrics.update({key: (value, "residual") for key, value in workload.health.items()})
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced) / statistics.median(untraced), "ratio")
            extra = {}
            summary = (f"{len(untraced)} untraced and {len(traced)} traced passes\n"
                       + baseline_report(tracer))
    finally:
        if workload is not None:
            workload.close()

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = metadata(seed, fpeps_threads)
    meta.update(workload=workload_name, trace=int(trace), seconds=seconds,
                imports_s=imports, setups_s=setups,
                failed_ratio=tally.failed / tally.attempted, summary=summary, **extra)
    return result, meta


def baseline_report(tracer) -> str:
    """Seconds per call of the traced functions next to the ROADMAP baseline."""
    lines = ["traced span time per call against the ROADMAP baseline (one unrepeated run):"]
    for name, baseline in BASELINE:
        calls = tracer.calls[name]
        if calls:
            per_call = tracer.span[name] / calls
            lines.append(f"  {name}: {per_call:.3f} s vs {baseline:.2f} s "
                         f"({per_call / baseline:.2f}x)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact_mapping", "gaussian_torus", "readme_cli",
                                 "readme_correlations"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: {meta.pop('summary')}", file=sys.stderr)
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_ratio {meta['failed_ratio']:.3g})", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
