"""Benchmark of the despeckle package: one workload per run.

    python3 perfbench/run.py --workload {calibrate,scene,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` of the
checkout the script sits in. Human-readable lines (environment, every
metric with its unit and sample count, check failures) come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with tracing off. ``--trace 1`` reports the per-layer metrics: it runs
one operation under ``tracemalloc`` for allocation peaks, then alternates
untraced and span-traced operations so that the tracing overhead is the
difference of their medians within the same run. Spans are written to
``.bench_out/spans-<workload>-seed<N>.csv``. See perfbench/README.md.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import ALLOC_PEAK, Tracer
from workloads import (
    CLI_LAMBDA,
    DEFAULT_SEED,
    WORKLOADS,
    import_package,
    make_phantom,
    reference_digests,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
START_PROBES = 10

# Workload-specific names of the end-to-end metrics that are a workload's
# headline figure, printed next to the generic name.
ALIASES = {
    "calibrate": {"op_p50_ms": "calibrate_p50_ms", "clean_mse": "calib_clean_mse"},
    "scene": {"mpx_s": "scene_mpx_s"},
    "cli": {"op_p50_ms": "cli_chain_p50_ms", "start_p50_ms": "cli_start_p50_ms"},
}

# ROADMAP.md baseline table, ms per call, for the stages whose size and
# configuration a workload shares: (workload, span name) -> (ms, row).
BASELINE_MS = {
    ("scene", "speckle.apply_speckle"): (194.0, "apply_speckle 2048^2 (gamma L=3)"),
    ("scene", "wavelet.dwt2"): (1049.0, "dwt2 db4 2048^2"),
    ("scene", "wavelet.idwt2"): (1541.0, "idwt2 db4 2048^2"),
    ("cli", "metrics.full_report"): (420.0, "full_report 256^2"),
}


def blas_threads():
    """OpenBLAS thread count as the loaded library reports it, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args):
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = Path(index, "level").read_text().strip()
        kind = Path(index, "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = Path(index, "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": args.seed == DEFAULT_SEED,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Run:
    """Counts attempts and failures and keeps per-operation results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checked = []  # (op index, Checked) in the order run

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def timed_op(self, i, scope=None):
        """Run and check operation ``i``, inside ``scope`` if one is given;
        return its wall time in ns, or None if it failed."""
        self.attempted += 1
        try:
            with scope or contextlib.nullcontext():
                start = time.perf_counter_ns()
                result = self.workload.op(i)
                elapsed = time.perf_counter_ns() - start
            checked = self.workload.check(i, result)
        except Exception as exc:  # an operation that raises counts as failed
            self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        self.checked.append((i, checked))
        if checked.problems:
            self.fail(f"op {i}: " + "; ".join(checked.problems))
            return None
        return elapsed


class StartProbe:
    """Times ``python -m despeckle despeckle`` on a 256^2 PGM in a fresh
    process: interpreter start, package import and one small command."""

    def __init__(self, dsp):
        self.tmp = tempfile.TemporaryDirectory(prefix="start-", dir=OUT)
        src = Path(self.tmp.name, "in.pgm")
        noisy = dsp.apply_speckle(make_phantom(256), dsp.SpeckleSpec(seed=1))
        src.write_bytes(dsp.write_pgm(noisy))
        self.cmd = [sys.executable, "-m", "despeckle", "despeckle", str(src),
                    str(Path(self.tmp.name, "out.pgm")), "--lambda", CLI_LAMBDA]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.times = []
        self.attempts = 0

    def __call__(self, run):
        self.attempts += 1
        run.attempted += 1
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=60)
        except subprocess.TimeoutExpired:
            run.fail("start probe timed out after 60 s")
            return
        elapsed = time.perf_counter_ns() - start
        if proc.returncode != 0:
            run.fail(f"start probe exited {proc.returncode}: {proc.stderr[-200:]!r}")
        else:
            self.times.append(elapsed)

    def close(self):
        self.tmp.cleanup()


def setup_seconds(name, seed):
    """Median wall time of a fresh process that imports the package and
    sets the workload up (``workloads.py`` run as a script)."""
    cmd = [sys.executable, str(Path(__file__).with_name("workloads.py")), name, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def loop(run, seconds, step):
    """Closed loop: call ``step(i)`` until ``seconds`` have passed and the
    workload's minimum operation count is reached."""
    start = time.perf_counter()
    i = 0
    while i < run.workload.min_ops or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def timing(times_ns):
    """(median ms, sample count, note naming the highest percentile with at
    least ten samples beyond it)."""
    ms = [t / 1e6 for t in times_ns]
    if not ms:
        return math.nan, 0, ""
    note = ""
    for q in (75, 90, 99):
        if len(ms) * (100 - q) / 100 >= 10:
            note = f", p{q}={np.percentile(ms, q):.6g} ms"
    return statistics.median(ms), len(ms), note


def end_to_end(run, dsp, seconds, setup_s):
    """Every end-to-end metric: name -> (value, sample count, note)."""
    w = run.workload
    times = []
    probe = StartProbe(dsp)
    start = time.perf_counter()

    def step(i):
        elapsed = run.timed_op(i)
        if elapsed is not None:
            times.append(elapsed)
        # Start probes are spread over the run, so that a burst of load from
        # elsewhere on the machine hits probes and operations alike.
        done = (time.perf_counter() - start) / seconds
        while probe.attempts < min(START_PROBES * done, START_PROBES):
            probe(run)

    try:
        loop(run, seconds, step)
        while probe.attempts < START_PROBES:
            probe(run)
    finally:
        probe.close()
    # Quality is taken over the first stretch of inputs only, so it is a
    # function of the seed and not of how many operations fit the run. The
    # median per speckle kind keeps the few inputs on which calibration
    # leaves its seed threshold (about 1 Rayleigh seed in 6) from setting
    # the figure; kinds are then averaged.
    by_kind = defaultdict(list)
    for i, c in run.checked:
        if i < w.min_ops:
            by_kind[c.kind].append(c.clean_mse)
    quality = statistics.fmean(statistics.median(v) for v in by_kind.values())
    return {
        "op_p50_ms": timing(times),
        "mpx_s": (w.pixels * len(times) / (sum(times) / 1e9) / 1e6, len(times), ""),
        "clean_mse": (quality, sum(map(len, by_kind.values())), ""),
        "start_p50_ms": timing(probe.times),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, ""),
        "setup_s": (setup_s, SETUP_REPEATS, ""),
    }


def per_layer(run, seconds):
    """Every per-layer metric, plus the tracer and its per-name sums."""
    # Allocation peaks come from one operation under tracemalloc, kept out
    # of the timings because tracemalloc slows every allocation.
    probe = Tracer()
    tracemalloc.start()
    try:
        run.timed_op(0, probe.traced(-1))
    finally:
        tracemalloc.stop()

    # Each input runs twice in a row, untraced and then traced, so the
    # overhead compares equal inputs.
    tracer = Tracer()
    untraced, traced, traced_ops = [], [], []
    counters = defaultdict(list)

    def step(i):
        if i % 2 == 0:
            elapsed = run.timed_op(i // 2)
            if elapsed is not None:
                untraced.append(elapsed)
        else:
            elapsed = run.timed_op(i // 2, tracer.traced(i))
            if elapsed is not None:
                traced.append(elapsed)
                traced_ops.append(i)
                for key, value in run.checked[-1][1].counters.items():
                    counters[key].append(value)

    loop(run, seconds, step)
    n = len(traced_ops)
    stats = tracer.self_times(traced_ops)
    values = {}
    for name, (calls, self_ns, _) in stats.items():
        values[f"{name}.calls"] = (calls / n, n, "")
        values[f"{name}.self_ms"] = (self_ns / 1e6 / n, n, "")
    for name in ALLOC_PEAK:
        values[f"{name}.alloc_peak_mb"] = (probe.alloc_peak[name] / 2**20, 1, "")
    for key, seq in counters.items():
        values[key] = (statistics.fmean(seq), len(seq), "")
    off, on = timing(untraced), timing(traced)
    values["trace.untraced_op_p50_ms"] = off
    values["trace.traced_op_p50_ms"] = on
    values["trace.overhead_pct"] = (100.0 * (on[0] - off[0]) / off[0], min(off[1], on[1]), "")
    return values, tracer, stats, n


def print_layers(run, stats, n):
    name = run.workload.name
    print(f"# spans per traced operation (n={n}), by self time")
    print(f"#   {'span':<40} {'calls':>9} {'self_ms':>10} {'incl_ms/call':>13}")
    for span, (calls, self_ns, incl_ns) in sorted(stats.items(), key=lambda kv: -kv[1][1]):
        print(f"#   {span:<40} {calls / n:>9.2f} {self_ns / 1e6 / n:>10.3f} "
              f"{incl_ns / 1e6 / calls:>13.3f}")
    for (workload, span), (ms, row) in BASELINE_MS.items():
        if workload == name and span in stats:
            calls, _, incl_ns = stats[span]
            got = incl_ns / 1e6 / calls
            print(f"# baseline check {span}: {got:.1f} ms/call traced vs {ms:.0f} ms "
                  f"in ROADMAP row '{row}' ({100 * (got / ms - 1):+.0f}%)")
    if name == "calibrate":
        print("# calibrate per input: op kind speckle_seed distinct_lambda_ratio moved_off_lam0")
        for i, checked in dict(run.checked).items():
            spec = run.workload.specs[i % run.workload.cycle]
            ratio = checked.counters["pipeline.calibrate.distinct_lambda_ratio"]
            moved = checked.counters["lambda_moved"]
            print(f"#   {i:>3} {spec.kind:<11} {spec.seed:>20} {ratio:.2f} {moved}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    dsp = import_package(ROOT)
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    reference = reference_digests(cls.name) if args.seed == DEFAULT_SEED else None
    workload = cls(dsp, ROOT, args.seed, reference)
    run = Run(workload)
    try:
        workload.setup()
        print("# env " + json.dumps(environment(args)))
        if args.trace:
            values, tracer, stats, n = per_layer(run, args.seconds)
            wanted = spec["per_layer"]
            print_layers(run, stats, n)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            values = end_to_end(run, dsp, args.seconds, setup_s)
            wanted = spec["end_to_end"]
    finally:
        workload.close()

    aliases = ALIASES[args.workload]
    metrics = {}
    for m in wanted:
        # A layer the workload never calls has no spans: 0 calls, 0 ms.
        value, count, note = values.get(m["name"], (0.0, 0, ""))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        alias = f" ({aliases[m['name']]})" if m["name"] in aliases else ""
        print(f"{m['name']}{alias} = {value:.6g} {m['unit']} (n={count}{note})")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} operations)")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
