"""The three benchmark workloads: inputs, the timed operation, output checks.

Every workload is a single-process closed loop: operation ``i + 1`` starts
when operation ``i`` returns. Inputs are a function of the workload seed
only; operation ``i`` uses entry ``i % CYCLE`` of a fixed-length input
cycle, so the reference digests of one seed cover every operation however
many the run completes. Checks run outside the timed region and with the
tracer uninstalled.

* ``calibrate`` -- the paper's closed loop, ``calibrate(phantom256, spec)``
  with the default configuration, cycling gamma L=3, Rayleigh and
  exponential speckle over several speckle seeds each, because only some
  Rayleigh seeds move the threshold off its seed value. Small (0.5 MiB),
  cache-resident arrays; per-call overhead and 201 transforms per call.
* ``scene`` -- open-loop application plus assessment at scene size:
  ``apply_speckle`` -> ``initial_threshold`` -> ``despeckle`` ->
  ``full_report`` on the 2048^2 phantom, Rayleigh speckle, db4, soft
  shrinkage. 32 MiB arrays overflow the caches; FOM takes the EDT route.
* ``cli`` -- the README's file flow on 256^2 PGMs, in-process through
  ``despeckle.cli.main``: speckle, despeckle at a fixed threshold, median
  and Lee baselines, and one metrics report per output. Exercises PGM I/O,
  argparse, the baselines and the brute-force FOM route.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")
CLI_LAMBDA = "2.68"


def import_package(root):
    """Import ``despeckle`` from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "despeckle" / "__init__.py").is_file():
        raise ImportError(f"no despeckle package under {src}")
    sys.path.insert(0, str(src))
    import despeckle
    import despeckle.cli

    if Path(despeckle.__file__).resolve().parent != (src / "despeckle").resolve():
        raise ImportError(f"despeckle imported from {despeckle.__file__}, not {src}")
    return despeckle


def reference_digests(name):
    """Recorded output digests of workload ``name`` at ``DEFAULT_SEED``."""
    return json.loads(DIGESTS.read_text()).get(name)


def make_phantom(n):
    """Piecewise-constant scene: gray levels 64/128/192, two axis-aligned
    squares and one diagonal edge across a corner (as in the test suite)."""
    img = np.full((n, n), 128.0)
    img[n // 8 : 3 * n // 8, 9 * n // 16 : 13 * n // 16] = 64.0
    img[9 * n // 16 : 13 * n // 16, n // 8 : 3 * n // 8] = 192.0
    rows, cols = np.ogrid[:n, :n]
    img[rows + cols >= 3 * n // 2] = 192.0
    return img


def speckle_seeds(seed, workload, n):
    """``n`` speckle seeds derived from the workload seed and name."""
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    state = np.random.SeedSequence([seed, key]).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def quantized_digest(img):
    """SHA-256 of an image rounded to 16-bit gray levels."""
    q = np.rint(np.clip(img, 0.0, 65535.0)).astype(">u2")
    return hashlib.sha256(q.tobytes()).hexdigest()


def report_problems(values, noisy_enl):
    """Checks shared by every metrics report: (nv, msd, nmv, nsd, enl, dr, fom)."""
    nv, msd, nmv, nsd, enl, dr, fom = values
    problems = []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite report field in {values}")
    if not 0.0 <= fom <= 1.0:
        problems.append(f"FOM {fom} outside [0, 1]")
    if not enl > noisy_enl:
        problems.append(f"output ENL {enl} does not exceed noisy ENL {noisy_enl}")
    return problems


@dataclass
class Checked:
    """Outcome of checking one operation."""

    problems: list
    clean_mse: float
    kind: str = ""  # speckle kind of the input, for per-kind quality
    counters: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)


class Workload:
    """Shared shape: ``setup`` builds inputs and warms up, ``op`` is timed,
    ``check`` validates the output of ``op`` and measures its quality."""

    name = ""
    cycle = 1  # length of the input cycle
    min_ops = 1  # a run completes at least this many operations
    pixels = 0  # input pixels per operation

    def __init__(self, dsp, root, seed, reference=None):
        self.dsp = dsp
        self.root = root
        self.seed = seed
        self.reference = reference  # per-cycle-entry output digests, if checked

    def close(self):
        pass

    def digest_problems(self, i, digests):
        if self.reference is None:
            return []
        expected = self.reference[i % self.cycle]
        if digests != expected:
            return [f"output digests {digests} differ from reference {expected}"]
        return []


class Calibrate(Workload):
    name = "calibrate"
    cycle = 18  # 3 speckle kinds x 6 speckle seeds
    min_ops = 18  # clean_mse is taken over one full cycle
    pixels = 256 * 256

    def setup(self):
        dsp = self.dsp
        self.clean = make_phantom(256)
        kinds = (("gamma", 3), ("rayleigh", 1), ("exponential", 1))
        seeds = speckle_seeds(self.seed, self.name, self.cycle)
        self.specs = [
            dsp.SpeckleSpec(kind=kinds[i % 3][0], looks=kinds[i % 3][1], seed=seeds[i])
            for i in range(self.cycle)
        ]
        dsp.calibrate(make_phantom(64), self.specs[0], max_iter=3)

    def op(self, i):
        return self.dsp.calibrate(self.clean, self.specs[i % self.cycle])

    def check(self, i, result):
        dsp = self.dsp
        spec = self.specs[i % self.cycle]
        noisy = dsp.apply_speckle(self.clean, spec)
        problems = []
        lam_star = result.lambda_star
        trace = result.trace
        if not lam_star >= 0.0:
            problems.append(f"lambda_star {lam_star} is negative")
        lam0 = dsp.initial_threshold(noisy).lam
        if trace[0].lam != lam0:
            problems.append(f"trace starts at {trace[0].lam}, initial threshold is {lam0}")
        at_star = [step for step in trace if step.lam == lam_star]
        if not at_star:
            problems.append(f"lambda_star {lam_star} was never evaluated")
            return Checked(problems, math.nan)
        step = at_star[0]
        if step.me != min(s.me for s in trace) or step.me > trace[0].me:
            problems.append(f"|e| at lambda_star ({step.me}) is not the trace minimum")
        out = dsp.despeckle(noisy, lam_star)
        e = dsp.scalarize(dsp.subtract(self.clean, out)).e
        if e != step.e:
            problems.append(f"despeckle at lambda_star gives e={e}, trace recorded {step.e}")
        counters = {
            "pipeline.calibrate.iterations": result.iterations,
            "pipeline.calibrate.distinct_lambda_ratio": len({s.lam for s in trace})
            / result.iterations,
            "lambda_moved": lam_star != lam0,
        }
        return Checked(problems, dsp.msd(self.clean, out), spec.kind, counters)


class Scene(Workload):
    name = "scene"
    cycle = 4
    min_ops = 2
    pixels = 2048 * 2048

    def setup(self):
        dsp = self.dsp
        self.clean = make_phantom(2048)
        self.cfg = dsp.PipelineConfig(wavelet="db4", shrink="soft")
        self.specs = [
            dsp.SpeckleSpec(kind="rayleigh", seed=s)
            for s in speckle_seeds(self.seed, self.name, self.cycle)
        ]
        self._run(make_phantom(256), self.specs[0])

    def _run(self, clean, spec):
        dsp = self.dsp
        noisy = dsp.apply_speckle(clean, spec)
        lam = dsp.initial_threshold(noisy, self.cfg).lam
        out = dsp.despeckle(noisy, lam, self.cfg)
        return noisy, out, dsp.full_report(clean, noisy, out)

    def op(self, i):
        return self._run(self.clean, self.specs[i % self.cycle])

    def check(self, i, result):
        dsp = self.dsp
        noisy, out, rep = result
        values = (rep.nv, rep.msd, rep.nmv, rep.nsd, rep.enl, rep.dr, rep.fom)
        problems = report_problems(values, dsp.enl_blocked(noisy))
        digests = [quantized_digest(out)]
        problems += self.digest_problems(i, digests)
        return Checked(problems, dsp.msd(self.clean, out), digests=digests)


class Cli(Workload):
    name = "cli"
    # The brute-force FOM route costs in proportion to the detected edge
    # pixels, which vary by about 1.6x across speckle seeds, so a run
    # cycles through many inputs to keep its median steady.
    cycle = 24
    min_ops = 8
    pixels = 256 * 256

    def __init__(self, dsp, root, seed, reference=None):
        super().__init__(dsp, root, seed, reference)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=root / ".bench_out"))

    def setup(self):
        dsp = self.dsp
        self.seeds = speckle_seeds(self.seed, self.name, self.cycle)
        self.clean_img = make_phantom(256)
        warm = self.workdir / "warm.pgm"
        warm.write_bytes(dsp.write_pgm(make_phantom(64)))
        self.clean = self.workdir / "clean.pgm"
        self.clean.write_bytes(dsp.write_pgm(self.clean_img))
        self._chain(warm, 0)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _chain(self, clean, seed):
        w = self.workdir
        noisy, desp, med, lee = (str(w / f) for f in ("noisy.pgm", "desp.pgm", "med.pgm", "lee.pgm"))
        commands = [
            ["speckle", str(clean), noisy, "--kind", "gamma", "--looks", "3", "--seed", str(seed)],
            ["despeckle", noisy, desp, "--lambda", CLI_LAMBDA],
            ["baseline", noisy, med, "--filter", "median", "--kernel", "3"],
            ["baseline", noisy, lee, "--filter", "lee", "--kernel", "5", "--looks", "3"],
        ] + [["metrics", str(clean), noisy, out] for out in (desp, med, lee)]
        stdout = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                codes.append(self.dsp.cli.main(argv))
        return codes, stdout.getvalue()

    def op(self, i):
        return self._chain(self.clean, self.seeds[i % self.cycle])

    def check(self, i, result):
        dsp = self.dsp
        codes, stdout = result
        problems = [f"command {n} exited {c}" for n, c in enumerate(codes) if c != 0]
        if problems:
            return Checked(problems, math.nan)
        files = [self.workdir / f for f in ("noisy.pgm", "desp.pgm", "med.pgm", "lee.pgm")]
        data = [f.read_bytes() for f in files]
        noisy_enl = dsp.enl_blocked(dsp.read_pgm(data[0]))
        rows = [line for line in stdout.splitlines() if line and line[0] in "-0123456789"]
        if len(rows) != 3:
            problems.append(f"expected 3 metrics rows, got {len(rows)}")
        for row in rows:
            problems += report_problems(tuple(float(v) for v in row.split(",")), noisy_enl)
        digests = [hashlib.sha256(d).hexdigest() for d in data]
        problems += self.digest_problems(i, digests)
        return Checked(problems, dsp.msd(self.clean_img, dsp.read_pgm(data[1])), digests=digests)


WORKLOADS = {w.name: w for w in (Calibrate, Scene, Cli)}


if __name__ == "__main__":
    # ``workloads.py <workload> <seed>``: import the package and set the
    # workload up in a fresh process; run.py times this as set-up.
    root = Path(__file__).resolve().parent.parent
    (root / ".bench_out").mkdir(exist_ok=True)
    workload = WORKLOADS[sys.argv[1]](import_package(root), root, int(sys.argv[2]))
    try:
        workload.setup()
    finally:
        workload.close()
