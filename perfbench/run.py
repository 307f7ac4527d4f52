"""Run one benchmark workload against poisson_deconv and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload em_dense --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run first times ``SETUP_PROBES`` fresh set-ups (each a
new interpreter that imports the package and builds the workload's inputs),
then solves passes until ``--seconds`` have passed and the workload's fixed
quality passes are done, and prints the end-to-end metrics.  With
``--trace 1`` it solves each quality pass twice, back to back, untraced and
with every layer wrapped by the tracer, and prints the per-layer metrics.
Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the full record, with
provenance, goes to ``perfbench/out/``.  The exit code is 1 when any output
check failed.

Solve and pass times are reported in reference seconds (unit ``ref_s``): the
raw wall time times ``CALIBRATION_REF_S`` over the time of a fixed calibration
loop run just before and after the pass.  Set-up times are scaled the same
way around each probe, under the unit ``s`` that BENCHMARK.json declares for
``setup_s``.  On a shared machine whose speed
drifts by tens of percent over minutes, this keeps one commit's numbers
comparable across runs; the raw times stay in the record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("em_dense", "mm_sweep", "pipeline_clusters", "generic_kernel")
# Three probes keep a whole run within its time budget; setup_s is their median.
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 120
# Calibration loop time on the machine that took the baseline, in a quiet
# period.  It only fixes the unit; comparisons use the same constant.
CALIBRATION_REF_S = 0.012
# BLAS and OpenMP pools are pinned to one thread unless the caller sets them:
# the benchmark is a single-threaded baseline, and an idle OpenBLAS worker
# spinning on the second core doubles CPU use without shortening any solve.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the workload's inputs, then exit")
    return parser.parse_args(argv)


PACKAGE = SRC / "poisson_deconv"


def require_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no poisson_deconv package at {PACKAGE}")


def import_workloads():
    """Import the workloads against the package under ``src/`` of this checkout."""
    require_package()
    sys.path.insert(0, str(SRC))
    import poisson_deconv

    if Path(poisson_deconv.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported poisson_deconv from "
                         f"{poisson_deconv.__file__}, not from {PACKAGE}")
    import workloads

    return workloads


def git_short_sha() -> str | None:
    """Commit of the checkout; None when it is not a git checkout or git is missing."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def current_rss_mb() -> float:
    """Resident memory of this process right now, in MiB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    return {
        "git": git_short_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
        "seed": seed,
        "traced": traced,
    }


def measure_setup(workload: str, seed: int) -> list:
    """(raw seconds, scale) of fresh interpreters importing and setting up.

    Each sample runs from spawning the probe to the end of its set-up: the
    probe prints its ``perf_counter()`` then, and that clock is system-wide,
    so the probe's exit is not counted.  ``scale`` comes from the calibration
    loop timed just before and after the probe.
    """
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-only"]
    calibration_before = calibration_s()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        raw = float(done.stdout.split()[-1]) - start
        calibration_after = calibration_s()
        samples.append((raw, 2 * CALIBRATION_REF_S / (calibration_before + calibration_after)))
        calibration_before = calibration_after
    return samples


def calibration_s() -> float:
    """Time of a fixed NumPy-and-interpreter loop: the machine's speed right now.

    The median of three runs of 200 ``ndtr`` evaluations over 4096 points,
    the same mix of small vectorized kernels and Python overhead as a solve.
    """
    import numpy as np
    from scipy.special import ndtr

    x = np.linspace(-3.0, 3.0, 4096)
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for i in range(200):
            float(np.sum(ndtr(x + i * 1e-3) * x))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_passes(workload, seed: int, count: int, seconds: float = 0.0) -> list:
    """Solve passes 0, 1, ... until ``count`` are done and ``seconds`` have passed.

    Each pass records its raw wall time and ``scale``, the factor that turns
    its raw seconds into reference seconds.
    """
    passes = []
    start = time.perf_counter()
    calibration_before = calibration_s()
    while len(passes) < count or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        solves = workload.run_pass(seed, len(passes))
        wall = time.perf_counter() - pass_start
        calibration_after = calibration_s()
        scale = 2 * CALIBRATION_REF_S / (calibration_before + calibration_after)
        passes.append({"wall_s": wall, "scale": scale, "solves": solves})
        calibration_before = calibration_after
    return passes


def timed_pass(workload, seed: int, index: int) -> dict:
    """Pass ``index`` with its raw wall time, and no calibration around it."""
    start = time.perf_counter()
    solves = workload.run_pass(seed, index)
    return {"wall_s": time.perf_counter() - start, "scale": None, "solves": solves}


def solves_of(passes) -> list:
    return [s for p in passes for s in p["solves"]]


def end_to_end_metrics(workload, passes, setup_samples, setup_rss_mb: float,
                       scaled: bool = True) -> dict:
    """The end-to-end metrics; with ``scaled=False``, times in raw seconds.

    ``solve_s`` and ``w1_median`` are taken over the scored solves only.
    ``solve_rss_mb`` is the peak resident memory above ``setup_rss_mb``,
    the resident memory once set-up was done.
    """
    if not scaled:
        passes = [{**p, "scale": 1.0} for p in passes]
        setup_samples = [(raw, 1.0) for raw, _ in setup_samples]

    quality = passes[: workload.quality_passes]
    times = [s.wall_s * p["scale"] for p in passes for s in p["solves"]
             if s.scored and s.w1 is not None]
    w1s = [s.w1 for s in solves_of(quality) if s.scored and s.w1 is not None]
    nan = float("nan")
    unit = "ref_s" if scaled else "s"
    return {
        "setup_s": (statistics.median(raw * scale for raw, scale in setup_samples), "s"),
        "wall_s": (sum(p["wall_s"] * p["scale"] for p in quality), unit),
        "solve_s": (statistics.median(times) if times else nan, unit),
        "w1_median": (statistics.median(w1s) if w1s else nan, "1"),
        "solve_rss_mb": (peak_rss_mb() - setup_rss_mb, "MiB"),
    }


def run_traced(workloads, workload, seed: int):
    """Each quality pass untraced and traced, back to back; per-layer metrics.

    An untimed repeat of pass 0 runs first, so that first-call costs (lazy
    imports, caches) fall on neither side.  The two runs of a pass are
    adjacent, in alternating order, so the host's speed drift mostly cancels
    out of ``trace.overhead_s``, the traced minus the untraced wall time.
    """
    import layers

    # Its answers are those of pass 0, which the untraced run of pass 0 checks.
    workload.run_pass(seed, 0)
    tracer = layers.new_tracer()
    untraced, traced = [], []
    for index in range(workload.quality_passes):
        for tracing in ((False, True) if index % 2 == 0 else (True, False)):
            if tracing:
                with tracer.installed(layers.MODULES, callers=(workloads,),
                                      exclude=layers.EXCLUDE):
                    traced.append(timed_pass(workload, seed, index))
            else:
                untraced.append(timed_pass(workload, seed, index))
    for before, after in zip(solves_of(untraced), solves_of(traced)):
        if before.w1 != after.w1:
            after.failures.append(f"tracing changed W_1 from {before.w1!r} to {after.w1!r}")
            after.w1 = None
    passes = untraced + traced
    solves = solves_of(passes)
    fail_ratio = sum(bool(s.failures) for s in solves) / len(solves)
    traced_wall_s = sum(p["wall_s"] for p in traced)
    metrics = layers.per_layer_metrics(
        tracer,
        traced_wall_s=traced_wall_s,
        overhead_s=traced_wall_s - sum(p["wall_s"] for p in untraced),
        fail_ratio=fail_ratio,
    )
    spans = [[s.id, s.name, s.start, s.end, s.parent] for s in tracer.spans]
    return passes, metrics, {"spans": spans, "dropped_spans": tracer.dropped_spans}


def write_record(args, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    require_package()
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    setup_samples = [] if args.setup_only or args.trace else measure_setup(
        args.workload, args.seed)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    setup_rss_mb = current_rss_mb()
    if args.setup_only:
        print(time.perf_counter())
        return 0

    extra = {}
    if args.trace:
        passes, metrics, extra = run_traced(workloads, workload, args.seed)
    else:
        passes = run_passes(workload, args.seed, workload.quality_passes, args.seconds)
        metrics = end_to_end_metrics(workload, passes, setup_samples, setup_rss_mb)
        extra = {"raw_seconds": {
            name: value for name, (value, _) in
            end_to_end_metrics(workload, passes, setup_samples, setup_rss_mb,
                               scaled=False).items()
            if name in ("setup_s", "wall_s", "solve_s")}}
    solves = solves_of(passes)
    failures = [f"pass {i}: {reason}" for i, p in enumerate(passes)
                for s in p["solves"] for reason in s.failures]
    failed = sum(bool(s.failures) for s in solves)
    result = {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, bool(args.trace)),
        "setup_samples": [{"raw_s": raw, "scale": scale} for raw, scale in setup_samples],
        "rss_mb": {"after_setup": setup_rss_mb, "peak": peak_rss_mb()},
        "passes": [{"wall_s": p["wall_s"], "scale": p["scale"],
                    "solves": [vars(s) for s in p["solves"]]} for p in passes],
        "failures": failures,
        **result,
        **extra,
    }
    path = write_record(args, record)

    print(f"workload {args.workload}  seed {args.seed}  traced {bool(args.trace)}  "
          f"passes {len(passes)}  solves {len(solves)}  failed {failed}")
    for reason in failures:
        print(f"  FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for name, value in extra.get("raw_seconds", {}).items():
        print(f"  {name + ' (raw)':48s} {value:14.6g} s")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
