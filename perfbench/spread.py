"""Run workloads over several seeds and report each metric's median and spread.

From the repository root:

    python3 perfbench/spread.py --workloads em_dense,mm_sweep --seeds 1-10 \
        --out perfbench/out/BENCH_check.json

Each (workload, seed) is one ``run.py --trace 0`` run, one after another.  For
every end-to-end metric the report gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  ``--trace-seed`` adds
one traced run per workload for its per-layer metrics.  Runs that fail an
output check are kept in the report and make the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["seed"] = seed
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list, bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"provenance": run.provenance(seed=None, traced=False),
              "seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = one_run(workload, seed, seconds, trace=0)
            all_correct &= result["correct"] and result["exit_code"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()),
                flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs], bounds.get(name))
            for name in runs[0]["metrics"]
        }
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": metrics,
        }
        if args.trace_seed is not None:
            traced = one_run(workload, args.trace_seed, seconds, trace=1)
            all_correct &= traced["correct"] and traced["exit_code"] == 0
            entry["per_layer"] = {"seed": args.trace_seed, **traced}
        report["workloads"][workload] = entry
        for name, m in metrics.items():
            flag = "" if m.get("within_third_of_bound", True) else "  <-- above bound/3"
            print(f"  {workload:18s} {name:12s} median {m['median']:.6g}  "
                  f"spread {m['spread']:.4f}  bound {m.get('bound', '-')}{flag}",
                  flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
