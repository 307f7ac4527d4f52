"""Experiment runner: risk curves and estimator timings over replicates.

A spec names one of the built-in atom configurations (grid, corners, u-shape)
or supplies custom atoms, a kernel width, grid resolutions, exposure values
(inf for the noiseless regime), and the estimators to run.  The truth and the
kernel are built once per sweep, and the scene of each resolution (its bin
grid and the truth's bin intensities) once per resolution; every t and every
replicate of that resolution draws its image from that scene.  Each (t, m)
cell is replicated with independently derived seeds.  Cells run in batches:
a serial sweep is one batch and a pool task is one cell.  Every replicate's
image of a batch gives its moment estimates, and one stacked root solve
inverts them all, giving each replicate bit for bit the MM estimate it
would get alone; "em" draws the image again from its seed and refines that
estimate.  Per-replicate W_1 errors, wall times and the number of warnings
each estimator raised aggregate into a RiskTable.  A replicate's time is
its own moment estimation, plus an equal share of its batch's stacked
solve, plus run_em for "em"; drawing the image and scoring it are not
timed.  An estimator that fails on a replicate is logged at WARNING and
scores W_1 = NaN: the mean and stderr columns skip it, n_fail counts it, and
the pessimistic columns score it as k atoms at the window's centre.
risk.csv contains only deterministic columns so identical spec+seed runs
are byte-identical; timings are written separately.
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .em import EmConfig, run_em
from .kernels import GaussianKernel
from .measures import AtomicUniformMeasure, wasserstein_p
from .mm import (
    RootRecoveryError,
    degenerate_estimate,
    estimate_moments,
    kernel_psi,
    measure_from_moments,
)
from .observation import BinGrid, CountImage, intensities, poisson_image, replicate_seed

logger = logging.getLogger(__name__)

CONFIGURATION_NAMES = ("grid", "corners", "u-shape", "custom")
ESTIMATOR_NAMES = ("mm", "em")


def builtin_configuration(name: str, k: int) -> AtomicUniformMeasure:
    """Atom layouts used by the simulation study, in the unit square.

    grid: a sqrt(k) x sqrt(k) lattice spanning [0.2, 0.8]^2 (k a perfect
    square); corners: k/4 atoms on each point of {0.2, 0.8}^2 (k a multiple
    of 4); u-shape: k atoms equally spaced along the three sides of a U with
    corners (0.2, 0.8), (0.2, 0.2), (0.8, 0.2), (0.8, 0.8).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if name == "grid":
        side = int(round(np.sqrt(k)))
        if side * side != k:
            raise ValueError("grid configuration requires a perfect-square k")
        coords = np.linspace(0.2, 0.8, side) if side > 1 else np.array([0.5])
        xx, yy = np.meshgrid(coords, coords)
        return AtomicUniformMeasure(np.column_stack([xx.ravel(), yy.ravel()]))
    if name == "corners":
        if k % 4 != 0:
            raise ValueError("corners configuration requires k divisible by 4")
        corners = np.array([[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]])
        return AtomicUniformMeasure(np.repeat(corners, k // 4, axis=0))
    if name == "u-shape":
        if k < 2:
            raise ValueError("u-shape configuration requires k >= 2")
        waypoints = np.array([[0.2, 0.8], [0.2, 0.2], [0.8, 0.2], [0.8, 0.8]])
        seg = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
        total = seg.sum()
        stations = np.linspace(0.0, total, k)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        pts = []
        for s in stations:
            j = min(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
            frac = (s - cum[j]) / seg[j]
            pts.append(waypoints[j] + frac * (waypoints[j + 1] - waypoints[j]))
        return AtomicUniformMeasure(np.array(pts))
    raise ValueError(f"unknown configuration '{name}'")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a truth, a kernel width, and the (t, m) sweep to run."""

    configuration: str = "grid"
    k: int = 4
    sigma: float = 0.05
    resolutions: tuple = (40,)
    t_values: tuple = (1e5,)
    replicates: int = 1
    seed: int = 0
    estimators: tuple = ("mm", "em")
    atoms: tuple | None = None  # for configuration == "custom"
    em: EmConfig = field(default_factory=EmConfig)
    jobs: int | None = None

    def __post_init__(self):
        if self.configuration not in CONFIGURATION_NAMES:
            raise ValueError(f"configuration must be one of {CONFIGURATION_NAMES}")
        if self.configuration == "custom" and self.atoms is None:
            raise ValueError("custom configuration requires atoms")
        if self.configuration != "custom" and self.atoms is not None:
            raise ValueError(f"atoms are read only by the custom configuration, "
                             f"not {self.configuration!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        if not self.resolutions or any(n < 1 for n in self.resolutions):
            raise ValueError("resolutions must be positive")
        if not self.t_values or any(not t > 0 for t in self.t_values):
            raise ValueError("t values must be positive (inf allowed)")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1 (or None for every core)")
        self.truth()  # raises for a k its configuration cannot lay out

    def truth(self) -> AtomicUniformMeasure:
        if self.configuration == "custom":
            return AtomicUniformMeasure(np.asarray(self.atoms, float))
        return builtin_configuration(self.configuration, self.k)


@dataclass
class RiskTable:
    """Aggregated results, one row per (estimator, t, m, sigma) cell.

    mean_time_s is the mean over a cell's replicates of each one's time: its
    moment estimation, plus its batch's stacked root solve divided by the
    number of rows in the stack, plus run_em for "em".  A warning raised by
    the stacked solve counts once in n_warnings for every replicate in the
    stack: of its cell in a pool, of the whole sweep when it runs serially.
    """

    rows: list = field(default_factory=list)

    RISK_COLUMNS = (
        "estimator", "configuration", "k", "sigma", "t", "m",
        "n", "n_fail", "mean_w1", "stderr_w1",
        "mean_w1_pessimistic", "stderr_w1_pessimistic",
    )
    TIMING_COLUMNS = ("estimator", "configuration", "k", "sigma", "t", "m",
                      "mean_time_s")

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            if np.isinf(value):
                return "inf"
            return repr(value)
        return str(value)

    def _write_csv(self, path, columns) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in self.rows:
                fh.write(",".join(self._fmt(row[c]) for c in columns) + "\n")

    def to_csv(self, path) -> None:
        """Deterministic risk columns only; byte-identical for identical runs."""
        self._write_csv(path, self.RISK_COLUMNS)

    def timing_to_csv(self, path) -> None:
        self._write_csv(path, self.TIMING_COLUMNS)

    def summary_json(self, path) -> None:
        """Every column of every row as strict JSON: t = inf as "inf", NaN as null."""
        payload = []
        for row in self.rows:
            entry = {key: None if isinstance(value, float) and np.isnan(value) else value
                     for key, value in row.items()}
            entry["t"] = "inf" if np.isinf(row["t"]) else row["t"]
            payload.append(entry)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)

    def write_dat_files(self, directory) -> list:
        """Gnuplot-ready columns (t, mean_w1, stderr_w1) per estimator and m."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        keys = sorted({(r["estimator"], r["m"]) for r in self.rows})
        for est, m in keys:
            rows = [
                r for r in self.rows
                if r["estimator"] == est and r["m"] == m and np.isfinite(r["t"])
            ]
            rows.sort(key=lambda r: r["t"])
            path = os.path.join(directory, f"risk_{est}_m{m}.dat")
            with open(path, "w") as fh:
                fh.write("# t mean_w1 stderr_w1\n")
                for r in rows:
                    fh.write(
                        f"{self._fmt(r['t'])} {self._fmt(r['mean_w1'])} "
                        f"{self._fmt(r['stderr_w1'])}\n"
                    )
            paths.append(path)
        return paths


# The sweep a pool worker serves, set once per worker by _start_worker, so a
# task carries only one cell's (n_side, t, seeds) and the worker keeps one
# kernel object, whose psi mm.kernel_psi then builds once.
_worker_sweep = None


def _start_worker(sweep: tuple) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _run_in_worker(payload: tuple) -> list:
    [results] = _run_cells(_worker_sweep, [payload])
    return results


def _draw(grid: BinGrid, lam: np.ndarray, t: float, seed) -> CountImage:
    """The image of a replicate: its Poisson draw, or the intensities when t = inf."""
    return CountImage(grid, lam, t) if np.isinf(t) else poisson_image(grid, lam, t, seed)


def _run_cells(sweep: tuple, payloads: list) -> list:
    """Every replicate of a batch of cells: draw its image, run the estimators, score.

    ``sweep`` is (spec, kernel, truth, scenes), what every cell of the sweep
    shares, with each resolution's scene a (grid, intensities) pair keyed by
    n_side.  Each payload is (n_side, t, seeds): a cell's resolution, its
    exposure, and one stream per replicate.  First, each replicate's image
    gives its moment estimates, or window-centre atoms and a
    DegenerateDataWarning when its counts are all zero; the image itself is
    not kept.  Then one ``measure_from_moments`` call inverts the moments of
    the whole batch, so each replicate gets the MM estimate it would get
    alone.  Last, "mm" scores that estimate, and "em" draws the image again
    from its seed and runs ``run_em`` from it.  Returns, per payload, one
    dict per replicate, mapping each estimator to {"w1", "time",
    "n_warnings"}; see ``RiskTable`` for what the time covers.  Every
    warning is recorded, repeats included, and counted; one raised by the
    stacked call counts for every replicate of the batch, and none reaches
    the caller.  An estimator whose inversion or refinement raises
    RootRecoveryError, ValueError or FloatingPointError scores W_1 = NaN,
    which the pessimistic columns replace by the window-centre W_1, and is
    logged at WARNING after its clock stops.
    """
    spec, kernel, truth, scenes = sweep
    psi = kernel_psi(kernel, truth.k)
    # one entry per replicate of the batch, cell after cell
    cells, seeds, starts, times, n_warnings = [], [], [], [], []
    for cell, (n_side, t, cell_seeds) in enumerate(payloads):
        grid, lam = scenes[n_side]
        for seed in cell_seeds:
            image = _draw(grid, lam, t, seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                begin = time.perf_counter()
                start = degenerate_estimate(image, truth.k)
                if start is None:
                    start = estimate_moments(image, psi)
                times.append(time.perf_counter() - begin)
            cells.append(cell)
            seeds.append(seed)
            starts.append(start)
            n_warnings.append(len(caught))
    # a start that is still an array of moments is inverted with the others
    stacked = [rep for rep, start in enumerate(starts) if isinstance(start, np.ndarray)]
    if stacked:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            begin = time.perf_counter()
            solved = measure_from_moments(np.array([starts[rep] for rep in stacked]))
            share = (time.perf_counter() - begin) / len(stacked)
        for rep, start in zip(stacked, solved):
            starts[rep] = start
            times[rep] += share
            n_warnings[rep] += len(caught)
    results = [[] for _ in payloads]
    for cell, seed, start, elapsed, shared_warnings in zip(cells, seeds, starts, times,
                                                          n_warnings):
        n_side, t, _ = payloads[cell]
        grid, lam = scenes[n_side]
        image = _draw(grid, lam, t, seed) if "em" in spec.estimators else None
        out = {}
        for name in spec.estimators:
            begin = time.perf_counter()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    if isinstance(start, Exception):
                        raise start
                    est = run_em(image, kernel, start, spec.em)[0] if name == "em" else start
                    spent = elapsed + time.perf_counter() - begin
                    w1 = wasserstein_p(est, truth, 1)
            except (RootRecoveryError, ValueError, FloatingPointError) as exc:
                spent = elapsed + time.perf_counter() - begin
                w1 = np.nan
                logger.warning("estimator %s failed at t=%s, m=%d: %s", name, t, grid.m, exc)
            out[name] = {"w1": w1, "time": spent, "n_warnings": shared_warnings + len(caught)}
        results[cell].append(out)
    return results


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of ``values``; 0 for fewer than two."""
    return float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0


def _aggregate_cell(spec: ExperimentSpec, k: int, t: float, n_side: int,
                    results: list, fallback_w1: float) -> list:
    rows = []
    for name in spec.estimators:
        w1 = np.array([r[name]["w1"] for r in results], dtype=float)
        times = np.array([r[name]["time"] for r in results], dtype=float)
        failed = np.isnan(w1)
        ok = w1[~failed]
        pess = np.where(failed, fallback_w1, w1)
        rows.append({
            "estimator": name,
            "configuration": spec.configuration,
            "k": k,
            "sigma": spec.sigma,
            "t": float(t),
            "m": n_side * n_side,
            "n": len(results),
            "n_fail": int(failed.sum()),
            "n_warnings": sum(r[name]["n_warnings"] for r in results),
            "mean_w1": float(ok.mean()) if ok.size else float("nan"),
            "stderr_w1": _stderr(ok),
            "mean_w1_pessimistic": float(pess.mean()),
            "stderr_w1_pessimistic": _stderr(pess),
            "mean_time_s": float(times.mean()),
            "w1_samples": [None if fail else float(v) for fail, v in zip(failed, w1)],
        })
    return rows


def run_risk_experiment(spec: ExperimentSpec) -> RiskTable:
    """Sweep every (t, m) cell of the spec and aggregate replicate W_1 errors.

    The truth and kernel are built once, and each resolution's scene (bin
    grid and intensities) once; every cell of that resolution draws
    from it.  Cells run in one process pool per sweep, one cell per task,
    when spec.jobs (None: every core) > 1, the sweep has more than one cell,
    spec.replicates > 1 and some t is finite; the workers each receive the
    sweep's kernel, truth and scenes once.  Otherwise every cell runs in
    one batch, whose moments one stacked root solve inverts.  The reduction
    always consumes results in cell and replicate order so means are
    bit-stable.
    Noiseless cells (t = inf) are deterministic and computed once.
    """
    table = RiskTable()
    truth = spec.truth()
    kernel = GaussianKernel(sigma=spec.sigma, dim=2)
    scenes = {}
    for n_side in spec.resolutions:
        grid = BinGrid([0.0, 0.0], [1.0, 1.0], (n_side, n_side))
        scenes[n_side] = grid, intensities(kernel, truth, grid)
    # every scene has the window [0, 1]^2, so one centre scores every failure
    centre = AtomicUniformMeasure(np.tile(grid.center(), (truth.k, 1)))
    fallback_w1 = wasserstein_p(centre, truth, 1)
    sweep = (spec, kernel, truth, scenes)
    cells = [(t, n) for t in spec.t_values for n in spec.resolutions]
    payloads = [(n_side, t, [replicate_seed(spec.seed, cell_index, rep)
                             for rep in range(1 if np.isinf(t) else spec.replicates)])
                for cell_index, (t, n_side) in enumerate(cells)]
    jobs = min(spec.jobs or os.cpu_count() or 1, len(cells))
    parallel = jobs > 1 and spec.replicates > 1 and any(np.isfinite(spec.t_values))
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                               initargs=(sweep,)) if parallel else None
    with pool or contextlib.nullcontext():
        if pool:
            results = pool.map(_run_in_worker, payloads)
        else:
            results = _run_cells(sweep, payloads)
        for (t, n_side), cell in zip(cells, results):
            if np.isinf(t):
                cell = cell * spec.replicates  # deterministic cell, reuse
            table.rows.extend(_aggregate_cell(spec, truth.k, t, n_side, cell, fallback_w1))
            logger.info("cell t=%s m=%d done", t, n_side * n_side)
    return table
