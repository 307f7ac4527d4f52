"""The four benchmark workloads, driven through the public API of poisson_deconv.

Each workload builds its static inputs once (``setup``) and then solves
numbered passes (``run_pass``).  Pass ``i`` draws its inputs from the stream
``SeedSequence(seed, spawn_key=(i,))``, so the same seed gives the same inputs
and every pass of a run sees different data.  A pass returns one ``Solve`` per
image it solved, with the checks that image failed.

The first ``quality_passes`` passes are the workload's fixed work for a seed:
their answers give W_1 and their wall time gives ``wall_s``.  Only generated
inputs reach the program; the truth stays here to score and check estimates.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from poisson_deconv.em import EmConfig, run_em
from poisson_deconv.harness import ExperimentSpec, builtin_configuration, run_risk_experiment
from poisson_deconv.kernels import GaussianKernel, TabulatedKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.mm import RootRecoveryError, mm_complex
from poisson_deconv.observation import BinGrid, noiseless, replicate_seed, simulate
from poisson_deconv.pipeline import PartitionConfig, run_pipeline


@dataclass
class Solve:
    """One image solved: its wall time, its W_1 to the truth, and why it failed.

    ``w1`` is None when the solve failed.  A solve with ``scored`` False is
    checked and counted like any other, but left out of ``solve_s`` and
    ``w1_median``.
    """

    wall_s: float
    w1: float | None
    failures: list = field(default_factory=list)
    scored: bool = True


def check_estimate(estimate: AtomicUniformMeasure | None, truth: AtomicUniformMeasure,
                   traces=()) -> tuple:
    """(W_1 or None, failure reasons) for an estimate against its truth."""
    if estimate is None:
        return None, ["no estimate"]
    failures = []
    if estimate.k != truth.k:
        failures.append(f"estimate has {estimate.k} atoms, truth has {truth.k}")
    if not np.all(np.isfinite(estimate.atoms)):
        failures.append("non-finite atoms")
    failures += ["EM log-likelihood decreased" for t in traces if not t.monotone()]
    if failures:
        return None, failures
    return wasserstein_p(estimate, truth, 1), failures


def _timed_solve(solve, truth, limit: float | None = None) -> Solve:
    """Run ``solve() -> (estimate, EM traces)`` and check its answer."""
    start = time.perf_counter()
    try:
        estimate, traces = solve()
    except RootRecoveryError as exc:
        return Solve(time.perf_counter() - start, None, [f"RootRecoveryError: {exc}"])
    wall = time.perf_counter() - start
    w1, failures = check_estimate(estimate, truth, traces)
    if w1 is not None and limit is not None and not w1 <= limit:
        failures.append(f"W_1 {w1:.3g} exceeds {limit:g}")
        w1 = None
    return Solve(wall, w1, failures)


class EmDense:
    """simulate -> mm_complex -> run_em on a 64x64 image of a 16-atom grid."""

    name = "em_dense"
    quality_passes = 8

    def setup(self):
        self.kernel = GaussianKernel(sigma=0.05, dim=2)
        self.truth = builtin_configuration("grid", 16)
        self.grid = BinGrid([0.0, 0.0], [1.0, 1.0], (64, 64))
        self.t = 1e5
        # Without the early stop every image runs the same 50 iterations, so
        # the time per image tracks the cost per iteration, not the noise.
        self.config = EmConfig(max_iterations=50, early_stop_w1=0.0)

    def run_pass(self, seed: int, index: int) -> list:
        def solve():
            image = simulate(self.kernel, self.truth, self.grid, self.t,
                             replicate_seed(seed, index))
            init = mm_complex(image, self.kernel, self.truth.k)
            estimate, trace = run_em(image, self.kernel, init, self.config)
            return estimate, [trace]

        return [_timed_solve(solve, self.truth)]


class MmSweep:
    """run_risk_experiment over a (t, m) grid with the MM estimator only."""

    name = "mm_sweep"
    quality_passes = 6

    def setup(self):
        self.spec = ExperimentSpec(
            configuration="u-shape", k=12, sigma=0.05, resolutions=(50, 100, 200),
            t_values=(1e4, 1e5, 1e6, math.inf), replicates=8, estimators=("mm",),
            jobs=1,
        )

    def run_pass(self, seed: int, index: int) -> list:
        spec_seed = int(replicate_seed(seed, index).generate_state(1)[0])
        spec = dataclasses.replace(self.spec, seed=spec_seed)
        start = time.perf_counter()
        table = run_risk_experiment(spec)
        wall = time.perf_counter() - start
        solves = []
        for row in table.rows:
            # A noiseless cell is solved once and reused for every replicate.
            distinct = 1 if math.isinf(row["t"]) else row["n"]
            for w1 in row["w1_samples"][:distinct]:
                if w1 is None:
                    solves.append(Solve(0.0, None, ["estimator failed in the harness"]))
                elif not math.isfinite(w1):
                    solves.append(Solve(0.0, None, ["non-finite W_1"]))
                else:
                    solves.append(Solve(0.0, w1))
        # The harness times only the estimator; a solve here is simulate + MM +
        # scoring, so each gets an equal share of the sweep's wall time.
        for s in solves:
            s.wall_s = wall / len(solves)
        return solves


def four_clusters() -> AtomicUniformMeasure:
    """16 atoms: 4 clusters at {0.25, 0.75}^2, atoms at (+-0.04, +-0.04) offsets."""
    centres = [(cx, cy) for cy in (0.25, 0.75) for cx in (0.25, 0.75)]
    offsets = [(dx, dy) for dy in (-0.04, 0.04) for dx in (-0.04, 0.04)]
    return AtomicUniformMeasure(
        np.array([(cx + dx, cy + dy) for cx, cy in centres for dx, dy in offsets])
    )


class PipelineClusters:
    """simulate -> run_pipeline on a synthetic 80x80 four-cluster image."""

    name = "pipeline_clusters"
    quality_passes = 12

    def setup(self):
        self.kernel = GaussianKernel(sigma=0.05, dim=2)
        self.truth = four_clusters()
        self.grid = BinGrid([0.0, 0.0], [1.0, 1.0], (80, 80))
        self.t = 1e5
        # As in em_dense, no early stop: the time per image then follows the
        # cost per iteration more than the noise draw.
        self.config = PartitionConfig(
            mode_count=8, k=16, mode_half_widths=(0.08, 0.08), link_threshold=0.2,
            em=EmConfig(max_iterations=50, early_stop_w1=0.0),
        )

    def run_pass(self, seed: int, index: int) -> list:
        cell_failures = []

        def solve():
            image = simulate(self.kernel, self.truth, self.grid, self.t,
                             replicate_seed(seed, index))
            result = run_pipeline(image, self.kernel, self.config)
            for cell in result.cells:
                cell_failures.extend(
                    f"cell {cell.cell_id}: {flag}" for flag in cell.flags
                    if flag.startswith("estimation_failed")
                )
                if cell.em_summary is not None and not cell.em_summary["monotone"]:
                    cell_failures.append(f"cell {cell.cell_id}: EM log-likelihood decreased")
            return result.estimate, []

        solved = _timed_solve(solve, self.truth)
        if cell_failures:
            solved.failures += cell_failures
            solved.w1 = None
        return [solved]


def tabulated_gaussian(cov, spacing: float, half_extent: float) -> TabulatedKernel:
    """Gaussian density with covariance ``cov`` sampled on a square node grid."""
    nodes = np.arange(-half_extent, half_extent + 0.5 * spacing, spacing)
    xx, yy = np.meshgrid(nodes, nodes)  # samples[iy, ix]
    prec = np.linalg.inv(cov)
    quad = prec[0, 0] * xx**2 + 2 * prec[0, 1] * xx * yy + prec[1, 1] * yy**2
    return TabulatedKernel(np.exp(-0.5 * quad), spacing, [nodes[0], nodes[0]])


class GenericKernel:
    """Noiseless anisotropic-Gaussian MM, then tabulated-kernel simulate->MM->EM."""

    name = "generic_kernel"
    quality_passes = 8

    COV = np.array([[0.0025, 0.001], [0.001, 0.0016]])
    NOISELESS_W1_LIMIT = 1e-3

    def setup(self):
        self.anisotropic = GaussianKernel(cov=self.COV)
        self.tabulated = tabulated_gaussian(self.COV, 0.02, 0.2)
        self.truth = builtin_configuration("grid", 4)
        self.grid = BinGrid([0.0, 0.0], [1.0, 1.0], (10, 10))
        self.t = 1e5
        # One EM iteration with a short inner solve keeps the per-bin
        # finite-difference gradient cost the same from seed to seed.
        self.config = EmConfig(max_iterations=1, inner_max_iterations=4)

    def run_pass(self, seed: int, index: int) -> list:
        def exact_mm():
            image = noiseless(self.anisotropic, self.truth, self.grid)
            return mm_complex(image, self.anisotropic, self.truth.k), []

        def tabulated_em():
            image = simulate(self.tabulated, self.truth, self.grid, self.t,
                             replicate_seed(seed, index))
            init = mm_complex(image, self.tabulated, self.truth.k)
            estimate, trace = run_em(image, self.tabulated, init, self.config)
            return estimate, [trace]

        solves = [_timed_solve(tabulated_em, self.truth)]
        # The exact MM gives the same answer for every seed and has its own
        # W_1 gate, so it is not scored; running it on every other pass keeps
        # a run of 8 quality passes within the benchmark's time budget.
        if index % 2 == 0:
            exact = _timed_solve(exact_mm, self.truth, limit=self.NOISELESS_W1_LIMIT)
            exact.scored = False
            solves.append(exact)
        return solves


WORKLOADS = {w.name: w for w in (EmDense, MmSweep, PipelineClusters, GenericKernel)}
