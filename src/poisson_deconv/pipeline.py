"""Image-analysis workflow: partition a count image, estimate per cell, refine.

Greedy mode selection seeds a Voronoi tessellation of the window; modes closer
than a link threshold merge into cells through the connected components of
their proximity graph.  Each cell is denoised (mode-selection residuals
subtracted), cropped to its positive support with an exposure of its own,
assigned a number of components proportional to its mass (pairs of atoms
apportioned by largest remainder, so the counts sum to k), and estimated with
the complex method of moments: each crop gives its moment estimates, and one
stacked root solve per number of components inverts those of every cell
with that number, each cell bit for bit as alone; a cell whose row fails is
flagged alone.  The per-cell estimates merge into one uniform
measure over all recovered atoms, which one ascent of the log-likelihood on
the full image then refines: the denoised crops are not the cells' kernel
blur, so a likelihood fitted to them would pull the atoms off.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from .em import EmConfig, EmTrace, maximize_likelihood
# perfbench/test_tracer.py:114,117 asserts that the tracer patches the name
# run_em here; nothing in this module calls it.
from .em import run_em  # noqa: F401
from .kernels import Kernel, UniformBoxKernel
from .measures import AtomicUniformMeasure
from .mm import estimate_moments, kernel_psi, measure_from_moments
from .observation import BinGrid, CountImage

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PartitionConfig:
    """Settings for the partition-and-estimate workflow.

    mode_count is the number of greedy mode-selection iterations; the mode
    kernel is a uniform box with the given half widths, two positive, finite
    numbers; modes closer than link_threshold merge into one cell; k is the
    total component budget distributed over cells by mass.  The full-image
    refinement reads ``em.inner_max_iterations``; ``max_iterations`` and
    ``early_stop_w1`` do not apply to it.
    """

    mode_count: int
    k: int
    mode_half_widths: tuple = (180.0, 180.0)
    link_threshold: float = 270.0
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        widths = np.asarray(self.mode_half_widths, float)
        if widths.shape != (2,) or not np.all((widths > 0) & (widths < np.inf)):
            raise ValueError("mode_half_widths must be two positive, finite numbers")
        if not 0 < self.link_threshold < np.inf:
            raise ValueError("link_threshold must be positive and finite")


@dataclass
class CellResult:
    """Outcome of one partition cell; ``estimate`` is the cell's MM estimate."""

    cell_id: int
    mask: np.ndarray
    k_assigned: int
    estimate: AtomicUniformMeasure | None
    mass_ratio: float
    flags: list = field(default_factory=list)
    # Always None: cells run no EM.  perfbench/workloads.py:179 reads it.
    em_summary: dict | None = None


@dataclass
class PipelineResult:
    """Modes, residual and cells of the partition; the refined merged estimate
    and the EmTrace of its refinement (both None when no cell gave atoms)."""

    modes: np.ndarray
    residual: CountImage
    cells: list
    estimate: AtomicUniformMeasure | None
    trace: EmTrace | None = None


@dataclass
class ModeSelectionResult:
    modes: np.ndarray
    residual: CountImage


def mode_selection(image: CountImage, mode_kernel: Kernel, mode_count: int
                   ) -> ModeSelectionResult:
    """Greedy peak picking with blurred-spike subtraction.

    Each round places a mode at the anchor of the maximum-count bin (lowest
    row-major index on ties), scales the blurred unit spike so it matches the
    peak, subtracts, and clips at zero.  Stops early once the residual is
    exhausted.
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    grid = image.grid
    anchors = grid.anchors()
    residual = image.counts.copy()
    modes = []
    # peak-normalized subtraction can leave ulp-scale crumbs at the peak bin
    zero_tol = 1e-12 * max(float(image.counts.max()), 1.0)
    for _ in range(mode_count):
        if residual.max() <= zero_tol:
            logger.warning(
                "mode selection stopped early after %d of %d modes", len(modes),
                mode_count,
            )
            break
        j = int(np.argmax(residual))
        theta = anchors[j]
        spike = mode_kernel.bin_integral_matrix(grid, theta[None, :])[:, 0]
        peak = spike.max()
        if peak <= 0:
            break
        residual = np.maximum(residual - (residual[j] / peak) * spike, 0.0)
        modes.append(theta)
    residual_image = CountImage(grid, residual, np.inf)
    return ModeSelectionResult(np.array(modes), residual_image)


def partition(modes: np.ndarray, grid: BinGrid, link_threshold: float) -> list:
    """Voronoi cells of the modes, merged over the proximity graph.

    Returns boolean masks over the grid's bins (row-major); the masks are
    disjoint and cover every bin.
    """
    modes = np.atleast_2d(np.asarray(modes, float))
    if modes.shape[0] < 1:
        raise ValueError("at least one mode required")
    anchors = grid.anchors()
    owner = np.argmin(cdist(anchors, modes), axis=1)
    dist = cdist(modes, modes)
    adjacency = csr_matrix((dist < link_threshold).astype(np.int8))
    n_comp, labels = connected_components(adjacency, directed=False)
    # each bin's component, through the mode that owns it
    bin_component = labels[owner]
    return [bin_component == comp for comp in range(n_comp)]


def denoise_and_crop(image: CountImage, residual: CountImage,
                     mask: np.ndarray) -> CountImage | None:
    """Residual-subtracted counts on the mask, cropped to the positive support.

    The crop carries its own exposure, so its moments and likelihood describe
    the cell's atoms alone: at finite t the rounded counts come with
    t = their total; noiseless intensities are rescaled to unit mass.
    Returns None when the cell carries no positive count after denoising
    (and, at finite t, after rounding).
    """
    if residual.counts.shape != image.counts.shape:
        raise ValueError("residual must align with the image")
    den = np.maximum(image.counts - residual.counts, 0.0) * mask
    grid = image.grid
    n_x, n_y = grid.resolution
    den2d = den.reshape(n_y, n_x)
    rows = np.flatnonzero(den2d.any(axis=1))
    cols = np.flatnonzero(den2d.any(axis=0))
    if rows.size == 0:
        return None
    r0, r1 = rows[0], rows[-1] + 1
    c0, c1 = cols[0], cols[-1] + 1
    widths = grid.bin_widths
    lo = grid.window_lo + np.array([c0 * widths[0], r0 * widths[1]])
    hi = grid.window_lo + np.array([c1 * widths[0], r1 * widths[1]])
    sub = BinGrid(lo, hi, (c1 - c0, r1 - r0))
    counts = den2d[r0:r1, c0:c1].ravel()
    if image.noiseless:
        return CountImage(sub, counts / counts.sum(), np.inf)
    counts = np.round(counts)  # denoised counts stay integer at finite t
    if counts.sum() == 0:
        return None
    return CountImage(sub, counts, counts.sum())


def allocate_components(masses, k: int) -> list:
    """Per-cell component counts proportional to the cells' ``masses``, summing to k.

    Largest-remainder apportionment of the k // 2 pairs by the cells' pair
    quotas s_i / 2, where s_i = k * mass_i / total: each cell takes the floor
    of its quota and the pairs left over go to the largest fractional parts,
    lowest index first on ties.  When k is odd the last unit goes to the cell
    with the largest s_i - 2 * pairs_i, so every other count is even.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    masses = np.asarray(masses, dtype=float)
    total = masses.sum()
    if total <= 0:
        return [0] * masses.shape[0]
    shares = masses / total * k
    quotas = shares / 2.0
    pairs = np.floor(quotas).astype(int)
    leftover = k // 2 - int(pairs.sum())
    pairs[np.argsort(pairs - quotas, kind="stable")[:leftover]] += 1
    counts = 2 * pairs
    if k % 2:
        counts[np.argmax(shares - counts)] += 1
    return counts.tolist()


def run_pipeline(image: CountImage, kernel: Kernel,
                 config: PartitionConfig) -> PipelineResult:
    """Full workflow: modes, partition, denoise, allocate, estimate, merge, refine.

    Per-cell estimation failures are isolated: the cell is flagged and the
    remaining cells still contribute to the merged measure, which
    ``maximize_likelihood`` then refines on the full image.  Raises ValueError
    unless both the image and the kernel are planar.
    """
    if image.grid.dimension != 2 or kernel.dimension != 2:
        raise ValueError(f"the pipeline needs a planar image and kernel, got a "
                         f"{image.grid.dimension}-d image and a {kernel.dimension}-d kernel")
    mode_kernel = UniformBoxKernel(config.mode_half_widths)
    selection = mode_selection(image, mode_kernel, config.mode_count)
    if selection.modes.shape[0] == 0:
        return PipelineResult(selection.modes, selection.residual, [], None)
    masks = partition(selection.modes, image.grid, config.link_threshold)
    den = np.maximum(image.counts - selection.residual.counts, 0.0)
    if np.isfinite(image.t):
        den = np.round(den)
    masses = [float(den[mask].sum()) for mask in masks]
    k_per_cell = allocate_components(masses, config.k)
    total = den.sum()
    cells = []
    moments = {}  # k -> {cell id: that cell's moment estimates}
    for cid, (mask, mass, k_p) in enumerate(zip(masks, masses, k_per_cell)):
        result = CellResult(cid, mask, k_p, None, mass / total if total > 0 else 0.0)
        cells.append(result)
        if k_p == 0:
            result.flags.append("no_components")
            continue
        sub = denoise_and_crop(image, selection.residual, mask)
        if sub is None:
            result.flags.append("empty_after_denoise")
            continue
        moments.setdefault(k_p, {})[cid] = estimate_moments(sub, kernel_psi(kernel, k_p))
    for by_cell in moments.values():
        solved = measure_from_moments(np.array(list(by_cell.values())))
        for cid, estimate in zip(by_cell, solved):
            if isinstance(estimate, Exception):
                cells[cid].flags.append(f"estimation_failed: {estimate}")
                logger.warning("cell %d failed: %s", cid, estimate)
            else:
                cells[cid].estimate = estimate
    atoms = [cell.estimate.atoms for cell in cells if cell.estimate is not None]
    if not atoms:
        return PipelineResult(selection.modes, selection.residual, cells, None)
    merged = AtomicUniformMeasure(np.vstack(atoms))
    refined, trace = maximize_likelihood(image, kernel, merged, config.em)
    return PipelineResult(selection.modes, selection.residual, cells, refined, trace)
