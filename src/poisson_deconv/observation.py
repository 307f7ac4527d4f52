"""Bin geometry, forward simulation of the binned Poisson model, and image I/O.

Counts are generated as X_i ~ Poi(t * intensity_i) over a regular grid of
bins partitioning the observation window (``poisson_image`` draws them from
given intensities, ``simulate`` from a measure); the noiseless regime stores the
intensities themselves with t = inf so every estimator runs unchanged on
exact data.  Randomness flows through numpy's counter-based Philox generator
seeded from (seed, spawn_key) so replicates are independently reproducible.
"""
from __future__ import annotations

import json
import logging
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .measures import AtomicUniformMeasure

logger = logging.getLogger(__name__)


class MetadataError(ValueError):
    """Image metadata is missing or malformed."""


class DimensionMismatchError(ValueError):
    """CSV payload does not match the metadata dimensions."""


class MalformedCountError(ValueError):
    """A CSV count token is not a number."""


class NegativeCountError(ValueError):
    """A count entry is negative."""


class NonFiniteCountError(ValueError):
    """A count entry is NaN or infinite."""


@dataclass(frozen=True, eq=False)
class BinGrid:
    """Regular grid of axis-aligned bins partitioning a window.

    Parameters
    ----------
    window_lo, window_hi : array_like, shape (d,)
        Corners of the observation window (d = 1 or 2).
    resolution : tuple of int
        Bins per axis, (n_x,) or (n_x, n_y); m = prod(resolution).
        Flat indexing is row-major: i = iy * n_x + ix.

    The axis edges and m are computed once on construction; ``axis_edges``
    returns the stored read-only arrays.
    """

    window_lo: np.ndarray
    window_hi: np.ndarray
    resolution: tuple
    m: int = field(init=False)
    _edges: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.window_lo, float))
        hi = np.atleast_1d(np.array(self.window_hi, float))
        res = tuple(int(n) for n in np.atleast_1d(self.resolution))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.shape[0] not in (1, 2):
            raise ValueError("window must be 1- or 2-dimensional")
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError("window corners must be finite")
        if np.any(hi <= lo):
            raise ValueError("window_hi must exceed window_lo")
        if len(res) != lo.shape[0] or any(n < 1 for n in res):
            raise ValueError("resolution must give >= 1 bins per axis")
        edges = tuple(np.linspace(a, b, n + 1) for a, b, n in zip(lo, hi, res))
        for array in (lo, hi) + edges:
            array.flags.writeable = False
        object.__setattr__(self, "window_lo", lo)
        object.__setattr__(self, "window_hi", hi)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "m", int(np.prod(res)))

    @property
    def dimension(self) -> int:
        return self.window_lo.shape[0]

    @property
    def bin_widths(self) -> np.ndarray:
        return (self.window_hi - self.window_lo) / np.asarray(self.resolution, float)

    def axis_edges(self, axis: int) -> np.ndarray:
        return self._edges[axis]

    def axis_centres(self, axis: int) -> np.ndarray:
        """Centres of the bins along ``axis``, shape (n_axis,)."""
        return (self.window_lo[axis]
                + (np.arange(self.resolution[axis]) + 0.5) * self.bin_widths[axis])

    def anchors(self) -> np.ndarray:
        """Bin centres as points, (m, d), row-major."""
        axes = [self.axis_centres(a) for a in range(self.dimension)]
        if self.dimension == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1])  # row-major: y varies slowest
        return np.column_stack([xx.ravel(), yy.ravel()])

    def center(self) -> np.ndarray:
        return 0.5 * (self.window_lo + self.window_hi)


@dataclass(frozen=True, eq=False)
class CountImage:
    """Per-bin observations: Poisson counts (t finite) or exact intensities (t = inf)."""

    grid: BinGrid
    counts: np.ndarray
    t: float

    def __post_init__(self):
        counts = np.asarray(self.counts, float).ravel()
        if counts.shape[0] != self.grid.m:
            raise DimensionMismatchError(
                f"counts length {counts.shape[0]} does not match grid with m={self.grid.m}"
            )
        if not np.all(np.isfinite(counts)):
            raise NonFiniteCountError("counts must be finite (no NaN or inf)")
        if np.any(counts < 0):
            raise NegativeCountError("counts must be nonnegative")
        if not (self.t > 0):
            raise ValueError("exposure t must be positive (inf for noiseless)")
        if np.isfinite(self.t) and not np.array_equal(counts, np.round(counts)):
            raise ValueError("counts must be integers when t is finite")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "t", float(self.t))

    @property
    def noiseless(self) -> bool:
        return np.isinf(self.t)

    def as_2d(self) -> np.ndarray:
        if self.grid.dimension == 1:
            return self.counts[None, :]
        n_x, n_y = self.grid.resolution
        return self.counts.reshape(n_y, n_x)

    def total(self) -> float:
        return float(self.counts.sum())


def intensities(kernel: Kernel, mu: AtomicUniformMeasure, grid: BinGrid) -> np.ndarray:
    """Exact bin intensities (K * mu)(B_i) for every bin, shape (m,).

    Values are clipped at 0, so rounding in a kernel's far tail never yields
    a negative intensity.
    """
    return np.clip(kernel.bin_integral_matrix(grid, mu.atoms).mean(axis=1), 0.0, None)


def replicate_seed(seed: int, *indices: int) -> np.random.SeedSequence:
    """Derived stream for a (cell, replicate, ...) coordinate of an experiment."""
    return np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in indices))


def poisson_image(grid: BinGrid, intensity: np.ndarray, t: float, seed) -> CountImage:
    """Draw X_i ~ Poi(t * intensity_i) independently; deterministic given seed.

    ``intensity`` holds the nonnegative bin intensities, shape (m,), so one
    set of intensities serves any number of draws.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite (use noiseless() for t = inf)")
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.poisson(t * intensity).astype(float)
    return CountImage(grid, counts, t)


def simulate(kernel: Kernel, mu: AtomicUniformMeasure, grid: BinGrid, t: float,
             seed) -> CountImage:
    """Draw X_i ~ Poi(t * intensity_i) from the intensities of ``mu`` on ``grid``.

    The draw is ``poisson_image``'s; call that directly to draw many images
    from intensities computed once.
    """
    return poisson_image(grid, intensities(kernel, mu, grid), t, seed)


def noiseless(kernel: Kernel, mu: AtomicUniformMeasure, grid: BinGrid) -> CountImage:
    """Exact intensities as fractional counts with t = inf."""
    return CountImage(grid, intensities(kernel, mu, grid), np.inf)


# image format: image.csv (row-major counts) + image.json metadata -----------

_REQUIRED_META = ("width_px", "height_px", "pixel_size")


def save_image(image: CountImage, directory) -> tuple:
    """Write image.csv / image.json; integer counts are written bit-exactly."""
    if image.grid.dimension != 2:
        raise ValueError("the CSV image format covers planar images")
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, "image.csv")
    json_path = os.path.join(directory, "image.json")
    rows = image.as_2d()
    with open(csv_path, "w") as fh:
        for row in rows:
            if image.noiseless:
                fh.write(",".join(repr(float(v)) for v in row))
            else:
                fh.write(",".join(str(int(round(v))) for v in row))
            fh.write("\n")
    widths = image.grid.bin_widths
    meta = {
        "width_px": image.grid.resolution[0],
        "height_px": image.grid.resolution[1],
        "pixel_size": float(widths[0]),
        "units": "au",
        "t": "inf" if image.noiseless else image.t,
    }
    if widths[0] != widths[1]:
        meta["pixel_size_y"] = float(widths[1])
    origin = image.grid.window_lo
    if np.any(origin != 0):
        meta["origin"] = origin.tolist()
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, allow_nan=False)
    return csv_path, json_path


def load_image(path) -> CountImage:
    """Load a CountImage from image.csv plus its image.json sidecar.

    ``path`` may be the CSV file or a directory containing image.csv.
    Raises MetadataError, DimensionMismatchError, MalformedCountError (a CSV
    token that is not a number), NegativeCountError, or NonFiniteCountError
    for the respective malformed inputs; count errors name the 0-based file
    line and column of the offending token.
    """
    path = str(path)
    if os.path.isdir(path):
        path = os.path.join(path, "image.csv")
    json_path = path.rsplit(".", 1)[0] + ".json"
    try:
        with open(json_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise MetadataError(f"metadata sidecar not found: {json_path}")
    except json.JSONDecodeError as exc:
        raise MetadataError(f"metadata is not valid JSON: {exc}")
    for key in _REQUIRED_META:
        if key not in meta:
            raise MetadataError(f"metadata missing required key '{key}'")
    width, height = meta["width_px"], meta["height_px"]
    if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in (width, height)):
        raise MetadataError(f"width_px and height_px must be integers, got {width!r}, {height!r}")
    try:
        pixel = float(meta["pixel_size"])
        pixel_y = float(meta.get("pixel_size_y", pixel))
    except (TypeError, ValueError, OverflowError):
        raise MetadataError("pixel_size and pixel_size_y must be numbers")
    if width < 1 or height < 1 or not (0 < pixel < np.inf and 0 < pixel_y < np.inf):
        raise MetadataError("image dimensions and pixel sizes must be positive and finite")
    try:
        origin = np.asarray(meta.get("origin", [0.0, 0.0]), float)
    except (TypeError, ValueError):
        origin = None
    if origin is None or origin.shape != (2,) or not np.all(np.isfinite(origin)):
        raise MetadataError(f"origin must be two finite numbers, got {meta['origin']!r}")

    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            row = []
            for col_no, tok in enumerate(values):
                try:
                    val = float(tok)
                except ValueError:
                    raise MalformedCountError(
                        f"unparsable count {tok.strip()!r} at row {line_no}, "
                        f"column {col_no}"
                    ) from None
                if val < 0:
                    raise NegativeCountError(
                        f"negative count at row {line_no}, column {col_no}"
                    )
                row.append(val)
            rows.append(row)
    if len(rows) != height or any(len(r) != width for r in rows):
        raise DimensionMismatchError(
            f"CSV payload is {len(rows)} rows x {len(rows[0]) if rows else 0} columns, "
            f"metadata declares {height} x {width}"
        )
    counts = np.asarray(rows, float)

    t_raw = meta.get("t")
    if t_raw is None:
        t = counts.sum()
        logger.warning("metadata has no exposure 't'; defaulting to total count %.6g", t)
    elif isinstance(t_raw, str) and t_raw.lower() in ("inf", "infinity"):
        t = np.inf
    else:
        try:
            t = float(t_raw)
        except (TypeError, ValueError):
            raise MetadataError("exposure 't' must be numeric or 'inf'")
    hi = origin + np.array([width * pixel, height * pixel_y])
    grid = BinGrid(origin, hi, (width, height))
    return CountImage(grid, counts.ravel(), t)
