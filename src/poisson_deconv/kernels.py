"""Convolution kernels, their moments, and bin-integrated intensities.

A kernel is the point-spread density K blurring the atomic measure; the
forward model only ever consumes integrals of K over axis-aligned rectangles
(bins).  Every kernel computes them for a whole grid at once from the grid's
axis edges: ``bin_integral_matrix`` gives the (m, k) integrals and
``bin_integral_gradient_matrix`` their closed-form (m, k, d) derivatives in
the atom coordinates, with no loop over bins.

- Product kernels (Gaussians with diagonal covariance, uniform boxes)
  multiply per-axis CDF differences.  Each axis factor is built from that
  axis's n + 1 edges, so a CDF tail or density value is computed once per
  edge and shared by the two bins that meet there.
- Anisotropic Gaussians integrate the bivariate density's strip masses
  along x with fixed-order Gauss-Legendre; their gradients are the same
  strip masses on the bins' edges.
- Tabulated kernels integrate their piecewise linear/bilinear interpolant
  exactly through per-atom hat-function weights.
"""
from __future__ import annotations

import json
import logging
import math

import numpy as np
from scipy.special import ndtr

from .measures import multi_indices

logger = logging.getLogger(__name__)

# Anisotropic Gaussians integrate over x within this many sigma_x of the atom;
# the mass left out is 2 * Phi(-9) < 3e-19.
_CLIP_SIGMAS = 9.0
# Gauss-Legendre nodes per x-panel of the anisotropic bin integrals.
_GL_ORDER = 10


class Kernel:
    """Base class: a probability density on R^d with d in {1, 2}."""

    dimension: int

    def density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spread(self) -> float:
        """Characteristic half-width (sigma for Gaussians, support radius otherwise)."""
        raise NotImplementedError

    def is_rotationally_symmetric(self) -> bool:
        return False

    def is_planar_product(self) -> bool:
        """True for a planar kernel whose bin integrals are dy[iy, j] * dx[ix, j].

        dx and dy are the kernel's axis factors (``axis_cdf_diff``) on the
        grid's x and y edges, and their derivatives ``axis_cdf_diff_grad``.
        """
        return False

    def axis_moments(self, order: int, axis: int = 0) -> np.ndarray:
        """1-d marginal-factor moments; only defined for product kernels."""
        raise NotImplementedError

    def multi_moments(self, order: int) -> dict:
        """Moments m_alpha^K for all multi-indices with |alpha| <= order."""
        raise NotImplementedError

    def bin_integral_matrix(self, grid, atoms: np.ndarray) -> np.ndarray:
        """Per-atom bin integrals over a whole grid, shape (m, k).

        Entry (i, j) is the integral of K(x - atom_j) over bin i in the grid's
        row-major order (i = iy * n_x + ix).
        """
        raise NotImplementedError

    def bin_integral_gradient_matrix(self, grid, atoms: np.ndarray) -> np.ndarray:
        """Gradient of bin_integral_matrix entries w.r.t. atom coordinates, (m, k, d).

        Shifting atom j by +delta along axis a shifts every bin by -delta
        relative to the kernel, so entry (i, j, a) is the kernel mass per unit
        length crossing bin i's lower face normal to a minus the mass crossing
        its upper face.
        """
        raise NotImplementedError


class _ProductKernel(Kernel):
    """Kernel factorizing over coordinates; bin integrals become per-axis products."""

    def axis_cdf_diff(self, edges: np.ndarray, coords: np.ndarray,
                      axis: int) -> np.ndarray:
        """Integrals of the axis factor over [edges_b, edges_b+1] - theta_j, shape (n, k).

        ``edges`` holds the n + 1 edges of n consecutive bins on ``axis``.
        """
        raise NotImplementedError

    def axis_cdf_diff_grad(self, edges, coords, axis):
        """Derivatives of axis_cdf_diff in theta_j, shape (n, k)."""
        raise NotImplementedError

    def is_planar_product(self) -> bool:
        return self.dimension == 2

    def bin_integral_matrix(self, grid, atoms: np.ndarray) -> np.ndarray:
        atoms = np.atleast_2d(atoms)
        dx = self.axis_cdf_diff(grid.axis_edges(0), atoms[:, 0], 0)
        if self.dimension == 1:
            return dx
        dy = self.axis_cdf_diff(grid.axis_edges(1), atoms[:, 1], 1)
        # row-major flat order: index = iy * n_x + ix
        return (dy[:, None, :] * dx[None, :, :]).reshape(grid.m, atoms.shape[0])

    def bin_integral_gradient_matrix(self, grid, atoms: np.ndarray) -> np.ndarray:
        atoms = np.atleast_2d(atoms)
        k = atoms.shape[0]
        out = np.empty((grid.m, k, self.dimension))
        if self.dimension == 1:
            out[:, :, 0] = self.axis_cdf_diff_grad(grid.axis_edges(0), atoms[:, 0], 0)
            return out
        ex, ey = grid.axis_edges(0), grid.axis_edges(1)
        dx = self.axis_cdf_diff(ex, atoms[:, 0], 0)
        dy = self.axis_cdf_diff(ey, atoms[:, 1], 1)
        gx = self.axis_cdf_diff_grad(ex, atoms[:, 0], 0)
        gy = self.axis_cdf_diff_grad(ey, atoms[:, 1], 1)
        blocks = out.reshape(dy.shape[0], dx.shape[0], k, 2)
        np.multiply(dy[:, None, :], gx[None, :, :], out=blocks[..., 0])
        np.multiply(gy[:, None, :], dx[None, :, :], out=blocks[..., 1])
        return out

    def multi_moments(self, order: int) -> dict:
        axis_mom = [self.axis_moments(order, axis) for axis in range(self.dimension)]
        return {
            alpha: float(math.prod(axis_mom[axis][a] for axis, a in enumerate(alpha)))
            for alpha in multi_indices(order, self.dimension)
        }


class GaussianKernel(_ProductKernel):
    """Centered Gaussian density with covariance sigma^2 I, diag(v), or full Sigma.

    Parameters
    ----------
    sigma : float, optional
        Isotropic standard deviation.
    cov : array_like, optional
        Full covariance matrix (symmetric positive definite); mutually
        exclusive with sigma.
    dim : int
        Ambient dimension, 1 or 2.
    """

    def __init__(self, sigma: float | None = None, cov=None, dim: int = 2):
        if (sigma is None) == (cov is None):
            raise ValueError("specify exactly one of sigma or cov")
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.dimension = dim
        if sigma is not None:
            if sigma <= 0:
                raise ValueError("sigma must be positive")
            self.cov = (sigma**2) * np.eye(dim)
        else:
            cov = np.atleast_2d(np.asarray(cov, float))
            if cov.shape != (dim, dim) or not np.allclose(cov, cov.T):
                raise ValueError("cov must be a symmetric (dim, dim) matrix")
            if np.any(np.linalg.eigvalsh(cov) <= 0):
                raise ValueError("cov must be positive definite")
            self.cov = cov
        # exact tests: a kernel only nearly diagonal or isotropic has complex
        # moments the symmetric shortcuts would set to zero
        self._diagonal = bool(np.array_equal(self.cov, np.diag(np.diag(self.cov))))
        self._axis_sigma = np.sqrt(np.diag(self.cov))

    def is_planar_product(self) -> bool:
        return self._diagonal and super().is_planar_product()

    def is_rotationally_symmetric(self) -> bool:
        return (self.dimension == 2 and self._diagonal
                and bool(np.all(self._axis_sigma == self._axis_sigma[0])))

    def spread(self) -> float:
        return float(self._axis_sigma.max())

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        prec = np.linalg.inv(self.cov)
        norm = 1.0 / np.sqrt((2 * np.pi) ** self.dimension * np.linalg.det(self.cov))
        quad = np.einsum("ni,ij,nj->n", x, prec, x)
        return norm * np.exp(-0.5 * quad)

    def axis_moments(self, order: int, axis: int = 0) -> np.ndarray:
        if not self._diagonal:
            raise ValueError("axis moments require a diagonal covariance")
        s = self._axis_sigma[axis]
        vals = np.zeros(order + 1)
        vals[0] = 1.0
        for j in range(2, order + 1, 2):
            vals[j] = s**j * _double_factorial(j - 1)
        return vals

    def multi_moments(self, order: int) -> dict:
        if self._diagonal:
            return super().multi_moments(order)
        return _gaussian_multi_moments(self.cov, order)

    # product CDF path (diagonal covariance only)
    def _standardized(self, edges, coords, axis):
        if not self._diagonal:
            raise ValueError("CDF product path requires a diagonal covariance")
        return (edges[:, None] - coords[None, :]) / self._axis_sigma[axis]

    def axis_cdf_diff(self, edges, coords, axis):
        return _normal_mass(self._standardized(edges, coords, axis))

    def axis_cdf_diff_grad(self, edges, coords, axis):
        z = self._standardized(edges, coords, axis)
        phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        return (phi[:-1] - phi[1:]) / self._axis_sigma[axis]

    # anisotropic path: strip masses of the bivariate density ------------------
    def _strip_masses(self, offsets, edges, axis):
        """Bin masses of the density along the lines u = offsets, shape (n_bins, n).

        ``offsets`` are coordinates on ``axis`` relative to the atom and
        ``edges`` the other axis's bin edges relative to the atom.  Entry
        (b, l) is phi_u(u_l) * P(v in bin b | u = u_l): the density
        integrated over bin b's span of the line through u_l.
        """
        var_u = self.cov[axis, axis]
        var_v = self.cov[1 - axis, 1 - axis]
        beta = self.cov[0, 1] / var_u
        cond_sd = math.sqrt(var_v - beta * self.cov[0, 1])
        z = (edges[:, None] - beta * offsets[None, :]) / cond_sd
        phi = np.exp(-0.5 * offsets * offsets / var_u) / math.sqrt(2 * math.pi * var_u)
        return _normal_mass(z) * phi

    def _x_panels(self, bin_width: float):
        """Gauss-Legendre node fractions and weights over a bin's clipped x-span.

        Each bin's span is cut into equal panels no wider than the scale on
        which the integrand varies: sigma_x for the marginal density and
        s / |beta| for the conditional CDF along x.
        """
        sx = self._axis_sigma[0]
        beta = self.cov[0, 1] / self.cov[0, 0]  # nonzero: the covariance is not diagonal
        cond_sd = math.sqrt(self.cov[1, 1] - beta * self.cov[0, 1])
        scale = min(sx, cond_sd / abs(beta))
        span = min(bin_width, 2 * _CLIP_SIGMAS * sx)
        panels = max(1, math.ceil(span / scale))
        nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
        starts = np.arange(panels)[:, None]
        fractions = ((starts + 0.5 * (nodes + 1.0)) / panels).ravel()
        return fractions, np.tile(weights / (2 * panels), panels)

    def bin_integral_matrix(self, grid, atoms):
        if self._diagonal:
            return super().bin_integral_matrix(grid, atoms)
        atoms = np.atleast_2d(atoms)
        ex, ey = grid.axis_edges(0), grid.axis_edges(1)
        clip = _CLIP_SIGMAS * self._axis_sigma[0]
        fractions, weights = self._x_panels(ex[1] - ex[0])
        out = np.empty((grid.m, atoms.shape[0]))
        for j, (tx, ty) in enumerate(atoms):
            # x-span of every bin relative to the atom, clipped to +-clip
            lo = np.clip(ex[:-1] - tx, -clip, clip)
            width = np.clip(ex[1:] - tx, -clip, clip) - lo
            offsets = lo[:, None] + width[:, None] * fractions[None, :]
            masses = self._strip_masses(offsets.ravel(), ey - ty, 0)
            masses = masses.reshape(ey.shape[0] - 1, ex.shape[0] - 1, fractions.shape[0])
            out[:, j] = np.einsum("yxn,xn->yx", masses, width[:, None] * weights).ravel()
        return out

    def bin_integral_gradient_matrix(self, grid, atoms):
        if self._diagonal:
            return super().bin_integral_gradient_matrix(grid, atoms)
        atoms = np.atleast_2d(atoms)
        ex, ey = grid.axis_edges(0), grid.axis_edges(1)
        out = np.empty((grid.m, atoms.shape[0], 2))
        for j, (tx, ty) in enumerate(atoms):
            fx = self._strip_masses(ex - tx, ey - ty, 0)  # (n_y, n_x + 1)
            fy = self._strip_masses(ey - ty, ex - tx, 1)  # (n_x, n_y + 1)
            out[:, j, 0] = (fx[:, :-1] - fx[:, 1:]).ravel()
            out[:, j, 1] = (fy[:, :-1] - fy[:, 1:]).T.ravel()
        return out


class UniformBoxKernel(_ProductKernel):
    """Uniform density on a centered axis-aligned box [-h_1, h_1] x ... x [-h_d, h_d]."""

    def __init__(self, half_widths):
        hw = np.atleast_1d(np.asarray(half_widths, float))
        if np.any(hw <= 0):
            raise ValueError("half widths must be positive")
        if hw.shape[0] not in (1, 2):
            raise ValueError("box kernel supports dimensions 1 and 2")
        self.half_widths = hw
        self.dimension = hw.shape[0]

    def spread(self) -> float:
        return float(self.half_widths.max())

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        inside = np.all(np.abs(x) <= self.half_widths[None, :], axis=1)
        return inside / np.prod(2 * self.half_widths)

    def axis_moments(self, order: int, axis: int = 0) -> np.ndarray:
        h = self.half_widths[axis]
        vals = np.zeros(order + 1)
        for j in range(0, order + 1, 2):
            vals[j] = h**j / (j + 1)
        return vals

    def axis_cdf_diff(self, edges, coords, axis):
        h = self.half_widths[axis]
        e = edges[:, None] - coords[None, :]
        a, b = e[:-1], e[1:]
        overlap = np.clip(np.minimum(b, h) - np.maximum(a, -h), 0.0, None)
        return overlap / (2 * h)

    def axis_cdf_diff_grad(self, edges, coords, axis):
        h = self.half_widths[axis]
        e = edges[:, None] - coords[None, :]
        a, b = e[:-1], e[1:]
        overlap = np.minimum(b, h) - np.maximum(a, -h)
        slope = ((a > -h).astype(float) - (b < h)) / (2 * h)
        return np.where(overlap > 0, slope, 0.0)


class TabulatedKernel(Kernel):
    """Compactly supported kernel given by samples on a regular grid.

    Samples are interpreted as nodal values of a piecewise linear (1-d) or
    bilinear (2-d) interpolant vanishing outside the sampled box; integrals of
    that interpolant are computed in closed form.  The kernel is normalized to
    unit mass on load, logging the deviation when it exceeds 1e-3.

    Parameters
    ----------
    samples : array_like
        Finite, nonnegative nodal values, shape (n,) for d=1 or (n_y, n_x) for d=2.
    spacing : float
        Grid spacing between consecutive nodes (same along every axis).
    origin : array_like
        Coordinate of the first node, shape (d,).
    """

    def __init__(self, samples, spacing: float, origin):
        samples = np.asarray(samples, float)
        if samples.ndim not in (1, 2):
            raise ValueError("samples must be 1-d or 2-d")
        if not np.all(np.isfinite(samples)):
            raise ValueError("kernel samples must be finite (no NaN/inf)")
        if np.any(samples < 0):
            raise ValueError("kernel samples must be nonnegative")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        self.dimension = samples.ndim
        self.spacing = float(spacing)
        self.origin = np.atleast_1d(np.asarray(origin, float))
        if self.origin.shape[0] != self.dimension:
            raise ValueError("origin must have one coordinate per dimension")
        mass = self._raw_mass(samples)
        if mass <= 0:
            raise ValueError("kernel samples must carry positive mass")
        if abs(mass - 1.0) > 1e-3:
            logger.info("normalizing tabulated kernel: raw mass %.6g", mass)
        self.samples = samples / mass
        self._node_coords = [
            self.origin[axis] + self.spacing * np.arange(self._shape()[axis])
            for axis in range(self.dimension)
        ]

    def _shape(self):
        if self.dimension == 1:
            return (self.samples.shape[0],)
        return (self.samples.shape[1], self.samples.shape[0])  # (n_x, n_y)

    def _raw_mass(self, samples) -> float:
        if samples.ndim == 1:
            return float(np.trapezoid(samples, dx=self.spacing))
        inner = np.trapezoid(samples, dx=self.spacing, axis=1)
        return float(np.trapezoid(inner, dx=self.spacing))

    def support_box(self):
        lo = self.origin
        hi = np.array([c[-1] for c in self._node_coords])
        return lo, hi

    def spread(self) -> float:
        lo, hi = self.support_box()
        return float(np.max(hi - lo) / 2)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        if self.dimension == 1:
            return np.interp(x[:, 0], self._node_coords[0], self.samples,
                             left=0.0, right=0.0)
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(
            (self._node_coords[1], self._node_coords[0]), self.samples,
            bounds_error=False, fill_value=0.0,
        )
        return interp(x[:, ::-1])

    def _axis_weights(self, edges: np.ndarray, theta: float, axis: int):
        """One atom's hat-function weights on one axis, each (n_bins, n_nodes).

        ``W[b, n]`` integrates hat_n over bin b shifted by -theta, from the
        hat's antiderivative at the two shifted edges.  ``dW[b, n]`` is its
        derivative in theta, hat_n(lo_b - theta) - hat_n(hi_b - theta).  Both
        keep the half-hats at the first and last node and vanish outside the
        sampled box, as the interpolant does.
        """
        nodes = self._node_coords[axis]
        shifted = edges - theta
        t = (np.clip(shifted, nodes[0], nodes[-1])[:, None] - nodes[None, :]) / self.spacing
        a = np.clip(t, -1.0, 1.0)
        antiderivative = self.spacing * (a - 0.5 * a * np.abs(a))
        inside = (shifted >= nodes[0]) & (shifted <= nodes[-1])
        hat = np.clip(1.0 - np.abs(t), 0.0, None) * inside[:, None]
        return np.diff(antiderivative, axis=0), hat[:-1] - hat[1:]

    def bin_integral_matrix(self, grid, atoms):
        atoms = np.atleast_2d(atoms)
        out = np.empty((grid.m, atoms.shape[0]))
        edges = [grid.axis_edges(axis) for axis in range(self.dimension)]
        for j, atom in enumerate(atoms):
            wx, _ = self._axis_weights(edges[0], atom[0], 0)
            if self.dimension == 1:
                out[:, j] = wx @ self.samples
            else:
                wy, _ = self._axis_weights(edges[1], atom[1], 1)
                out[:, j] = (wy @ self.samples @ wx.T).ravel()
        return out

    def bin_integral_gradient_matrix(self, grid, atoms):
        atoms = np.atleast_2d(atoms)
        out = np.empty((grid.m, atoms.shape[0], self.dimension))
        edges = [grid.axis_edges(axis) for axis in range(self.dimension)]
        for j, atom in enumerate(atoms):
            wx, dwx = self._axis_weights(edges[0], atom[0], 0)
            if self.dimension == 1:
                out[:, j, 0] = dwx @ self.samples
            else:
                wy, dwy = self._axis_weights(edges[1], atom[1], 1)
                out[:, j, 0] = (wy @ self.samples @ dwx.T).ravel()
                out[:, j, 1] = (dwy @ self.samples @ wx.T).ravel()
        return out

    def _moment_weights(self, order: int, axis: int) -> np.ndarray:
        """Integrals of x^j * hat_n(x) over the sampled span, shape (order + 1, n).

        hat_n is the piecewise-linear nodal basis function of node n; Gauss-
        Legendre with (order + 3) // 2 points per cell is exact for the
        degree-(j + 1) integrand on each cell.
        """
        coords = self._node_coords[axis]
        nodes, weights = np.polynomial.legendre.leggauss((order + 3) // 2)
        half = 0.5 * self.spacing
        x = (coords[:-1] + half)[:, None] + half * nodes  # (cells, points)
        u = 0.5 * (nodes + 1.0)  # each point's fraction of the way along its cell
        powers = x ** np.arange(order + 1)[:, None, None]  # (order + 1, cells, points)
        table = np.zeros((order + 1, coords.shape[0]))
        table[:, :-1] += powers @ (half * weights * (1.0 - u))
        table[:, 1:] += powers @ (half * weights * u)
        return table

    def multi_moments(self, order: int) -> dict:
        wx = self._moment_weights(order, 0)
        if self.dimension == 1:
            moments = wx @ self.samples
            return {(j,): float(moments[j]) for j in range(order + 1)}
        moments = wx @ self.samples.T @ self._moment_weights(order, 1).T  # [a, b]
        return {(a, b): float(moments[a, b]) for a, b in multi_indices(order, 2)}

    @classmethod
    def load(cls, csv_path, json_path=None) -> "TabulatedKernel":
        """Load samples from CSV (row-major) plus a JSON sidecar with spacing/origin."""
        csv_path = str(csv_path)
        if json_path is None:
            json_path = csv_path.rsplit(".", 1)[0] + ".json"
        samples = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        with open(json_path) as fh:
            meta = json.load(fh)
        if "spacing" not in meta:
            raise ValueError("kernel sidecar must define 'spacing'")
        origin = meta.get("origin", [0.0, 0.0])
        if samples.shape[0] == 1:
            return cls(samples[0], float(meta["spacing"]), origin[:1])
        return cls(samples, float(meta["spacing"]), origin)


def _normal_mass(z: np.ndarray) -> np.ndarray:
    """P(z[b] < Z < z[b + 1]) for standard normal Z and nondecreasing edges z.

    ``z`` holds n + 1 standardized edges along axis 0; the result has n rows.
    Each difference is taken on the side of the mean where it does not
    cancel, from the tail masses Phi(-|z|), so bins far in either tail keep
    their relative accuracy.  Each tail mass is computed once and shared by
    the two bins meeting at that edge.
    """
    tail = ndtr(-np.abs(z))
    za, zb, ta, tb = z[:-1], z[1:], tail[:-1], tail[1:]
    return np.where(za >= 0, ta - tb, np.where(zb <= 0, tb - ta, 1.0 - ta - tb))


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_multi_moments(cov: np.ndarray, order: int) -> dict:
    """Centered Gaussian monomial moments via the Stein recurrence.

    m_{a,b} = (a-1) * Sxx * m_{a-2,b} + b * Sxy * m_{a-1,b-1}, seeded by
    m_{0,0} = 1; the reduction on the first index suffices because moments are
    symmetric in the coordinates.
    """
    sxx, sxy, syy = cov[0, 0], cov[0, 1], cov[1, 1]
    memo = {}

    def mom(a, b):
        if a < 0 or b < 0:
            return 0.0
        if (a, b) in memo:
            return memo[(a, b)]
        if a == 0 and b == 0:
            val = 1.0
        elif a == 0:
            val = (b - 1) * syy * mom(0, b - 2) if b >= 2 else 0.0
        else:
            val = (a - 1) * sxx * mom(a - 2, b) + b * sxy * mom(a - 1, b - 1)
        memo[(a, b)] = val
        return val

    return {alpha: float(mom(*alpha)) for alpha in multi_indices(order, 2)}


def kernel_moments(kernel: Kernel, order: int) -> np.ndarray:
    """Kernel moments m_0..m_order as one array, the first link of the MM chain.

    Entry j is int y^j K(y) dy: a float array for kernels on the line, and a
    complex array of the moments of z = x + iy for planar kernels (identically
    zero beyond order 0 for rotationally symmetric kernels).  m_0 is 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if kernel.dimension == 1:
        moments = kernel.multi_moments(order)
        return np.array([moments[(j,)] for j in range(order + 1)])
    vals = np.zeros(order + 1, dtype=complex)
    vals[0] = 1.0
    if not kernel.is_rotationally_symmetric():
        moments = kernel.multi_moments(order)
        for j in range(order + 1):
            vals[j] = sum(math.comb(j, l) * 1j**l * moments[(j - l, l)]
                          for l in range(j + 1))
    return vals
