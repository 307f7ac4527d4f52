"""Convolution kernels, their moments, and bin-integrated intensities.

A kernel is the point-spread density K blurring the atomic measure; the
forward model only ever consumes integrals of K over axis-aligned rectangles
(bins).  Every kernel computes them for a whole grid at once from the grid's
axis edges: ``bin_integral_matrix`` gives the (m, k) integrals and
``bin_integral_gradient_matrix`` their closed-form (m, k, d) derivatives in
the atom coordinates, with no loop over bins; they serve EM's Q function,
the E-step and simulation.  The observed-data log-likelihood reads only
``intensity_and_vjp``: the intensities sum_j L_ij and a lazy contraction of
bin weights with their gradient, which a kernel may form without either matrix.

- Product kernels (Gaussians with diagonal covariance, uniform boxes)
  multiply per-axis CDF differences.  ``axis_factors``, their one axis
  primitive, gives an axis's masses and their derivatives from one pass over
  the axis's n + 1 edges: a CDF tail or density value is computed once per
  edge and shared by the two bins that meet there, and the edges relative
  to the atoms (standardized, for a Gaussian) are formed once and feed both.
  On the plane, ``intensity_and_vjp`` contracts the axis factors directly.
- Anisotropic Gaussians integrate the bivariate density's strip masses
  along x with fixed-order Gauss-Legendre; their gradients are the same
  strip masses on the bins' edges.
- Tabulated kernels integrate their piecewise linear/bilinear interpolant
  exactly through hat-function weights built for all atoms at once.
  ``bin_integral_matrix`` builds the weights only; the gradient also builds
  their slopes, from the same clipped hat coordinates.

The MM chain needs only the moments m_j = E[z^j] of the kernel, with z = x
on the line and z = x + iy in the plane, and each kernel returns m_0..m_order
as one array (``Kernel.moments``).  Gaussians use Wick's theorem in closed
form: E[z^(2l)] = (2l - 1)!! c^l with c = E[z^2], and odd moments vanish.
Box and tabulated kernels build the real table E[x^a y^b] and fold it into
complex moments by the binomial expansion of (x + iy)^j.
"""
from __future__ import annotations

import functools
import json
import logging
import math

import numpy as np
from scipy.special import ndtr

logger = logging.getLogger(__name__)

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

    def moments(self, order: int) -> np.ndarray:
        """Kernel moments m_0..m_order as one array, the first link of the MM chain.

        Entry j is int y^j K(y) dy: a float array for kernels on the line, and a
        complex array of the moments of z = x + iy for planar kernels.  m_0 is 1.
        """
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

    def intensity_and_vjp(self, grid, atoms: np.ndarray) -> tuple:
        """Bin intensities summed over atoms, and their vector-Jacobian product.

        Returns ``(lam, vjp)``: lam, shape (m,), is sum_j L_ij for the
        ``bin_integral_matrix`` L, and ``vjp(w)`` the (k, d) array
        sum_i w_i dL_ij/dtheta_j for bin weights w of shape (m,).  The
        gradient is computed only when vjp is called.  This default sums and
        contracts the dense matrices.
        """
        lam = self.bin_integral_matrix(grid, atoms).sum(axis=1)

        def vjp(w):
            return np.einsum("i,ijd->jd", w, self.bin_integral_gradient_matrix(grid, atoms))

        return lam, vjp


class _ProductKernel(Kernel):
    """Kernel factorizing over coordinates; bin integrals become per-axis products."""

    def axis_factors(self, edges: np.ndarray, coords: np.ndarray, axis: int) -> tuple:
        """Axis factor masses over [edges_b, edges_b+1] - theta_j and their derivatives.

        ``edges`` holds the n + 1 edges of n consecutive bins on ``axis``; one
        pass over them gives both (n, k) arrays.
        """
        raise NotImplementedError

    def bin_integral_matrix(self, grid, atoms: np.ndarray) -> np.ndarray:
        atoms = np.atleast_2d(atoms)
        dx = self.axis_factors(grid.axis_edges(0), atoms[:, 0], 0)[0]
        if self.dimension == 1:
            return dx
        dy = self.axis_factors(grid.axis_edges(1), atoms[:, 1], 1)[0]
        # row-major flat order: index = iy * n_x + ix
        return (dy[:, None, :] * dx[None, :, :]).reshape(grid.m, atoms.shape[0])

    def bin_integral_gradient_matrix(self, grid, atoms: np.ndarray) -> np.ndarray:
        atoms = np.atleast_2d(atoms)
        k = atoms.shape[0]
        out = np.empty((grid.m, k, self.dimension))
        dx, gx = self.axis_factors(grid.axis_edges(0), atoms[:, 0], 0)
        if self.dimension == 1:
            out[:, :, 0] = gx
            return out
        dy, gy = self.axis_factors(grid.axis_edges(1), atoms[:, 1], 1)
        blocks = out.reshape(dy.shape[0], dx.shape[0], k, 2)
        np.multiply(dy[:, None, :], gx[None, :, :], out=blocks[..., 0])
        np.multiply(gy[:, None, :], dx[None, :, :], out=blocks[..., 1])
        return out

    def intensity_and_vjp(self, grid, atoms: np.ndarray) -> tuple:
        """On the plane, contractions of the axis factors; no (m, k) or (m, k, d) array.

        ``axis_factors`` runs once per axis.  The factors are laid out as
        contiguous (k, n) rows, [dy; gy] and [gx; dx], because einsum
        contracts rows of contiguous memory about 1.5 times as fast as (n, k)
        columns (80 x 80 bins, k = 16).  One einsum of w with [gx; dx] serves
        both coordinates of the gradient.  No BLAS routine is called (no
        matmul, dot, tensordot or optimized einsum): the first one in a
        process pages in its code, which added 0.39 MiB resident memory on
        the em_dense benchmark and 0.45 MiB on pipeline_clusters.
        """
        if self.dimension == 1:
            return super().intensity_and_vjp(grid, atoms)
        atoms = np.atleast_2d(atoms)
        k = atoms.shape[0]
        dx, gx = self.axis_factors(grid.axis_edges(0), atoms[:, 0], 0)
        dy, gy = self.axis_factors(grid.axis_edges(1), atoms[:, 1], 1)
        y_factors = np.concatenate([dy.T, gy.T])  # (2k, n_y)
        x_factors = np.concatenate([gx.T, dx.T])  # (2k, n_x)
        lam = np.einsum("jy,jx->yx", y_factors[:k], x_factors[k:]).ravel()

        def vjp(w):
            # rows j < k hold (w gx)^T and rows j >= k (w dx)^T; each meets its
            # partner in [dy; gy] and sums over y
            rows = np.einsum("yx,jx->jy", w.reshape(-1, x_factors.shape[1]), x_factors)
            return np.einsum("jy,jy->j", rows, y_factors).reshape(2, k).T

        return lam, vjp


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
            if not 0 < sigma < np.inf:
                raise ValueError("sigma must be positive and finite")
            self.cov = (sigma**2) * np.eye(dim)
        else:
            cov = np.atleast_2d(np.asarray(cov, float))
            if (cov.shape != (dim, dim) or not np.all(np.isfinite(cov))
                    or not np.allclose(cov, cov.T)):
                raise ValueError("cov must be a finite symmetric (dim, dim) matrix")
            if np.any(np.linalg.eigvalsh(cov) <= 0):
                raise ValueError("cov must be positive definite")
            self.cov = cov
        # exact test: any correlation, however small, takes the anisotropic path
        self._diagonal = bool(np.array_equal(self.cov, np.diag(np.diag(self.cov))))
        self._axis_sigma = np.sqrt(np.diag(self.cov))

    def spread(self) -> float:
        return float(self._axis_sigma.max())

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        prec = np.linalg.inv(self.cov)
        norm = 1.0 / np.sqrt((2 * np.pi) ** self.dimension * np.linalg.det(self.cov))
        quad = np.einsum("ni,ij,nj->n", x, prec, x)
        return norm * np.exp(-0.5 * quad)

    def moments(self, order: int) -> np.ndarray:
        # c = E[z^2] is exactly 0 for an isotropic planar kernel, so every
        # moment past m_0 is exactly 0 too
        if self.dimension == 1:
            c = float(self.cov[0, 0])
        else:
            c = complex(self.cov[0, 0] - self.cov[1, 1], 2 * self.cov[0, 1])
        vals = np.zeros(order + 1, dtype=type(c))
        for j in range(0, order + 1, 2):
            vals[j] = math.prod(range(j - 1, 0, -2)) * c ** (j // 2)
        return vals

    # product CDF path (diagonal covariance only)
    def axis_factors(self, edges, coords, axis):
        if not self._diagonal:
            raise ValueError("CDF product path requires a diagonal covariance")
        z = (edges[:, None] - coords[None, :]) / self._axis_sigma[axis]
        phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        return _normal_mass(z), (phi[:-1] - phi[1:]) / self._axis_sigma[axis]

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
        """Gauss-Legendre node fractions and weights over a bin's x-span.

        Each bin's span is cut into equal panels no wider than the scale on
        which the integrand varies: sigma_x for the marginal density and
        s / |beta| for the conditional CDF along x.
        """
        sx = self._axis_sigma[0]
        beta = self.cov[0, 1] / self.cov[0, 0]  # nonzero: the covariance is not diagonal
        cond_sd = math.sqrt(self.cov[1, 1] - beta * self.cov[0, 1])
        scale = min(sx, cond_sd / abs(beta))
        panels = max(1, math.ceil(bin_width / scale))
        nodes, weights = _gauss_legendre(_GL_ORDER)
        starts = np.arange(panels)[:, None]
        fractions = ((starts + 0.5 * (nodes + 1.0)) / panels).ravel()
        return fractions, np.tile(weights / (2 * panels), panels)

    def bin_integral_matrix(self, grid, atoms):
        if self._diagonal:
            return super().bin_integral_matrix(grid, atoms)
        atoms = np.atleast_2d(atoms)
        ex, ey = grid.axis_edges(0), grid.axis_edges(1)
        fractions, weights = self._x_panels(ex[1] - ex[0])
        out = np.empty((grid.m, atoms.shape[0]))
        # per atom: batching would multiply the (n_y, n_x, panel nodes) masses by k
        for j, (tx, ty) in enumerate(atoms):
            # x-span of every bin relative to the atom
            lo = ex[:-1] - tx
            width = (ex[1:] - tx) - lo
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

    def intensity_and_vjp(self, grid, atoms):
        if self._diagonal:
            return super().intensity_and_vjp(grid, atoms)
        return Kernel.intensity_and_vjp(self, grid, atoms)


class UniformBoxKernel(_ProductKernel):
    """Uniform density on a centered axis-aligned box [-h_1, h_1] x ... x [-h_d, h_d]."""

    def __init__(self, half_widths):
        hw = np.atleast_1d(np.asarray(half_widths, float))
        if not np.all((0 < hw) & (hw < np.inf)):
            raise ValueError("half widths must be positive and finite")
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

    def moments(self, order: int) -> np.ndarray:
        axes = np.zeros((self.dimension, order + 1))
        for axis, h in enumerate(self.half_widths):
            for j in range(0, order + 1, 2):
                axes[axis, j] = h**j / (j + 1)
        if self.dimension == 1:
            return axes[0]
        return _planar_moments(np.outer(*axes))

    def axis_factors(self, edges, coords, axis):
        h = self.half_widths[axis]
        e = edges[:, None] - coords[None, :]
        a, b = e[:-1], e[1:]
        overlap = np.minimum(b, h) - np.maximum(a, -h)
        slope = ((a > -h).astype(float) - (b < h)) / (2 * h)
        return np.clip(overlap, 0.0, None) / (2 * h), np.where(overlap > 0, slope, 0.0)


class TabulatedKernel(Kernel):
    """Compactly supported kernel given by samples on a regular grid.

    Samples are interpreted as nodal values of a piecewise linear (1-d) or
    bilinear (2-d) interpolant vanishing outside the sampled box; integrals of
    that interpolant are computed in closed form.  The kernel is normalized to
    unit mass on load, logging the deviation when it exceeds 1e-3.

    The interpolant is cut off at the sampled box: it drops from the
    outermost samples to 0 there.  A counted bin that the box edge barely
    meets, or touches where it falls on a bin edge, then reads a bin integral
    of 0 or nearly so, while its derivative, set by the edge samples, is not
    small.  The likelihood floors that intensity and its gradient explodes:
    with edge samples still about 0.4% of the peak, ``run_em`` stopped at a
    false fixed point.  Sample a measured PSF out to where it is negligible.

    Bin integrals and their gradients are batched over atoms: the hat-function
    weights of all k atoms on an axis form (k, n_bins, n_nodes) arrays, and
    one stacked product ``W_y @ samples @ W_x^T`` (``W_x @ samples`` in 1-d)
    gives every atom's (n_y, n_x) bin integrals, written straight into the
    C-ordered (m, k) matrix and (m, k, d) gradient.

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
        if not 0 < spacing < np.inf:
            raise ValueError("spacing must be positive and finite")
        self.dimension = samples.ndim
        self.spacing = float(spacing)
        self.origin = np.atleast_1d(np.asarray(origin, float))
        if self.origin.shape != (self.dimension,) or not np.all(np.isfinite(self.origin)):
            raise ValueError("origin must have one finite coordinate per dimension")
        mass = samples
        for _ in range(samples.ndim):  # trapezoid rule along the last axis
            mass = np.trapezoid(mass, dx=self.spacing)
        if mass <= 0:
            raise ValueError("kernel samples must carry positive mass")
        if abs(mass - 1.0) > 1e-3:
            logger.info("normalizing tabulated kernel: raw mass %.6g", mass)
        self.samples = samples / mass
        # samples are indexed [iy, ix], so the reversed shape is (n_x, n_y)
        self._node_coords = [start + self.spacing * np.arange(n)
                             for start, n in zip(self.origin, samples.shape[::-1])]

    def spread(self) -> float:
        return float(max(c[-1] - c[0] for c in self._node_coords) / 2)

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

    def _hat_coordinates(self, edges: np.ndarray, thetas: np.ndarray, axis: int) -> tuple:
        """One axis's shifted edges, (k, n_edges), and hat coordinates, (k, n_edges, n_nodes).

        ``shifted[j, e]`` is edge e relative to thetas[j].  ``a[j, e, n]`` is
        that edge clipped to the sampled box, measured from node n in units of
        the spacing and clipped to the hat's support [-1, 1].  ``np.minimum``
        and ``np.maximum`` stand in for ``np.clip``, whose dispatch costs more
        than its arithmetic on arrays this small; the values are the same.
        """
        nodes = self._node_coords[axis]
        shifted = edges[None, :] - thetas[:, None]
        a = np.minimum(np.maximum(shifted, nodes[0]), nodes[-1])[:, :, None] - nodes
        a /= self.spacing
        return shifted, np.minimum(np.maximum(a, -1.0, out=a), 1.0, out=a)

    def _hat_masses(self, a: np.ndarray) -> np.ndarray:
        """``W[j, b, n]``, hat_n integrated over bin b shifted by -thetas[j].

        Differences of the hat's antiderivative at the clipped edges: they
        keep the half-hats at the first and last node and vanish outside the
        sampled box, as the interpolant does.
        """
        antiderivative = self.spacing * (a - 0.5 * a * np.abs(a))
        return antiderivative[:, 1:] - antiderivative[:, :-1]

    def _hat_slopes(self, shifted: np.ndarray, a: np.ndarray, axis: int) -> np.ndarray:
        """``dW[j, b, n]`` = hat_n(lo_b - theta_j) - hat_n(hi_b - theta_j), W's derivative.

        An edge outside the sampled box contributes 0.
        """
        nodes = self._node_coords[axis]
        inside = (shifted >= nodes[0]) & (shifted <= nodes[-1])
        hat = (1.0 - np.abs(a)) * inside[:, :, None]
        return hat[:, :-1] - hat[:, 1:]

    def bin_integral_matrix(self, grid, atoms):
        atoms = np.atleast_2d(atoms)
        out = np.empty((grid.m, atoms.shape[0]))
        _, ax = self._hat_coordinates(grid.axis_edges(0), atoms[:, 0], 0)
        wx = self._hat_masses(ax)
        if self.dimension == 1:
            np.matmul(wx, self.samples, out=out.T)
        else:
            _, ay = self._hat_coordinates(grid.axis_edges(1), atoms[:, 1], 1)
            wy = self._hat_masses(ay)
            np.matmul(wy @ self.samples, wx.transpose(0, 2, 1), out=_per_atom(out, wy, wx))
        return out

    def bin_integral_gradient_matrix(self, grid, atoms):
        atoms = np.atleast_2d(atoms)
        out = np.empty((grid.m, atoms.shape[0], self.dimension))
        sx, ax = self._hat_coordinates(grid.axis_edges(0), atoms[:, 0], 0)
        dwx = self._hat_slopes(sx, ax, 0)
        if self.dimension == 1:
            np.matmul(dwx, self.samples, out=out[:, :, 0].T)
            return out
        sy, ay = self._hat_coordinates(grid.axis_edges(1), atoms[:, 1], 1)
        wx, wy, dwy = self._hat_masses(ax), self._hat_masses(ay), self._hat_slopes(sy, ay, 1)
        np.matmul(wy @ self.samples, dwx.transpose(0, 2, 1),
                  out=_per_atom(out[..., 0], wy, wx))
        np.matmul(dwy @ self.samples, wx.transpose(0, 2, 1),
                  out=_per_atom(out[..., 1], wy, wx))
        return out

    def _moment_weights(self, order: int, axis: int) -> np.ndarray:
        """Integrals of x^j * hat_n(x) over the sampled span, shape (order + 1, n).

        hat_n is the piecewise-linear nodal basis function of node n; Gauss-
        Legendre with (order + 3) // 2 points per cell is exact for the
        degree-(j + 1) integrand on each cell.
        """
        coords = self._node_coords[axis]
        nodes, weights = _gauss_legendre((order + 3) // 2)
        half = 0.5 * self.spacing
        x = (coords[:-1] + half)[:, None] + half * nodes  # (cells, points)
        u = 0.5 * (nodes + 1.0)  # each point's fraction of the way along its cell
        powers = x ** np.arange(order + 1)[:, None, None]  # (order + 1, cells, points)
        table = np.zeros((order + 1, coords.shape[0]))
        table[:, :-1] += powers @ (half * weights * (1.0 - u))
        table[:, 1:] += powers @ (half * weights * u)
        return table

    def moments(self, order: int) -> np.ndarray:
        wx = self._moment_weights(order, 0)
        if self.dimension == 1:
            return wx @ self.samples
        return _planar_moments(wx @ self.samples.T @ self._moment_weights(order, 1).T)

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


def _per_atom(out: np.ndarray, wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """The (m, k) array or slice ``out`` viewed as (k, n_y, n_x), for matmul to fill."""
    return out.reshape(wy.shape[1], wx.shape[1], -1).transpose(2, 0, 1)


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights of order n on [-1, 1], built once."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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


def _planar_moments(table: np.ndarray) -> np.ndarray:
    """Complex moments E[(x + iy)^j], j = 0..order, from table[a, b] = E[x^a y^b]."""
    vals = np.empty(table.shape[0], dtype=complex)
    for j in range(table.shape[0]):
        vals[j] = sum(math.comb(j, l) * 1j**l * table[j - l, l] for l in range(j + 1))
    return vals

