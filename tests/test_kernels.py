import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from poisson_deconv.kernels import (
    GaussianKernel,
    Kernel,
    TabulatedKernel,
    UniformBoxKernel,
    _per_atom,
)
from poisson_deconv.measures import AtomicUniformMeasure
from poisson_deconv.observation import BinGrid


# Reference bin integrals, one bin at a time and by other means than the
# kernels' vectorized matrices, which the tests compare against them.

def bin_bounds(grid, i):
    """(lo, hi) corners of bin i in the grid's row-major order."""
    iy, ix = divmod(i, grid.resolution[0])
    idx = np.array([ix, iy][: grid.dimension], dtype=float)
    lo = grid.window_lo + idx * grid.bin_widths
    return lo, lo + grid.bin_widths


def segment_integrals(kernel, a, b, axis, degree):
    """Integrals of x^degree * hat_i(x) over [a, b] for every node i of a tabulated kernel.

    hat_i is the piecewise-linear nodal basis function; Gauss-Legendre of
    sufficient order makes each per-cell integral exact.
    """
    coords = kernel._node_coords[axis]
    n = coords.shape[0]
    out = np.zeros(n)
    if b <= coords[0] or a >= coords[-1] or b <= a:
        return out
    npts = max(1, (degree + 2 + 1) // 2)
    gl_x, gl_w = np.polynomial.legendre.leggauss(npts)
    for c in range(n - 1):
        left, right = coords[c], coords[c + 1]
        lo, hi = max(a, left), min(b, right)
        if hi <= lo:
            continue
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        x = mid + half * gl_x
        w = half * gl_w
        u = (x - left) / kernel.spacing
        base = x**degree if degree else np.ones_like(x)
        out[c] += np.sum(w * base * (1 - u))
        out[c + 1] += np.sum(w * base * u)
    return out


def reference_bin_integral(kernel, lo, hi, atom):
    """Integral of K(x - atom) over the rectangle [lo, hi].

    Tabulated kernels integrate their interpolant cell by cell, anisotropic
    Gaussians by adaptive quadrature of the density, and product kernels
    multiply one CDF difference per axis.
    """
    lo, hi, atom = (np.atleast_1d(np.asarray(v, float)) for v in (lo, hi, atom))
    if isinstance(kernel, TabulatedKernel):
        w = [segment_integrals(kernel, lo[a] - atom[a], hi[a] - atom[a], a, 0)
             for a in range(kernel.dimension)]
        if kernel.dimension == 1:
            return float(w[0] @ kernel.samples)
        return float(w[1] @ kernel.samples @ w[0])
    if isinstance(kernel, GaussianKernel) and kernel.dimension == 2 and kernel.cov[0, 1]:
        val, _ = integrate.dblquad(
            lambda y, x: kernel.density(np.array([[x, y]]))[0],
            lo[0] - atom[0], hi[0] - atom[0],
            lo[1] - atom[1], hi[1] - atom[1],
            epsabs=1e-12, epsrel=1e-8,
        )
        return float(val)
    val = 1.0
    for axis in range(kernel.dimension):
        val *= kernel.axis_factors(
            np.array([lo[axis], hi[axis]]), atom[axis : axis + 1], axis
        )[0][0, 0]
    return float(val)


def per_bin_cdf_diff(kernel, lo, hi, coords, axis):
    """A product kernel's axis factor over [lo_b, hi_b] - theta_j, one bin at a time, (n, k)."""
    a = lo[:, None] - coords[None, :]
    b = hi[:, None] - coords[None, :]
    if isinstance(kernel, UniformBoxKernel):
        h = kernel.half_widths[axis]
        return np.clip(np.minimum(b, h) - np.maximum(a, -h), 0.0, None) / (2 * h)
    s = np.sqrt(kernel.cov[axis, axis])
    a, b = a / s, b / s
    ta, tb = ndtr(-np.abs(a)), ndtr(-np.abs(b))
    return np.where(a >= 0, ta - tb, np.where(b <= 0, tb - ta, 1.0 - ta - tb))


def per_bin_cdf_diff_grad(kernel, lo, hi, coords, axis):
    """Derivatives of per_bin_cdf_diff in theta_j, one bin at a time, (n, k)."""
    a = lo[:, None] - coords[None, :]
    b = hi[:, None] - coords[None, :]
    if isinstance(kernel, UniformBoxKernel):
        h = kernel.half_widths[axis]
        overlap = np.minimum(b, h) - np.maximum(a, -h)
        slope = ((a > -h).astype(float) - (b < h)) / (2 * h)
        return np.where(overlap > 0, slope, 0.0)
    s = np.sqrt(kernel.cov[axis, axis])
    a, b = a / s, b / s
    phi = lambda u: np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
    return (phi(a) - phi(b)) / s


def bin_intensity(kernel, mu, lo, hi):
    """Intensity of a single bin: (1/k) sum_i int_bin K(x - theta_i) dx."""
    return float(np.mean([reference_bin_integral(kernel, lo, hi, atom) for atom in mu.atoms]))


class TestKernelMoments:
    def test_standard_gaussian_1d(self):
        k = GaussianKernel(sigma=1.0, dim=1)
        m = k.moments(4)
        assert np.allclose(m, [1.0, 0.0, 1.0, 0.0, 3.0])

    def test_scaled_gaussian_1d(self):
        s = 0.3
        m = GaussianKernel(sigma=s, dim=1).moments(6)
        assert m[2] == pytest.approx(s**2)
        assert m[4] == pytest.approx(3 * s**4)
        assert m[6] == pytest.approx(15 * s**6)

    def test_isotropic_complex_moments_vanish(self):
        m = GaussianKernel(sigma=0.25, dim=2).moments(5)
        assert m.dtype == complex
        assert np.allclose(m[1:], 0.0)

    @pytest.mark.parametrize("cov", [
        np.diag([0.05**2, (0.05 * 1.000005) ** 2]),
        np.array([[0.0025, 5e-9], [5e-9, 0.0025]]),
    ])
    def test_nearly_symmetric_gaussian_keeps_pseudo_variance(self, cov):
        # within np.allclose of a diagonal, isotropic covariance, yet
        # m_2 = Sxx - Syy + 2i Sxy is not zero
        m = GaussianKernel(cov=cov).moments(2)
        c = cov[0, 0] - cov[1, 1] + 2j * cov[0, 1]
        assert abs(c) > 1e-9
        assert m[2] == pytest.approx(c, rel=1e-9, abs=0)

    def test_near_isotropic_moments_do_not_cancel(self):
        # a binomial fold of the axis moments cancels to -8.3e-24 here
        cov = np.diag([0.05**2, (0.05 * 1.000005) ** 2])
        m = GaussianKernel(cov=cov).moments(8)
        exact = float(105 * (Fraction(cov[0, 0]) - Fraction(cov[1, 1])) ** 4)
        assert m[8].imag == 0.0
        assert abs(m[8].real - exact) <= 1e-12 * exact

    def test_anisotropic_complex_moments_wick(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        m = GaussianKernel(cov=cov).moments(4)
        # Wick: E[Z^{2l}] = (2l-1)!! c^l with pseudo-variance c = Sxx - Syy + 2i Sxy
        c = cov[0, 0] - cov[1, 1] + 2j * cov[0, 1]
        assert m[1] == pytest.approx(0.0, abs=1e-12)
        assert m[2] == pytest.approx(c, abs=1e-12)
        assert m[3] == pytest.approx(0.0, abs=1e-12)
        assert m[4] == pytest.approx(3 * c**2, abs=1e-12)

    def test_uniform_box_1d(self):
        m = UniformBoxKernel([1.0]).moments(2)
        assert m[1] == pytest.approx(0.0)
        assert m[2] == pytest.approx(1.0 / 3.0)

    def test_tabulated_uniform_matches_analytic(self):
        xs = np.linspace(-1, 1, 801)
        k = TabulatedKernel(np.full_like(xs, 0.5), xs[1] - xs[0], [-1.0])
        m = k.moments(2)
        assert m[1] == pytest.approx(0.0, abs=1e-12)
        assert m[2] == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_tabulated_gaussian_quadrature_oracle(self):
        s = 0.5
        xs = np.arange(-4.0, 4.0 + 1e-9, 0.002)
        k = TabulatedKernel(norm.pdf(xs, scale=s), 0.002, [xs[0]])
        m = k.moments(4)
        assert m[2] == pytest.approx(s**2, rel=1e-4)
        assert m[4] == pytest.approx(3 * s**4, rel=1e-3)


def exact_wick_moments(cov, order):
    """E[z^j], j = 0..order, of a centered Gaussian with covariance ``cov`` as Fractions.

    The pair (re, im) of each moment is exact for the floats in ``cov``: Wick's
    theorem gives (2l - 1)!! c^l at j = 2l with c = E[z^2], and 0 at odd j.
    """
    if cov.shape == (1, 1):
        c = (Fraction(cov[0, 0]), Fraction(0))
    else:
        c = (Fraction(cov[0, 0]) - Fraction(cov[1, 1]), 2 * Fraction(cov[0, 1]))
    moments, power = [], (Fraction(1), Fraction(0))
    for j in range(order + 1):
        if j % 2:
            moments.append((Fraction(0), Fraction(0)))
            continue
        if j:
            power = (power[0] * c[0] - power[1] * c[1], power[0] * c[1] + power[1] * c[0])
        double_factorial = math.prod(range(j - 1, 0, -2))
        moments.append((double_factorial * power[0], double_factorial * power[1]))
    return moments


@st.composite
def gaussian_covariances(draw):
    """1-d variances and 2-d diagonal, near-isotropic and full SPD covariances."""
    sd = st.floats(0.01, 1.0)
    kind = draw(st.sampled_from(["1d", "diagonal", "near-isotropic", "full"]))
    if kind == "1d":
        return np.array([[draw(sd) ** 2]])
    if kind == "diagonal":
        return np.diag([draw(sd) ** 2, draw(sd) ** 2])
    if kind == "near-isotropic":
        s = draw(sd)
        return np.diag([s**2, (s * (1 + 10.0 ** draw(st.floats(-8, -1)))) ** 2])
    # |l21| >= 1e-6 keeps c^8 clear of the subnormal range, where no relative bound holds
    l21 = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6)))
    l11, l22 = draw(sd), draw(sd)
    return np.array([[l11 * l11, l11 * l21], [l21 * l11, l21 * l21 + l22 * l22]])


@given(cov=gaussian_covariances(), order=st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_gaussian_moments_match_exact_wick(cov, order):
    m = GaussianKernel(cov=cov, dim=cov.shape[0]).moments(order)
    assert m.shape == (order + 1,)
    assert m.dtype == (float if cov.shape == (1, 1) else complex)
    for value, (re, im) in zip(m.tolist(), exact_wick_moments(cov, order)):
        exact = complex(float(re), float(im))
        assert abs(value - exact) <= 1e-13 * abs(exact)


# The multi-index moment path box and tabulated kernels took before they
# returned their moment arrays directly, kept verbatim as their oracle.

def oracle_multi_indices(order: int, dimension: int) -> list:
    indices = [()]
    for _ in range(dimension):
        indices = [alpha + (a,) for alpha in indices for a in range(order + 1 - sum(alpha))]
    return sorted(indices, key=lambda alpha: (sum(alpha), alpha))


def oracle_box_axis_moments(kernel, order, axis):
    h = kernel.half_widths[axis]
    vals = np.zeros(order + 1)
    for j in range(0, order + 1, 2):
        vals[j] = h**j / (j + 1)
    return vals


def oracle_multi_moments(kernel, order):
    if isinstance(kernel, UniformBoxKernel):
        axis_mom = [oracle_box_axis_moments(kernel, order, axis)
                    for axis in range(kernel.dimension)]
        return {
            alpha: float(math.prod(axis_mom[axis][a] for axis, a in enumerate(alpha)))
            for alpha in oracle_multi_indices(order, kernel.dimension)
        }
    wx = kernel._moment_weights(order, 0)
    if kernel.dimension == 1:
        moments = wx @ kernel.samples
        return {(j,): float(moments[j]) for j in range(order + 1)}
    moments = wx @ kernel.samples.T @ kernel._moment_weights(order, 1).T  # [a, b]
    return {(a, b): float(moments[a, b]) for a, b in oracle_multi_indices(order, 2)}


def oracle_kernel_moments(kernel, order):
    if kernel.dimension == 1:
        moments = oracle_multi_moments(kernel, order)
        return np.array([moments[(j,)] for j in range(order + 1)])
    vals = np.zeros(order + 1, dtype=complex)
    vals[0] = 1.0
    moments = oracle_multi_moments(kernel, order)
    for j in range(order + 1):
        vals[j] = sum(math.comb(j, l) * 1j**l * moments[(j - l, l)]
                      for l in range(j + 1))
    return vals


@st.composite
def box_and_tabulated_kernels(draw):
    dim = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        return UniformBoxKernel(draw(st.lists(st.floats(0.01, 2.0), min_size=dim,
                                              max_size=dim)))
    shape = draw(st.lists(st.integers(2, 8), min_size=dim, max_size=dim))
    samples = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(shape),
                                     max_size=math.prod(shape))))
    samples[0] = 1.0  # positive mass
    origin = draw(st.lists(st.floats(-0.5, 0.1), min_size=dim, max_size=dim))
    return TabulatedKernel(samples.reshape(shape), draw(st.floats(0.01, 0.2)), origin)


@given(kernel=box_and_tabulated_kernels(), order=st.integers(1, 16))
@settings(max_examples=200, deadline=None)
def test_box_and_tabulated_moments_match_the_multi_index_oracle(kernel, order):
    m, oracle = kernel.moments(order), oracle_kernel_moments(kernel, order)
    assert m.dtype == oracle.dtype and m.tobytes() == oracle.tobytes()


class TestBinIntensity:
    def test_total_mass(self):
        k = GaussianKernel(sigma=0.1, dim=2)
        mu = AtomicUniformMeasure([[0.0, 0.0]])
        assert bin_intensity(k, mu, [-50, -50], [50, 50]) == pytest.approx(1.0)

    def test_half_plane_symmetry(self):
        k = GaussianKernel(sigma=0.1, dim=2)
        mu = AtomicUniformMeasure([[0.0, 0.0]])
        assert bin_intensity(k, mu, [0, -50], [50, 50]) == pytest.approx(0.5)

    def test_cdf_product_hand_value(self):
        k = GaussianKernel(sigma=0.05, dim=2)
        mu = AtomicUniformMeasure([[0.3, 0.7]])
        val = bin_intensity(k, mu, [0.25, 0.65], [0.35, 0.75])
        expected = (norm.cdf(1) - norm.cdf(-1)) ** 2
        assert val == pytest.approx(expected, abs=1e-12)

    def test_additive_under_splitting(self):
        k = GaussianKernel(sigma=0.07, dim=2)
        mu = AtomicUniformMeasure([[0.4, 0.6], [0.7, 0.2]])
        whole = bin_intensity(k, mu, [0.3, 0.3], [0.7, 0.7])
        parts = 0.0
        for ix in range(4):
            for iy in range(2):
                lo = [0.3 + 0.1 * ix, 0.3 + 0.2 * iy]
                hi = [0.4 + 0.1 * ix, 0.5 + 0.2 * iy]
                parts += bin_intensity(k, mu, lo, hi)
        assert parts == pytest.approx(whole, abs=1e-10)

    def test_partition_mass_close_to_one(self):
        k = GaussianKernel(sigma=0.05, dim=2)
        mu = AtomicUniformMeasure([[0.4, 0.4], [0.6, 0.6]])
        grid = BinGrid([0, 0], [1, 1], (30, 30))
        total = k.bin_integral_matrix(grid, mu.atoms).mean(axis=1).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_closed_form_vs_quadrature(self):
        k = GaussianKernel(sigma=0.2, dim=2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            lo = rng.uniform(-0.5, 0.0, 2)
            hi = lo + rng.uniform(0.1, 0.6, 2)
            atom = rng.uniform(-0.2, 0.2, 2)
            closed = reference_bin_integral(k, lo, hi, atom)
            quad, _ = integrate.dblquad(
                lambda y, x: k.density(np.array([[x - atom[0], y - atom[1]]]))[0],
                lo[0], hi[0], lo[1], hi[1], epsabs=1e-12, epsrel=1e-10,
            )
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_anisotropic_quadrature_path(self):
        cov = np.array([[0.04, 0.015], [0.015, 0.09]])
        k = GaussianKernel(cov=cov)
        mu = AtomicUniformMeasure([[0.0, 0.0]])
        val = bin_intensity(k, mu, [-5, -5], [5, 5])
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_tabulated_2d_box_overlap(self):
        n = 41
        samples = np.ones((n, n))
        k = TabulatedKernel(samples, 0.05, [-1.0, -1.0])
        exact = UniformBoxKernel([1.0, 1.0])
        for lo, hi in [([-0.3, -0.3], [0.4, 0.1]), ([0.0, 0.0], [2.0, 2.0])]:
            assert reference_bin_integral(k, lo, hi, [0.0, 0.0]) == pytest.approx(
                reference_bin_integral(exact, lo, hi, [0.0, 0.0]), abs=1e-6
            )


class TestGridPaths:
    def test_matrix_matches_scalar_gaussian(self):
        k = GaussianKernel(sigma=0.1, dim=2)
        grid = BinGrid([0, 0], [1, 1], (7, 5))
        atoms = np.array([[0.2, 0.3], [0.8, 0.5]])
        mat = k.bin_integral_matrix(grid, atoms)
        for i in range(grid.m):
            lo, hi = bin_bounds(grid, i)
            for j, atom in enumerate(atoms):
                assert mat[i, j] == pytest.approx(
                    reference_bin_integral(k, lo, hi, atom), abs=1e-12
                )

    def test_matrix_matches_scalar_box(self):
        k = UniformBoxKernel([0.15, 0.25])
        grid = BinGrid([0, 0], [1, 1], (6, 6))
        atoms = np.array([[0.3, 0.3]])
        mat = k.bin_integral_matrix(grid, atoms)
        for i in range(grid.m):
            lo, hi = bin_bounds(grid, i)
            assert mat[i, 0] == pytest.approx(
                reference_bin_integral(k, lo, hi, atoms[0]), abs=1e-12
            )

    def test_gradient_matches_finite_differences(self):
        k = GaussianKernel(sigma=0.08, dim=2)
        grid = BinGrid([0, 0], [1, 1], (9, 9))
        atoms = np.array([[0.35, 0.55], [0.6, 0.4]])
        grad = k.bin_integral_gradient_matrix(grid, atoms)
        eps = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            num = (
                k.bin_integral_matrix(grid, atoms + shift)
                - k.bin_integral_matrix(grid, atoms - shift)
            ) / (2 * eps)
            assert np.allclose(grad[:, :, axis], num, atol=1e-7)

    def test_1d_grid_matrix(self):
        k = GaussianKernel(sigma=0.1, dim=1)
        grid = BinGrid([0.0], [1.0], (20,))
        atoms = np.array([[0.5]])
        mat = k.bin_integral_matrix(grid, atoms)
        assert mat.shape == (20, 1)
        assert mat.sum() == pytest.approx(1.0, abs=1e-6)


ANISOTROPIC_COV = np.array([[0.0025, 0.001], [0.001, 0.0016]])


def sampled_gaussian(cov, spacing=0.02, half_extent=0.2):
    """Tabulated kernel: an anisotropic Gaussian density sampled on a square grid."""
    nodes = np.arange(-half_extent, half_extent + 0.5 * spacing, spacing)
    xx, yy = np.meshgrid(nodes, nodes)
    prec = np.linalg.inv(cov)
    quad = prec[0, 0] * xx**2 + 2 * prec[0, 1] * xx * yy + prec[1, 1] * yy**2
    return TabulatedKernel(np.exp(-0.5 * quad), spacing, [nodes[0], nodes[0]])


def sampled_gaussian_1d(sigma=0.05, spacing=0.02, half_extent=0.2):
    nodes = np.arange(-half_extent, half_extent + 0.5 * spacing, spacing)
    return TabulatedKernel(norm.pdf(nodes, scale=sigma), spacing, [nodes[0]])


def sampled_box(kernel):
    """(lo, hi): the first and last node of a tabulated kernel on each axis (x first)."""
    n = np.array(kernel.samples.shape[::-1])
    return kernel.origin, kernel.origin + kernel.spacing * (n - 1)


def scalar_matrix(kernel, grid, atoms):
    """The (m, k) bin integrals from the one-bin-at-a-time reference."""
    out = np.empty((grid.m, len(atoms)))
    for i in range(grid.m):
        lo, hi = bin_bounds(grid, i)
        for j, atom in enumerate(atoms):
            out[i, j] = reference_bin_integral(kernel, lo, hi, atom)
    return out


def central_differences(kernel, grid, atoms, eps=1e-6):
    cols = []
    for axis in range(atoms.shape[1]):
        shift = np.zeros(atoms.shape[1])
        shift[axis] = eps
        cols.append((kernel.bin_integral_matrix(grid, atoms + shift)
                     - kernel.bin_integral_matrix(grid, atoms - shift)) / (2 * eps))
    return np.stack(cols, axis=-1)


class TestVectorizedPaths:
    # Atoms near and beyond the window put the kernel's sampled box partly
    # outside the grid, and 0.1-wide bins straddle the box's +-0.2 edges.
    TAB_ATOMS = np.array([[0.05, 0.5], [0.5, 0.95], [0.37, 0.41], [1.1, 0.5], [-0.15, 1.12]])

    @pytest.mark.parametrize("res", [(10, 10), (7, 5), (23, 17)])
    def test_tabulated_2d_matrix_matches_scalar(self, res):
        k = sampled_gaussian(ANISOTROPIC_COV)
        grid = BinGrid([0, 0], [1, 1], res)
        mat = k.bin_integral_matrix(grid, self.TAB_ATOMS)
        assert np.abs(mat - scalar_matrix(k, grid, self.TAB_ATOMS)).max() < 1e-14

    def test_tabulated_1d_matrix_matches_scalar(self):
        k = sampled_gaussian_1d()
        grid = BinGrid([0.0], [1.0], (13,))
        atoms = np.array([[0.05], [0.5], [0.93], [-0.1], [1.15]])
        mat = k.bin_integral_matrix(grid, atoms)
        assert mat.shape == (13, 5)
        assert np.abs(mat - scalar_matrix(k, grid, atoms)).max() < 1e-14

    @pytest.mark.parametrize("cov, res, atoms", [
        (ANISOTROPIC_COV, (10, 10), [[0.31, 0.57]]),
        ([[0.01, 0.0095], [0.0095, 0.01]], (4, 3), [[0.31, 0.57], [0.72, 0.24]]),
        ([[0.01, -0.006], [-0.006, 0.005]], (7, 5), [[0.31, 0.57], [0.72, 0.24]]),
    ])
    def test_anisotropic_matrix_matches_dblquad(self, cov, res, atoms):
        k = GaussianKernel(cov=cov)
        grid = BinGrid([0, 0], [1, 1], res)
        atoms = np.array(atoms)
        mat = k.bin_integral_matrix(grid, atoms)
        assert np.abs(mat - scalar_matrix(k, grid, atoms)).max() < 1e-12

    def test_anisotropic_bins_wider_than_kernel(self):
        k = GaussianKernel(cov=[[0.04, 0.015], [0.015, 0.09]])
        grid = BinGrid([-5, -5], [5, 5], (2, 2))
        mat = k.bin_integral_matrix(grid, np.array([[0.0, 0.0], [0.3, -0.2]]))
        assert mat.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-9)

    @pytest.mark.parametrize("sigmas", [20.0, 40.0])
    def test_anisotropic_far_tail_bins(self, sigmas):
        k = GaussianKernel(cov=ANISOTROPIC_COV)
        sx, sy = np.sqrt(np.diag(ANISOTROPIC_COV))
        grid = BinGrid([-0.5, -0.5], [0.5, 0.5], (1, 1))
        atoms = np.array([[0.0, 0.5 + sigmas * sy], [0.5 + sigmas * sx, 0.0],
                          [-0.5 - sigmas * sx, -0.5 - sigmas * sy]])
        mat = k.bin_integral_matrix(grid, atoms)
        grad = k.bin_integral_gradient_matrix(grid, atoms)
        assert np.all(np.isfinite(mat)) and np.all(mat >= 0)
        assert np.all(np.isfinite(grad))
        if sigmas == 20.0:
            assert mat[0, 0] > 0  # the tail mass does not cancel to zero

    @pytest.mark.parametrize("cov", [ANISOTROPIC_COV, [[0.0016, -0.0012], [-0.0012, 0.0025]]],
                             ids=["positive", "negative"])
    def test_anisotropic_value_is_positive_where_its_gradient_is_not_zero(self, cov):
        # values and gradients describe one function: no bin far out along x
        # reads 0 while its gradient does not.  A gradient below the smallest
        # normal float is left out, because the value there, about the
        # gradient times a bin width and a quadrature weight, underflows
        k = GaussianKernel(cov=cov)
        rng = np.random.default_rng(3)
        for _ in range(20):
            res = tuple(int(n) for n in rng.integers(5, 61, size=2))
            grid = BinGrid([0.0, 0.0], [1.0, 1.0], res)
            atoms = rng.uniform(-0.2, 1.2, size=(3, 2))
            mat = k.bin_integral_matrix(grid, atoms)
            grad = k.bin_integral_gradient_matrix(grid, atoms)
            moving = np.any(np.abs(grad) >= np.finfo(float).tiny, axis=2)
            assert np.all(mat[moving] > 0), res

    def test_anisotropic_gradient_matches_central_differences(self):
        k = GaussianKernel(cov=[[0.01, -0.006], [-0.006, 0.005]])
        grid = BinGrid([0, 0], [1, 1], (9, 7))
        atoms = np.array([[0.35, 0.55], [0.6, 0.4]])
        grad = k.bin_integral_gradient_matrix(grid, atoms)
        assert grad.shape == (grid.m, 2, 2)
        assert np.abs(grad - central_differences(k, grid, atoms)).max() < 1e-8

    def test_tabulated_gradients_match_central_differences(self):
        # atoms chosen so no bin edge sits on the sampled box's edge, where
        # the interpolant jumps and the gradient has a kink
        k = sampled_gaussian(ANISOTROPIC_COV)
        grid = BinGrid([0, 0], [1, 1], (10, 10))
        atoms = np.array([[0.053, 0.517], [0.5071, 0.9433], [1.1137, 0.5029]])
        assert np.abs(k.bin_integral_gradient_matrix(grid, atoms)
                      - central_differences(k, grid, atoms)).max() < 1e-8
        k1 = sampled_gaussian_1d()
        grid1 = BinGrid([0.0], [1.0], (13,))
        atoms1 = np.array([[0.053], [0.5071], [0.9433]])
        assert np.abs(k1.bin_integral_gradient_matrix(grid1, atoms1)
                      - central_differences(k1, grid1, atoms1)).max() < 1e-8

    def test_box_gradient_matches_central_differences(self):
        k = UniformBoxKernel([0.15, 0.25])
        grid = BinGrid([0, 0], [1, 1], (6, 6))
        atoms = np.array([[0.31, 0.33], [0.58, 0.71]])
        assert np.abs(k.bin_integral_gradient_matrix(grid, atoms)
                      - central_differences(k, grid, atoms)).max() < 1e-8

    @pytest.mark.parametrize("sigmas", [9.0, 20.0])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_diagonal_upper_tail_matches_lower_tail(self, sigmas, axis):
        # one bin a sigma wide, sigmas above the atom on one axis and covering
        # the other; its mirror image below the atom holds the same mass
        k = GaussianKernel(cov=np.diag([0.0025, 0.0016]))
        s = np.sqrt(k.cov[axis, axis])

        def mass(a, b):
            lo, hi = [-1.0, -1.0], [1.0, 1.0]
            lo[axis], hi[axis] = a, b
            return k.bin_integral_matrix(BinGrid(lo, hi, (1, 1)), np.zeros((1, 2)))[0, 0]

        upper = mass(sigmas * s, (sigmas + 1) * s)
        lower = mass(-(sigmas + 1) * s, -sigmas * s)
        assert upper > 0
        assert upper == pytest.approx(lower, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kernel, scales", [
        (GaussianKernel(cov=np.diag([0.0025, 0.0016])), [0.05, 0.04]),
        (UniformBoxKernel([0.15, 0.25]), [0.15, 0.25]),
    ])
    def test_edge_factors_equal_per_bin_formula(self, kernel, scales):
        # bins 9, 20 and 500 sigma (or box half-widths) out on both sides of
        # the atoms, among regular ones; each interior edge is shared by two bins
        offsets = np.array([-500, -21, -20, -10, -9, -1, -0.3, 0, 0.4, 1, 9, 10, 20, 21, 500])
        coords = np.array([0.5, 0.5 + 1e-3, 0.2])
        for axis, scale in enumerate(scales):
            edges = np.sort(np.concatenate([0.5 + scale * offsets, np.linspace(0, 1, 11)]))
            lo, hi = edges[:-1], edges[1:]
            mass = per_bin_cdf_diff(kernel, lo, hi, coords, axis)
            factors = kernel.axis_factors(edges, coords, axis)
            np.testing.assert_array_equal(factors[0], mass)
            np.testing.assert_array_equal(
                factors[1], per_bin_cdf_diff_grad(kernel, lo, hi, coords, axis))

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["tabulated", "anisotropic", "box", "gaussian"]),
        res=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        atom=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    )
    def test_covering_grid_holds_all_mass(self, kind, res, atom):
        kernel = {
            "tabulated": sampled_gaussian(ANISOTROPIC_COV),
            "anisotropic": GaussianKernel(cov=ANISOTROPIC_COV),
            "box": UniformBoxKernel([0.15, 0.25]),
            "gaussian": GaussianKernel(sigma=0.05, dim=2),
        }[kind]
        # the window reaches at least 0.5 beyond the atom: past the sampled
        # box, the box kernel and 10 sigma of either Gaussian
        grid = BinGrid([-0.7, -0.7], [0.7, 0.7], res)
        mat = kernel.bin_integral_matrix(grid, np.array([atom]))
        assert mat.sum() == pytest.approx(1.0, abs=1e-12)


TABULATED_KERNELS = {
    "2d": sampled_gaussian(ANISOTROPIC_COV),
    # dyadic spacing and extent: box edges land exactly on dyadic bin edges
    "2d-dyadic": sampled_gaussian(ANISOTROPIC_COV, spacing=1 / 16, half_extent=0.25),
    "1d": sampled_gaussian_1d(),
    "1d-dyadic": sampled_gaussian_1d(spacing=1 / 16, half_extent=0.25),
}


@st.composite
def tabulated_problems(draw):
    """A tabulated kernel, a grid on [0, 1]^d and 1 to 6 atoms.

    Each atom coordinate lies inside the window, outside it, or where one of
    the kernel's box edges falls on a bin edge.
    """
    kernel = TABULATED_KERNELS[draw(st.sampled_from(sorted(TABULATED_KERNELS)))]
    d = kernel.dimension
    res = draw(st.tuples(*[st.sampled_from([1, 3, 4, 8, 10])] * d))
    grid = BinGrid([0.0] * d, [1.0] * d, res)
    box = sampled_box(kernel)
    k = draw(st.integers(1, 6))
    atoms = np.empty((k, d))
    for j in range(k):
        for axis in range(d):
            edges = grid.axis_edges(axis)
            place = draw(st.sampled_from(["inside", "outside", "box edge on bin edge"]))
            if place == "inside":
                atoms[j, axis] = draw(st.floats(0.0, 1.0))
            elif place == "outside":
                atoms[j, axis] = draw(st.floats(-0.5, 0.0) | st.floats(1.0, 1.5))
            else:
                edge = edges[draw(st.integers(0, edges.shape[0] - 1))]
                atoms[j, axis] = edge - box[draw(st.integers(0, 1))][axis]
    return kernel, grid, atoms


class TestIntensityAndVjp:
    KERNELS = {
        ("diagonal", 2): GaussianKernel(cov=np.diag([0.012, 0.005])),
        ("box", 2): UniformBoxKernel([0.2, 0.15]),
        ("diagonal", 1): GaussianKernel(cov=[[0.012]], dim=1),
        ("box", 1): UniformBoxKernel([0.2]),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["diagonal", "box"]),
        dim=st.sampled_from([1, 2]),
        shape=st.tuples(st.integers(2, 14), st.integers(2, 14)).filter(lambda s: s[0] != s[1]),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_product_kernels_match_the_dense_default(self, kind, dim, shape, k, seed):
        # n_x != n_y on the plane, so a swapped axis layout cannot pass
        kernel = self.KERNELS[kind, dim]
        rng = np.random.default_rng(seed)
        grid = BinGrid([0.0, 0.0][:dim], [1.0, 1.2][:dim], shape[:dim])
        atoms = rng.uniform(-0.1, 1.1, size=(k, dim))
        lam, vjp = kernel.intensity_and_vjp(grid, atoms)
        dense_lam, dense_vjp = Kernel.intensity_and_vjp(kernel, grid, atoms)
        assert lam.shape == (grid.m,)
        np.testing.assert_allclose(lam, dense_lam, rtol=1e-12, atol=0)
        w = rng.normal(size=grid.m)
        grad, dense_grad = vjp(w), dense_vjp(w)
        assert grad.shape == (k, dim)
        assert np.abs(grad - dense_grad).max() <= 1e-10 * np.abs(dense_grad).max()


class TestBatchedTabulated:
    @settings(max_examples=60, deadline=None)
    @given(problem=tabulated_problems())
    def test_batched_columns_equal_single_atom_calls(self, problem):
        kernel, grid, atoms = problem
        mat = kernel.bin_integral_matrix(grid, atoms)
        grad = kernel.bin_integral_gradient_matrix(grid, atoms)
        assert mat.shape == (grid.m, atoms.shape[0]) and mat.flags.c_contiguous
        assert grad.shape == (grid.m, atoms.shape[0], kernel.dimension)
        assert grad.flags.c_contiguous
        reference = scalar_matrix(kernel, grid, atoms)
        # entries the antiderivative differences leave near rounding level (a
        # bin that barely meets the box) are compared to 1e-15 of the unit mass
        for j in range(atoms.shape[0]):
            one = atoms[j : j + 1]
            np.testing.assert_allclose(mat[:, j], kernel.bin_integral_matrix(grid, one)[:, 0],
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(mat[:, j], reference[:, j], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                grad[:, j], kernel.bin_integral_gradient_matrix(grid, one)[:, 0],
                rtol=1e-12, atol=1e-15 / kernel.spacing)

    @pytest.mark.parametrize("name", ["2d", "1d"])
    def test_gradient_of_random_atoms_matches_central_differences(self, name):
        kernel = TABULATED_KERNELS[name]
        d = kernel.dimension
        grid = BinGrid([0.0] * d, [1.0] * d, (10,) * d)
        rng = np.random.default_rng(4)

        def kink_distance(atoms):
            # distance of every shifted bin edge from the nearest node, where
            # the hat functions (and the box edges) kink
            gaps = [(grid.axis_edges(a)[None, :] - atoms[:, a : a + 1] - kernel.origin[a])
                    / kernel.spacing for a in range(d)]
            return min(np.abs(g - np.round(g)).min() for g in gaps)

        atoms = rng.uniform(-0.1, 1.1, size=(4, d))
        while kink_distance(atoms) < 1e-3:
            atoms = rng.uniform(-0.1, 1.1, size=(4, d))
        grad = kernel.bin_integral_gradient_matrix(grid, atoms)
        assert np.abs(grad).max() > 1.0
        assert np.abs(grad - central_differences(kernel, grid, atoms)).max() < 1e-8


def oracle_axis_weights(kernel, edges, thetas, axis):
    """All k atoms' hat-function weights on one axis, each (k, n_bins, n_nodes).

    The one-step form that built W and dW together, kept verbatim (with
    ``self`` renamed) as the bit-level reference for the tabulated kernel.
    ``W[j, b, n]`` integrates hat_n over bin b shifted by -thetas[j], from
    the hat's antiderivative at the two shifted edges.  ``dW[j, b, n]`` is
    its derivative in thetas[j], hat_n(lo_b - theta_j) - hat_n(hi_b - theta_j).
    Both keep the half-hats at the first and last node and vanish outside
    the sampled box, as the interpolant does.
    """
    nodes = kernel._node_coords[axis]
    shifted = edges[None, :] - thetas[:, None]  # (k, n_edges)
    t = (np.clip(shifted, nodes[0], nodes[-1])[:, :, None] - nodes) / kernel.spacing
    a = np.clip(t, -1.0, 1.0)
    antiderivative = kernel.spacing * (a - 0.5 * a * np.abs(a))
    inside = (shifted >= nodes[0]) & (shifted <= nodes[-1])
    hat = np.clip(1.0 - np.abs(t), 0.0, None) * inside[:, :, None]
    return np.diff(antiderivative, axis=1), hat[:, :-1] - hat[:, 1:]


def oracle_tabulated_matrices(kernel, grid, atoms):
    """``bin_integral_matrix`` and its gradient assembled from ``oracle_axis_weights``."""
    mat = np.empty((grid.m, atoms.shape[0]))
    grad = np.empty((grid.m, atoms.shape[0], kernel.dimension))
    wx, dwx = oracle_axis_weights(kernel, grid.axis_edges(0), atoms[:, 0], 0)
    if kernel.dimension == 1:
        np.matmul(wx, kernel.samples, out=mat.T)
        np.matmul(dwx, kernel.samples, out=grad[:, :, 0].T)
        return mat, grad
    wy, dwy = oracle_axis_weights(kernel, grid.axis_edges(1), atoms[:, 1], 1)
    np.matmul(wy @ kernel.samples, wx.transpose(0, 2, 1), out=_per_atom(mat, wy, wx))
    np.matmul(wy @ kernel.samples, dwx.transpose(0, 2, 1), out=_per_atom(grad[..., 0], wy, wx))
    np.matmul(dwy @ kernel.samples, wx.transpose(0, 2, 1), out=_per_atom(grad[..., 1], wy, wx))
    return mat, grad


@st.composite
def tabulated_weight_problems(draw):
    """A tabulated kernel of random spacing and origin, a grid on [0, 1]^d and 1 to 5 atoms.

    On each axis an atom puts a grid edge at a random point of the sampled
    box, exactly on one of the box's edges, or beyond the box.  Half the
    kernels have dyadic spacing and origin, with a power-of-two grid, so
    that ``edge - (edge - box edge)`` is the box edge exactly.
    """
    d = draw(st.sampled_from([1, 2]))
    shape = draw(st.lists(st.integers(2, 8), min_size=d, max_size=d))
    if draw(st.booleans()):
        spacing = 2.0 ** -draw(st.integers(2, 5))
        origin = [draw(st.integers(math.ceil(-1 / spacing), math.floor(0.5 / spacing)))
                  * spacing for _ in range(d)]
        res = draw(st.tuples(*[st.sampled_from([1, 2, 4, 8, 16])] * d))
    else:
        spacing = draw(st.floats(0.01, 0.3))
        origin = draw(st.lists(st.floats(-1.0, 0.5), min_size=d, max_size=d))
        res = draw(st.tuples(*[st.integers(1, 12)] * d))
    samples = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(shape),
                                     max_size=math.prod(shape))))
    samples[0] = 1.0  # positive mass
    kernel = TabulatedKernel(samples.reshape(shape), spacing, origin)
    grid = BinGrid([0.0] * d, [1.0] * d, res)
    lo, hi = sampled_box(kernel)
    atoms = np.empty((draw(st.integers(1, 5)), d))
    for j in range(atoms.shape[0]):
        for axis in range(d):
            edges = grid.axis_edges(axis)
            edge = edges[draw(st.integers(0, edges.shape[0] - 1))]
            place = draw(st.sampled_from(["inside", "box edge", "beyond"]))
            if place == "inside":
                atoms[j, axis] = edge - draw(st.floats(lo[axis], hi[axis]))
            elif place == "box edge":
                atoms[j, axis] = edge - draw(st.sampled_from([lo[axis], hi[axis]]))
            else:
                atoms[j, axis] = draw(st.floats(-5.0, -4.0) | st.floats(4.0, 5.0))
    return kernel, grid, atoms


class TestTabulatedWeightBits:
    @settings(max_examples=200, deadline=None)
    @given(problem=tabulated_weight_problems())
    def test_weights_and_matrices_equal_the_one_step_oracle_bit_for_bit(self, problem):
        kernel, grid, atoms = problem
        for axis in range(kernel.dimension):
            edges = grid.axis_edges(axis)
            w, dw = oracle_axis_weights(kernel, edges, atoms[:, axis], axis)
            shifted, a = kernel._hat_coordinates(edges, atoms[:, axis], axis)
            masses, slopes = kernel._hat_masses(a), kernel._hat_slopes(shifted, a, axis)
            assert masses.shape == w.shape and masses.tobytes() == w.tobytes()
            assert slopes.shape == dw.shape and slopes.tobytes() == dw.tobytes()
        mat, grad = oracle_tabulated_matrices(kernel, grid, atoms)
        assert kernel.bin_integral_matrix(grid, atoms).tobytes() == mat.tobytes()
        assert kernel.bin_integral_gradient_matrix(grid, atoms).tobytes() == grad.tobytes()


class TestTabulatedMoments:
    @pytest.mark.parametrize("kernel, order", [
        (sampled_gaussian_1d(), 9),
        (sampled_gaussian(ANISOTROPIC_COV), 8),
    ], ids=["1d", "anisotropic"])
    def test_complex_moments_match_per_cell_quadrature(self, kernel, order):
        lo, hi = sampled_box(kernel)
        w = [[segment_integrals(kernel, lo[a], hi[a], a, degree) for degree in range(order + 1)]
             for a in range(kernel.dimension)]
        moments = kernel.moments(order)
        for j, value in enumerate(moments):
            if kernel.dimension == 1:
                reference = w[0][j] @ kernel.samples
            else:
                # E[(x + iy)^j] from the real moments E[x^(j-l) y^l]
                reference = sum(math.comb(j, l) * 1j**l * (w[1][l] @ kernel.samples @ w[0][j - l])
                                for l in range(j + 1))
            assert abs(value - reference) <= 1e-12 * (2 * kernel.spread()) ** j


class TestTabulatedLoading:
    def test_normalization_and_load(self, tmp_path):
        xs = np.linspace(-1, 1, 101)
        samples = np.full_like(xs, 2.0)  # mass 4, should normalize
        np.savetxt(tmp_path / "k.csv", samples[None, :], delimiter=",")
        (tmp_path / "k.json").write_text('{"spacing": 0.02, "origin": [-1.0]}')
        k = TabulatedKernel.load(tmp_path / "k.csv")
        assert k.dimension == 1
        assert reference_bin_integral(k, [-2.0], [2.0], [0.0]) == pytest.approx(1.0, abs=1e-9)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            TabulatedKernel([-0.1, 0.5, 0.1], 0.1, [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.array([[0.1, 0.5, 0.1], [0.2, bad, 0.2]])
        with pytest.raises(ValueError, match="finite"):
            TabulatedKernel(samples, 0.1, [0.0, 0.0])

    def test_nan_token_rejected_on_load(self, tmp_path):
        (tmp_path / "k.csv").write_text("0.1,nan,0.1\n")
        (tmp_path / "k.json").write_text('{"spacing": 0.1, "origin": [0.0]}')
        with pytest.raises(ValueError, match="finite"):
            TabulatedKernel.load(tmp_path / "k.csv")

    def test_missing_spacing_rejected(self, tmp_path):
        np.savetxt(tmp_path / "k.csv", np.ones((1, 5)), delimiter=",")
        (tmp_path / "k.json").write_text('{"origin": [0.0]}')
        with pytest.raises(ValueError, match="spacing"):
            TabulatedKernel.load(tmp_path / "k.csv")


class TestValidation:
    def test_gaussian_bad_args(self):
        with pytest.raises(ValueError):
            GaussianKernel(sigma=-1.0, dim=1)
        with pytest.raises(ValueError):
            GaussianKernel(sigma=1.0, cov=np.eye(2))
        with pytest.raises(ValueError):
            GaussianKernel(cov=[[1.0, 2.0], [2.0, 1.0]])  # not PD

    def test_box_bad_args(self):
        with pytest.raises(ValueError):
            UniformBoxKernel([0.0])

    @pytest.mark.parametrize("kwargs", [
        {"sigma": np.nan}, {"sigma": np.inf}, {"cov": [[np.inf, 0.0], [0.0, 1.0]]},
        {"cov": [[1.0, np.nan], [np.nan, 1.0]]},
    ])
    def test_gaussian_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            GaussianKernel(**kwargs)

    @pytest.mark.parametrize("half_widths", [[np.nan, 1.0], [np.inf, 1.0], [np.inf]])
    def test_box_rejects_non_finite_half_widths(self, half_widths):
        with pytest.raises(ValueError, match="finite"):
            UniformBoxKernel(half_widths)

    @pytest.mark.parametrize("spacing, origin", [
        (np.nan, [0.0, 0.0]), (np.inf, [0.0, 0.0]), (0.1, [np.nan, 0.0]), (0.1, [0.0, -np.inf]),
    ])
    def test_tabulated_rejects_non_finite_geometry(self, spacing, origin):
        with pytest.raises(ValueError, match="finite"):
            TabulatedKernel(np.ones((3, 3)), spacing, origin)
