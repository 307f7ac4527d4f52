import contextlib
import itertools
import logging
import warnings

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from poisson_deconv import mm
from poisson_deconv.em import maximize_likelihood
from poisson_deconv.harness import builtin_configuration
from poisson_deconv.kernels import (
    GaussianKernel,
    TabulatedKernel,
    UniformBoxKernel,
)
from poisson_deconv.measures import (
    AtomicUniformMeasure,
    exact_moments,
    moment_distance,
    wasserstein_p,
)
from poisson_deconv.mm import (
    DegenerateDataWarning,
    RootRecoveryError,
    _polyval_and_deriv,
    _polyval_deriv_and_bound,
    complex_roots,
    compute_psi,
    estimate_moments,
    kernel_psi,
    measure_from_moments,
    mm_complex,
    polynomial_from_moments,
)
from poisson_deconv.observation import (
    BinGrid,
    CountImage,
    intensities,
    noiseless,
    poisson_image,
    replicate_seed,
    simulate,
)


def hermite_coeffs(order):
    """Probabilists' Hermite polynomials, ascending coefficients (oracle)."""
    rows = np.zeros((order + 1, order + 1))
    rows[0, 0] = 1.0
    if order >= 1:
        rows[1, 1] = 1.0
    for n in range(1, order):
        # He_{n+1}(x) = x He_n(x) - n He_{n-1}(x)
        rows[n + 1, 1:] += rows[n, :-1]
        rows[n + 1] -= n * rows[n - 1]
    return rows


class TestComputePsi:
    def test_hermite_ground_truth(self):
        psi = compute_psi(GaussianKernel(sigma=1.0, dim=1).moments(4))
        assert np.allclose(psi, hermite_coeffs(4), atol=1e-12)

    def test_uniform_kernel_hand_inversion(self):
        psi = compute_psi(UniformBoxKernel([1.0]).moments(2))
        assert np.allclose(psi[1, :2], [0.0, 1.0])
        assert np.allclose(psi[2, :3], [-1.0 / 3.0, 0.0, 1.0])

    def test_rotationally_symmetric_gives_monomials(self):
        # exactly the monomials z^i, so these kernels need no shortcut of their own
        psi = compute_psi(GaussianKernel(sigma=0.3, dim=2).moments(12))
        assert psi.dtype == complex
        np.testing.assert_array_equal(psi, np.eye(13))

    @pytest.mark.parametrize("make_kernel", [
        lambda: GaussianKernel(sigma=1.0, dim=1),
        lambda: UniformBoxKernel([1.0]),
    ])
    def test_unbiasedness_by_quadrature(self, make_kernel):
        # E_{V~K*mu}[psi_a(V)] = m_a(mu), checked by adaptive quadrature
        kernel = make_kernel()
        psi = compute_psi(kernel.moments(4))
        rng = np.random.default_rng(9)
        for _ in range(5):
            k = int(rng.integers(1, 4))
            atoms = rng.uniform(-1, 1, size=k)
            mu = AtomicUniformMeasure(atoms)
            m_true = exact_moments(mu, 4)
            for a in range(1, 5):
                val = 0.0
                for atom in atoms:
                    r = kernel.spread()
                    part, _ = integrate.quad(
                        lambda y: P.polyval(y, psi[a, : a + 1]) * kernel.density([[y - atom]])[0],
                        atom - 10, atom + 10, limit=200,
                        points=[atom - r, atom + r],
                    )
                    val += part / k
                assert val == pytest.approx(m_true[a - 1].real, abs=1e-6)


def gauss_offsets(kernel, n):
    """Tensor quadrature nodes and weights, n per axis, for the kernel's density.

    Gauss-Hermite for Gaussians (through the Cholesky factor of the
    covariance) and Gauss-Legendre for boxes: both exact for polynomials of
    degree <= 2n - 1 in each axis.
    """
    if isinstance(kernel, GaussianKernel):
        nodes, weights = np.polynomial.hermite_e.hermegauss(n)
        weights = weights / np.sqrt(2 * np.pi)
        scale = np.linalg.cholesky(kernel.cov)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        weights = weights / 2
        scale = np.diag(kernel.half_widths)
    grids = np.meshgrid(*[nodes] * kernel.dimension, indexing="ij")
    standard = np.column_stack([g.ravel() for g in grids])
    tensor = np.prod(np.meshgrid(*[weights] * kernel.dimension, indexing="ij"), axis=0)
    return standard @ scale.T, tensor.ravel()


@st.composite
def kernels_and_measures(draw):
    """A Gaussian or box kernel on the line or in the plane, with 1..10 atoms in [-1, 1]^d."""
    kind = draw(st.sampled_from(["line", "isotropic", "diagonal", "full", "box1", "box2"]))
    scale = st.floats(0.05, 0.5)
    if kind == "line":
        kernel = GaussianKernel(sigma=draw(scale), dim=1)
    elif kind == "isotropic":
        kernel = GaussianKernel(sigma=draw(scale))
    elif kind == "diagonal":
        kernel = GaussianKernel(cov=np.diag([draw(scale) ** 2, draw(scale) ** 2]))
    elif kind == "full":
        sx, sy, rho = draw(scale), draw(scale), draw(st.floats(-0.9, 0.9))
        kernel = GaussianKernel(cov=[[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
    else:
        kernel = UniformBoxKernel([draw(scale) for _ in range(int(kind[-1]))])
    k = draw(st.integers(1, 10))
    d = kernel.dimension
    coords = draw(st.lists(st.floats(-1, 1), min_size=k * d, max_size=k * d))
    return kernel, AtomicUniformMeasure(np.reshape(coords, (k, d)))


class TestPsiUnbiasedProperty:
    @given(kernels_and_measures())
    def test_psi_expectation_is_the_exact_moment(self, case):
        # E_{V~K*mu}[psi_a(V)] = m_a(mu) for a = 1..k, by exact tensor quadrature
        kernel, mu = case
        k = mu.k
        psi = compute_psi(kernel.moments(k))
        offsets, weights = gauss_offsets(kernel, k + 2)
        points = (mu.atoms[:, None, :] + offsets[None, :, :]).reshape(-1, kernel.dimension)
        z = points[:, 0] + 1j * points[:, 1] if kernel.dimension == 2 else points[:, 0]
        w = np.tile(weights, k) / k
        quadrature = [np.sum(w * P.polyval(z, psi[a, : a + 1])) for a in range(1, k + 1)]
        np.testing.assert_allclose(quadrature, exact_moments(mu, k), rtol=0, atol=1e-10)


class TestNewtonVieta:
    def test_hand_recursion_k2(self):
        # atoms 0 and 1: z^2 - z
        assert np.allclose(polynomial_from_moments([0.5, 0.5]), [1.0, -1.0, 0.0])

    def test_single_step(self):
        coeffs = polynomial_from_moments([0.3 + 0.1j])
        assert coeffs[0] == 1.0 and coeffs[1] == pytest.approx(-0.3 - 0.1j)

    def test_hand_recursion_k3(self):
        # atoms 1, 2 and 3
        coeffs = polynomial_from_moments([2.0, 14.0 / 3.0, 12.0])
        assert np.allclose(coeffs, [1.0, -6.0, 11.0, -6.0])

    def test_zero_moments_give_a_root_of_full_multiplicity(self):
        assert np.allclose(polynomial_from_moments([0, 0, 0]), [1, 0, 0, 0])

    def test_matches_direct_expansion(self):
        # recursion from power sums == signed elementary symmetric expansion
        rng = np.random.default_rng(31)
        for k in range(1, 7):
            atoms = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            moments = [np.mean(atoms**j) for j in range(1, k + 1)]
            coeffs = polynomial_from_moments(moments)
            assert coeffs[0] == 1.0
            for j in range(1, k + 1):
                direct = sum(
                    np.prod(np.array(combo))
                    for combo in itertools.combinations(atoms, j)
                )
                assert coeffs[j] == pytest.approx((-1) ** j * direct, abs=1e-10)


class TestComplexRoots:
    def test_factored_cases(self):
        assert np.allclose(sorted(complex_roots([[1, -1, 0]])[0].real), [0.0, 1.0])
        assert np.allclose(sorted(complex_roots([[1, -6, 11, -6]])[0].real), [1, 2, 3])

    def test_wilkinson_mild(self):
        targets = np.arange(1, 6) / 10.0
        coeffs = np.poly(targets)
        roots = np.sort(complex_roots([coeffs])[0].real)
        assert np.allclose(roots, targets, atol=1e-8)

    def test_multiple_root_at_zero(self):
        roots = complex_roots([[1, 0, 0, 0]])  # z^3
        assert roots.shape == (1, 3)
        assert np.max(np.abs(roots)) < 1e-3

    def test_degree_one_exact(self):
        assert complex_roots([[1.0, -0.25 - 0.5j]])[0, 0] == 0.25 + 0.5j

    def test_cauchy_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            coeffs = np.concatenate([[1.0], rng.normal(size=k) + 1j * rng.normal(size=k)])
            roots = complex_roots([coeffs])
            assert np.all(np.abs(roots) <= 1.0 + np.max(np.abs(coeffs[1:])) + 1e-9)

    @pytest.mark.parametrize("solve, row", [
        (complex_roots, [1.0, -0.5, 0.25]),
        (measure_from_moments, [0.5 + 0.5j, 0.25]),
    ], ids=["roots", "moments"])
    def test_a_single_row_is_not_a_stack(self, solve, row):
        with pytest.raises(ValueError, match=r"must be an \(R, k(?: \+ 1)?\) stack"):
            solve(row)


class TestRootFinderConvergence:
    @staticmethod
    def root_records(caplog):
        """(path, Aberth iterations) of every complex_roots DEBUG record."""
        return [
            record.args[1:3] for record in caplog.records
            if record.name == "poisson_deconv.mm" and record.levelno == logging.DEBUG
        ]

    @pytest.mark.parametrize("t", [np.inf, 1e4])
    def test_u_shape_k12_converges_early(self, caplog, t):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        mu = builtin_configuration("u-shape", 12)
        grid = BinGrid([0, 0], [1, 1], (50, 50))
        if np.isinf(t):
            img = noiseless(kernel, mu, grid)
        else:
            img = simulate(kernel, mu, grid, t, seed=3)
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.mm"):
            mm_complex(img, kernel, 12)
        [(path, iterations)] = self.root_records(caplog)
        assert path == "aberth"
        assert iterations <= 40

    @pytest.mark.parametrize("targets", [
        [0.3] * 4 + [0.2j] * 2,
        [0.5 + 0.5j + 1e-6 * j for j in range(4)] + [0.1, 0.9j],
    ], ids=["multiple", "cluster"])
    def test_multiple_and_clustered_roots(self, targets):
        coeffs = np.poly(targets)
        [roots] = complex_roots([coeffs])
        assert roots.shape == (len(targets),)
        assert oracle_residual_ratio(coeffs, roots) <= 1.0


# Reference root finder (oracle): two Horner passes per Newton step, a
# separate np.polyval for the freeze bound, and a residual gate that evaluates
# p again.  mm reuses p and p' between these stages and must match it bit for
# bit.
def oracle_polyval_and_deriv(coeffs: np.ndarray, z: np.ndarray):
    """Horner evaluation of p and p' for descending coefficients."""
    p = np.full_like(z, coeffs[0])
    dp = np.zeros_like(z)
    for c in coeffs[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def oracle_newton_polish(coeffs: np.ndarray, roots: np.ndarray, max_steps: int = 8) -> np.ndarray:
    roots = roots.astype(complex).copy()
    for _ in range(max_steps):
        p, dp = oracle_polyval_and_deriv(coeffs, roots)
        ok = np.abs(dp) > 0
        step = np.zeros_like(roots)
        step[ok] = p[ok] / dp[ok]
        nxt = roots - step
        p_new, _ = oracle_polyval_and_deriv(coeffs, nxt)
        improved = np.abs(p_new) < np.abs(p)
        roots[improved] = nxt[improved]
        if not improved.any():
            break
    return roots


def oracle_aberth(coeffs: np.ndarray, max_iter: int = 200):
    k = coeffs.shape[0] - 1
    centre = -coeffs[1] / k
    radius = abs(np.polyval(coeffs, centre)) ** (1.0 / k)
    if not 0.0 < radius < np.inf:
        radius = 1.0 + np.max(np.abs(coeffs[1:]))  # Cauchy bound
    angles = 2 * np.pi * (np.arange(k) + 0.5) / k + 0.4
    z = centre + radius * np.exp(1j * angles)
    rounding = 4.0 * np.finfo(float).eps * np.abs(coeffs)
    active = np.arange(k)
    for iteration in range(max_iter):
        za = z[active]
        p, dp = oracle_polyval_and_deriv(coeffs, za)
        moving = np.abs(p) > np.polyval(rounding, np.abs(za))
        active, za, p, dp = active[moving], za[moving], p[moving], dp[moving]
        if active.size == 0:
            return z, iteration
        pair = za[:, None] - z[None, :]
        pair[np.arange(active.size), active] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = np.sum(1.0 / pair, axis=1)
            w = np.where(np.abs(dp) > 0, p / dp, p)
            denom = 1.0 - w * sums
            step = np.where(np.abs(denom) > 0, w / denom, w)
        z[active] = za - np.where(np.isfinite(step), step, 0.0)
    return z, max_iter


def oracle_residual_ratio(coeffs: np.ndarray, roots: np.ndarray) -> float:
    p, _ = oracle_polyval_and_deriv(coeffs, roots)
    scale = np.max(np.abs(coeffs))
    k = coeffs.shape[0] - 1
    bound = 1e-10 * scale * (1.0 + np.abs(roots)) ** k
    return float(np.max(np.abs(p) / bound))


def oracle_residual_ok(coeffs: np.ndarray, roots: np.ndarray) -> bool:
    return oracle_residual_ratio(coeffs, roots) <= 1.0


def oracle_find_roots(coeffs: np.ndarray):
    roots, iterations = oracle_aberth(coeffs)
    roots = oracle_newton_polish(coeffs, roots)
    if oracle_residual_ok(coeffs, roots):
        return roots, "aberth", iterations
    fallback = oracle_newton_polish(coeffs, np.roots(coeffs).astype(complex))
    if oracle_residual_ok(coeffs, fallback):
        return fallback, "companion", iterations
    raise RootRecoveryError("oracle: both paths exceeded the residual bound")


complex_values = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))
nonzero_parts = st.builds(lambda sign, size: sign * size,
                          st.sampled_from([-1.0, 1.0]), st.floats(1e-6, 1e2))


@st.composite
def monic_polynomials(draw, degrees=st.integers(2, 16)):
    """Monic descending coefficients of degree 2..16: drawn directly, or from
    roots that may repeat or cluster."""
    degree = draw(degrees)
    if draw(st.booleans()):
        return np.concatenate([[1.0], draw(st.lists(complex_values, min_size=degree,
                                                     max_size=degree))]).astype(complex)
    distinct = draw(st.lists(complex_values, min_size=1, max_size=degree))
    spread = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    roots = [distinct[i % len(distinct)] * (1 + spread * i) for i in range(degree)]
    return np.poly(roots).astype(complex)


@st.composite
def monic_stacks(draw):
    """An (R, k + 1) stack of 1..8 monic polynomials of one degree k in 2..16."""
    degree = draw(st.integers(2, 16))
    return np.array(draw(st.lists(monic_polynomials(st.just(degree)), min_size=1, max_size=8)))


def oracle_or_failure(coeffs):
    """oracle_find_roots, or None when both of its paths fail."""
    try:
        return oracle_find_roots(coeffs)
    except RootRecoveryError:
        return None


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@contextlib.contextmanager
def mm_debug_records():
    """The list of records the ``poisson_deconv.mm`` logger emits at DEBUG inside the block.

    A handler of its own rather than ``caplog``: hypothesis rejects
    function-scoped fixtures.
    """
    logger = logging.getLogger("poisson_deconv.mm")
    handler = logging.Handler(logging.DEBUG)
    records = []
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestRootFinderMatchesOracle:
    @settings(max_examples=150)
    @given(monic_polynomials())
    def test_roots_path_and_ratio_match_bit_for_bit(self, coeffs):
        expected = oracle_or_failure(coeffs)
        with mm_debug_records() as records:
            [roots] = complex_roots([coeffs])
        if expected is None:
            assert np.isnan(roots).all() and records == []
            return
        [record] = records
        _, path, iterations, ratio = record.args
        assert same_bits(roots, expected[0])
        assert (path, iterations) == expected[1:]
        assert ratio == oracle_residual_ratio(coeffs, expected[0])

    @given(
        st.lists(complex_values, min_size=1, max_size=16),
        st.lists(st.one_of(
            st.builds(complex, st.floats(allow_nan=True, allow_infinity=True),
                      st.floats(allow_nan=True, allow_infinity=True)),
            complex_values,
        ), min_size=1, max_size=12),
    )
    def test_one_pass_horner_matches_separate_passes(self, tail, points):
        # non-finite and overflowing points included: the bound starts from 0
        # as np.polyval's accumulator does
        coeffs = np.array([1.0] + tail, dtype=complex)
        rounding = 4.0 * np.finfo(float).eps * np.abs(coeffs)
        z = np.array(points, dtype=complex)
        with np.errstate(all="ignore"):
            p, dp = oracle_polyval_and_deriv(coeffs, z)
            bound = np.polyval(rounding, np.abs(z))
            one_pass = _polyval_deriv_and_bound(coeffs, rounding, z)
            two_values = _polyval_and_deriv(coeffs, z)
        for got, want in zip(one_pass + two_values, (p, dp, bound, p, dp)):
            assert same_bits(got, want)

    @settings(max_examples=60)
    @given(monic_stacks())
    def test_each_row_of_a_stack_matches_the_oracle_bit_for_bit(self, stack):
        expected = [oracle_or_failure(coeffs) for coeffs in stack]
        with mm_debug_records() as records:
            roots = complex_roots(stack)
        assert roots.shape == (stack.shape[0], stack.shape[1] - 1)
        # one record per row solved, in row order
        assert [r.args[1:3] for r in records] == [e[1:] for e in expected if e is not None]
        for row, want in zip(roots, expected):
            if want is None:
                assert np.isnan(row).all()
            else:
                assert same_bits(row, want[0])

    @given(st.lists(st.builds(complex, nonzero_parts, nonzero_parts), min_size=1, max_size=8))
    def test_a_degree_one_stack_gives_minus_a1_bit_for_bit(self, tail):
        # Aberth starts on the Cauchy circle about the root -a_1; its first
        # step lands within rounding of it, after which z + a_1 is exact and
        # the next step lands on -a_1.  (A zero part comes back as +0.)
        a1 = np.array(tail, dtype=complex)
        with mm_debug_records() as records:
            roots = complex_roots(np.column_stack([np.ones_like(a1), a1]))
        assert same_bits(roots[:, 0], -a1)
        assert [r.args[1] for r in records] == ["aberth"] * a1.size

    def test_a_row_that_fails_both_paths_fails_alone(self):
        # rows: Aberth; Aberth overflows from its Cauchy start, so the companion
        # fallback; both paths overflow; Aberth
        stack = np.array([[1, -3, 2, 0], [1, 0, -1e200, 0], [1, 1e200, 1e200, 0],
                          [1, 0, 0, -8]], dtype=complex)
        with np.errstate(all="ignore"):
            expected = [oracle_or_failure(coeffs) for coeffs in stack]
            with mm_debug_records() as records:
                roots = complex_roots(stack)
            alone = complex_roots(stack[2:3])
        assert np.isnan(alone).all()
        assert [e and e[1] for e in expected] == ["aberth", "companion", None, "aberth"]
        assert [r.args[1] for r in records] == ["aberth", "companion", "aberth"]
        assert np.isnan(roots[2]).all()
        for row in (0, 1, 3):
            assert same_bits(roots[row], expected[row][0])

    @pytest.mark.parametrize("coeffs", [
        np.poly(np.arange(1, 9) / 10.0),
        [1.0, -0.25 - 0.5j],
    ], ids=["aberth", "linear"])
    def test_debug_record_reports_the_accepted_ratio(self, caplog, coeffs):
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.mm"):
            [roots] = complex_roots([coeffs])
        [record] = [r for r in caplog.records if r.name == "poisson_deconv.mm"]
        monic = np.asarray(coeffs, dtype=complex)
        assert record.args[1] == "aberth"
        assert record.args[3] == oracle_residual_ratio(monic / monic[0], roots) <= 1.0


def spaced_atoms(min_gap):
    """1..10 planar atoms in the unit square, pairwise at least min_gap apart."""
    point = st.tuples(st.floats(0, 1), st.floats(0, 1))

    def spaced(points):
        atoms = np.array(points)
        gaps = np.linalg.norm(atoms[:, None] - atoms[None, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        return gaps.min() >= min_gap

    return st.lists(point, min_size=1, max_size=10).filter(spaced)


class TestMomentRoundtrip:
    @given(spaced_atoms(0.05))
    def test_newton_vieta_roundtrip(self, points):
        mu = AtomicUniformMeasure(np.array(points))
        moments = exact_moments(mu, mu.k)
        # the monic polynomial whose roots are the atoms, prod_j (z - z_j)
        coeffs = polynomial_from_moments(moments)
        expected = np.poly(mu.atoms[:, 0] + 1j * mu.atoms[:, 1])
        assert np.abs(coeffs - expected).max() <= 1e-9 * np.abs(expected).max()
        [nu] = measure_from_moments([moments])
        assert wasserstein_p(mu, nu, np.inf) <= 1e-6

    def test_random_measures_recovered(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            mu = AtomicUniformMeasure(rng.uniform(0, 1, size=(k, 2)))
            [nu] = measure_from_moments([exact_moments(mu, k)])
            assert wasserstein_p(mu, nu, np.inf) < 1e-8

    def test_identifiability_probe(self):
        # matching moments to 1e-12 forces W_1 below 1e-6
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            mu = AtomicUniformMeasure(rng.uniform(0, 1, size=(k, 2)))
            [nu] = measure_from_moments([exact_moments(mu, k)])
            if moment_distance(exact_moments(mu, k), exact_moments(nu, k)) < 1e-12:
                assert wasserstein_p(mu, nu, 1) < 1e-6


@pytest.fixture
def planar_setup():
    kernel = GaussianKernel(sigma=0.05, dim=2)
    mu = AtomicUniformMeasure([[0.3, 0.3], [0.7, 0.7]])
    grid = BinGrid([0, 0], [1, 1], (80, 80))
    return kernel, mu, grid


def horner_moments(image, psi):
    """One polyval of each psi_a over all m anchors, O(k^2 m) (oracle)."""
    anchors = image.grid.anchors()
    if image.grid.dimension == 2:
        gamma = anchors[:, 0] + 1j * anchors[:, 1]
    else:
        gamma = anchors[:, 0]
    weights = image.counts if image.noiseless else image.counts / image.t
    return np.array([
        np.sum(P.polyval(gamma, psi[a, : a + 1]) * weights)
        for a in range(1, psi.shape[0])
    ])


@st.composite
def psi_and_images(draw):
    """A kernel-adapted psi of order 1..32 and a 1-d or planar image, finite t or t = inf."""
    kind = draw(st.sampled_from(["line", "diagonal", "full", "box1", "box2"]))
    scale = st.floats(0.02, 0.5)
    if kind == "line":
        kernel = GaussianKernel(sigma=draw(scale), dim=1)
    elif kind == "diagonal":
        kernel = GaussianKernel(cov=np.diag([draw(scale) ** 2, draw(scale) ** 2]))
    elif kind == "full":
        sx, sy, rho = draw(scale), draw(scale), draw(st.floats(-0.9, 0.9))
        kernel = GaussianKernel(cov=[[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
    else:
        kernel = UniformBoxKernel([draw(scale) for _ in range(int(kind[-1]))])
    d = kernel.dimension
    lo = np.array([draw(st.floats(-2.0, 1.0)) for _ in range(d)])
    hi = lo + np.array([draw(st.floats(0.1, 2.0)) for _ in range(d)])
    resolution = tuple(draw(st.integers(1, 400 if d == 1 else 40)) for _ in range(d))
    grid = BinGrid(lo, hi, resolution)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.sampled_from([1.0, 1e3, 1e6, np.inf]))
    if np.isinf(t):
        counts = rng.random(grid.m)
    else:
        counts = rng.poisson(rng.uniform(0, 50), grid.m).astype(float)
    psi = compute_psi(kernel.moments(draw(st.integers(1, 32))))
    return psi, CountImage(grid, counts, t)


class TestEstimateMoments:
    @settings(max_examples=60)
    @given(psi_and_images())
    def test_power_sums_match_horner(self, case):
        # |error| <= 1e-12 * sum_j |psi_aj| sum_i |gamma_i|^j |w_i|, the size of
        # the terms either evaluation adds up
        psi, img = case
        radius = np.linalg.norm(img.grid.anchors(), axis=1)  # |gamma_i|
        weights = img.counts if img.noiseless else img.counts / img.t
        magnitudes = np.array([np.sum(radius**j * weights) for j in range(psi.shape[0])])
        bound = 1e-12 * (np.abs(psi) @ magnitudes)[1:]
        assert np.all(np.abs(estimate_moments(img, psi) - horner_moments(img, psi)) <= bound)

    @pytest.mark.parametrize("k", [1, 4, 12, 32])
    @pytest.mark.parametrize("t", [1e4, np.inf])
    def test_identity_psi_matches_horner_exactly(self, planar_setup, k, t):
        kernel, mu, _ = planar_setup
        grid = BinGrid([-0.2, 0.1], [1.3, 0.9], (60, 40))
        img = noiseless(kernel, mu, grid) if np.isinf(t) else simulate(kernel, mu, grid, t, seed=k)
        psi = compute_psi(kernel.moments(k))
        np.testing.assert_array_equal(estimate_moments(img, psi), horner_moments(img, psi))

    def test_single_atom_first_moment(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        mu = AtomicUniformMeasure([[0.5, 0.5]])
        grid = BinGrid([0, 0], [1, 1], (80, 80))
        img = noiseless(kernel, mu, grid)
        m = estimate_moments(img, np.eye(3, dtype=complex))
        assert abs(m[0] - (0.5 + 0.5j)) < 2.0 / 80

    def test_zero_counts_give_zero(self):
        grid = BinGrid([0, 0], [1, 1], (10, 10))
        img = CountImage(grid, np.zeros(100), 10.0)
        m = estimate_moments(img, np.eye(4, dtype=complex))
        assert m.shape == (3,)
        assert np.all(m == 0)

    def test_expectation_matches_noiseless(self, planar_setup):
        kernel, mu, grid = planar_setup
        grid = BinGrid([0, 0], [1, 1], (20, 20))
        psi = np.eye(3, dtype=complex)
        target = estimate_moments(noiseless(kernel, mu, grid), psi)
        t, reps = 500.0, 400
        acc = np.zeros(2, dtype=complex)
        samples = []
        for r in range(reps):
            img = simulate(kernel, mu, grid, t, seed=(1000 + r))
            samples.append(estimate_moments(img, psi))
        samples = np.array(samples)
        for a in (1, 2):
            mean = samples[:, a - 1].mean()
            se = samples[:, a - 1].std(ddof=1) / np.sqrt(reps)
            assert abs(mean - target[a - 1]) < 4 * max(abs(se), 1e-12)


class TestMmComplex:
    def test_noiseless_recovery(self, planar_setup):
        kernel, mu, grid = planar_setup
        est = mm_complex(noiseless(kernel, mu, grid), kernel, 2)
        assert wasserstein_p(est, mu, np.inf) < 5e-3

    def test_exact_moment_injection(self):
        mu = AtomicUniformMeasure([[0.2, 0.8], [0.6, 0.4], [0.9, 0.1]])
        [est] = measure_from_moments([exact_moments(mu, 3)])
        assert wasserstein_p(est, mu, np.inf) < 1e-9

    def test_k1_returns_first_moment(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        mu = AtomicUniformMeasure([[0.4, 0.6]])
        grid = BinGrid([0, 0], [1, 1], (40, 40))
        img = noiseless(kernel, mu, grid)
        [m1] = estimate_moments(img, np.eye(2, dtype=complex))
        est = mm_complex(img, kernel, 1)
        assert est.atoms[0, 0] == pytest.approx(m1.real, abs=1e-14)
        assert est.atoms[0, 1] == pytest.approx(m1.imag, abs=1e-14)

    def test_translation_equivariance(self, planar_setup):
        kernel, mu, grid = planar_setup
        est = mm_complex(noiseless(kernel, mu, grid), kernel, 2)
        v = np.array([0.25, -0.5])
        grid_t = BinGrid(grid.window_lo + v, grid.window_hi + v, grid.resolution)
        mu_t = AtomicUniformMeasure(mu.atoms + v)
        est_t = mm_complex(noiseless(kernel, mu_t, grid_t), kernel, 2)
        a = est.atoms[np.lexsort(est.atoms.T)]
        b = est_t.atoms[np.lexsort((est_t.atoms - v).T)]
        assert np.allclose(a + v, b, atol=1e-9)

    def test_planar_kernel_on_1d_image_rejected(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        mu = AtomicUniformMeasure([0.35, 0.7])
        img = noiseless(GaussianKernel(sigma=0.05, dim=1), mu, BinGrid([0.0], [1.0], (100,)))
        with pytest.raises(ValueError, match="2-d kernel cannot deconvolve a 1-d image"):
            mm_complex(img, kernel, 2)

    def test_1d_kernel_on_planar_image_rejected(self, planar_setup):
        kernel, mu, grid = planar_setup
        img = noiseless(kernel, mu, grid)
        with pytest.raises(ValueError, match="1-d kernel cannot deconvolve a 2-d image"):
            mm_complex(img, GaussianKernel(sigma=0.05, dim=1), 2)

    def test_a_moment_stack_gives_each_row_its_own_measure(self):
        rng = np.random.default_rng(8)
        moments = [exact_moments(AtomicUniformMeasure(rng.uniform(0, 1, (5, 2))), 5)
                   for _ in range(3)]
        moments.insert(1, np.array([0.5, np.nan, 0.1, 0.2, 0.3]))
        for dimension in (1, 2):
            got = measure_from_moments(np.array(moments), dimension=dimension)
            assert len(got) == 4
            assert isinstance(got[1], ValueError)
            for row in (0, 2, 3):
                [alone] = measure_from_moments([moments[row]], dimension=dimension)
                assert same_bits(got[row].atoms, alone.atoms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_moments_rejected(self, bad):
        [error] = measure_from_moments([[0.5 + 0.5j, bad]])
        assert isinstance(error, ValueError) and "finite" in str(error)

    @pytest.mark.parametrize("target, planted, error, message", [
        ("estimate_moments", lambda image, psi: np.full(2, np.nan), ValueError, "finite"),
        ("complex_roots", lambda coeffs: np.full((1, 2), np.nan), RootRecoveryError,
         "root finding failed"),
    ], ids=["moments", "roots"])
    def test_mm_complex_raises_the_failure_of_its_row(self, planar_setup, monkeypatch,
                                                       target, planted, error, message):
        kernel, mu, grid = planar_setup
        monkeypatch.setattr(mm, target, planted)
        with pytest.raises(error, match=message):
            mm_complex(noiseless(kernel, mu, grid), kernel, 2)

    @pytest.mark.parametrize("counts", ["poisson", "zeros"])
    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_rejects_a_k_that_is_not_a_positive_integer(self, monkeypatch, counts, k):
        # checked before the all-zero guard warns and before psi is looked up
        kernel = GaussianKernel(sigma=0.05, dim=2)
        grid = BinGrid([0, 0], [1, 1], (10, 10))
        values = np.zeros(grid.m) if counts == "zeros" else np.arange(grid.m) % 3
        img = CountImage(grid, values, 5.0)

        def no_lookup(*args):
            raise AssertionError("psi looked up for an invalid k")

        monkeypatch.setattr(mm, "kernel_psi", no_lookup)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateDataWarning)
            with pytest.raises(ValueError, match=rf"k must be an integer >= 1, got {k!r}"):
                mm_complex(img, kernel, k)

    def test_degenerate_counts_warn(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        grid = BinGrid([0, 0], [1, 1], (10, 10))
        img = CountImage(grid, np.zeros(100), 5.0)
        with pytest.warns(DegenerateDataWarning):
            est = mm_complex(img, kernel, 3)
        assert np.allclose(est.atoms, 0.5)


class TestPsiCache:
    def test_built_once_per_kernel_and_order(self, monkeypatch):
        samples = np.exp(-0.5 * np.add.outer(*[np.linspace(-0.2, 0.2, 21) ** 2] * 2) / 0.06**2)
        kernel = TabulatedKernel(samples, 0.02, [-0.2, -0.2])
        mu = AtomicUniformMeasure([[0.4, 0.45], [0.55, 0.5], [0.5, 0.6]])
        grid = BinGrid([0, 0], [1, 1], (20, 20))
        img = simulate(kernel, mu, grid, 1e4, seed=5)
        calls = {"psi": 0, "tables": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mm, "compute_psi", counted("psi", mm.compute_psi))
        monkeypatch.setattr(TabulatedKernel, "_moment_weights",
                            counted("tables", TabulatedKernel._moment_weights))
        first = [mm_complex(img, kernel, k).atoms for k in (3, 2, 3, 2, 3)]
        # one psi and one table per axis for each of the two orders
        assert calls == {"psi": 2, "tables": 4}
        np.testing.assert_array_equal(first[0], first[2])
        # an equal kernel that is another object gets its own entry
        kernel_psi(TabulatedKernel(samples, 0.02, [-0.2, -0.2]), 3)
        assert calls == {"psi": 3, "tables": 6}
        for order in (2, 3):
            psi = kernel_psi(kernel, order)
            assert not psi.flags.writeable
            fresh = compute_psi(kernel.moments(order))
            assert psi.dtype == fresh.dtype and psi.tobytes() == fresh.tobytes()


class TestMmReal:
    def test_symmetric_pair_closed_form(self):
        a = 0.35
        mu = AtomicUniformMeasure([-a, a])
        [est] = measure_from_moments([exact_moments(mu, 2)], dimension=1)
        assert np.allclose(np.sort(est.atoms[:, 0]), [-a, a], atol=1e-12)

    def test_conjugate_pair_projects(self):
        # moments of a conjugate pair x +- iy give the distinct real atoms x -+ y
        x, y = 0.4, 0.2
        moments = [
            np.mean(np.array([x + 1j * y, x - 1j * y]) ** j) for j in (1, 2)
        ]
        [est] = measure_from_moments([moments], dimension=1)
        assert np.allclose(est.atoms[:, 0], [x - y, x + y], atol=1e-12)

    def test_close_pair_is_split_and_refined(self):
        # a pair 0.2 sigma apart: noisy moments often give a conjugate root pair,
        # which must reach the ascent as two atoms, not one coincident pair
        kernel = GaussianKernel(sigma=0.05, dim=1)
        grid = BinGrid([-0.5], [1.5], (400,))
        mu = AtomicUniformMeasure([0.495, 0.505])
        lam = intensities(kernel, mu, grid)
        w1 = []
        for rep in range(40):
            img = poisson_image(grid, lam, 1e7, replicate_seed(0, rep))
            est, _ = maximize_likelihood(img, kernel, mm_complex(img, kernel, 2))
            assert abs(est.atoms[1, 0] - est.atoms[0, 0]) >= 1e-12
            w1.append(wasserstein_p(est, mu, 1))
        assert np.mean(w1) <= 2e-4

    def test_noiseless_recovery_1d(self):
        kernel = GaussianKernel(sigma=0.05, dim=1)
        mu = AtomicUniformMeasure([0.35, 0.7])
        grid = BinGrid([0.0], [1.0], (400,))
        est = mm_complex(noiseless(kernel, mu, grid), kernel, 2)
        assert wasserstein_p(est, mu, np.inf) < 5e-3

