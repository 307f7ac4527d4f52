import functools
import gc
import logging
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from poisson_deconv import em
from poisson_deconv.em import (
    EmConfig,
    EmTrace,
    log_likelihood,
    m_step,
    maximize_likelihood,
    run_em,
    _neg_log_likelihood,
    _neg_q,
)
from poisson_deconv.harness import builtin_configuration
from poisson_deconv.kernels import GaussianKernel, Kernel, TabulatedKernel, UniformBoxKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.mm import mm_complex
from poisson_deconv.observation import BinGrid, CountImage, noiseless, simulate


def reference_responsibilities(image, kernel, mu):
    """p_ij = lam_ij / lam_i, and the uniform 1/k on rows whose lam_i is 0."""
    lam = kernel.bin_integral_matrix(image.grid, mu.atoms) / mu.k
    totals = lam.sum(axis=1)
    resp = np.full_like(lam, 1.0 / mu.k)
    counted = totals > 0
    resp[counted] = lam[counted] / totals[counted, None]
    return resp


def reference_q_function(image, kernel, resp, k, floor):
    """-Q and -grad Q from the plain formulas, every temporary its own array."""
    counts, t = em._effective(image)
    weights = counts[:, None] * resp  # X_i * p_ij

    def fun(theta_flat):
        atoms = theta_flat.reshape(k, -1)
        lam = kernel.bin_integral_matrix(image.grid, atoms) / k
        lam_f = np.maximum(lam, floor)
        q = np.sum(weights * np.log(t * lam_f)) - t * np.sum(lam)
        grad_lam = kernel.bin_integral_gradient_matrix(image.grid, atoms) / k
        coef = weights / lam_f - t  # (m, k)
        grad = np.einsum("mk,mkd->kd", coef, grad_lam)
        return -q, -grad.ravel()

    return fun


def assert_same_objective(fun, reference, points):
    """fun and reference agree to 1e-12 relative, value and gradient, at each point."""
    for x in points:
        value, grad = fun(np.ravel(x))
        ref_value, ref_grad = reference(np.ravel(x))
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


def reference_plain_em(image, kernel, init, config):
    """Plain EM, run_em's loop without the ascents: every iterate is the m-step's result."""
    trace = EmTrace()
    current = init
    for _ in range(config.max_iterations):
        nxt, status, nit, q_evals, error = m_step(image, kernel, current, config)
        step = wasserstein_p(nxt, current, 1)
        lam, _ = kernel.intensity_and_vjp(image.grid, nxt.atoms)
        ll = em._log_likelihood(image, lam / nxt.k)
        trace.append(ll, step, status, nit, q_evals, error)
        current = nxt
        if current.k > 1 and pdist(current.atoms).min() < 1e-12:
            trace.collision = True
        if step <= config.early_stop_w1:
            break
    return current, trace


RUN_SUMMARY = re.compile(
    r"run_em: (?P<iterations>\d+) iterations, (?P<accepted>\d+) of (?P<tried>\d+) ascents "
    r"accepted, (?P<raised>\d+) raised, (?P<evals>\d+) likelihood evaluations, "
    r"(?P<nit>\d+) L-BFGS-B iterations, stopped at (?P<stop>.+)$")


def run_summary(caplog):
    """The fields of the one run_em DEBUG record captured, the counts as ints."""
    [match] = [m for m in (RUN_SUMMARY.match(r.getMessage()) for r in caplog.records) if m]
    return {name: value if name == "stop" else int(value)
            for name, value in match.groupdict().items()}


class CountingKernel(GaussianKernel):
    """Isotropic Gaussian counting its value-matrix and forward-model calls and
    recording the atoms of every gradient-matrix call."""

    def __init__(self, sigma):
        super().__init__(sigma=sigma, dim=2)
        self.value_calls = 0
        self.likelihood_calls = 0
        self.gradient_points = []

    def bin_integral_matrix(self, grid, atoms):
        self.value_calls += 1
        return super().bin_integral_matrix(grid, atoms)

    def intensity_and_vjp(self, grid, atoms):
        self.likelihood_calls += 1
        return super().intensity_and_vjp(grid, atoms)

    def bin_integral_gradient_matrix(self, grid, atoms):
        self.gradient_points.append(np.asarray(atoms, float).tobytes())
        return super().bin_integral_gradient_matrix(grid, atoms)


def domain(image, kernel):
    """The box every climb searches: the window inflated by 3 kernel spreads."""
    pad = 3.0 * kernel.spread()
    return image.grid.window_lo - pad, image.grid.window_hi + pad


def sampled_gaussian_kernel(sigma=0.06, spacing=0.02, half_extent=0.2):
    nodes = np.arange(-half_extent, half_extent + 0.5 * spacing, spacing)
    xx, yy = np.meshgrid(nodes, nodes)
    return TabulatedKernel(np.exp(-0.5 * (xx**2 + yy**2) / sigma**2), spacing,
                           [nodes[0], nodes[0]])


@pytest.fixture
def small_setup():
    kernel = GaussianKernel(sigma=0.08, dim=2)
    mu = AtomicUniformMeasure([[0.35, 0.4], [0.7, 0.65]])
    grid = BinGrid([0, 0], [1, 1], (20, 20))
    return kernel, mu, grid


class TestLogLikelihood:
    def test_truth_beats_far_shift(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e5, seed=2)
        ll_truth = log_likelihood(img, kernel, mu)
        ll_far = log_likelihood(img, kernel, AtomicUniformMeasure(mu.atoms + 0.4))
        assert ll_truth > ll_far

    def test_zero_counts_sign_structure(self, small_setup):
        kernel, mu, grid = small_setup
        img = CountImage(grid, np.zeros(grid.m), 100.0)
        lam = kernel.bin_integral_matrix(grid, mu.atoms).mean(axis=1)
        assert log_likelihood(img, kernel, mu) == pytest.approx(-100.0 * lam.sum())
        # pushing mass off-window raises the likelihood toward 0
        off = AtomicUniformMeasure(mu.atoms + 5.0)
        assert log_likelihood(img, kernel, off) > log_likelihood(img, kernel, mu)

    def test_relabel_invariance(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=3)
        swapped = AtomicUniformMeasure(mu.atoms[::-1])
        assert log_likelihood(img, kernel, mu) == pytest.approx(
            log_likelihood(img, kernel, swapped), abs=1e-9
        )

    def test_noiseless_rejected(self, small_setup):
        kernel, mu, grid = small_setup
        with pytest.raises(ValueError):
            log_likelihood(noiseless(kernel, mu, grid), kernel, mu)


class TestResponsibilities:
    """The m-step's responsibilities, read through Q against the plain formulas."""

    def test_single_component(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e3, seed=4)
        fun = _neg_q(img, kernel, AtomicUniformMeasure([[0.5, 0.5]]))
        reference = reference_q_function(img, kernel, np.ones((grid.m, 1)), 1, 1e-30)
        assert_same_objective(fun, reference, [[0.5, 0.5], [0.42, 0.61]])

    def test_symmetric_atoms_split_half(self):
        kernel = GaussianKernel(sigma=0.1, dim=2)
        grid = BinGrid([0, 0], [1, 1], (5, 5))
        counts = np.zeros(grid.m)
        counts[12] = 10.0  # the center bin, iy=2, ix=2
        img = CountImage(grid, counts, 10.0)
        # both atoms symmetric about the center bin's center
        mu = AtomicUniformMeasure([[0.3, 0.5], [0.7, 0.5]])
        fun = _neg_q(img, kernel, mu)
        reference = reference_q_function(img, kernel, np.full((grid.m, 2), 0.5), 2, 1e-30)
        assert_same_objective(fun, reference, [[0.35, 0.45, 0.6, 0.55]])

    def test_rows_sum_to_one(self, small_setup):
        # with both atoms at one point, sum_j p_ij ln(t lam_ij) is ln(t lam_i1)
        # only if every row of p sums to one
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=5)
        point = np.array([0.5, 0.45])
        lam = kernel.bin_integral_matrix(grid, point[None, :])[:, 0] / 2
        expected = np.sum(img.counts * np.log(img.t * lam)) - img.t * 2 * lam.sum()
        value, _ = _neg_q(img, kernel, mu)(np.tile(point, 2))
        assert -value == pytest.approx(expected, rel=1e-12)

    def test_underflowing_rows_take_the_uniform_share(self):
        # from atoms in one corner, counted bins in the far corner have an
        # intensity that underflows to 0, so their rows fall back to 1/k
        kernel = GaussianKernel(sigma=0.02, dim=2)
        grid = BinGrid([0, 0], [1, 1], (20, 20))
        truth = AtomicUniformMeasure([[0.2, 0.25], [0.8, 0.75], [0.6, 0.3]])
        img = simulate(kernel, truth, grid, 1e4, seed=23)
        corner = AtomicUniformMeasure([[0.02, 0.03], [0.05, 0.01], [0.04, 0.06]])
        totals = kernel.bin_integral_matrix(grid, corner.atoms).sum(axis=1)
        assert np.any((totals == 0) & (img.counts > 0))
        fun = _neg_q(img, kernel, corner)
        resp = reference_responsibilities(img, kernel, corner)
        reference = reference_q_function(img, kernel, resp, 3, 1e-30)
        assert_same_objective(fun, reference, [truth.atoms + 0.01, corner.atoms])


class TestMStep:
    def test_ascent_contract(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=6)
        start = AtomicUniformMeasure([[0.3, 0.3], [0.75, 0.7]])
        out, status, nit, q_evals, error = m_step(img, kernel, start)
        neg_q = _neg_q(img, kernel, start)
        assert -neg_q(out.atoms.ravel())[0] >= -neg_q(start.atoms.ravel())[0]
        assert status in ("improved", "kept")
        assert nit >= 1 and q_evals >= 2
        assert error is None

    @pytest.mark.parametrize("kernel", [
        GaussianKernel(sigma=0.06, dim=2),
        GaussianKernel(cov=np.diag([0.0036, 0.0016])),
        GaussianKernel(cov=[[0.0036, 0.0012], [0.0012, 0.0025]]),
        UniformBoxKernel([0.1, 0.15]),
        sampled_gaussian_kernel(),
    ], ids=["isotropic", "diagonal", "anisotropic", "box", "tabulated"])
    def test_q_matches_reference(self, kernel):
        grid = BinGrid([0, 0], [1, 1], (20, 20))
        truth = AtomicUniformMeasure([[0.3, 0.35], [0.7, 0.6], [0.5, 0.8]])
        img = simulate(kernel, truth, grid, 1e4, seed=21)
        resp = reference_responsibilities(img, kernel, truth)
        fun = _neg_q(img, kernel, truth)
        reference = reference_q_function(img, kernel, resp, 3, 1e-30)
        near = truth.atoms + 0.01
        # atoms in one corner leave counted bins far away with lam below the floor
        corner = np.array([[0.02, 0.03], [0.05, 0.01], [0.04, 0.06]])
        lam = kernel.bin_integral_matrix(grid, corner) / 3
        assert np.any((lam < 1e-30) & (img.counts[:, None] * resp > 0))
        assert_same_objective(fun, reference, [near, corner])

    def test_repeated_point_is_not_recomputed(self, small_setup):
        _, mu, grid = small_setup
        kernel = CountingKernel(0.08)
        img = simulate(kernel, mu, grid, 1e4, seed=6)
        fun = em._PointMemory(_neg_q(img, kernel, mu))
        x = mu.atoms.ravel() + 0.01
        value, grad = fun(x)
        grad[:] = 0.0  # the caller's copy, not the remembered gradient
        again, grad_again = fun(x.copy())
        assert again == value and np.any(grad_again != 0.0)
        fun(x + 1e-3)
        assert fun.computed == len(kernel.gradient_points) == 2

    def test_m_step_computes_each_point_once(self, small_setup):
        _, mu, grid = small_setup
        kernel = CountingKernel(0.08)
        img = simulate(kernel, mu, grid, 1e4, seed=6)
        start = AtomicUniformMeasure([[0.3, 0.3], [0.75, 0.7]])
        # from this start L-BFGS-B's line searches fail near the optimum and
        # it returns to points evaluated several calls before (34 requests at
        # 20 points), so remembering only the last point would recompute
        _, status, nit, q_evals, _ = m_step(img, kernel, start)
        points = kernel.gradient_points
        assert status == "improved" and nit >= 1
        assert q_evals == len(points) == len(set(points))

    def test_gradient_matches_finite_differences(self):
        kernel = GaussianKernel(sigma=0.1, dim=2)
        grid = BinGrid([0, 0], [1, 1], (8, 8))
        rng = np.random.default_rng(7)
        for probe in range(100):
            k = int(rng.integers(1, 4))
            mu = AtomicUniformMeasure(rng.uniform(0.2, 0.8, size=(k, 2)))
            img = simulate(kernel, mu, grid, 500.0, seed=int(rng.integers(1e6)))
            fun = _neg_q(img, kernel, mu)
            x = rng.uniform(0.2, 0.8, size=2 * k)
            _, grad = fun(x)
            scale = max(np.linalg.norm(grad), 1.0)
            for i in range(x.size):
                # eps large enough that |Q| ~ 1e4 cancellation noise stays
                # below the 1e-5 relative target
                best = np.inf
                for eps in (1e-4, 3e-4, 1e-3):
                    step = np.zeros_like(x)
                    step[i] = eps
                    num = (fun(x + step)[0] - fun(x - step)[0]) / (2 * eps)
                    denom = max(abs(num), abs(grad[i]), 1e-3 * scale)
                    best = min(best, abs(grad[i] - num) / denom)
                assert best < 1e-5

    def test_optimizer_exception_logged_and_kept(self, small_setup, monkeypatch, caplog):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=6)

        def failing_minimize(*args, **kwargs):
            raise FloatingPointError("inner solver diverged")

        monkeypatch.setattr(em, "minimize", failing_minimize)
        with caplog.at_level(logging.WARNING, logger="poisson_deconv.em"):
            out, status, nit, q_evals, error = m_step(img, kernel, mu)
        assert status == "kept"
        assert error == "FloatingPointError: inner solver diverged"
        assert out is mu
        assert (nit, q_evals) == (0, 1)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "FloatingPointError" in record.getMessage()
        assert "inner solver diverged" in record.getMessage()

    def test_kept_at_a_fixed_point_computes_no_halving_points(self, small_setup, monkeypatch):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=11)
        final, trace = run_em(img, kernel, mu, EmConfig(max_iterations=50, early_stop_w1=0.0))
        assert trace.status[-1] == "kept"
        requested, results = set(), []
        minimize = em.minimize

        def recording_minimize(fun, x0, **kwargs):
            def recorded(x):
                requested.add(np.asarray(x, float).tobytes())
                return fun(x)

            results.append(minimize(recorded, x0, **kwargs))
            return results[-1]

        monkeypatch.setattr(em, "minimize", recording_minimize)
        out, status, _, q_evals, _ = m_step(img, kernel, final)
        assert status == "kept" and out is final
        # Q was computed only at the optimizer's own points
        assert q_evals == len(requested) <= results[0].nfev

    def test_k1_matches_weighted_centroid(self):
        kernel = GaussianKernel(sigma=0.06, dim=2)
        mu = AtomicUniformMeasure([[0.48, 0.55]])
        grid = BinGrid([0, 0], [1, 1], (50, 50))
        img = simulate(kernel, mu, grid, 1e6, seed=8)
        out, *_ = m_step(img, kernel, AtomicUniformMeasure([[0.45, 0.5]]))
        centroid = (img.counts[:, None] * img.grid.anchors()).sum(axis=0) / img.total()
        assert np.allclose(out.atoms[0], centroid, atol=1e-2)


class TestEmConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0),
        ("early_stop_w1", -1.0),
        ("early_stop_w1", np.nan),
        ("inner_max_iterations", 0),
    ])
    def test_rejects_values_that_break_run_em(self, field, value):
        # a negative or NaN early_stop_w1 never stops at the fixed point, so
        # run_em would record "kept" rows until max_iterations
        with pytest.raises(ValueError, match=field):
            EmConfig(**{field: value})


class TestRunEm:
    def test_fixed_point_at_truth(self, small_setup):
        kernel, mu, grid = small_setup
        img = noiseless(kernel, mu, grid)
        final, trace = run_em(img, kernel, mu, EmConfig(max_iterations=10))
        assert wasserstein_p(final, mu, 1) < 1e-6
        assert trace.w1_step[-1] < 1e-6

    def test_loglik_monotone(self, small_setup):
        kernel, mu, grid = small_setup
        rng = np.random.default_rng(10)
        for trial in range(5):
            img = simulate(kernel, mu, grid, 10 ** rng.integers(3, 6), seed=trial)
            init = AtomicUniformMeasure(rng.uniform(0.1, 0.9, size=(2, 2)))
            _, trace = run_em(img, kernel, init, EmConfig(max_iterations=15))
            assert trace.monotone()

    def test_permutation_equivariance(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=11)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        perm = AtomicUniformMeasure(init.atoms[::-1])
        out1, _ = run_em(img, kernel, init, EmConfig(max_iterations=8))
        out2, _ = run_em(img, kernel, perm, EmConfig(max_iterations=8))
        a = out1.atoms[np.lexsort(out1.atoms.T)]
        b = out2.atoms[np.lexsort(out2.atoms.T)]
        assert np.allclose(a, b, atol=1e-6)

    def test_em_improves_on_mm_init(self, small_setup):
        kernel, mu, grid = small_setup
        wins = 0
        for seed in range(6):
            img = simulate(kernel, mu, grid, 1e4, seed=100 + seed)
            init = mm_complex(img, kernel, 2)
            final, _ = run_em(img, kernel, init)
            w_mm = wasserstein_p(init, mu, 1)
            w_em = wasserstein_p(final, mu, 1)
            wins += w_em <= w_mm
        assert wins >= 4  # median improvement

    def test_early_stopping(self, small_setup):
        kernel, mu, grid = small_setup
        img = noiseless(kernel, mu, grid)
        _, trace = run_em(img, kernel, mu, EmConfig(max_iterations=50))
        assert trace.iterations < 50

    def test_noiseless_inputs_run(self, small_setup):
        kernel, mu, grid = small_setup
        img = noiseless(kernel, mu, grid)
        init = AtomicUniformMeasure([[0.4, 0.4], [0.6, 0.6]])
        final, trace = run_em(img, kernel, init, EmConfig(max_iterations=25))
        assert wasserstein_p(final, mu, 1) < 0.05
        assert trace.monotone()

    def test_trace_csv(self, small_setup, tmp_path):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e3, seed=12)
        _, trace = run_em(img, kernel, mu, EmConfig(max_iterations=5))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,loglik,w1_step,status,inner_nit,q_evals,error"
        assert len(lines) == trace.iterations + 1
        last = lines[-1].split(",")
        assert [int(v) for v in last[-3:-1]] == [trace.inner_nit[-1], trace.q_evals[-1]]
        assert last[-1] == "" and trace.errors == [None] * trace.iterations

    def test_trace_counts_inner_solver_work(self, small_setup):
        _, mu, grid = small_setup
        kernel = CountingKernel(0.08)
        img = simulate(kernel, mu, grid, 1e4, seed=13)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        kernel.value_calls = 0
        _, trace = run_em(img, kernel, init, EmConfig(max_iterations=4))
        assert len(trace.inner_nit) == len(trace.q_evals) == trace.iterations >= 2
        assert all(nit >= 0 for nit in trace.inner_nit) and trace.inner_nit[0] >= 1
        assert all(evals >= 1 for evals in trace.q_evals)
        # every gradient matrix of the run is one counted Q evaluation
        assert sum(trace.q_evals) == len(kernel.gradient_points)

    def test_each_m_step_makes_one_responsibility_matrix(self, small_setup):
        _, mu, grid = small_setup
        kernel = CountingKernel(0.08)
        img = simulate(kernel, mu, grid, 1e4, seed=13)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        kernel.value_calls = 0
        _, trace = run_em(img, kernel, init, EmConfig(max_iterations=10, early_stop_w1=0.0))
        assert trace.iterations >= 2
        # every value matrix is one Q evaluation or the responsibilities at
        # an m-step's input; the ascents and the recorded log-likelihoods
        # read the product kernel's axis factors
        assert kernel.value_calls == sum(trace.q_evals) + trace.iterations

    def test_each_ascent_gives_the_log_likelihood_of_its_iterate(self, small_setup, caplog):
        _, mu, grid = small_setup
        kernel = CountingKernel(0.08)
        img = simulate(kernel, mu, grid, 1e4, seed=13)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        kernel.likelihood_calls = 0
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.em"):
            _, trace = run_em(img, kernel, init, EmConfig(max_iterations=10, early_stop_w1=0.0))
        summary = run_summary(caplog)
        assert summary["tried"] >= 1
        # one forward model per likelihood evaluation of the ascents, and one
        # for each iterate that no ascent produced
        assert kernel.likelihood_calls == (summary["evals"] + trace.iterations
                                           - summary["tried"])

    def test_recorded_loglik_is_log_likelihood(self):
        kernel = GaussianKernel(cov=[[0.0036, 0.0012], [0.0012, 0.0025]])
        grid = BinGrid([0, 0], [1, 1], (20, 20))
        truth = AtomicUniformMeasure([[0.3, 0.35], [0.7, 0.6], [0.5, 0.8]])
        for seed in range(10):
            img = simulate(kernel, truth, grid, 1e4, seed=seed)
            est, trace = run_em(img, kernel, mm_complex(img, kernel, truth.k))
            assert trace.loglik[-1] == log_likelihood(img, kernel, est)

    def test_stops_at_the_fixed_point(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=11)
        final, trace = run_em(img, kernel, mu, EmConfig(max_iterations=30, early_stop_w1=0.0))
        assert trace.status.count("kept") == 1 and trace.status[-1] == "kept"
        assert trace.w1_step[-1] == 0.0
        assert trace.iterations < 30
        longer, _ = run_em(img, kernel, mu, EmConfig(max_iterations=50, early_stop_w1=0.0))
        assert np.array_equal(final.atoms, longer.atoms)

    def test_failing_m_step_ends_the_run(self, small_setup, monkeypatch, caplog, tmp_path):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=6)

        def failing_minimize(*args, **kwargs):
            raise FloatingPointError("inner solver diverged")

        monkeypatch.setattr(em, "minimize", failing_minimize)
        with caplog.at_level(logging.WARNING, logger="poisson_deconv.em"):
            final, trace = run_em(img, kernel, mu, EmConfig(max_iterations=5, early_stop_w1=0.0))
        assert final is mu
        assert trace.iterations == 1 and trace.status == ["kept"]
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        # the swallowed exception stays in the trace and its CSV
        assert trace.errors == ["FloatingPointError: inner solver diverged"]
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        row = path.read_text().strip().splitlines()[-1].split(",")
        assert row[3:] == ["kept", "0", "1", "FloatingPointError: inner solver diverged"]


class TestOverRelaxation:
    def test_reaches_the_plain_em_optimum_in_fewer_m_steps(self, small_setup):
        kernel, _, grid = small_setup
        # two atoms 2 sigma apart, where plain EM converges slowly; small_setup's
        # well-separated pair converges in about 8 plain steps either way
        mu = AtomicUniformMeasure([[0.45, 0.45], [0.57, 0.55]])
        config = EmConfig(max_iterations=200, early_stop_w1=0.0)
        plain_steps = steps = 0
        for seed, init in enumerate([[[0.3, 0.3], [0.7, 0.7]], [[0.02, 0.03], [0.05, 0.01]],
                                     [[0.2, 0.8], [0.8, 0.2]]]):
            img = simulate(kernel, mu, grid, 1e4, seed=60 + seed)
            init = AtomicUniformMeasure(init)
            _, plain = reference_plain_em(img, kernel, init, config)
            _, trace = run_em(img, kernel, init, config)
            assert trace.status[-1] == plain.status[-1] == "kept"
            assert trace.loglik[-1] >= plain.loglik[-1] - 1e-9 * abs(plain.loglik[-1])
            plain_steps += plain.iterations
            steps += trace.iterations
        assert steps < plain_steps

    def test_first_iteration_is_plain_em(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=14)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        config = EmConfig(max_iterations=1)
        plain, plain_trace = reference_plain_em(img, kernel, init, config)
        final, trace = run_em(img, kernel, init, config)
        assert np.array_equal(final.atoms, plain.atoms)
        assert vars(trace) == vars(plain_trace)

    def test_iterates_stay_in_the_domain(self, small_setup, monkeypatch):
        kernel, _, grid = small_setup
        # the truth's first atom lies outside the window, near the domain's
        # corner, and the run starts near the window's corner
        mu = AtomicUniformMeasure([[-0.2, -0.2], [0.6, 0.6]])
        img = simulate(kernel, mu, grid, 1e5, seed=3)
        lo, hi = domain(img, kernel)
        iterates = []

        def recording_m_step(image, kernel, mu_tilde, config):
            iterates.append(mu_tilde.atoms)
            return m_step(image, kernel, mu_tilde, config)

        monkeypatch.setattr(em, "m_step", recording_m_step)
        init = AtomicUniformMeasure([[0.1, 0.1], [0.6, 0.6]])
        final, trace = run_em(img, kernel, init, EmConfig(max_iterations=100, early_stop_w1=0.0))
        iterates.append(final.atoms)
        assert len(iterates) == trace.iterations + 1 >= 3
        assert all(np.all((lo <= atoms) & (atoms <= hi)) for atoms in iterates)
        assert np.any(iterates[-1] == lo)  # the run ends on the domain's edge
        assert trace.monotone()

    def test_tabulated_kernel_stays_monotone(self, caplog):
        # the ascent's dense, non-product path
        kernel = sampled_gaussian_kernel()
        grid = BinGrid([0, 0], [1, 1], (20, 20))
        truth = AtomicUniformMeasure([[0.4, 0.45], [0.55, 0.5]])
        img = simulate(kernel, truth, grid, 1e4, seed=22)
        init = AtomicUniformMeasure([[0.42, 0.43], [0.53, 0.52]])
        config = EmConfig(max_iterations=10)
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.em"):
            _, trace = run_em(img, kernel, init, config)
        _, plain = reference_plain_em(img, kernel, init, config)
        assert trace.monotone() and trace.status[-1] == "kept"
        assert run_summary(caplog)["tried"] >= 1
        assert trace.loglik[-1] >= plain.loglik[-1]

    def test_dense_grid_reaches_the_plain_em_optimum_in_few_m_steps(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        truth = builtin_configuration("grid", 16)
        img = simulate(kernel, truth, BinGrid([0, 0], [1, 1], (32, 32)), 1e5, seed=1)
        init = mm_complex(img, kernel, truth.k)
        config = EmConfig(max_iterations=50, early_stop_w1=0.0)
        _, trace = run_em(img, kernel, init, config)
        _, plain = reference_plain_em(img, kernel, init, config)
        assert trace.status[-1] == plain.status[-1] == "kept"
        assert trace.iterations <= 4 < plain.iterations
        assert trace.monotone()
        assert trace.loglik[-1] >= plain.loglik[-1] - 1e-9 * abs(plain.loglik[-1])

    def test_failing_ascent_keeps_the_m_step(self, small_setup, monkeypatch, caplog):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=11)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        config = EmConfig(max_iterations=50, early_stop_w1=0.0)
        minimize = em.minimize

        def failing_ascent(fun, x0, **kwargs):
            if getattr(fun.evaluate, "func", None) is _neg_log_likelihood:
                raise FloatingPointError("ascent diverged")
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(em, "minimize", failing_ascent)
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.em"):
            final, trace = run_em(img, kernel, init, config)
        summary = run_summary(caplog)
        plain, plain_trace = reference_plain_em(img, kernel, init, config)
        # every iterate is M(theta): the run is plain EM
        assert np.array_equal(final.atoms, plain.atoms)
        assert vars(trace) == vars(plain_trace)
        assert trace.status[-1] == "kept" and trace.monotone()
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert all("ascent diverged" in r.getMessage() for r in warnings)
        # one failed ascent after each m-step but the last, the "kept" one
        assert (len(warnings), summary["raised"], summary["tried"]) == (trace.iterations - 1,) * 3
        assert (summary["accepted"], summary["evals"], summary["nit"]) == (0, trace.iterations - 1, 0)

    @settings(max_examples=30)
    @given(
        atoms=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        log_t=st.floats(3.0, 6.0),
        sigma=st.floats(0.04, 0.12),
        seed=st.integers(0, 2**16),
    )
    def test_loglik_monotone_from_any_start(self, atoms, log_t, sigma, seed):
        kernel = GaussianKernel(sigma=sigma, dim=2)
        truth = AtomicUniformMeasure([[0.35, 0.4], [0.6, 0.65]])
        img = simulate(kernel, truth, BinGrid([0, 0], [1, 1], (16, 16)), 10**log_t, seed=seed)
        init = AtomicUniformMeasure(np.reshape(atoms, (2, 2)))
        _, trace = run_em(img, kernel, init, EmConfig(max_iterations=20))
        assert trace.monotone()

    def test_debug_record_summarizes_the_run(self, small_setup, monkeypatch, caplog):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=11)
        init = AtomicUniformMeasure([[0.3, 0.35], [0.65, 0.75]])
        ascents = []

        def recording_ascent(*args):
            out, trace = maximize_likelihood(*args)
            ascents.append(trace)
            return out, trace

        monkeypatch.setattr(em, "maximize_likelihood", recording_ascent)
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.em"):
            _, trace = run_em(img, kernel, init, EmConfig(max_iterations=50, early_stop_w1=0.0))
        summary = run_summary(caplog)
        assert (summary["iterations"], summary["stop"]) == (trace.iterations, "fixed point")
        assert summary["tried"] == len(ascents) == trace.iterations - 1 >= 1
        assert summary["accepted"] == sum(a.status == ["improved"] for a in ascents) >= 1
        assert summary["raised"] == 0
        assert summary["evals"] == sum(a.q_evals[0] for a in ascents)
        assert summary["nit"] == sum(a.inner_nit[0] for a in ascents) >= 1
        caplog.clear()
        ascents.clear()
        with caplog.at_level(logging.DEBUG, logger="poisson_deconv.em"):
            run_em(img, kernel, init, EmConfig(max_iterations=1))
        # the last iteration the cap allows makes no ascent
        summary = run_summary(caplog)
        assert (summary["iterations"], summary["tried"], summary["stop"]) == (
            1, 0, "max_iterations")
        assert ascents == []
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="poisson_deconv.em"):
            run_em(img, kernel, init, EmConfig(max_iterations=2))
        assert caplog.records == []


class TestMaximizeLikelihood:
    @pytest.mark.parametrize("kernel", [
        GaussianKernel(sigma=0.06, dim=2),
        GaussianKernel(cov=np.diag([0.0036, 0.0016])),
        UniformBoxKernel([0.1, 0.15]),
    ], ids=["isotropic", "diagonal", "box"])
    def test_planar_product_path_matches_dense(self, kernel, monkeypatch):
        grid = BinGrid([0, 0], [1, 1], (20, 24))
        truth = AtomicUniformMeasure([[0.3, 0.35], [0.7, 0.6], [0.5, 0.8]])
        img = simulate(kernel, truth, grid, 1e4, seed=21)
        # atoms in one corner leave counted bins with intensity below the floor
        corner = np.array([[0.02, 0.03], [0.05, 0.01], [0.04, 0.06]])
        assert np.any((kernel.bin_integral_matrix(grid, corner).sum(axis=1) < 3e-30)
                      & (img.counts > 0))
        points = [(truth.atoms + 0.01).ravel(), corner.ravel()]
        product = [_neg_log_likelihood(x, img, kernel, 3) for x in points]
        # l on the dense matrices
        monkeypatch.setattr(kernel, "intensity_and_vjp",
                            functools.partial(Kernel.intensity_and_vjp, kernel))
        for x, (value, grad) in zip(points, product):
            ref_value, ref_grad = _neg_log_likelihood(x, img, kernel, 3)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["diagonal", "box"]),
        shape=st.tuples(st.integers(2, 14), st.integers(2, 14)).filter(lambda s: s[0] != s[1]),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_planar_product_path_matches_dense_on_any_grid(self, kind, shape, k, seed):
        # n_x != n_y, so contracting the axis factors in a swapped layout fails
        kernel = {"diagonal": GaussianKernel(cov=np.diag([0.012, 0.005])),
                  "box": UniformBoxKernel([0.2, 0.15])}[kind]
        rng = np.random.default_rng(seed)
        grid = BinGrid([0, 0], [1, 1.2], shape)
        truth = AtomicUniformMeasure(rng.uniform([0.2, 0.2], [0.8, 1.0], size=(k, 2)))
        img = simulate(kernel, truth, grid, 1e5, seed=seed)
        x = (truth.atoms + rng.uniform(-0.05, 0.05, size=(k, 2))).ravel()
        value, grad = _neg_log_likelihood(x, img, kernel, k)
        with mock.patch.object(kernel, "intensity_and_vjp",
                               functools.partial(Kernel.intensity_and_vjp, kernel)):
            ref_value, ref_grad = _neg_log_likelihood(x, img, kernel, k)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.abs(grad - ref_grad).max() <= 1e-10 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("kernel", [
        GaussianKernel(sigma=0.1, dim=2),
        GaussianKernel(cov=[[0.0036, 0.0012], [0.0012, 0.0025]]),
    ], ids=["isotropic", "anisotropic"])
    def test_gradient_matches_finite_differences(self, kernel):
        grid = BinGrid([0, 0], [1, 1], (8, 8))
        rng = np.random.default_rng(7)
        for probe in range(20):
            k = int(rng.integers(1, 4))
            mu = AtomicUniformMeasure(rng.uniform(0.2, 0.8, size=(k, 2)))
            img = simulate(kernel, mu, grid, 500.0, seed=int(rng.integers(1e6)))

            def fun(x):
                return _neg_log_likelihood(x, img, kernel, k)

            # near the truth, so no counted bin has an intensity below the
            # likelihood's 1e-30 floor, where l stops following lam but its
            # gradient does not; probes anywhere in [0.2, 0.8]^2 fail for that
            # reason on isotropic kernels too
            x = mu.atoms.ravel() + rng.uniform(-0.03, 0.03, size=2 * k)
            _, grad = fun(x)
            scale = max(np.linalg.norm(grad), 1.0)
            for i in range(x.size):
                best = np.inf
                for eps in (1e-5, 1e-4, 1e-3):
                    step = np.zeros_like(x)
                    step[i] = eps
                    num = (fun(x + step)[0] - fun(x - step)[0]) / (2 * eps)
                    denom = max(abs(num), abs(grad[i]), 1e-3 * scale)
                    best = min(best, abs(grad[i] - num) / denom)
                assert best < 1e-5

    def test_ascent_does_not_lower_the_likelihood(self, small_setup):
        kernel, mu, grid = small_setup
        for seed, init in enumerate([None, [[0.3, 0.3], [0.75, 0.7]], [[0.5, 0.5], [0.52, 0.5]]]):
            img = simulate(kernel, mu, grid, 1e4, seed=30 + seed)
            init = mm_complex(img, kernel, 2) if init is None else AtomicUniformMeasure(init)
            out, trace = maximize_likelihood(img, kernel, init)
            assert log_likelihood(img, kernel, out) >= log_likelihood(img, kernel, init)
            assert trace.iterations == 1 and trace.status == ["improved"]
            assert trace.loglik[0] == pytest.approx(log_likelihood(img, kernel, out), rel=1e-12)
            assert trace.w1_step[0] == wasserstein_p(out, init, 1) > 0
            assert trace.inner_nit[0] >= 1 and trace.q_evals[0] >= 2
            assert trace.errors == [None] and not trace.collision

    def test_optimizer_exception_logged_and_kept(self, small_setup, monkeypatch, caplog):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=6)

        def failing_minimize(*args, **kwargs):
            raise FloatingPointError("inner solver diverged")

        monkeypatch.setattr(em, "minimize", failing_minimize)
        with caplog.at_level(logging.WARNING, logger="poisson_deconv.em"):
            out, trace = maximize_likelihood(img, kernel, mu)
        assert out is mu
        assert trace.status == ["kept"] and trace.w1_step == [0.0]
        assert (trace.inner_nit, trace.q_evals) == ([0], [1])
        assert trace.errors == ["FloatingPointError: inner solver diverged"]
        assert trace.loglik[0] == pytest.approx(log_likelihood(img, kernel, mu), rel=1e-12)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "FloatingPointError: inner solver diverged" in record.getMessage()

    def test_noiseless_image_runs_at_unit_exposure(self, small_setup):
        kernel, mu, grid = small_setup
        img = noiseless(kernel, mu, grid)
        init = AtomicUniformMeasure([[0.4, 0.45], [0.65, 0.6]])
        out, trace = maximize_likelihood(img, kernel, init)
        assert wasserstein_p(out, mu, 1) < 1e-6
        lam = kernel.bin_integral_matrix(grid, out.atoms).mean(axis=1)
        expected = np.sum(img.counts * np.log(np.maximum(lam, 1e-30)) - lam)
        assert trace.loglik[0] == pytest.approx(expected, rel=1e-12)


class TestClimb:
    @pytest.mark.parametrize("start", [
        [[0.4, 0.5], [1.28, 0.5]],  # the truth, one atom beyond the domain
        [[0.4, 0.5], [1.6, -0.3]],
    ], ids=["truth", "far"])
    @pytest.mark.parametrize("climb", ["m_step", "maximize_likelihood"])
    def test_start_outside_the_domain_is_kept_or_beaten(self, climb, start):
        # Every point the solver can reach lies inside the domain, so it is
        # judged against the start itself, not against the start clipped.
        kernel = GaussianKernel(sigma=0.08, dim=2)
        truth = AtomicUniformMeasure([[0.4, 0.5], [1.28, 0.5]])
        img = simulate(kernel, truth, BinGrid([0, 0], [1, 1], (20, 20)), 1e6, seed=3)
        start = AtomicUniformMeasure(start)
        lo, hi = domain(img, kernel)
        assert np.any((start.atoms < lo) | (start.atoms > hi))
        if climb == "m_step":
            neg_q = _neg_q(img, kernel, start)
            out, status, *_ = m_step(img, kernel, start)
            objective = [-neg_q(mu.atoms.ravel())[0] for mu in (out, start)]
        else:
            out, trace = maximize_likelihood(img, kernel, start)
            [status] = trace.status
            objective = [log_likelihood(img, kernel, mu) for mu in (out, start)]
        assert status in ("improved", "kept")
        assert out is start if status == "kept" else objective[0] >= objective[1]


class TestPointMemoryLifetime:
    @pytest.mark.parametrize("kernel", [GaussianKernel(sigma=0.08, dim=2),
                                        sampled_gaussian_kernel()], ids=["product", "dense"])
    def test_no_point_memory_outlives_its_solve_without_the_cycle_collector(
            self, kernel, small_setup, monkeypatch):
        # A _PointMemory in a reference cycle, such as a bound method stored
        # on itself, keeps its (m, k) buffers alive until the cycle collector
        # runs, which multiplies a solve's resident memory.
        _, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=4)
        init = AtomicUniformMeasure(mu.atoms + 0.03)
        refs = []
        point_memory_init = em._PointMemory.__init__

        def tracking_init(self, *args):
            point_memory_init(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(em._PointMemory, "__init__", tracking_init)
        gc.disable()
        try:
            run_em(img, kernel, init, EmConfig(max_iterations=5))
            maximize_likelihood(img, kernel, init)
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) >= 3 and alive == 0


class TestEmTrace:
    def test_monotone_detects_decrease(self):
        trace = EmTrace()
        trace.append(-10.0, 1.0, "improved", 5, 7, None)
        trace.append(-9.0, 0.5, "improved", 4, 6, None)
        assert trace.monotone()
        trace.append(-9.5, 0.1, "improved", 3, 5, None)
        assert not trace.monotone()
