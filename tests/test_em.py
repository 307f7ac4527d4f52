import logging

import numpy as np
import pytest

from poisson_deconv import em
from poisson_deconv.em import (
    EmConfig,
    EmTrace,
    e_step,
    log_likelihood,
    m_step,
    maximize_likelihood,
    run_em,
    _neg_log_likelihood,
    _QFunction,
)
from poisson_deconv.kernels import GaussianKernel, TabulatedKernel, UniformBoxKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.mm import mm_complex
from poisson_deconv.observation import BinGrid, CountImage, noiseless, simulate


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


class CountingKernel(GaussianKernel):
    """Isotropic Gaussian counting its value-matrix calls and recording the
    atoms of every gradient-matrix call."""

    def __init__(self, sigma):
        super().__init__(sigma=sigma, dim=2)
        self.value_calls = 0
        self.gradient_points = []

    def bin_integral_matrix(self, grid, atoms):
        self.value_calls += 1
        return super().bin_integral_matrix(grid, atoms)

    def bin_integral_gradient_matrix(self, grid, atoms):
        self.gradient_points.append(np.asarray(atoms, float).tobytes())
        return super().bin_integral_gradient_matrix(grid, atoms)


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


class TestEStep:
    def test_single_component(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e3, seed=4)
        resp, _ = e_step(img, kernel, AtomicUniformMeasure([[0.5, 0.5]]))
        assert np.allclose(resp, 1.0)

    def test_symmetric_atoms_split_half(self):
        kernel = GaussianKernel(sigma=0.1, dim=2)
        grid = BinGrid([0, 0], [1, 1], (5, 5))
        img = CountImage(grid, np.ones(grid.m), 10.0)
        # both atoms symmetric about the center bin's center
        mu = AtomicUniformMeasure([[0.3, 0.5], [0.7, 0.5]])
        resp, _ = e_step(img, kernel, mu)
        center_bin = 12  # iy=2, ix=2
        assert np.allclose(resp[center_bin], [0.5, 0.5], atol=1e-12)

    def test_rows_sum_to_one(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=5)
        resp, intensity = e_step(img, kernel, mu)
        assert np.all(resp >= 0)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        expected = kernel.bin_integral_matrix(grid, mu.atoms).sum(axis=1) / mu.k
        assert intensity.shape == (grid.m,)
        assert np.allclose(intensity, expected, rtol=1e-12, atol=0.0)


class TestMStep:
    def test_ascent_contract(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=6)
        start = AtomicUniformMeasure([[0.3, 0.3], [0.75, 0.7]])
        resp, _ = e_step(img, kernel, start)
        out, status, nit, q_evals, error = m_step(img, kernel, resp, start)
        neg_q = _QFunction(img, kernel, resp, 2, 1e-30)
        assert -neg_q(out.atoms.ravel())[0] >= -neg_q(start.atoms.ravel())[0]
        assert status in ("improved", "line_search", "kept")
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
        resp, _ = e_step(img, kernel, truth)
        fun = _QFunction(img, kernel, resp, 3, 1e-30)
        reference = reference_q_function(img, kernel, resp, 3, 1e-30)
        near = truth.atoms + 0.01
        # atoms in one corner leave counted bins far away with lam below the floor
        corner = np.array([[0.02, 0.03], [0.05, 0.01], [0.04, 0.06]])
        lam = kernel.bin_integral_matrix(grid, corner) / 3
        assert np.any((lam < 1e-30) & (img.counts[:, None] * resp > 0))
        for atoms in (near, corner):
            value, grad = fun(atoms.ravel())
            ref_value, ref_grad = reference(atoms.ravel())
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_repeated_point_is_not_recomputed(self, small_setup):
        _, mu, grid = small_setup
        kernel = CountingKernel(0.08)
        img = simulate(kernel, mu, grid, 1e4, seed=6)
        resp, _ = e_step(img, kernel, mu)
        fun = _QFunction(img, kernel, resp, 2, 1e-30)
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
        resp, _ = e_step(img, kernel, start)
        # from this start L-BFGS-B's line searches fail near the optimum and
        # it returns to points evaluated several calls before (34 requests at
        # 20 points), so remembering only the last point would recompute
        _, status, nit, q_evals, _ = m_step(img, kernel, resp, start)
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
            resp, _ = e_step(img, kernel, mu)
            fun = _QFunction(img, kernel, resp, k, 1e-30)
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
        resp, _ = e_step(img, kernel, mu)

        def failing_minimize(*args, **kwargs):
            raise FloatingPointError("inner solver diverged")

        monkeypatch.setattr(em, "minimize", failing_minimize)
        with caplog.at_level(logging.WARNING, logger="poisson_deconv.em"):
            out, status, nit, q_evals, error = m_step(img, kernel, resp, mu)
        assert status == "kept"
        assert error == "FloatingPointError: inner solver diverged"
        assert out is mu
        assert (nit, q_evals) == (0, 1)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "FloatingPointError" in record.getMessage()
        assert "inner solver diverged" in record.getMessage()

    def test_k1_matches_weighted_centroid(self):
        kernel = GaussianKernel(sigma=0.06, dim=2)
        mu = AtomicUniformMeasure([[0.48, 0.55]])
        grid = BinGrid([0, 0], [1, 1], (50, 50))
        img = simulate(kernel, mu, grid, 1e6, seed=8)
        resp, _ = e_step(img, kernel, mu)
        out, *_ = m_step(img, kernel, resp, AtomicUniformMeasure([[0.45, 0.5]]))
        centroid = (img.counts[:, None] * img.grid.anchors()).sum(axis=0) / img.total()
        assert np.allclose(out.atoms[0], centroid, atol=1e-2)


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
        # and every value matrix one Q evaluation or the one E-step of an
        # iterate (the initializer and each m-step's result)
        assert kernel.value_calls <= sum(trace.q_evals) + trace.iterations + 1

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
        assert kernel.is_planar_product()
        product = [_neg_log_likelihood(x, img, kernel, 3, 1e-30) for x in points]
        # l on the dense matrices
        monkeypatch.setattr(kernel, "is_planar_product", lambda: False)
        for x, (value, grad) in zip(points, product):
            ref_value, ref_grad = _neg_log_likelihood(x, img, kernel, 3, 1e-30)
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
                return _neg_log_likelihood(x, img, kernel, k, 1e-30)

            # near the truth, so no counted bin lies in the far tail, where the
            # anisotropic bin integrals (clipped at 9 sigma_x) lose relative accuracy
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


class TestEmTrace:
    def test_monotone_detects_decrease(self):
        trace = EmTrace()
        trace.append(-10.0, 1.0, "improved", 5, 7, None)
        trace.append(-9.0, 0.5, "improved", 4, 6, None)
        assert trace.monotone()
        trace.append(-9.5, 0.1, "improved", 3, 5, None)
        assert not trace.monotone()
