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
    run_em,
    _q_function,
)
from poisson_deconv.kernels import GaussianKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.mm import mm_complex
from poisson_deconv.observation import BinGrid, CountImage, noiseless, simulate


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
        resp = e_step(img, kernel, AtomicUniformMeasure([[0.5, 0.5]]))
        assert np.allclose(resp, 1.0)

    def test_symmetric_atoms_split_half(self):
        kernel = GaussianKernel(sigma=0.1, dim=2)
        grid = BinGrid([0, 0], [1, 1], (5, 5))
        img = CountImage(grid, np.ones(grid.m), 10.0)
        # both atoms symmetric about the center bin's center
        mu = AtomicUniformMeasure([[0.3, 0.5], [0.7, 0.5]])
        resp = e_step(img, kernel, mu)
        center_bin = 12  # iy=2, ix=2
        assert np.allclose(resp[center_bin], [0.5, 0.5], atol=1e-12)

    def test_rows_sum_to_one(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=5)
        resp = e_step(img, kernel, mu)
        assert np.all(resp >= 0)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)


class TestMStep:
    def test_ascent_contract(self, small_setup):
        kernel, mu, grid = small_setup
        img = simulate(kernel, mu, grid, 1e4, seed=6)
        start = AtomicUniformMeasure([[0.3, 0.3], [0.75, 0.7]])
        resp = e_step(img, kernel, start)
        out, status = m_step(img, kernel, resp, start)
        neg_q = _q_function(img, kernel, resp, 2, 1e-30)
        assert -neg_q(out.atoms.ravel())[0] >= -neg_q(start.atoms.ravel())[0]
        assert status in ("improved", "line_search", "kept")

    def test_gradient_matches_finite_differences(self):
        kernel = GaussianKernel(sigma=0.1, dim=2)
        grid = BinGrid([0, 0], [1, 1], (8, 8))
        rng = np.random.default_rng(7)
        for probe in range(100):
            k = int(rng.integers(1, 4))
            mu = AtomicUniformMeasure(rng.uniform(0.2, 0.8, size=(k, 2)))
            img = simulate(kernel, mu, grid, 500.0, seed=int(rng.integers(1e6)))
            resp = e_step(img, kernel, mu)
            fun = _q_function(img, kernel, resp, k, 1e-30)
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
        resp = e_step(img, kernel, mu)

        def failing_minimize(*args, **kwargs):
            raise FloatingPointError("inner solver diverged")

        monkeypatch.setattr(em, "minimize", failing_minimize)
        with caplog.at_level(logging.WARNING, logger="poisson_deconv.em"):
            out, status = m_step(img, kernel, resp, mu)
        assert status == "kept"
        assert out is mu
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "FloatingPointError" in record.getMessage()
        assert "inner solver diverged" in record.getMessage()

    def test_k1_matches_weighted_centroid(self):
        kernel = GaussianKernel(sigma=0.06, dim=2)
        mu = AtomicUniformMeasure([[0.48, 0.55]])
        grid = BinGrid([0, 0], [1, 1], (50, 50))
        img = simulate(kernel, mu, grid, 1e6, seed=8)
        resp = e_step(img, kernel, mu)
        out, _ = m_step(img, kernel, resp, AtomicUniformMeasure([[0.45, 0.5]]))
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
        assert lines[0] == "iteration,loglik,w1_step,status"
        assert len(lines) == trace.iterations + 1


class TestEmTrace:
    def test_monotone_detects_decrease(self):
        trace = EmTrace()
        trace.append(-10.0, 1.0, "improved")
        trace.append(-9.0, 0.5, "improved")
        assert trace.monotone()
        trace.append(-9.5, 0.1, "improved")
        assert not trace.monotone()
