"""EM algorithm for maximum-likelihood estimation in the binned Poisson model.

The complete-data decomposition splits each bin count into per-atom Poisson
contributions Z_ij ~ Poi(t * lam_ij) with lam_ij = (1/k) int_Bin K(x - theta_j).
The e-step computes multinomial responsibilities p_ij = lam_ij / lam_i and the
intensities lam_i; the m-step ascends
Q(mu, mu_tilde) = sum_ij (X_i p_ij ln(t lam_ij) - t lam_ij) over atom
coordinates inside the observation window inflated by 3 kernel spreads,
accepting a candidate only if Q improved, which keeps the observed-data
log-likelihood non-decreasing along the run.  Each iterate is e-stepped once:
its intensities give the log-likelihood recorded for it and its
responsibilities feed the next m-step.  An m-step that keeps its input is a
fixed point of the iteration, so the run ends there.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import pdist

from .kernels import Kernel
from .measures import AtomicUniformMeasure, wasserstein_p
from .observation import CountImage

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmConfig:
    """EM driver settings.

    max_iterations caps the outer loop; early_stop_w1 halts once consecutive
    iterates move no more than that in W_1, so 0 halts only at a fixed point
    (an m-step that keeps its input).
    """

    max_iterations: int = 50
    early_stop_w1: float = 1e-9
    inner_max_iterations: int = 100
    inner_grad_tol: float = 1e-8
    intensity_floor: float = 1e-30

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.intensity_floor <= 0:
            raise ValueError("intensity_floor must be positive")


@dataclass
class EmTrace:
    """Per-iteration diagnostics of one EM run.

    inner_nit holds each m-step's L-BFGS-B iteration count, q_evals the
    number of Q evaluations it computed, and errors the exception its inner
    optimizer raised as "Type: message", or None.
    """

    loglik: list = field(default_factory=list)
    w1_step: list = field(default_factory=list)
    status: list = field(default_factory=list)
    inner_nit: list = field(default_factory=list)
    q_evals: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    collision: bool = False

    def append(self, loglik: float, w1_step: float, status: str, inner_nit: int,
               q_evals: int, error: str | None):
        self.loglik.append(float(loglik))
        self.w1_step.append(float(w1_step))
        self.status.append(status)
        self.inner_nit.append(int(inner_nit))
        self.q_evals.append(int(q_evals))
        self.errors.append(error)

    @property
    def iterations(self) -> int:
        return len(self.loglik)

    def monotone(self) -> bool:
        """True when no log-likelihood step falls by more than 1e-7 relative."""
        ll = np.asarray(self.loglik)
        if ll.size < 2:
            return True
        scale = np.maximum(1.0, np.abs(ll[:-1]))
        return bool(np.all(np.diff(ll) >= -1e-7 * scale))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "loglik", "w1_step", "status", "inner_nit", "q_evals",
                 "error"]
            )
            rows = zip(self.loglik, self.w1_step, self.status, self.inner_nit, self.q_evals,
                       self.errors)
            for i, (ll, w1, st, nit, evals, err) in enumerate(rows, start=1):
                writer.writerow([i, repr(ll), repr(w1), st, nit, evals, err])


def _effective(image: CountImage) -> tuple:
    """Counts and exposure used by the EM formulas; noiseless data runs at t = 1."""
    if image.noiseless:
        return image.counts, 1.0
    return image.counts, image.t


def _log_likelihood(image: CountImage, intensity: np.ndarray, floor: float) -> float:
    counts, t = _effective(image)
    return float(np.sum(counts * np.log(t * np.maximum(intensity, floor)) - t * intensity))


def log_likelihood(image: CountImage, kernel: Kernel, mu: AtomicUniformMeasure) -> float:
    """Poisson log-likelihood sum_i [X_i log(t lam_i) - t lam_i], constants dropped.

    Intensities are floored at ``EmConfig.intensity_floor`` inside the
    logarithm so bins with positive counts but vanishing model intensity
    contribute a large negative value instead of NaN.  Requires a finite
    exposure; noiseless images are handled by run_em.
    """
    if image.noiseless:
        raise ValueError("log_likelihood requires finite t; see run_em for t = inf")
    _, intensity = e_step(image, kernel, mu)
    return _log_likelihood(image, intensity, EmConfig.intensity_floor)


def e_step(image: CountImage, kernel: Kernel, mu_tilde: AtomicUniformMeasure) -> tuple:
    """Responsibilities p_ij = lam_ij / lam_i, shape (m, k), and intensities lam_i, shape (m,).

    lam_i = sum_j lam_ij is the model intensity of bin i.  Rows with
    underflowing total intensity fall back to the uniform 1/k.
    """
    lam = kernel.bin_integral_matrix(image.grid, mu_tilde.atoms) / mu_tilde.k
    intensity = lam.sum(axis=1)
    totals = intensity[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        resp = np.where(totals > 0, lam / totals, 1.0 / mu_tilde.k)
    return resp, intensity


class _QFunction:
    """-Q(mu, mu_tilde) and its gradient at flat atom coordinates, one evaluation per point.

    Q = sum_ij X_i p_ij ln(t lam_ij) - t sum_ij lam_ij, with lam_ij floored
    at ``floor`` inside the logarithm only.  An evaluation makes one
    ``bin_integral_matrix`` and one ``bin_integral_gradient_matrix`` call and
    works in place in one (m, k) buffer.  Every point's value and (k * d)
    gradient are remembered, keyed by the coordinates' bytes, so calling
    again at a point (the optimizer's first point, its final one in the
    acceptance check, or one L-BFGS-B returns to after a failed line
    search) computes nothing; the gradient is returned as a copy.
    ``computed`` counts the evaluations actually made.
    """

    def __init__(self, image: CountImage, kernel: Kernel, resp: np.ndarray, k: int,
                 floor: float):
        counts, self.t = _effective(image)
        self.weights = counts[:, None] * resp  # X_i * p_ij
        self.work = np.empty_like(self.weights)
        self.grid, self.kernel, self.k, self.floor = image.grid, kernel, k, floor
        self.memory = {}

    @property
    def computed(self) -> int:
        return len(self.memory)

    def __call__(self, theta_flat):
        theta = np.asarray(theta_flat, float)
        key = theta.tobytes()
        if key not in self.memory:
            self.memory[key] = self._evaluate(theta.reshape(self.k, -1))
        value, grad = self.memory[key]
        return value, grad.copy()

    def _evaluate(self, atoms):
        t, work = self.t, self.work
        lam = self.kernel.bin_integral_matrix(self.grid, atoms)
        lam /= self.k
        total = lam.sum()
        np.maximum(lam, self.floor, out=lam)
        np.multiply(lam, t, out=work)
        np.log(work, out=work)
        work *= self.weights
        q = work.sum() - t * total
        grad_lam = self.kernel.bin_integral_gradient_matrix(self.grid, atoms)
        grad_lam /= self.k
        np.divide(self.weights, lam, out=work)
        work -= t  # dQ/dlam_ij
        grad = np.matmul(work.T[:, None, :], grad_lam.transpose(1, 0, 2))  # (k, 1, d)
        return -q, -grad.ravel()


def _default_domain(image: CountImage, kernel: Kernel) -> tuple:
    pad = 3.0 * kernel.spread()
    return image.grid.window_lo - pad, image.grid.window_hi + pad


def m_step(image: CountImage, kernel: Kernel, resp: np.ndarray,
           mu_tilde: AtomicUniformMeasure, config: EmConfig = EmConfig()):
    """Ascend Q over atom coordinates inside the window inflated by 3 kernel spreads.

    Returns (measure, status, nit, q_evals, error).  status is "improved"
    when the optimizer's candidate raised Q, "line_search" when only a halved
    step did, and "kept" when no improvement was found (the input measure is
    returned unchanged).  An exception from the inner optimizer is logged at
    WARNING, returned as error = "Type: message" (None otherwise), and also
    yields "kept".  nit is L-BFGS-B's iteration count (0 when it raised) and
    q_evals the number of Q evaluations computed; Q is
    evaluated at most once per point, so the optimizer's repeat of the
    starting point and the acceptance check at its final point cost nothing.
    """
    k, d = mu_tilde.k, mu_tilde.dimension
    lo, hi = _default_domain(image, kernel)
    fun = _QFunction(image, kernel, resp, k, config.intensity_floor)
    x0 = np.clip(mu_tilde.atoms, lo, hi).ravel()
    q0 = -fun(x0)[0]
    bounds = [(lo[ax], hi[ax]) for _ in range(k) for ax in range(d)]
    try:
        res = minimize(
            fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
            options={
                "maxiter": config.inner_max_iterations,
                "gtol": config.inner_grad_tol,
                "ftol": 1e-14,
            },
        )
        candidate = res.x
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        logger.warning("m_step kept the current measure: inner optimizer raised %s", error)
        return mu_tilde, "kept", 0, fun.computed, error
    measure, status = mu_tilde, "kept"
    if -fun(candidate)[0] > q0:
        measure, status = AtomicUniformMeasure(candidate.reshape(k, d)), "improved"
    else:
        # halve toward the candidate until Q improves
        direction = candidate - x0
        for _ in range(20):
            direction = 0.5 * direction
            trial = x0 + direction
            if -fun(trial)[0] > q0:
                measure, status = AtomicUniformMeasure(trial.reshape(k, d)), "line_search"
                break
    return measure, status, int(res.nit), fun.computed, None


def run_em(image: CountImage, kernel: Kernel, init: AtomicUniformMeasure,
           config: EmConfig = EmConfig()):
    """Alternate e- and m-steps from the given initializer.

    Stops after max_iterations or once the W_1 movement between consecutive
    iterates is at most early_stop_w1.  An m-step that keeps its input moves
    0, so any threshold >= 0 stops at that fixed point and the trace holds at
    most one "kept" row, its last.  Each iterate is e-stepped once.  Returns
    the final measure together with an EmTrace holding per-iteration
    log-likelihood (computed at t = 1 on noiseless inputs), step sizes,
    m-step statuses, inner-solver statistics and inner-solver errors.
    """
    if init.k < 1:
        raise ValueError("initializer must have at least one atom")
    trace = EmTrace()
    current = init
    resp, _ = e_step(image, kernel, current)
    for _ in range(config.max_iterations):
        nxt, status, nit, q_evals, error = m_step(image, kernel, resp, current, config)
        step = wasserstein_p(nxt, current, 1)
        resp, intensity = e_step(image, kernel, nxt)
        ll = _log_likelihood(image, intensity, config.intensity_floor)
        trace.append(ll, step, status, nit, q_evals, error)
        current = nxt
        if current.k > 1 and pdist(current.atoms).min() < 1e-12:
            trace.collision = True
        if step <= config.early_stop_w1:
            break
    return current, trace
