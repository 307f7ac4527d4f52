"""EM algorithm for maximum-likelihood estimation in the binned Poisson model.

The complete-data decomposition splits each bin count into per-atom Poisson
contributions Z_ij ~ Poi(t * lam_ij) with lam_ij = (1/k) int_Bin K(x - theta_j).
The e-step computes multinomial responsibilities p_ij = lam_ij / lam_i; the
m-step ascends Q(mu, mu_tilde) = sum_ij (X_i p_ij ln(t lam_ij) - t lam_ij)
over atom coordinates inside a box, accepting a candidate only if Q improved,
which keeps the observed-data log-likelihood non-decreasing along the run.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .kernels import Kernel
from .measures import AtomicUniformMeasure, wasserstein_p
from .observation import CountImage

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmConfig:
    """EM driver settings.

    max_iterations caps the outer loop; early_stop_w1 halts once consecutive
    iterates move less than that in W_1.  The domain box defaults to the
    observation window inflated by 3 kernel spreads when left as None.
    """

    max_iterations: int = 50
    early_stop_w1: float = 1e-9
    inner_max_iterations: int = 100
    inner_grad_tol: float = 1e-8
    intensity_floor: float = 1e-30
    domain: tuple | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.intensity_floor <= 0:
            raise ValueError("intensity_floor must be positive")


@dataclass
class EmTrace:
    """Per-iteration diagnostics of one EM run."""

    loglik: list = field(default_factory=list)
    w1_step: list = field(default_factory=list)
    status: list = field(default_factory=list)
    collision: bool = False

    def append(self, loglik: float, w1_step: float, status: str):
        self.loglik.append(float(loglik))
        self.w1_step.append(float(w1_step))
        self.status.append(status)

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
            writer.writerow(["iteration", "loglik", "w1_step", "status"])
            for i, (ll, w1, st) in enumerate(
                zip(self.loglik, self.w1_step, self.status), start=1
            ):
                writer.writerow([i, repr(ll), repr(w1), st])


def _effective(image: CountImage) -> tuple:
    """Counts and exposure used by the EM formulas; noiseless data runs at t = 1."""
    if image.noiseless:
        return image.counts, 1.0
    return image.counts, image.t


def _lambda_matrix(kernel: Kernel, image: CountImage, atoms: np.ndarray) -> np.ndarray:
    return kernel.bin_integral_matrix(image.grid, atoms) / atoms.shape[0]


def _log_likelihood_effective(image: CountImage, kernel: Kernel,
                              mu: AtomicUniformMeasure, floor: float) -> float:
    counts, t = _effective(image)
    lam = _lambda_matrix(kernel, image, mu.atoms).sum(axis=1)
    return float(np.sum(counts * np.log(t * np.maximum(lam, floor)) - t * lam))


def log_likelihood(image: CountImage, kernel: Kernel, mu: AtomicUniformMeasure) -> float:
    """Poisson log-likelihood sum_i [X_i log(t lam_i) - t lam_i], constants dropped.

    Intensities are floored at ``EmConfig.intensity_floor`` inside the
    logarithm so bins with positive counts but vanishing model intensity
    contribute a large negative value instead of NaN.  Requires a finite
    exposure; noiseless images are handled by run_em.
    """
    if image.noiseless:
        raise ValueError("log_likelihood requires finite t; see run_em for t = inf")
    return _log_likelihood_effective(image, kernel, mu, EmConfig.intensity_floor)


def e_step(image: CountImage, kernel: Kernel,
           mu_tilde: AtomicUniformMeasure) -> np.ndarray:
    """Responsibilities p_ij = lam_ij / sum_h lam_ih, shape (m, k).

    Rows with underflowing total intensity fall back to the uniform 1/k.
    """
    lam = _lambda_matrix(kernel, image, mu_tilde.atoms)
    totals = lam.sum(axis=1, keepdims=True)
    k_atoms = mu_tilde.k
    with np.errstate(invalid="ignore", divide="ignore"):
        resp = np.where(totals > 0, lam / totals, 1.0 / k_atoms)
    return resp


def _q_function(image: CountImage, kernel: Kernel, resp: np.ndarray, k: int,
                floor: float):
    counts, t = _effective(image)
    weights = counts[:, None] * resp  # X_i * p_ij

    def fun(theta_flat):
        atoms = theta_flat.reshape(k, -1)
        lam = _lambda_matrix(kernel, image, atoms)
        lam_f = np.maximum(lam, floor)
        q = np.sum(weights * np.log(t * lam_f)) - t * np.sum(lam)
        grad_lam = kernel.bin_integral_gradient_matrix(image.grid, atoms) / k
        coef = weights / lam_f - t  # (m, k)
        grad = np.einsum("mk,mkd->kd", coef, grad_lam)
        return -q, -grad.ravel()

    return fun


def _default_domain(image: CountImage, kernel: Kernel) -> tuple:
    pad = 3.0 * kernel.spread()
    return image.grid.window_lo - pad, image.grid.window_hi + pad


def m_step(image: CountImage, kernel: Kernel, resp: np.ndarray,
           mu_tilde: AtomicUniformMeasure, config: EmConfig = EmConfig()):
    """Ascend Q over atom coordinates inside the domain box.

    Returns (measure, status) where status is "improved" when the optimizer's
    candidate raised Q, "line_search" when only a halved step did, and "kept"
    when no improvement was found (the input measure is returned unchanged).
    An exception from the inner optimizer is logged at WARNING and also
    yields "kept".
    """
    k, d = mu_tilde.k, mu_tilde.dimension
    lo, hi = config.domain if config.domain is not None else _default_domain(image, kernel)
    lo = np.broadcast_to(np.asarray(lo, float), (d,))
    hi = np.broadcast_to(np.asarray(hi, float), (d,))
    fun = _q_function(image, kernel, resp, k, config.intensity_floor)
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
        logger.warning(
            "m_step kept the current measure: inner optimizer raised %s: %s",
            type(exc).__name__, exc,
        )
        return mu_tilde, "kept"
    if -fun(candidate)[0] > q0:
        return AtomicUniformMeasure(candidate.reshape(k, d)), "improved"
    # halve toward the candidate until Q improves
    direction = candidate - x0
    for _ in range(20):
        direction = 0.5 * direction
        trial = x0 + direction
        if -fun(trial)[0] > q0:
            return AtomicUniformMeasure(trial.reshape(k, d)), "line_search"
    return mu_tilde, "kept"


def run_em(image: CountImage, kernel: Kernel, init: AtomicUniformMeasure,
           config: EmConfig = EmConfig()):
    """Alternate e- and m-steps from the given initializer.

    Stops after max_iterations or once the W_1 movement between consecutive
    iterates drops below early_stop_w1.  Returns the final measure together
    with an EmTrace holding per-iteration log-likelihood (computed at t = 1
    on noiseless inputs), step sizes, and m-step statuses.
    """
    if init.k < 1:
        raise ValueError("initializer must have at least one atom")
    if config.domain is None:
        config = replace(config, domain=_default_domain(image, kernel))
    trace = EmTrace()
    current = init
    for _ in range(config.max_iterations):
        resp = e_step(image, kernel, current)
        nxt, status = m_step(image, kernel, resp, current, config)
        step = wasserstein_p(nxt, current, 1)
        ll = _log_likelihood_effective(image, kernel, nxt, config.intensity_floor)
        trace.append(ll, step, status)
        current = nxt
        if current.k > 1:
            pairwise = np.linalg.norm(
                current.atoms[:, None, :] - current.atoms[None, :, :], axis=2
            )
            np.fill_diagonal(pairwise, np.inf)
            if pairwise.min() < 1e-12:
                trace.collision = True
        if step < config.early_stop_w1:
            break
    return current, trace
