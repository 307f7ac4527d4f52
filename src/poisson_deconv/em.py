"""EM algorithm for maximum-likelihood estimation in the binned Poisson model.

The complete-data decomposition splits each bin count into per-atom Poisson
contributions Z_ij ~ Poi(t * lam_ij) with lam_ij = (1/k) int_Bin K(x - theta_j).
The e-step computes multinomial responsibilities p_ij = lam_ij / lam_i and the
intensities lam_i; the m-step ascends
Q(mu, mu_tilde) = sum_ij (X_i p_ij ln(t lam_ij) - t lam_ij) over atom
coordinates inside the observation window inflated by 3 kernel spreads,
accepting a point only if Q rose by more than a rounding-level 1e-13 of |Q|,
which keeps the observed-data log-likelihood non-decreasing along the run.
maximize_likelihood climbs the observed-data log-likelihood itself, which
converges in far fewer steps than EM when atoms overlap; its forward model is
the kernel's ``intensity_and_vjp``, while Q and the e-step read the kernel's
dense (m, k) bin-integral matrices.  Both climbs are one L-BFGS-B run,
``_climb``, that keeps its start unless the objective improved.
run_em alternates the two (Redner & Walker, SIAM Review 26, 1984; Jamshidian
& Jennrich, JRSS-B 59, 1997): after every m-step that moves, it ascends the
log-likelihood from the m-step's point, still with one m-step per iteration.
Each iterate is e-stepped once: its intensities give the log-likelihood
recorded for it and its responsibilities feed the next m-step.  An m-step
that keeps its input is a fixed point of EM, so the run ends there.
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

# m_step accepts a point only if Q rose by more than this fraction of |Q|; a
# smaller rise is rounding noise, not progress.
_Q_RISE_RTOL = 1e-13
# L-BFGS-B's projected-gradient and relative-decrease tolerances in every climb.
_GRAD_TOL = 1e-8
_FTOL = 1e-14
# Every intensity inside a logarithm is floored here (see log_likelihood).
_INTENSITY_FLOOR = 1e-30


@dataclass(frozen=True)
class EmConfig:
    """EM driver settings.

    max_iterations caps the outer loop; early_stop_w1 halts once consecutive
    iterates move no more than that in W_1, so 0 halts only at a fixed point
    (an m-step that keeps its input).  inner_max_iterations caps L-BFGS-B's
    iterations both in each m-step and in each ascent of the log-likelihood;
    its tolerances are this module's _GRAD_TOL and _FTOL.
    """

    max_iterations: int = 50
    early_stop_w1: float = 1e-9
    inner_max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.early_stop_w1 >= 0:
            raise ValueError("early_stop_w1 must be >= 0")
        if self.inner_max_iterations < 1:
            raise ValueError("inner_max_iterations must be >= 1")


@dataclass
class EmTrace:
    """Per-iteration diagnostics of one EM run.

    inner_nit holds each m-step's L-BFGS-B iteration count, q_evals the
    number of Q evaluations it computed, and errors the exception its inner
    optimizer raised as "Type: message", or None; in run_em's trace they
    count m-step work only, not that of the ascents between m-steps.
    maximize_likelihood records its one ascent as a single row, counting
    log-likelihood evaluations under q_evals.
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


def _log_likelihood(image: CountImage, intensity: np.ndarray) -> float:
    counts, t = _effective(image)
    return float(np.sum(counts * np.log(t * np.maximum(intensity, _INTENSITY_FLOOR))
                        - t * intensity))


def log_likelihood(image: CountImage, kernel: Kernel, mu: AtomicUniformMeasure) -> float:
    """Poisson log-likelihood sum_i [X_i log(t lam_i) - t lam_i], constants dropped.

    The intensities are the kernel's ``intensity_and_vjp`` forward model,
    the one maximize_likelihood climbs.  They are floored at
    ``_INTENSITY_FLOOR`` inside the logarithm so bins with positive counts
    but vanishing model intensity contribute a large negative value instead
    of NaN.  Requires a finite exposure; noiseless images are handled by
    run_em.
    """
    if image.noiseless:
        raise ValueError("log_likelihood requires finite t; see run_em for t = inf")
    lam, _ = kernel.intensity_and_vjp(image.grid, mu.atoms)
    return _log_likelihood(image, lam / mu.k)


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


class _PointMemory:
    """A (value, gradient) function of flat atom coordinates, computed once per point.

    Subclasses compute the pair in ``_evaluate(theta)``.  Every point's value
    and gradient are remembered, keyed by the coordinates' bytes, so calling
    again at a point (an optimizer's first point after the caller evaluated
    it, its final one in an acceptance check, or one L-BFGS-B returns to
    after a failed line search) computes nothing; the gradient is returned
    as a copy.  ``computed`` counts the evaluations actually made.
    """

    def __init__(self):
        self.memory = {}

    @property
    def computed(self) -> int:
        return len(self.memory)

    def __call__(self, theta_flat):
        theta = np.asarray(theta_flat, float)
        key = theta.tobytes()
        if key not in self.memory:
            self.memory[key] = self._evaluate(theta)
        value, grad = self.memory[key]
        return value, grad.copy()


class _QFunction(_PointMemory):
    """-Q(mu, mu_tilde) and its gradient at flat atom coordinates, one evaluation per point.

    Q = sum_ij X_i p_ij ln(t lam_ij) - t sum_ij lam_ij, with lam_ij floored
    at ``_INTENSITY_FLOOR`` inside the logarithm only.  An evaluation makes one
    ``bin_integral_matrix`` and one ``bin_integral_gradient_matrix`` call and
    works in place in one (m, k) buffer.  The 1/k of lam_ij = L_ij / k and
    the exposure t stay scalars: with W = X p, ln(t lam) = ln L + ln(t / k)
    and dQ = sum_i (W / L - t / k) dL, so the (m, k) and (m, k, d) matrices
    are never rescaled.  Points are remembered as in ``_PointMemory``.
    """

    def __init__(self, image: CountImage, kernel: Kernel, resp: np.ndarray, k: int):
        super().__init__()
        counts, t = _effective(image)
        self.weights = counts[:, None] * resp  # X_i * p_ij
        self.work = np.empty_like(self.weights)
        self.t_per_atom = t / k
        # sum_ij W_ij ln(t / k), the part of Q that does not depend on the atoms
        self.q_offset = self.weights.sum() * np.log(self.t_per_atom)
        self.grid, self.kernel, self.k = image.grid, kernel, k

    def _evaluate(self, theta):
        atoms, work = theta.reshape(self.k, -1), self.work
        lam = self.kernel.bin_integral_matrix(self.grid, atoms)  # L_ij = k lam_ij
        total = lam.sum()
        np.maximum(lam, self.k * _INTENSITY_FLOOR, out=lam)
        np.log(lam, out=work)
        work *= self.weights
        q = work.sum() + self.q_offset - self.t_per_atom * total
        grad_lam = self.kernel.bin_integral_gradient_matrix(self.grid, atoms)
        np.divide(self.weights, lam, out=work)
        work -= self.t_per_atom  # dQ/dL_ij
        grad = np.matmul(work.T[:, None, :], grad_lam.transpose(1, 0, 2))  # (k, 1, d)
        return -q, -grad.ravel()


def _default_domain(image: CountImage, kernel: Kernel) -> tuple:
    pad = 3.0 * kernel.spread()
    return image.grid.window_lo - pad, image.grid.window_hi + pad


def _climb(fun, start: AtomicUniformMeasure, image: CountImage, kernel: Kernel,
           config: EmConfig, rise_rtol: float) -> tuple:
    """L-BFGS-B minimization of ``fun`` (value, flat gradient) from ``start``, kept if no gain.

    The solver starts from ``start`` clipped to ``_default_domain`` and stays
    there.  Its point is accepted ("improved") only if ``fun`` there is below
    ``fun`` at the unclipped ``start`` by more than ``rise_rtol`` of the
    latter's magnitude; otherwise, or when the solver raised (logged at
    WARNING), ``start`` itself is returned ("kept").  Returns (measure,
    ``fun`` at it, status, L-BFGS-B iterations or 0, "Type: message" or None).
    """
    lo, hi = _default_domain(image, kernel)
    value = fun(start.atoms.ravel())[0]
    try:
        res = minimize(
            fun, np.clip(start.atoms, lo, hi).ravel(), jac=True, method="L-BFGS-B",
            bounds=list(zip(lo, hi)) * start.k,
            options={"maxiter": config.inner_max_iterations, "gtol": _GRAD_TOL, "ftol": _FTOL},
        )
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        logger.warning("climb kept its start: optimizer raised %s", error)
        return start, value, "kept", 0, error
    candidate = fun(res.x)[0]  # remembered by the optimizer's evaluation there
    if candidate < value - rise_rtol * abs(value):
        measure = AtomicUniformMeasure(res.x.reshape(start.k, start.dimension))
        return measure, candidate, "improved", int(res.nit), None
    return start, value, "kept", int(res.nit), None


def m_step(image: CountImage, kernel: Kernel, resp: np.ndarray,
           mu_tilde: AtomicUniformMeasure, config: EmConfig = EmConfig()):
    """Ascend Q over atom coordinates inside the window inflated by 3 kernel spreads.

    Returns (measure, status, nit, q_evals, error).  The optimizer's point is
    accepted ("improved") only if it raised Q by more than
    _Q_RISE_RTOL |Q(mu_tilde)|; a smaller rise is rounding noise.  Otherwise
    mu_tilde itself is returned as "kept"; no shorter step toward a rejected
    point is tried, since L-BFGS-B's line search already accepts only points
    that raise Q.  An exception from the inner optimizer is logged at
    WARNING, returned as error = "Type: message" (None otherwise), and also
    yields "kept".  nit is L-BFGS-B's iteration count (0 when it raised) and
    q_evals the number of Q evaluations computed; Q is evaluated at most once
    per point, so the optimizer's repeat of the starting point and the
    acceptance check at its final point cost nothing.
    """
    fun = _QFunction(image, kernel, resp, mu_tilde.k)
    measure, _, status, nit, error = _climb(fun, mu_tilde, image, kernel, config, _Q_RISE_RTOL)
    return measure, status, nit, fun.computed, error


def run_em(image: CountImage, kernel: Kernel, init: AtomicUniformMeasure,
           config: EmConfig = EmConfig()):
    """Alternate e- and m-steps from the given initializer, ascending the likelihood between.

    After an m-step that moved theta to M(theta), maximize_likelihood climbs
    the log-likelihood from M(theta) and returns M(theta) itself unless it
    raised the log-likelihood (status "improved"), also when its optimizer
    raised.  The ascent is skipped on the last iteration max_iterations
    allows, so max_iterations=1 is one plain EM step.  Each iteration makes
    one m-step and one e-step.  Neither the m-step nor the ascent lowers the
    log-likelihood, so it never falls along the run.

    Stops after max_iterations or once the W_1 movement between consecutive
    iterates is at most early_stop_w1.  An m-step that keeps its input moves
    0, so any threshold >= 0 stops at that fixed point and the trace holds at
    most one "kept" row, its last.  Each iterate is e-stepped once.  Returns
    the final measure together with an EmTrace holding per-iteration
    log-likelihood (computed at t = 1 on noiseless inputs), step sizes,
    m-step statuses, m-step solver statistics and solver errors.  One DEBUG
    record on this module's logger gives the iterations, the ascents tried,
    accepted and raised, the ascents' log-likelihood evaluations and
    L-BFGS-B iterations, and why the run stopped.
    """
    trace, ascents = EmTrace(), []
    current = init
    resp, _ = e_step(image, kernel, current)
    stop = "max_iterations"
    for iteration in range(1, config.max_iterations + 1):
        nxt, status, nit, q_evals, error = m_step(image, kernel, resp, current, config)
        if status != "kept" and iteration < config.max_iterations:
            nxt, ascent = maximize_likelihood(image, kernel, nxt, config)
            ascents.append(ascent)
        step = wasserstein_p(nxt, current, 1)
        resp, intensity = e_step(image, kernel, nxt)
        ll = _log_likelihood(image, intensity)
        trace.append(ll, step, status, nit, q_evals, error)
        current = nxt
        if current.k > 1 and pdist(current.atoms).min() < 1e-12:
            trace.collision = True
        if step <= config.early_stop_w1:
            stop = "fixed point" if status == "kept" else "early_stop_w1"
            break
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "run_em: %d iterations, %d of %d ascents accepted, %d raised, "
            "%d likelihood evaluations, %d L-BFGS-B iterations, stopped at %s",
            trace.iterations, sum(a.status[0] == "improved" for a in ascents), len(ascents),
            sum(a.errors[0] is not None for a in ascents), sum(a.q_evals[0] for a in ascents),
            sum(a.inner_nit[0] for a in ascents), stop,
        )
    return current, trace


def _neg_log_likelihood(theta_flat, image: CountImage, kernel: Kernel, k: int) -> tuple:
    """-l(theta) and its gradient at flat atom coordinates.

    l = sum_i X_i log(t max(lam_i, floor)) - t lam_i, the observed-data
    log-likelihood with floor = _INTENSITY_FLOOR, has the gradient
    sum_i W_i grad lam_i with W_i = X_i / max(lam_i, floor) - t.  The
    kernel's ``intensity_and_vjp`` gives k lam_i and contracts W with the
    gradient of k lam, so this function does not know how a kernel lays out
    its bins.  The floored intensities are formed once and then overwritten
    with W.
    """
    counts, t = _effective(image)
    lam, vjp = kernel.intensity_and_vjp(image.grid, np.reshape(theta_flat, (k, -1)))
    intensity = lam / k
    w = np.maximum(intensity, _INTENSITY_FLOOR)
    # _log_likelihood's expression, on the floored intensities already formed
    ll = float(np.sum(counts * np.log(t * w) - t * intensity))
    np.divide(counts, w, out=w)
    w -= t
    return -ll, -(vjp(w) / k).ravel()


class _NegLogLikelihood(_PointMemory):
    """``_neg_log_likelihood(theta, image, kernel, k)``, computed once per point."""

    def __init__(self, image: CountImage, kernel: Kernel, k: int):
        super().__init__()
        self.args = (image, kernel, k)

    def _evaluate(self, theta):
        return _neg_log_likelihood(theta, *self.args)


def maximize_likelihood(image: CountImage, kernel: Kernel, init: AtomicUniformMeasure,
                        config: EmConfig = EmConfig()):
    """One L-BFGS-B ascent of the observed-data log-likelihood from ``init``.

    l(theta) = sum_i X_i log(t lam_i) - t lam_i is climbed directly over atom
    coordinates inside the window inflated by 3 kernel spreads, by the same
    L-BFGS-B climb as ``m_step`` (``config.inner_max_iterations``, _GRAD_TOL,
    _FTOL); noiseless images run at t = 1.  The optimizer's point is accepted
    ("improved") only if it raised l above l(init); otherwise ``init`` is
    returned ("kept").  An exception from the optimizer is logged at WARNING
    and also keeps ``init``.  Returns the measure and an EmTrace of one row:
    the final l, the W_1 step from ``init``, the status, L-BFGS-B's iteration
    count (0 when it raised), the number of l evaluations computed, and the
    error as "Type: message" or None.  l is evaluated at most once per point,
    so the optimizer's first point costs nothing when ``init`` lies inside the
    domain.
    """
    fun = _NegLogLikelihood(image, kernel, init.k)
    measure, value, status, nit, error = _climb(fun, init, image, kernel, config, 0.0)
    trace = EmTrace()
    trace.append(-value, wasserstein_p(measure, init, 1), status, nit, fun.computed, error)
    trace.collision = init.k > 1 and bool(pdist(measure.atoms).min() < 1e-12)
    return measure, trace
