"""EM algorithm for maximum-likelihood estimation in the binned Poisson model.

The complete-data decomposition splits each bin count into per-atom Poisson
contributions Z_ij ~ Poi(t * lam_ij) with lam_ij = (1/k) int_Bin K(x - theta_j).
The m-step forms the multinomial responsibilities p_ij = lam_ij / lam_i at
its input mu_tilde and ascends
Q(mu, mu_tilde) = sum_ij (X_i p_ij ln(t lam_ij) - t lam_ij) over atom
coordinates inside the observation window inflated by 3 kernel spreads,
accepting a point only if Q rose by more than a rounding-level 1e-13 of |Q|,
which keeps the observed-data log-likelihood non-decreasing along the run.
maximize_likelihood climbs the observed-data log-likelihood itself, which
converges in far fewer steps than EM when atoms overlap.  Only Q reads the
kernel's dense (m, k) bin-integral matrices; every log-likelihood, climbed,
reported or recorded, comes from the kernel's ``intensity_and_vjp``.  Both
climbs are one L-BFGS-B run, ``_climb``, that keeps its start unless the
objective improved.
run_em alternates the two (Redner & Walker, SIAM Review 26, 1984; Jamshidian
& Jennrich, JRSS-B 59, 1997): after every m-step that moves, it ascends the
log-likelihood from the m-step's point, still with one m-step per iteration.
An m-step that keeps its input is a fixed point of EM, so the run ends there.
"""
from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, minimize
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
    """l = sum_i X_i log(t max(lam_i, floor)) - t lam_i, overwriting ``intensity``.

    floor is ``_INTENSITY_FLOOR`` and noiseless images run at t = 1.  The
    intensities lam_i are overwritten with the gradient weights
    W_i = X_i / max(lam_i, floor) - t, so that grad l = sum_i W_i grad lam_i.
    """
    counts, t = _effective(image)
    floored = np.maximum(intensity, _INTENSITY_FLOOR)
    ll = float(np.sum(counts * np.log(t * floored) - t * intensity))
    np.divide(counts, floored, out=intensity)
    intensity -= t
    return ll


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


class _PointMemory:
    """``evaluate(theta)``, a (value, gradient) pair of flat atom coordinates, once per point.

    Every point's value and gradient are remembered, keyed by the
    coordinates' bytes, so calling again at a point (an optimizer's first
    point after the caller evaluated it, its final one in an acceptance
    check, or one L-BFGS-B returns to after a failed line search) computes
    nothing; the gradient is returned as a copy.  ``computed`` counts the
    evaluations actually made.
    """

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.memory = {}

    @property
    def computed(self) -> int:
        return len(self.memory)

    def __call__(self, theta_flat):
        theta = np.asarray(theta_flat, float)
        key = theta.tobytes()
        if key not in self.memory:
            self.memory[key] = self.evaluate(theta)
        value, grad = self.memory[key]
        return value, grad.copy()


def _neg_q(image: CountImage, kernel: Kernel, mu_tilde: AtomicUniformMeasure):
    """The function theta -> (-Q(theta, mu_tilde), -grad Q) of flat atom coordinates.

    Q = sum_ij X_i p_ij ln(t lam_ij) - t sum_ij lam_ij, with lam_ij floored
    at ``_INTENSITY_FLOOR`` inside the logarithm only.  One
    ``bin_integral_matrix`` call at mu_tilde gives the responsibilities
    p_ij = lam_ij / lam_i; rows whose total intensity underflows to 0 take
    the uniform 1/k.  An evaluation makes one ``bin_integral_matrix`` and one
    ``bin_integral_gradient_matrix`` call and works in place in one (m, k)
    buffer.  The 1/k of lam_ij = L_ij / k and the exposure t stay scalars:
    with W = X p, ln(t lam) = ln L + ln(t / k) and
    dQ = sum_i (W / L - t / k) dL, so the (m, k) and (m, k, d) matrices are
    never rescaled.
    """
    counts, t = _effective(image)
    grid, k = image.grid, mu_tilde.k
    lam = kernel.bin_integral_matrix(grid, mu_tilde.atoms) / k
    totals = lam.sum(axis=1)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = counts[:, None] * np.where(totals > 0, lam / totals, 1.0 / k)  # X_i p_ij
    work = np.empty_like(weights)
    t_per_atom = t / k
    # sum_ij W_ij ln(t / k), the part of Q that does not depend on the atoms
    q_offset = weights.sum() * np.log(t_per_atom)

    def evaluate(theta):
        atoms = theta.reshape(k, -1)
        lam = kernel.bin_integral_matrix(grid, atoms)  # L_ij = k lam_ij
        total = lam.sum()
        np.maximum(lam, k * _INTENSITY_FLOOR, out=lam)
        np.log(lam, out=work)
        np.multiply(work, weights, out=work)
        q = work.sum() + q_offset - t_per_atom * total
        grad_lam = kernel.bin_integral_gradient_matrix(grid, atoms)
        np.divide(weights, lam, out=work)
        np.subtract(work, t_per_atom, out=work)  # dQ/dL_ij
        grad = np.matmul(work.T[:, None, :], grad_lam.transpose(1, 0, 2))  # (k, 1, d)
        return -q, -grad.ravel()

    return evaluate


def _climb(fun, start: AtomicUniformMeasure, image: CountImage, kernel: Kernel,
           config: EmConfig, rise_rtol: float) -> tuple:
    """L-BFGS-B minimization of ``fun`` (value, flat gradient) from ``start``, kept if no gain.

    The solver starts from ``start`` clipped to the observation window
    inflated by 3 kernel spreads and stays there.  Its point is accepted
    ("improved") only if ``fun`` there is below ``fun`` at the unclipped
    ``start`` by more than ``rise_rtol`` of the latter's magnitude;
    otherwise, or when the solver raised (logged at WARNING), ``start``
    itself is returned ("kept").  Returns (measure, ``fun`` at it, status,
    L-BFGS-B iterations or 0, "Type: message" or None).
    """
    pad = 3.0 * kernel.spread()
    lo, hi = image.grid.window_lo - pad, image.grid.window_hi + pad
    value = fun(start.atoms.ravel())[0]
    try:
        res = minimize(
            fun, np.clip(start.atoms, lo, hi).ravel(), jac=True, method="L-BFGS-B",
            bounds=Bounds(np.tile(lo, start.k), np.tile(hi, start.k)),
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


def m_step(image: CountImage, kernel: Kernel, mu_tilde: AtomicUniformMeasure,
           config: EmConfig = EmConfig()):
    """Ascend Q(., mu_tilde) over atoms inside the window inflated by 3 kernel spreads.

    Returns (measure, status, nit, q_evals, error).  The responsibilities
    come from mu_tilde (see ``_neg_q``).  The optimizer's point is accepted
    ("improved") only if it raised Q by more than _Q_RISE_RTOL |Q(mu_tilde)|;
    a smaller rise is rounding noise.  Otherwise mu_tilde itself is returned
    as "kept"; no shorter step toward a rejected point is tried, since
    L-BFGS-B's line search already accepts only points that raise Q.  An
    exception from the inner optimizer is logged at WARNING, returned as
    error = "Type: message" (None otherwise), and also yields "kept".  nit
    is L-BFGS-B's iteration count (0 when it raised) and q_evals the number
    of Q evaluations computed; Q is evaluated at most once per point, so the
    optimizer's repeat of the starting point and the acceptance check at its
    final point cost nothing.
    """
    fun = _PointMemory(_neg_q(image, kernel, mu_tilde))
    measure, _, status, nit, error = _climb(fun, mu_tilde, image, kernel, config, _Q_RISE_RTOL)
    return measure, status, nit, fun.computed, error


def run_em(image: CountImage, kernel: Kernel, init: AtomicUniformMeasure,
           config: EmConfig = EmConfig()):
    """Alternate m-steps from the given initializer, ascending the likelihood between.

    After an m-step that moved theta to M(theta), maximize_likelihood climbs
    the log-likelihood from M(theta) and returns M(theta) itself unless it
    raised the log-likelihood (status "improved"), also when its optimizer
    raised.  The ascent is skipped on the last iteration max_iterations
    allows, so max_iterations=1 is one plain EM step.  Each iteration makes
    one m-step, whose responsibilities come from the previous iterate.
    Neither the m-step nor the ascent lowers the log-likelihood, so it never
    falls along the run.

    Stops after max_iterations or once the W_1 movement between consecutive
    iterates is at most early_stop_w1.  An m-step that keeps its input moves
    0, so any threshold >= 0 stops at that fixed point and the trace holds at
    most one "kept" row, its last.  Returns the final measure together with
    an EmTrace holding per-iteration log-likelihood (the forward model of
    log_likelihood, at t = 1 on noiseless inputs), step sizes, m-step
    statuses, m-step solver statistics and solver errors.  One DEBUG record
    on this module's logger gives the iterations, the ascents tried,
    accepted and raised, the ascents' log-likelihood evaluations and
    L-BFGS-B iterations, and why the run stopped.
    """
    trace, ascents = EmTrace(), []
    current = init
    stop = "max_iterations"
    for iteration in range(1, config.max_iterations + 1):
        nxt, status, nit, q_evals, error = m_step(image, kernel, current, config)
        if status != "kept" and iteration < config.max_iterations:
            nxt, ascent = maximize_likelihood(image, kernel, nxt, config)
            ascents.append(ascent)
            loglik = ascent.loglik[0]  # l at nxt, by the same forward model
        else:
            lam, _ = kernel.intensity_and_vjp(image.grid, nxt.atoms)
            loglik = _log_likelihood(image, lam / nxt.k)
        step = wasserstein_p(nxt, current, 1)
        trace.append(loglik, step, status, nit, q_evals, error)
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

    l is ``_log_likelihood`` of the intensities lam_i, and its gradient is
    sum_i W_i grad lam_i with the weights W it leaves in their place.  The
    kernel's ``intensity_and_vjp`` gives k lam_i and contracts W with the
    gradient of k lam, so this function does not know how a kernel lays out
    its bins.
    """
    lam, vjp = kernel.intensity_and_vjp(image.grid, np.reshape(theta_flat, (k, -1)))
    weights = lam / k
    ll = _log_likelihood(image, weights)
    return -ll, -(vjp(weights) / k).ravel()


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
    fun = _PointMemory(functools.partial(_neg_log_likelihood, image=image, kernel=kernel,
                                         k=init.k))
    measure, value, status, nit, error = _climb(fun, init, image, kernel, config, 0.0)
    trace = EmTrace()
    trace.append(-value, wasserstein_p(measure, init, 1), status, nit, fun.computed, error)
    trace.collision = init.k > 1 and bool(pdist(measure.atoms).min() < 1e-12)
    return measure, trace
