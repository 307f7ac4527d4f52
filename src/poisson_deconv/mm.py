"""Method-of-moments estimation from binned Poisson counts.

The estimator chain: kernel-adapted monic polynomials psi_alpha turn bin
counts into unbiased moment estimates of the mixing measure; Newton's
identities and Vieta's formula, in one recursion, turn these power-sum
moments into the monic polynomial whose roots are the atoms; a root finder
recovers them.  Every link of the complex chain passes plain NumPy arrays:
kernel moments m_0..m_k (``Kernel.moments``), the unit lower-triangular psi
coefficient matrix, the moment estimates m_1..m_k (one triangular
combination of the power sums sum_i gamma_i^j X_i / t, O(k * m) work), then
the polynomial's coefficients; k is read from the arrays' lengths.  The one
estimator, mm_complex, serves planar and 1-d images; on 1-d data each root
a + ib becomes the atom a + b.

What does not depend on the counts is computed once: ``kernel_psi`` keeps
each kernel's psi array per order for as long as the kernel lives, and the
root finder, ``complex_roots``, evaluates p and p' once per iterate, reusing
them for its freeze test, its Newton polish and its residual gate.
"""
from __future__ import annotations

import logging
import math
import numbers
import warnings
import weakref

import numpy as np

from .kernels import Kernel
from .measures import AtomicUniformMeasure
from .observation import CountImage

logger = logging.getLogger(__name__)


class RootRecoveryError(RuntimeError):
    """Neither the iterative root finder nor the eigenvalue fallback converged."""


class DegenerateDataWarning(UserWarning):
    """All counts are zero; the estimator returns window-center atoms."""


def compute_psi(m: np.ndarray) -> np.ndarray:
    """Kernel-adapted moment polynomials from the kernel moments m_0..m_ell.

    Returns the unit lower-triangular (ell+1, ell+1) array whose row i holds
    the ascending coefficients of the monic psi_i, with
    E_{K*mu}[psi_i(V)] = m_i(mu); it has the dtype of ``m``.  The matrix M
    with M[i, j] = C(i, j) * m_{i-j} expresses the blurred monomial
    expectations in terms of the clean ones, and the result is M^{-1}.  That
    inverse is C(i, j) * mu_{i-j}, where mu_0 = 1 and mu_n = -sum_{j=1..n}
    C(n, j) m_j mu_{n-j} are the moments of the kernel's binomial-type
    inverse.  For the standard Gaussian on the line this reproduces the
    probabilists' Hermite polynomials.
    """
    ell = m.shape[0] - 1
    mu = np.zeros(ell + 1, dtype=m.dtype)
    mu[0] = 1.0
    for n in range(1, ell + 1):
        mu[n] = -sum(math.comb(n, j) * m[j] * mu[n - j] for j in range(1, n + 1))
    A = np.zeros((ell + 1, ell + 1), dtype=m.dtype)
    for i in range(ell + 1):
        for j in range(i + 1):
            A[i, j] = math.comb(i, j) * mu[i - j]
    return A


# kernel -> {order: read-only psi}; an entry goes when its kernel is collected.
_psi_cache = weakref.WeakKeyDictionary()


def kernel_psi(kernel: Kernel, order: int) -> np.ndarray:
    """``compute_psi(kernel.moments(order))``, built once per kernel and order.

    The array is read-only and shared by every caller with the same kernel
    object, which must not be changed after construction.
    """
    by_order = _psi_cache.setdefault(kernel, {})
    psi = by_order.get(order)
    if psi is None:
        psi = compute_psi(kernel.moments(order))
        psi.flags.writeable = False
        by_order[order] = psi
    return psi


def estimate_moments(image: CountImage, psi: np.ndarray) -> np.ndarray:
    """Moment estimates m_hat_a = sum_i psi_a(gamma_i) X_i / t for a = 1..order.

    ``psi`` is the coefficient array of ``compute_psi``; the result is the
    complex array m_hat_1..m_hat_order.  In noiseless mode (t = inf) the
    stored intensities stand in for X_i / t.  gamma_i is the centre of bin i:
    x + iy on planar grids, built by one broadcast of the two axis-centre
    vectors in row-major order, and x on 1-d grids.  The power sums
    S_j = sum_i gamma_i^j X_i / t, j = 0..order, come from one (m,) array of
    gamma^j multiplied by gamma in place and by the weights, cast to complex
    once, and m_hat_a = sum_j psi[a, j] S_j, so a call costs O(order * m).
    """
    grid = image.grid
    gamma = grid.axis_centres(0)
    if grid.dimension == 2:
        gamma = (gamma[None, :] + 1j * grid.axis_centres(1)[:, None]).ravel()
    weights = image.counts if image.noiseless else image.counts / image.t
    sums = np.empty(psi.shape[0], dtype=complex)
    sums[0] = weights.sum()
    weights = weights.astype(complex)
    # gamma^j comes from repeated multiplication and is weighted afterwards,
    # the order in which Horner's rule evaluates a monomial: with identity psi
    # (isotropic kernels) m_hat_a is then bit for bit
    # sum_i polyval(gamma_i, psi_a) w_i
    power = np.ones(grid.m, dtype=complex)
    work = np.empty_like(power)
    for j in range(1, psi.shape[0]):
        power *= gamma
        np.multiply(power, weights, out=work)
        sums[j] = work.sum()
    # not psi @ sums: the first complex BLAS call of a process pages in
    # about 0.1 MiB that no other step of the estimators needs
    return (psi * sums).sum(axis=1)[1:]


def polynomial_from_moments(m) -> np.ndarray:
    """Monic polynomial whose roots are the atoms, descending coefficients c_0..c_k.

    k is the length of the complex moments ``m`` = m_1..m_k of a uniform
    k-atomic measure.  Newton's identities and Vieta's formula in one
    recursion: c_0 = 1 and c_l = -(k/l) sum_{j=1}^{l} c_{l-j} m_j.
    """
    m = np.asarray(m, dtype=complex).ravel()
    k = m.shape[0]
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[0] = 1.0
    for l in range(1, k + 1):
        coeffs[l] = -sum(coeffs[l - j] * m[j - 1] for j in range(1, l + 1)) * k / l
    return coeffs


def _polyval_and_deriv(coeffs: np.ndarray, z: np.ndarray):
    """Horner evaluation of p and p' for descending coefficients.

    Each ``coeffs[j]`` is a scalar or an array that broadcasts against ``z``,
    so one call evaluates a stack of polynomials, each at its own points.
    """
    p = np.full_like(z, coeffs[0])
    dp = np.zeros_like(z)
    for c in coeffs[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _polyval_deriv_and_bound(coeffs: np.ndarray, rounding: np.ndarray, z: np.ndarray):
    """p(z), p'(z) and sum_j rounding_j |z|^j from one Horner pass.

    Each is bit for bit what ``_polyval_and_deriv`` and
    ``np.polyval(rounding, |z|)`` return; the bound starts from 0, as
    np.polyval's accumulator does, so a non-finite |z| gives the same value.
    ``coeffs[j]`` and ``rounding[j]`` broadcast against ``z`` as in
    ``_polyval_and_deriv``.
    """
    p = np.full_like(z, coeffs[0])
    dp = np.zeros_like(z)
    az = np.abs(z)
    bound = np.zeros_like(az) * az + rounding[0]
    for c, r in zip(coeffs[1:], rounding[1:]):
        dp = dp * z + p
        p = p * z + c
        bound = bound * az + r
    return p, dp, bound


_POLISH_STEPS = 8
_ABERTH_MAX_ITER = 200


def _newton_polish(coeffs: np.ndarray, roots: np.ndarray, values=None):
    """Newton steps on every root, each kept only where it lowers |p|, at most _POLISH_STEPS.

    ``coeffs`` broadcasts against ``roots`` as in ``_polyval_and_deriv``, and
    ``values`` is (p, p') at ``roots`` when the caller has them.  Returns the
    polished roots and p at them.  p and p' are evaluated once per step, at
    the trial points; a root whose step is refused keeps the values it had,
    which are what evaluating it again would give.  So a stack of
    polynomials polished together gives each its own result: once none of a
    polynomial's steps is kept, its next steps repeat the refused ones.
    """
    roots = roots.astype(complex)
    p, dp = _polyval_and_deriv(coeffs, roots) if values is None else values
    for _ in range(_POLISH_STEPS):
        ok = np.abs(dp) > 0
        step = np.zeros_like(roots)
        step[ok] = p[ok] / dp[ok]
        nxt = roots - step
        p_new, dp_new = _polyval_and_deriv(coeffs, nxt)
        improved = np.abs(p_new) < np.abs(p)
        if not improved.any():
            break
        roots[improved] = nxt[improved]
        p[improved] = p_new[improved]
        dp[improved] = dp_new[improved]
    return roots, p


def _aberth(coeffs: np.ndarray, columns: np.ndarray):
    """Aberth-Ehrlich simultaneous iteration over an (R, k + 1) stack of monic polynomials.

    ``columns`` is (k + 1, R * k): column r * k + i holds the coefficients of
    row r, the polynomial of its root i, so one Horner pass evaluates every
    root of every row.  Each polynomial's k starting points lie on a circle
    about its roots' centroid c = -a_{k-1}/k of radius |p(c)|^(1/k), the
    geometric-mean distance from c to the roots (Bini 1996); when c is itself
    a root the Cauchy radius 1 + max|a_j| is used instead.  Root i freezes
    once |p(z_i)| <= 4 eps sum_j |a_j| |z_i|^j, i.e. once its backward error
    is at rounding level; p, p' and that bound come from one Horner pass per
    iteration.  Only the active roots move, each corrected against the k
    current points of its own polynomial.  A frozen root is evaluated again
    at the same point, so its values repeat, and a row's roots are those it
    gets alone.  Returns the R * k roots, row after row, each row's number of
    iterations, at most _ABERTH_MAX_ITER, and (p, p') at the returned roots,
    or None when the cap stopped any row.
    """
    n_rows, k = coeffs.shape[0], coeffs.shape[1] - 1
    centre = -coeffs[:, 1] / k
    value, _ = _polyval_and_deriv(coeffs.T, centre)
    # abs and ** of NumPy scalars, as on np.polyval's scalar result: the
    # array versions differ from them in the last bit
    radius = np.empty(n_rows)
    for row, v in enumerate(value):
        r = abs(v) ** (1.0 / k)
        radius[row] = r if 0.0 < r < np.inf else 1.0 + np.max(np.abs(coeffs[row, 1:]))  # Cauchy
    angles = 2 * np.pi * (np.arange(k) + 0.5) / k + 0.4
    z = (centre[:, None] + radius[:, None] * np.exp(1j * angles)).ravel()
    rounding = 4.0 * np.finfo(float).eps * np.abs(columns)
    diagonal = np.arange(k)
    active = np.ones(z.shape, dtype=bool)
    # the last iteration each root was tested while active, the one that froze it
    tested = np.empty(z.shape, dtype=int)
    for iteration in range(_ABERTH_MAX_ITER):
        p, dp, bound = _polyval_deriv_and_bound(columns, rounding, z)
        tested[active] = iteration
        active &= np.abs(p) > bound
        if not np.count_nonzero(active):
            return z, tested.reshape(n_rows, k).max(axis=1), (p, dp)
        rows = z.reshape(n_rows, k)
        pair = rows[:, :, None] - rows[:, None, :]
        pair[:, diagonal, diagonal] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = (1.0 / pair).sum(axis=2).ravel()
            w = np.where(np.abs(dp) > 0, p / dp, p)
            denom = 1.0 - w * sums
            step = np.where(np.abs(denom) > 0, w / denom, w)
            z = np.where(active, z - np.where(np.isfinite(step), step, 0.0), z)
    tested[active] = _ABERTH_MAX_ITER
    return z, tested.reshape(n_rows, k).max(axis=1), None


def _residual_ratio(coeffs: np.ndarray, roots: np.ndarray, p: np.ndarray):
    """Largest |p(root)| / (1e-10 * max|coeff| * (1+|root|)^k) over each polynomial's roots.

    ``coeffs`` is (k + 1,) or an (R, k + 1) stack, ``roots`` (k,) or (R, k)
    and ``p`` the polynomial's values at ``roots``; the result is a scalar
    or (R,).
    """
    scale = np.abs(coeffs).max(axis=-1, keepdims=True)
    k = coeffs.shape[-1] - 1
    bound = 1e-10 * scale * (1.0 + np.abs(roots)) ** k
    return (np.abs(p) / bound).max(axis=-1)


def _companion_roots(coeffs: np.ndarray):
    """Polished companion-matrix eigenvalues of one polynomial and their residual ratio.

    The ratio is NaN when the eigenvalue solver fails, as it does on
    non-finite coefficients.
    """
    try:
        roots = np.roots(coeffs).astype(complex)
    except np.linalg.LinAlgError:
        return np.full(coeffs.shape[0] - 1, np.nan, dtype=complex), np.nan
    roots, p = _newton_polish(coeffs, roots)
    return roots, _residual_ratio(coeffs, roots, p)


def complex_roots(coeffs) -> np.ndarray:
    """All k roots (with multiplicity) of each monic degree-k complex polynomial of a stack.

    ``coeffs`` is an (R, k + 1) stack of descending coefficients, one
    polynomial per row, and gives (R, k) roots.  Aberth-Ehrlich iteration,
    run over every row at once, started on a circle about each root centroid
    -a_{k-1}/k of radius |p(centroid)|^(1/k), each root frozen once
    |p(z)| <= 4 eps sum_j |a_j| |z|^j (rounding-level backward error),
    capped at 200 iterations; companion-matrix eigenvalues are the fallback
    of each row whose Aberth roots miss the residual gate.  Every candidate
    set is Newton-polished and accepted only if the residual |p(root)| stays
    below 1e-10 * max|coeff| * (1+|root|)^k.  A row's roots are bit for bit
    those it gets alone.  Each accepted row logs one DEBUG record on this
    module's logger with the path taken ("aberth" or "companion"),
    the Aberth iteration count and the worst residual-to-bound ratio.  A row
    that fails both paths fails alone, as a row of NaN.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 2 or coeffs.shape[1] < 2:
        raise ValueError(f"coeffs must be an (R, k + 1) stack with k >= 1, got {coeffs.shape}")
    stack = coeffs / coeffs[:, :1]
    n_rows, k = stack.shape[0], stack.shape[1] - 1
    columns = np.repeat(stack.T, k, axis=1)  # each root's coefficients, row after row
    roots, iterations, values = _aberth(stack, columns)
    roots, p = _newton_polish(columns, roots, values)
    roots, p = roots.reshape(n_rows, k), p.reshape(n_rows, k)
    ratios, paths = _residual_ratio(stack, roots, p), ["aberth"] * n_rows
    # "not <=" rather than ">": a NaN ratio must fall through, then fail
    failed = ~(ratios <= 1.0)
    if failed.any():
        for row in np.flatnonzero(failed):
            roots[row], ratios[row] = _companion_roots(stack[row])
            paths[row] = "companion"
        failed = ~(ratios <= 1.0)
        roots[failed] = np.nan
    if logger.isEnabledFor(logging.DEBUG):
        for row in np.flatnonzero(~failed):
            logger.debug(
                "complex_roots degree %d: path %s, %d Aberth iterations, "
                "worst residual/bound %.3g", k, paths[row], int(iterations[row]),
                float(ratios[row]),
            )
    return roots


def measure_from_moments(m, dimension: int = 2) -> list:
    """Invert each row of an (R, k) stack of complex moments m_1..m_k into its k-atomic measure.

    One ``complex_roots`` call inverts every row with finite moments.  The
    result has one entry per row: its uniform measure, bit for bit the one
    the row gets alone, or the exception that row fails with, ValueError for
    non-finite moments and RootRecoveryError when no root set passes the
    residual gate.  On 1-d data (``dimension`` 1) each root a + ib becomes
    the atom a + b, sorted, so a conjugate pair a +- ib gives two atoms
    a +- b rather than two coincident ones at a, which no likelihood ascent
    can split.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"moments must be an (R, k) stack, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=1)
    roots = np.full(m.shape, np.nan, dtype=complex)
    if finite.any():
        roots[finite] = complex_roots(
            np.array([polynomial_from_moments(row) for row in m[finite]]))
    measures = []
    for row_finite, row in zip(finite, roots):
        if not row_finite:
            measures.append(ValueError("moments m_1..m_k must be finite"))
        elif np.isnan(row[0]):
            measures.append(RootRecoveryError(
                "root finding failed: Aberth iteration and companion-matrix fallback "
                "both exceeded the residual bound"))
        elif dimension == 1:
            measures.append(AtomicUniformMeasure(np.sort(row.real + row.imag)))
        else:
            measures.append(AtomicUniformMeasure.from_complex(row))
    return measures


def validate_k(k) -> int:
    """``k`` as an int; ValueError naming k unless it is an integer >= 1 (not a bool)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return int(k)


def degenerate_estimate(image: CountImage, k: int) -> AtomicUniformMeasure | None:
    """k atoms at the window centre and a DegenerateDataWarning when all counts are zero.

    Returns None when the image has a count, so its moments can be inverted.
    """
    if image.total() > 0:
        return None
    warnings.warn("all counts are zero; returning window-center atoms", DegenerateDataWarning)
    return AtomicUniformMeasure(np.tile(image.grid.center(), (k, 1)))


def mm_complex(image: CountImage, kernel: Kernel, k: int) -> AtomicUniformMeasure:
    """Complex method-of-moments estimator for planar and 1-d images.

    Estimated complex moments are inverted through Newton's identities and
    Vieta's formula; the atoms are the roots of the resulting polynomial, each
    root a + ib mapped to a + b on 1-d data.  Atoms may land outside the
    observation window; no projection onto it is applied.  An image whose
    counts are all zero gives k atoms at the window centre and a
    DegenerateDataWarning.  Raises ValueError when k is not an integer >= 1
    (checked first), when the kernel's dimension differs from the image's or
    when the moments are not finite, and RootRecoveryError when no root set
    passes the residual gate: the one failure of its one-row stack.
    """
    k = validate_k(k)
    if kernel.dimension != image.grid.dimension:
        raise ValueError(
            f"a {kernel.dimension}-d kernel cannot deconvolve a "
            f"{image.grid.dimension}-d image"
        )
    centre = degenerate_estimate(image, k)
    if centre is not None:
        return centre
    m_hat = estimate_moments(image, kernel_psi(kernel, k))
    [estimate] = measure_from_moments(m_hat[None], dimension=image.grid.dimension)
    if isinstance(estimate, Exception):
        raise estimate
    return estimate

