"""k-atomic uniform measures, their moments, and evaluation distances.

The estimation target throughout the library is a uniform distribution on k
points of R^d (d = 1 or 2): every atom carries mass 1/k, and uniformity is
structural (weights are never stored).  This module provides the measure type,
exact complex moments m_1..m_k as a plain array (the array the MM chain
estimates), the moment distance M_k between two such arrays, exact
p-Wasserstein distances between uniform measures of any two sizes, the Hausdorff
distance between supports, the paper's multiscale loss (a cluster-weighted
W_1 over the Voronoi cells of a clustered reference), and a moment-matched
perturbation that produces adversarial pairs sharing their first k-1 moments.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix, identity, kron, vstack
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial.distance import cdist


@dataclass(frozen=True, eq=False)
class AtomicUniformMeasure:
    """Uniform distribution on k atoms in R^d, each carrying mass 1/k.

    Parameters
    ----------
    atoms : array_like, shape (k, d) or (k,)
        Atom locations. A 1-d array is interpreted as k points on the line.
        Atoms may repeat (multiplicities are allowed); they must be finite.
    """

    atoms: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.atoms, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("atoms must be a non-empty (k, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("atoms must be finite (no NaN/inf coordinates)")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "atoms", pts)

    @property
    def k(self) -> int:
        return self.atoms.shape[0]

    @property
    def dimension(self) -> int:
        return self.atoms.shape[1]

    def as_complex(self) -> np.ndarray:
        """View the atoms as complex scalars (d=2: x+iy; d=1: x+0i)."""
        if self.dimension == 1:
            return self.atoms[:, 0].astype(complex)
        if self.dimension == 2:
            return self.atoms[:, 0] + 1j * self.atoms[:, 1]
        raise ValueError("complex view requires dimension 1 or 2")

    @classmethod
    def from_complex(cls, z) -> "AtomicUniformMeasure":
        """Build a planar measure from complex scalars x + iy."""
        z = np.asarray(z, dtype=complex).ravel()
        return cls(np.column_stack([np.real(z), np.imag(z)]))

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "atoms": self.atoms.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "AtomicUniformMeasure":
        if not isinstance(payload, dict):
            raise ValueError(f"a measure must be a JSON object, not {type(payload).__name__}")
        for key in ("atoms", "dimension"):
            if key not in payload:
                raise ValueError(f"measure is missing required field '{key}'")
        try:
            atoms = np.asarray(payload["atoms"], dtype=float)
        except TypeError:
            raise ValueError("measure field 'atoms' must be an array of numbers") from None
        mu = cls(atoms)
        try:
            dimension = int(payload["dimension"])
        except (TypeError, ValueError):
            raise ValueError(f"measure field 'dimension' must be an integer, "
                             f"got {payload['dimension']!r}") from None
        if mu.dimension != dimension:
            raise ValueError("atom coordinates do not match declared dimension")
        return mu

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, path) -> "AtomicUniformMeasure":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def exact_moments(mu: AtomicUniformMeasure, order: int) -> np.ndarray:
    """Exact complex moments m_1..m_order of a k-atomic uniform measure (d <= 2).

    The atoms are viewed as complex scalars z_i, and entry a - 1 of the
    returned complex array is (1/k) sum_i z_i^a: the same array that
    ``mm.estimate_moments`` estimates from counts.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    z = mu.as_complex()
    return np.array([np.mean(z**a) for a in range(1, order + 1)])


def moment_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Moment difference M_k: the sum of |a_j - b_j| over two moment arrays.

    The terms are summed in index order.  Raises ValueError when the arrays'
    shapes differ.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("moment arrays must have the same shape")
    return float(sum(abs(x - y) for x, y in zip(a, b)))


def _pairwise(mu: AtomicUniformMeasure, nu: AtomicUniformMeasure) -> np.ndarray:
    if mu.dimension != nu.dimension:
        raise ValueError("measures must share the ambient dimension")
    return cdist(mu.atoms, nu.atoms)


def _bottleneck_value(dist: np.ndarray) -> float:
    """Smallest threshold at which a perfect matching using edges <= threshold exists."""
    k = dist.shape[0]
    values = np.unique(dist)
    lo, hi = 0, len(values) - 1

    def feasible(thr):
        adj = csr_matrix((dist <= thr).astype(np.int8))
        match = maximum_bipartite_matching(adj, perm_type="column")
        return int(np.sum(match >= 0)) == k

    if feasible(values[lo]):
        return float(values[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            hi = mid
        else:
            lo = mid
    return float(values[hi])


def _transport_value(cost: np.ndarray) -> float:
    """Least (1/(n_a n_b)) sum_ij plan_ij cost_ij over plans of row sums n_b and column sums n_a.

    The LP's vertices are integral (Peyre & Cuturi 2019, ch. 3), but the dual
    simplex stops within a tolerance of the optimum, so each solve's duals are
    taken off the cost and the LP is solved again on the reduced costs scaled
    up (iterative refinement: Gleixner, Steffy & Wolter 2016) until no plan
    can cost less by more than rounding.  Raises RuntimeError on a failed
    solve, a rounded plan off its marginals, or no convergence.
    """
    na, nb = cost.shape
    n = na * nb
    # variable i * nb + j is plan_ij: first the row sums, then the column sums
    marginals = vstack([kron(identity(na), np.ones((1, nb))),
                        kron(np.ones((1, na)), identity(nb))])
    supplies = np.concatenate([np.full(na, nb), np.full(nb, na)])
    reduced, scale = cost, cost.max() or 1.0
    for _ in range(16):  # a pass cuts the gap by about the simplex tolerance, 1e-7
        res = linprog((reduced / scale).ravel(), A_eq=marginals, b_eq=supplies, method="highs-ds")
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        plan = np.rint(res.x)
        if not np.array_equal(marginals @ plan, supplies):
            raise RuntimeError("transport LP returned a plan off its marginals")
        reduced = reduced - scale * (res.eqlin.marginals[:na, None] + res.eqlin.marginals[na:])
        value, below, slack = plan @ cost.ravel() / n, -reduced.min(), plan @ reduced.ravel() / n
        # no plan costs less than value - below - slack, nor less than 0
        if below + slack <= 64 * np.finfo(float).eps * value or value == 0.0:
            return float(value)
        scale = max(below, slack)
    raise RuntimeError("transport LP refinement did not converge")


def wasserstein_p(mu: AtomicUniformMeasure, nu: AtomicUniformMeasure, p) -> float:
    """Exact p-Wasserstein distance between two uniform measures of any sizes.

    With equal k, finite p solves the assignment problem over permutations,
    ((1/k) min_sigma sum_i ||theta_sigma(i) - eta_i||^p)^(1/p), and p = inf is
    the bottleneck assignment value min_sigma max_i ||theta_sigma(i) - eta_i||.
    With k_mu != k_nu, finite p solves the transport LP between masses 1/k_mu
    and 1/k_nu, and p = inf raises ValueError.
    """
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")
    dist = _pairwise(mu, nu)
    if np.isinf(p):
        if mu.k != nu.k:
            raise ValueError("W_inf requires equal atom counts")
        return _bottleneck_value(dist)
    p = float(p)
    if mu.k != nu.k:
        return _transport_value(dist**p) ** (1.0 / p)
    row, col = linear_sum_assignment(dist**p)
    return float((dist[row, col] ** p).sum() / mu.k) ** (1.0 / p)


def hausdorff(mu: AtomicUniformMeasure, nu: AtomicUniformMeasure) -> float:
    """Hausdorff distance between the supports (multiplicity-insensitive)."""
    dist = _pairwise(mu, nu)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def local_divergence(centers, multiplicities, mu: AtomicUniformMeasure,
                     nu: AtomicUniformMeasure) -> float:
    """Multiscale loss 1 ^ sum_j delta_j * W_1^{r_j}(mu_Vj, nu_Vj) about a clustered reference.

    The reference is mu0 = (1/k) sum_j r_j delta_{c_j}: k0 distinct
    ``centers`` c_j in the dimension of mu and nu, shape (k0, d) or, on the
    line, (k0,) as for ``AtomicUniformMeasure``, with ``multiplicities``
    integers r_j >= 1 and sum r_j = k = mu.k = nu.k; anything else raises
    ValueError.  V_j is the Voronoi cell of c_j (each atom goes to its nearest
    center, ties to the lowest index), mu_Vj is the uniform measure on the
    atoms of mu in V_j, and delta_j = prod_{i != j} ||c_i - c_j||^{r_i}.  The
    two cells of a term may hold different atom counts; ``wasserstein_p``
    scores them.  W_1 between two empty cells is 0; a nonempty cell against an
    empty one is infinite, which the ^1 cap turns into a result of 1.
    """
    centers = AtomicUniformMeasure(centers).atoms
    r = np.array(multiplicities, dtype=float)
    if not np.all(np.mod(r, 1) == 0):
        raise ValueError("multiplicities must be integers")
    if centers.shape[0] != r.shape[0]:
        raise ValueError("one multiplicity per center required")
    if not centers.shape[1] == mu.dimension == nu.dimension:
        raise ValueError(f"centers are {centers.shape[1]}-d but mu is {mu.dimension}-d "
                         f"and nu {nu.dimension}-d")
    if np.any(r < 1):
        raise ValueError("multiplicities must be >= 1")
    dist = cdist(centers, centers)
    np.fill_diagonal(dist, 1.0)  # the i = j factor of every delta_j
    if dist.min() <= 0.0:
        raise ValueError("cluster centers must be distinct")
    if not (mu.k == nu.k == r.sum()):
        raise ValueError("local_divergence requires mu.k == nu.k == sum of multiplicities")
    weights = np.prod(dist ** r[:, None], axis=0)
    # argmin takes the lowest index on ties
    owner_mu = np.argmin(cdist(mu.atoms, centers), axis=1)
    owner_nu = np.argmin(cdist(nu.atoms, centers), axis=1)
    total = 0.0
    for j in range(r.shape[0]):
        cm, cn = mu.atoms[owner_mu == j], nu.atoms[owner_nu == j]
        if cm.shape[0] == 0 and cn.shape[0] == 0:
            continue
        if cm.shape[0] == 0 or cn.shape[0] == 0:
            return 1.0
        w1 = wasserstein_p(AtomicUniformMeasure(cm), AtomicUniformMeasure(cn), 1)
        total += weights[j] * w1 ** int(r[j])
    return min(1.0, total)


def _poly_eval_from_roots(x, roots, offset):
    """Evaluate p(x) = prod (x - r_i) + offset and its derivative."""
    diffs = x - roots
    val = np.prod(diffs) + offset
    deriv = 0.0
    for i in range(len(roots)):
        deriv += np.prod(np.delete(diffs, i))
    return val, deriv


def perturb_matching_moments(mu: AtomicUniformMeasure, tau: float) -> AtomicUniformMeasure:
    """Perturb a measure on R into one matching its first k-1 moments.

    Shifts the monic polynomial with roots at the atoms by +tau and returns the
    uniform measure on the perturbed roots.  The construction leaves moments
    1..k-1 unchanged (the leading k coefficients are untouched), changes the
    k-th moment by exactly -tau, and moves the support.

    Raises
    ------
    ValueError
        If tau is too large for the perturbed polynomial to keep k distinct
        real roots; retry with a smaller tau.
    """
    if mu.dimension != 1:
        raise ValueError("perturb_matching_moments is defined on the real line")
    if tau <= 0:
        raise ValueError("tau must be positive")
    atoms = np.sort(mu.atoms[:, 0])
    if atoms.shape[0] > 1 and np.min(np.diff(atoms)) <= 0.0:
        raise ValueError("atoms must be distinct")
    coeffs = np.poly(atoms)
    coeffs[-1] += tau
    roots = np.roots(coeffs).astype(complex)
    # Newton-polish against the stable product-form evaluation.
    for i, z in enumerate(roots):
        for _ in range(50):
            val, deriv = _poly_eval_from_roots(z, atoms.astype(complex), tau)
            if deriv == 0 or abs(val) < 1e-16 * (1.0 + abs(z)) ** len(atoms):
                break
            step = val / deriv
            z = z - step
            if abs(step) < 1e-16 * (1.0 + abs(z)):
                break
        roots[i] = z
    scale = 1.0 + np.max(np.abs(atoms))
    if np.max(np.abs(roots.imag)) > 1e-8 * scale:
        raise ValueError(
            "tau too large: perturbed polynomial has complex roots; use a smaller tau"
        )
    new_atoms = np.sort(roots.real)
    if new_atoms.shape[0] > 1 and np.min(np.diff(new_atoms)) <= 0.0:
        raise ValueError(
            "tau too large: perturbed roots are no longer distinct; use a smaller tau"
        )
    return AtomicUniformMeasure(new_atoms)
