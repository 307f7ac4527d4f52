import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from poisson_deconv import measures
from poisson_deconv.measures import (
    AtomicUniformMeasure,
    _transport_value,
    exact_moments,
    hausdorff,
    local_divergence,
    moment_distance,
    perturb_matching_moments,
    wasserstein_p,
)


# Slack for identities that hold exactly up to rounding.
ALGEBRAIC_TOL = 1e-12


def brute_force_wp(mu, nu, p):
    """Independent oracle: explicit minimum over all k! permutations."""
    a, b = mu.atoms, nu.atoms
    k = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(k)):
        d = np.linalg.norm(a[list(perm)] - b, axis=1)
        if np.isinf(p):
            val = d.max()
        else:
            val = (np.sum(d**p) / k) ** (1.0 / p)
        best = min(best, val)
    return best


def lcm_w1(mu, nu):
    """Independent oracle: W_1 after repeating each measure's atoms up to lcm(k_mu, k_nu).

    Both measures then have lcm atoms of equal mass, so W_1 is an assignment.
    """
    ell = math.lcm(mu.k, nu.k)
    dist = cdist(np.repeat(mu.atoms, ell // mu.k, axis=0),
                 np.repeat(nu.atoms, ell // nu.k, axis=0))
    row, col = linear_sum_assignment(dist)
    return float(dist[row, col].sum() / ell)


def random_measure(rng, k, d):
    return AtomicUniformMeasure(rng.uniform(0.0, 1.0, size=(k, d)))


class TestAtomicUniformMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            AtomicUniformMeasure(np.empty((0, 2)))
        with pytest.raises(ValueError):
            AtomicUniformMeasure([[0.0, np.nan]])

    def test_complex_roundtrip(self):
        mu = AtomicUniformMeasure([[0.1, 0.2], [0.3, 0.4]])
        back = AtomicUniformMeasure.from_complex(mu.as_complex())
        assert np.allclose(back.atoms, mu.atoms)

    def test_json_roundtrip(self, tmp_path):
        mu = AtomicUniformMeasure([[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "mu.json"
        mu.to_json(path)
        back = AtomicUniformMeasure.from_json(path)
        assert back.dimension == 2
        assert np.allclose(back.atoms, mu.atoms)


class TestExactMoments:
    def test_two_atoms_on_line(self):
        mu = AtomicUniformMeasure([0.0, 1.0])
        m = exact_moments(mu, 2)
        assert m[0] == pytest.approx(0.5)
        assert m[1] == pytest.approx(0.5)

    def test_single_atom_powers(self):
        c = 0.37
        mu = AtomicUniformMeasure([c])
        for p in range(1, 6):
            assert exact_moments(mu, p)[p - 1] == pytest.approx(c**p)

    def test_three_atoms_hand_sum(self):
        # hand sums of powers of {1,2,3}: (6/3, 14/3, 36/3)
        mu = AtomicUniformMeasure([1.0, 2.0, 3.0])
        m = exact_moments(mu, 3)
        assert m[0] == pytest.approx(2.0)
        assert m[1] == pytest.approx(14.0 / 3.0)
        assert m[2] == pytest.approx(12.0)


class TestMomentDistance:
    def test_identity(self):
        mu = AtomicUniformMeasure([[0.3, 0.4], [0.6, 0.1]])
        m = exact_moments(mu, 3)
        assert moment_distance(m, m) == 0.0

    def test_hand_value(self):
        # (1/2)(d_0 + d_1) vs d_{0.5} at order 2: |0.5-0.5| + |0.5-0.25|
        a = exact_moments(AtomicUniformMeasure([0.0, 1.0]), 2)
        b = exact_moments(AtomicUniformMeasure([0.5, 0.5]), 2)
        assert moment_distance(a, b) == pytest.approx(0.25)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = exact_moments(random_measure(rng, 3, 2), 3)
            b = exact_moments(random_measure(rng, 3, 2), 3)
            assert moment_distance(a, b) == pytest.approx(moment_distance(b, a))

    def test_mismatch_rejected(self):
        a = exact_moments(AtomicUniformMeasure([0.0, 1.0]), 2)
        b = exact_moments(AtomicUniformMeasure([0.0, 1.0]), 3)
        with pytest.raises(ValueError):
            moment_distance(a, b)


@st.composite
def measure_triples(draw, coordinate, equal_k=True):
    """Three uniform measures in one dimension (1 or 2), with one k or three distinct k in 1..6."""
    d = draw(st.sampled_from([1, 2]))
    ks = [draw(st.integers(1, 6))] * 3 if equal_k else draw(
        st.lists(st.integers(1, 6), min_size=3, max_size=3, unique=True))
    return tuple(
        AtomicUniformMeasure(np.reshape(
            draw(st.lists(coordinate, min_size=k * d, max_size=k * d)), (k, d)))
        for k in ks
    )


P_VALUES = (1, 2, np.inf)


class TestWassersteinAxiomsProperty:
    @given(measure_triples(st.floats(-1, 1)))
    def test_symmetry_and_triangle_inequality(self, measures):
        mu, nu, rho = measures
        for p in P_VALUES:
            d_mu_nu = wasserstein_p(mu, nu, p)
            assert d_mu_nu == pytest.approx(wasserstein_p(nu, mu, p), abs=ALGEBRAIC_TOL)
            assert d_mu_nu <= (
                wasserstein_p(mu, rho, p) + wasserstein_p(rho, nu, p) + ALGEBRAIC_TOL
            )

    @given(measure_triples(st.floats(-1, 1), equal_k=False))
    def test_symmetry_and_triangle_inequality_across_sizes(self, measures):
        mu, nu, rho = measures
        for p in (1, 2):
            d_mu_nu = wasserstein_p(mu, nu, p)
            assert d_mu_nu == pytest.approx(wasserstein_p(nu, mu, p), abs=ALGEBRAIC_TOL)
            assert d_mu_nu <= (
                wasserstein_p(mu, rho, p) + wasserstein_p(rho, nu, p) + ALGEBRAIC_TOL
            )

    # lattice coordinates: distinct atoms lie at least 0.05 apart, so a zero
    # distance can only mean equal multisets
    @given(measure_triples(st.integers(-20, 20).map(lambda i: 0.05 * i)), st.randoms())
    def test_zero_exactly_on_equal_multisets(self, measures, random):
        mu, nu, _ = measures
        order = list(range(mu.k))
        random.shuffle(order)
        shuffled = AtomicUniformMeasure(mu.atoms[order])
        same = sorted(map(tuple, mu.atoms)) == sorted(map(tuple, nu.atoms))
        for p in P_VALUES:
            assert wasserstein_p(mu, shuffled, p) == 0.0
            assert (wasserstein_p(mu, nu, p) == 0.0) == same


class TestWasserstein:
    def test_identity_all_p(self):
        mu = AtomicUniformMeasure([[0.2, 0.3], [0.8, 0.9], [0.5, 0.5]])
        for p in (1, 2, np.inf):
            assert wasserstein_p(mu, mu, p) == pytest.approx(0.0, abs=ALGEBRAIC_TOL)

    def test_two_atom_hand_case(self):
        mu = AtomicUniformMeasure([0.0, 1.0])
        nu = AtomicUniformMeasure([0.1, 0.9])
        assert wasserstein_p(mu, nu, 1) == pytest.approx(0.1)
        assert wasserstein_p(mu, nu, np.inf) == pytest.approx(0.1)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_matches_brute_force(self, p, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(10):
            mu, nu = random_measure(rng, k, 2), random_measure(rng, k, 2)
            assert wasserstein_p(mu, nu, p) == pytest.approx(
                brute_force_wp(mu, nu, p), abs=1e-12
            )

    def test_unequal_k_rejected(self):
        # only p = inf rejects them; at finite p the one atom sends half its
        # mass to each of 0 and 1
        mu, nu = AtomicUniformMeasure([0.0]), AtomicUniformMeasure([0.0, 1.0])
        assert wasserstein_p(mu, nu, 1) == 0.5
        assert wasserstein_p(mu, nu, 2) == pytest.approx(np.sqrt(0.5), rel=1e-15)
        with pytest.raises(ValueError, match="W_inf requires equal atom counts"):
            wasserstein_p(mu, nu, np.inf)

    def test_unequal_counts_resolve_costs_below_the_simplex_tolerance(self):
        # one dual simplex solve leaves this plan 2e-8 off: its reduced costs
        # are within the solver's tolerance of 1e-7
        mu = AtomicUniformMeasure([[0.0, 0.0]] * 3 + [[0.0, 1.0], [0.0, 0.0]])
        nu = AtomicUniformMeasure([[0.0, 0.0], [0.0, 0.0], [0.0, 1e-8]])
        assert wasserstein_p(mu, nu, 1) == pytest.approx(lcm_w1(mu, nu), rel=1e-12)

    @pytest.mark.parametrize("x, message", [
        (None, "transport LP failed"),
        (np.full(6, 0.5), "transport LP returned a plan off its marginals"),
    ])
    def test_a_failed_transport_solve_raises(self, monkeypatch, x, message):
        monkeypatch.setattr(measures, "linprog", lambda *args, **kwargs: SimpleNamespace(
            success=x is not None, x=x, message="stub"))
        mu, nu = AtomicUniformMeasure([0.0, 1.0]), AtomicUniformMeasure([0.0, 0.5, 1.0])
        with pytest.raises(RuntimeError, match=message):
            wasserstein_p(mu, nu, 1)

    @pytest.mark.parametrize("p", [0.5, np.nan, -np.inf])
    def test_p_below_one_or_nan_rejected(self, p):
        mu = AtomicUniformMeasure([[0.0, 0.0], [1.0, 1.0]])
        nu = AtomicUniformMeasure([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
            wasserstein_p(mu, nu, p)

    def test_metric_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu, nu, rho = (random_measure(rng, 3, 2) for _ in range(3))
            for p in (1, 2, np.inf):
                dxy = wasserstein_p(mu, nu, p)
                assert dxy == pytest.approx(wasserstein_p(nu, mu, p), abs=ALGEBRAIC_TOL)
                assert dxy <= (
                    wasserstein_p(mu, rho, p) + wasserstein_p(rho, nu, p) + ALGEBRAIC_TOL
                )
        # zero iff equal supports with multiplicity
        mu = AtomicUniformMeasure([[0.1, 0.1], [0.1, 0.1], [0.4, 0.2]])
        nu = AtomicUniformMeasure([[0.4, 0.2], [0.1, 0.1], [0.1, 0.1]])
        assert wasserstein_p(mu, nu, 1) == pytest.approx(0.0, abs=ALGEBRAIC_TOL)

    def test_p_equivalence_bounds(self):
        # W_p <= k W_q for p, q in {1, 2, inf}
        rng = np.random.default_rng(21)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            mu, nu = random_measure(rng, k, 2), random_measure(rng, k, 2)
            vals = {p: wasserstein_p(mu, nu, p) for p in (1, 2, np.inf)}
            for p in vals:
                for q in vals:
                    assert vals[p] <= k * vals[q] + ALGEBRAIC_TOL


@st.composite
def unequal_cells(draw):
    """Two planar measures of different sizes whose counts have lcm <= 400."""
    na, nb = draw(st.tuples(st.integers(1, 20), st.integers(1, 20)).filter(
        lambda ks: ks[0] != ks[1] and math.lcm(*ks) <= 400))
    coords = st.floats(-1, 1)
    return tuple(AtomicUniformMeasure(np.reshape(
        draw(st.lists(coords, min_size=2 * n, max_size=2 * n)), (n, 2))) for n in (na, nb))


class TestTransportProperty:
    @given(unequal_cells())
    def test_unequal_counts_match_the_lcm_oracle(self, cells):
        mu, nu = cells
        assert wasserstein_p(mu, nu, 1) == pytest.approx(lcm_w1(mu, nu), rel=1e-12, abs=1e-300)

    @given(measure_triples(st.floats(-1, 1)), st.sampled_from([1, 2]))
    def test_equal_counts_match_the_assignment(self, measures, p):
        mu, nu, _ = measures
        value = _transport_value(cdist(mu.atoms, nu.atoms) ** p)
        assert value == pytest.approx(wasserstein_p(mu, nu, p) ** p, rel=1e-12, abs=1e-300)


class TestHausdorff:
    def test_multiplicity_insensitive(self):
        mu = AtomicUniformMeasure([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        nu = AtomicUniformMeasure([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        assert hausdorff(mu, nu) == 0.0

    def test_hand_value(self):
        mu = AtomicUniformMeasure([0.0, 1.0])
        nu = AtomicUniformMeasure([0.1, 0.9])
        assert hausdorff(mu, nu) == pytest.approx(0.1)

    def test_dominated_by_w_inf(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            mu, nu = random_measure(rng, k, 2), random_measure(rng, k, 2)
            dh = hausdorff(mu, nu)
            winf = wasserstein_p(mu, nu, np.inf)
            w1 = wasserstein_p(mu, nu, 1)
            assert dh <= winf + ALGEBRAIC_TOL
            assert winf <= k * w1 + ALGEBRAIC_TOL


class TestClusterProfile:
    """The clustered reference (centers, multiplicities) that local_divergence takes."""

    def test_invariants(self):
        # delta_j = prod_{i != j} |c_i - c_j|^{r_i}: delta_1 = 1^2 * 2, delta_2 = 1 * sqrt(5),
        # delta_3 = 2 * sqrt(5)^2; moving cell j's atoms by s adds delta_j s^{r_j}
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        mult = np.array([1, 2, 1])
        mu0 = AtomicUniformMeasure(np.repeat(centers, mult, axis=0))
        s = 0.01
        for j, delta in enumerate([2.0, np.sqrt(5.0), 10.0]):
            shifted = mu0.atoms.copy()
            shifted[np.repeat(np.arange(3), mult) == j] += [s, 0.0]
            nu = AtomicUniformMeasure(shifted)
            assert local_divergence(centers, mult, mu0, nu) == pytest.approx(
                delta * s ** mult[j], rel=1e-12)

    def test_duplicate_centers_rejected(self):
        mu = AtomicUniformMeasure([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="distinct"):
            local_divergence([[0.0, 0.0], [0.0, 0.0]], [1, 1], mu, mu)

    @pytest.mark.parametrize("centers, mult, k, message", [
        ([[0.0, 0.0], [1.0, 0.0]], [2], 2, "one multiplicity per center"),
        ([[0.0, 0.0], [1.0, 0.0]], [2, 0], 2, "multiplicities must be >= 1"),
        ([[0.0, 0.0], [1.0, 0.0]], [1, 2], 2, "mu.k == nu.k"),
        ([0.0, 1.0], [1, 1], 2, "centers are 1-d but mu is 2-d and nu 2-d"),
        ([[0.0, 0.0]], [1.7], 1, "multiplicities must be integers"),
        ([[0.0, 0.0]], [np.nan], 1, "multiplicities must be integers"),
    ])
    def test_invalid_profiles_rejected(self, centers, mult, k, message):
        mu = AtomicUniformMeasure(np.zeros((k, 2)))
        with pytest.raises(ValueError, match=message):
            local_divergence(centers, mult, mu, mu)


class TestVoronoiAssign:
    """Each atom falls in the Voronoi cell of its nearest center, ties to the lowest index."""

    def test_reference_atoms_stay_home(self):
        # against a copy shifted by s, every cell pairs its own atoms: delta = (1, 1)
        centers, mult = [[0.0, 0.0], [1.0, 0.0]], [2, 1]
        mu0 = AtomicUniformMeasure([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert local_divergence(centers, mult, mu0, mu0) == 0.0
        shifted = AtomicUniformMeasure(mu0.atoms + [0.0, 0.1])
        assert local_divergence(centers, mult, mu0, shifted) == pytest.approx(0.1**2 + 0.1)

    def test_tie_goes_to_lowest_index(self):
        # the midpoint joins cell 0 and meets nu's 0.4 there; in cell 1 it would
        # leave cell 0 empty against nu's nonempty one, giving 1
        centers = [[0.0, 0.0], [1.0, 0.0]]
        mu = AtomicUniformMeasure([[0.5, 0.0], [1.0, 0.0]])
        nu = AtomicUniformMeasure([[0.4, 0.0], [1.0, 0.0]])
        assert local_divergence(centers, [1, 1], mu, nu) == pytest.approx(0.1, rel=1e-12)

    def test_clustered_draws_fill_cells(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mult = np.array([2, 1, 3])
        delta = np.array([1.0, 2.0 ** 1.5, np.sqrt(2.0)])
        label = np.repeat(np.arange(3), mult)
        for _ in range(20):
            # jitter below an eighth of the separation keeps each atom in its cluster's cell
            a, b = (np.repeat(centers, mult, axis=0) + rng.uniform(-1 / 8, 1 / 8, size=(6, 2))
                    for _ in range(2))
            expected = sum(
                delta[j] * wasserstein_p(AtomicUniformMeasure(a[label == j]),
                                         AtomicUniformMeasure(b[label == j]), 1) ** mult[j]
                for j in range(3)
            )
            got = local_divergence(centers, mult, AtomicUniformMeasure(a),
                                   AtomicUniformMeasure(b))
            assert got == pytest.approx(min(1.0, expected), rel=1e-12)


class TestLocalDivergence:
    def test_identity(self):
        mu = AtomicUniformMeasure([[0.05, 0.0], [0.95, 0.0], [1.05, 0.0]])
        assert local_divergence([[0.0, 0.0], [1.0, 0.0]], [1, 2], mu, mu) == 0.0

    def test_singleton_cells_hand_value(self):
        # delta = (1 * 1, 1 * sqrt(2), 1 * sqrt(2)) and each cell's W_1 is its shift
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        shift = np.array([[0.01, 0.0], [0.0, 0.02], [0.03, 0.0]])
        mu = AtomicUniformMeasure(centers)
        nu = AtomicUniformMeasure(centers + shift)
        expected = 0.01 + np.sqrt(2.0) * (0.02 + 0.03)
        assert local_divergence(centers, [1, 1, 1], mu, nu) == pytest.approx(expected)

    def test_flat_centers_are_points_on_the_line(self):
        # as for AtomicUniformMeasure, a flat array is k0 points, not one point
        mu = AtomicUniformMeasure([0.1, 0.9])
        nu = AtomicUniformMeasure([0.15, 0.9])
        assert local_divergence([0.0, 1.0], [1, 1], mu, mu) == 0.0
        assert (local_divergence([0.0, 1.0], [1, 1], mu, nu)
                == local_divergence([[0.0], [1.0]], [1, 1], mu, nu) == pytest.approx(0.05))

    def test_empty_vs_nonempty_caps_at_one(self):
        mu = AtomicUniformMeasure([[0.0, 0.0], [1.0, 0.0]])
        nu = AtomicUniformMeasure([[0.1, 0.0], [0.2, 0.0]])  # both in cell 0
        assert local_divergence([[0.0, 0.0], [1.0, 0.0]], [1, 1], mu, nu) == 1.0

    def test_unequal_cells_stay_small(self):
        # cell 0 holds 43 atoms of mu and 47 of nu; repeating them up to
        # lcm(43, 47) = 2021 would allocate about 31 MiB
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])

        def clusters(*counts):
            return AtomicUniformMeasure(np.vstack([
                c + rng.uniform(-1 / 8, 1 / 8, size=(n, 2)) for c, n in zip(centers, counts)]))

        mu, nu = clusters(43, 47), clusters(47, 43)
        tracemalloc.start()
        try:
            value = local_divergence(centers, [45, 45], mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value < 1.0
        assert peak < 4 * 2**20


@st.composite
def divergence_inputs(draw):
    """Distinct lattice centers, multiplicities 1-3, and two measures of k = sum r_j atoms."""
    d = draw(st.integers(1, 2))
    lattice = st.tuples(*[st.integers(0, 4)] * d)
    cells = draw(st.lists(lattice, min_size=1, max_size=3, unique=True))
    centers = 0.25 * np.array(cells, dtype=float)
    mult = draw(st.lists(st.integers(1, 3), min_size=len(cells), max_size=len(cells)))
    coords = st.floats(-0.5, 1.5, allow_nan=False)
    mu, nu = (
        AtomicUniformMeasure(np.array(draw(st.lists(
            st.lists(coords, min_size=d, max_size=d), min_size=sum(mult), max_size=sum(mult)))))
        for _ in range(2)
    )
    return centers, mult, mu, nu


class TestLocalDivergenceProperty:
    @given(divergence_inputs())
    def test_symmetric_zero_on_the_diagonal_and_in_unit_interval(self, inputs):
        centers, mult, mu, nu = inputs
        value = local_divergence(centers, mult, mu, nu)
        assert 0.0 <= value <= 1.0
        assert local_divergence(centers, mult, nu, mu) == pytest.approx(value, abs=1e-12)
        assert local_divergence(centers, mult, mu, mu) == 0.0


class TestPerturbMatchingMoments:
    def test_closed_form_two_atoms(self):
        mu = AtomicUniformMeasure([-1.0, 1.0])
        tau = 1e-3
        nu = perturb_matching_moments(mu, tau)
        assert np.allclose(np.sort(nu.atoms[:, 0]), [-np.sqrt(1 - tau), np.sqrt(1 - tau)])
        m_nu = exact_moments(nu, 2)
        assert abs(m_nu[0]) < 1e-12
        assert m_nu[1] == pytest.approx(1 - tau, abs=1e-12)

    def test_small_tau_converges(self):
        mu = AtomicUniformMeasure([0.1, 0.4, 0.9])
        prev = np.inf
        for tau in (1e-3, 1e-5, 1e-7):
            nu = perturb_matching_moments(mu, tau)
            dist = wasserstein_p(mu, nu, np.inf)
            assert dist < prev
            prev = dist
        assert prev < 1e-3

    def test_three_atoms_moment_match(self):
        mu = AtomicUniformMeasure([1.0, 2.0, 3.0])
        tau = 1e-4
        nu = perturb_matching_moments(mu, tau)
        m = exact_moments(nu, 3)
        assert abs(m[0] - 2.0) < 1e-8
        assert abs(m[1] - 14.0 / 3.0) < 1e-8
        assert abs(m[2] - 12.0) == pytest.approx(tau, rel=1e-3)
        assert wasserstein_p(mu, nu, 1) > 0

    def test_too_large_tau_rejected(self):
        mu = AtomicUniformMeasure([-0.01, 0.01])
        with pytest.raises(ValueError, match="smaller tau"):
            perturb_matching_moments(mu, 10.0)

    def test_moment_tail_property(self):
        rng = np.random.default_rng(17)
        for k in (2, 3, 4):
            atoms = np.sort(rng.uniform(-1, 1, size=k))
            while np.min(np.diff(atoms)) < 0.2:
                atoms = np.sort(rng.uniform(-1, 1, size=k))
            mu = AtomicUniformMeasure(atoms)
            nu = perturb_matching_moments(mu, 1e-5)
            m_mu, m_nu = exact_moments(mu, k), exact_moments(nu, k)
            for a in range(1, k):
                assert abs(m_mu[a - 1] - m_nu[a - 1]) < 1e-8
            assert abs(m_mu[k - 1] - m_nu[k - 1]) > 1e-6


class TestPerturbMatchingMomentsProperty:
    # atoms on a 0.1 lattice in [-1, 1], at least 0.2 apart; tau is a fraction
    # of the smallest |p| at a critical point of p(x) = prod (x - atom), so
    # p + tau keeps k distinct real roots
    @given(
        st.lists(st.integers(-10, 10), min_size=1, max_size=6, unique=True).filter(
            lambda ints: len(ints) < 2 or np.diff(np.sort(ints)).min() >= 2),
        st.floats(0.01, 0.5),
    )
    def test_first_k_minus_1_moments_kept_and_kth_shifted_by_tau(self, ints, fraction):
        atoms = 0.1 * np.array(ints, float)
        k = atoms.size
        critical = np.roots(np.polyder(np.poly(atoms))).real
        tau = fraction * (np.abs(np.polyval(np.poly(atoms), critical)).min() if k > 1 else 1.0)
        mu = AtomicUniformMeasure(atoms)
        nu = perturb_matching_moments(mu, tau)
        m_mu, m_nu = exact_moments(mu, k), exact_moments(nu, k)
        assert np.abs(m_nu[:-1] - m_mu[:-1]).max(initial=0.0) <= ALGEBRAIC_TOL
        assert abs(m_nu[-1] - (m_mu[-1] - tau)) <= ALGEBRAIC_TOL


class TestStabilityProbe:
    def test_ratio_bounded_on_random_pairs(self):
        # global comparison: W_1^k(mu, nu) <= C * M_k(mu, nu); probe boundedness
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            mu, nu = random_measure(rng, k, 2), random_measure(rng, k, 2)
            mk = moment_distance(exact_moments(mu, k), exact_moments(nu, k))
            if mk < 1e-9:
                continue
            ratio = wasserstein_p(mu, nu, 1) ** k / mk
            worst = max(worst, ratio)
        assert np.isfinite(worst)
        assert worst < 1e6
