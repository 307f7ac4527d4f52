import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisson_deconv.measures import (
    AtomicUniformMeasure,
    ClusterProfile,
    exact_moments,
    hausdorff,
    local_divergence,
    moment_distance,
    multi_indices,
    perturb_matching_moments,
    voronoi_assign,
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

    def test_multi_indices_by_degree_then_first_index(self):
        assert multi_indices(2, 1) == [(0,), (1,), (2,)]
        assert multi_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        family = multi_indices(3, 3)
        assert len(family) == 20  # C(3 + 3, 3)
        assert family[:4] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


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
def measure_triples(draw, coordinate):
    """Three uniform measures with the same k (1..6) and dimension (1 or 2)."""
    k, d = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2]))
    return tuple(
        AtomicUniformMeasure(np.reshape(
            draw(st.lists(coordinate, min_size=k * d, max_size=k * d)), (k, d)))
        for _ in range(3)
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
        with pytest.raises(ValueError):
            wasserstein_p(AtomicUniformMeasure([0.0]), AtomicUniformMeasure([0.0, 1.0]), 1)

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
    def test_invariants(self):
        prof = ClusterProfile([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [1, 2, 1])
        assert prof.k == 4
        assert prof.separation == pytest.approx(1.0)
        w = prof.cell_weights
        # delta_1 = |c2-c1|^2 * |c3-c1|^1 = 1^2 * 2 = 2, etc.
        assert w[0] == pytest.approx(1.0**2 * 2.0)
        assert w[1] == pytest.approx(1.0 * np.sqrt(5.0))
        assert w[2] == pytest.approx(2.0 * np.sqrt(5.0) ** 2)
        assert np.all(w > 0)
        assert prof.mu0.k == 4

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ValueError):
            ClusterProfile([[0.0, 0.0], [0.0, 0.0]], [1, 1])

    def test_caller_arrays_stay_writeable(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        multiplicities = np.array([1, 2])
        prof = ClusterProfile(centers, multiplicities)
        centers[1, 0] = 5.0
        multiplicities[1] = 7
        assert prof.separation == 1.0
        assert prof.k == 3
        assert not prof.centers.flags.writeable


class TestVoronoiAssign:
    def test_reference_atoms_stay_home(self):
        prof = ClusterProfile([[0.0, 0.0], [1.0, 0.0]], [2, 1])
        cells = voronoi_assign(prof, prof.mu0)
        assert cells[0].k == 2 and cells[1].k == 1
        assert np.allclose(cells[0].atoms, [[0.0, 0.0], [0.0, 0.0]])

    def test_tie_goes_to_lowest_index(self):
        prof = ClusterProfile([[0.0, 0.0], [1.0, 0.0]], [1, 1])
        cells = voronoi_assign(prof, AtomicUniformMeasure([[0.5, 0.0], [0.9, 0.0]]))
        assert cells[0].k == 1 and cells[1].k == 1
        assert np.allclose(cells[0].atoms, [[0.5, 0.0]])

    def test_clustered_draws_fill_cells(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mult = np.array([2, 1, 3])
        prof = ClusterProfile(centers, mult)
        delta = prof.separation
        for _ in range(20):
            jitter = rng.uniform(-delta / 8, delta / 8, size=(prof.k, 2))
            mu = AtomicUniformMeasure(np.repeat(centers, mult, axis=0) + jitter)
            cells = voronoi_assign(prof, mu)
            assert [c.k if c else 0 for c in cells] == list(mult)


class TestLocalDivergence:
    def test_identity(self):
        prof = ClusterProfile([[0.0, 0.0], [1.0, 0.0]], [1, 2])
        mu = AtomicUniformMeasure([[0.05, 0.0], [0.95, 0.0], [1.05, 0.0]])
        assert local_divergence(prof, mu, mu) == 0.0

    def test_singleton_cells_hand_value(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        prof = ClusterProfile(centers, [1, 1, 1])
        shift = np.array([[0.01, 0.0], [0.0, 0.02], [0.03, 0.0]])
        mu = AtomicUniformMeasure(centers)
        nu = AtomicUniformMeasure(centers + shift)
        expected = min(
            1.0,
            float(np.sum(prof.cell_weights * np.linalg.norm(shift, axis=1))),
        )
        assert local_divergence(prof, mu, nu) == pytest.approx(expected)

    def test_empty_vs_nonempty_caps_at_one(self):
        prof = ClusterProfile([[0.0, 0.0], [1.0, 0.0]], [1, 1])
        mu = AtomicUniformMeasure([[0.0, 0.0], [1.0, 0.0]])
        nu = AtomicUniformMeasure([[0.1, 0.0], [0.2, 0.0]])  # both in cell 0
        assert local_divergence(prof, mu, nu) == 1.0


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
