import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from poisson_deconv import mm
from poisson_deconv.em import EmConfig, log_likelihood
from poisson_deconv.kernels import GaussianKernel, UniformBoxKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.observation import (
    BinGrid,
    CountImage,
    noiseless,
    replicate_seed,
    simulate,
)
from poisson_deconv.pipeline import (
    PartitionConfig,
    allocate_components,
    denoise_and_crop,
    mode_selection,
    partition,
    run_pipeline,
)


def spike_image(grid, hot_bins, t=100.0):
    counts = np.zeros(grid.m)
    for j, v in hot_bins.items():
        counts[j] = v
    return CountImage(grid, counts, t)


@pytest.fixture
def grid10():
    return BinGrid([0, 0], [1, 1], (10, 10))


class TestPartitionConfig:
    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_rejects_non_finite_link_threshold(self, threshold):
        with pytest.raises(ValueError, match="link_threshold must be positive and finite"):
            PartitionConfig(mode_count=2, k=2, link_threshold=threshold)

    @pytest.mark.parametrize("widths", [(-1, 0.1), (0.1, 0.0), (0.1, np.nan), (np.inf, 0.1),
                                        (0.1,), (0.1, 0.1, 0.1)])
    def test_rejects_mode_half_widths_other_than_two_positive_finite(self, widths):
        with pytest.raises(ValueError, match="mode_half_widths must be two positive, finite"):
            PartitionConfig(mode_count=2, k=2, mode_half_widths=widths)


class TestModeSelection:
    def test_single_spike_exact_subtraction(self, grid10):
        img = spike_image(grid10, {55: 40.0})
        res = mode_selection(img, UniformBoxKernel([0.15, 0.15]), 1)
        assert res.modes.shape == (1, 2)
        assert np.allclose(res.modes[0], grid10.anchors()[55])
        assert res.residual.counts[55] <= 1e-12 * 40.0

    def test_tie_breaks_to_lowest_index(self, grid10):
        img = spike_image(grid10, {12: 30.0, 77: 30.0})
        res = mode_selection(img, UniformBoxKernel([0.05, 0.05]), 1)
        assert np.allclose(res.modes[0], grid10.anchors()[12])

    def test_residual_bounds(self, grid10):
        rng = np.random.default_rng(0)
        img = CountImage(grid10, rng.integers(0, 50, grid10.m).astype(float), 10.0)
        res = mode_selection(img, UniformBoxKernel([0.2, 0.2]), 5)
        assert np.all(res.residual.counts >= 0)
        assert np.all(res.residual.counts <= img.counts + 1e-12)

    def test_residual_mass_nonincreasing(self, grid10):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 30, grid10.m).astype(float)
        masses = []
        residual = counts
        kern = UniformBoxKernel([0.12, 0.12])
        for n_modes in range(1, 6):
            res = mode_selection(CountImage(grid10, counts, 5.0), kern, n_modes)
            masses.append(res.residual.counts.sum())
        assert all(b <= a + 1e-9 for a, b in zip(masses, masses[1:]))

    def test_early_stop_flag(self, grid10):
        img = spike_image(grid10, {3: 10.0})
        res = mode_selection(img, UniformBoxKernel([0.3, 0.3]), 8)
        assert res.modes.shape[0] < 8


class TestPartition:
    def test_far_modes_one_cell_each(self, grid10):
        modes = np.array([[0.2, 0.2], [0.8, 0.8]])
        masks = partition(modes, grid10, 0.1)
        assert len(masks) == 2

    def test_chained_modes_merge(self, grid10):
        modes = np.array([[0.2, 0.5], [0.45, 0.5], [0.7, 0.5]])
        masks = partition(modes, grid10, 0.3)
        assert len(masks) == 1
        assert masks[0].all()

    def test_masks_partition_window(self, grid10):
        rng = np.random.default_rng(2)
        modes = rng.uniform(0, 1, size=(6, 2))
        masks = partition(modes, grid10, 0.25)
        stack = np.stack(masks)
        assert np.all(stack.sum(axis=0) == 1)

    def test_masks_equal_each_components_owned_bins(self):
        # reference: a bin is in a component's mask when the mode owning it
        # is one of the component's members
        grid = BinGrid([0, 0], [1, 1.5], (13, 17))
        rng = np.random.default_rng(5)
        for n_modes in (1, 3, 6, 12):
            modes = rng.uniform([0, 0], [1, 1.5], size=(n_modes, 2))
            owner = np.argmin(cdist(grid.anchors(), modes), axis=1)
            n_comp, labels = connected_components(
                csr_matrix(cdist(modes, modes) < 0.4), directed=False)
            expected = [np.isin(owner, np.flatnonzero(labels == comp))
                        for comp in range(n_comp)]
            masks = partition(modes, grid, 0.4)
            assert len(masks) == n_comp
            for mask, want in zip(masks, expected):
                np.testing.assert_array_equal(mask, want)


class TestEvenRoundAllocation:
    def test_equal_masses(self):
        assert allocate_components([50.0, 50.0], 4) == [2, 2]

    def test_odd_k_gives_the_last_unit_to_one_cell(self):
        alloc = allocate_components([50.0, 50.0, 20.0], 5)
        # shares 2.08, 2.08, 0.83: pairs 1, 1, 0, and the odd unit goes to
        # the largest share left over, 0.83
        assert alloc == [2, 2, 1]
        assert sum(alloc) == 5

    def test_largest_remainder_pairs(self):
        masses = 25 * np.array([339.0, 413.0, 344.0, 504.0])
        # pair quotas 1.695, 2.065, 1.72, 2.52: floors 1, 2, 1, 2 and the two
        # pairs left go to the fractions 0.72 and 0.695; rounding each share
        # to the nearest even count would give 4, 4, 4, 6
        assert allocate_components(masses, 16) == [4, 4, 4, 4]


class TestDenoiseAndCrop:
    def test_zero_residual_crops_only(self, grid10):
        counts = np.zeros(grid10.m)
        counts[33] = 7.0  # iy=3, ix=3
        img = CountImage(grid10, counts, 5.0)
        residual = CountImage(grid10, np.zeros(grid10.m), np.inf)
        mask = np.ones(grid10.m, bool)
        sub = denoise_and_crop(img, residual, mask)
        assert sub.grid.resolution == (1, 1)
        assert sub.counts[0] == 7.0
        assert np.allclose(sub.grid.window_lo, [0.3, 0.3])

    def test_full_residual_empties_cell(self, grid10):
        counts = np.full(grid10.m, 3.0)
        img = CountImage(grid10, counts, 5.0)
        residual = CountImage(grid10, counts, np.inf)
        assert denoise_and_crop(img, residual, np.ones(grid10.m, bool)) is None

    def test_crop_keeps_positive_pixels(self, grid10):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 4, grid10.m).astype(float)
        img = CountImage(grid10, counts, 5.0)
        residual = CountImage(grid10, np.zeros(grid10.m), np.inf)
        mask = np.zeros(grid10.m, bool)
        mask[grid10.m // 2 :] = True
        sub = denoise_and_crop(img, residual, mask)
        assert sub.counts.sum() == (counts * mask).sum()


def make_two_cluster_image(seed=0, t=2e5):
    kernel = GaussianKernel(sigma=0.05, dim=2)
    truth = AtomicUniformMeasure(
        [[0.25, 0.25], [0.25, 0.25], [0.75, 0.75], [0.75, 0.75]]
    )
    grid = BinGrid([0, 0], [1, 1], (60, 60))
    img = simulate(kernel, truth, grid, t, seed=seed)
    return kernel, truth, grid, img


def four_clusters():
    """16 atoms: 4 clusters at {0.25, 0.75}^2, atoms at (+-0.04, +-0.04) offsets."""
    return AtomicUniformMeasure([
        (cx + dx, cy + dy) for cy in (0.25, 0.75) for cx in (0.25, 0.75)
        for dy in (-0.04, 0.04) for dx in (-0.04, 0.04)
    ])


class TestRunPipeline:
    def make_config(self):
        return PartitionConfig(
            mode_count=6,
            k=4,
            mode_half_widths=(0.08, 0.08),
            link_threshold=0.2,
            em=EmConfig(max_iterations=25),
        )

    def test_rejects_a_line_image(self):
        img = CountImage(BinGrid([0.0], [1.0], (20,)), np.ones(20), 20.0)
        with pytest.raises(ValueError, match="got a 1-d image and a 2-d kernel"):
            run_pipeline(img, GaussianKernel(sigma=0.05), self.make_config())

    def test_rejects_a_line_kernel_on_a_planar_image(self):
        _, _, _, img = make_two_cluster_image(seed=4)
        with pytest.raises(ValueError, match="got a 2-d image and a 1-d kernel"):
            run_pipeline(img, GaussianKernel(sigma=0.05, dim=1), self.make_config())

    def test_two_cluster_recovery(self):
        kernel, truth, grid, img = make_two_cluster_image(seed=4)
        result = run_pipeline(img, kernel, self.make_config())
        assert result.estimate is not None
        centers = np.array([[0.25, 0.25], [0.75, 0.75]])
        dists = np.linalg.norm(
            result.estimate.atoms[:, None, :] - centers[None, :, :], axis=2
        )
        assert np.all(dists.min(axis=0) < 0.03)

    def test_cell_masks_partition_and_atoms_in_bbox(self):
        kernel, truth, grid, img = make_two_cluster_image(seed=5)
        result = run_pipeline(img, kernel, self.make_config())
        stack = np.stack([c.mask for c in result.cells])
        assert np.all(stack.sum(axis=0) == 1)
        pad = 3 * kernel.spread()
        anchors = grid.anchors()
        for cell in result.cells:
            if cell.estimate is None:
                continue
            pts = anchors[cell.mask]
            lo, hi = pts.min(axis=0) - pad, pts.max(axis=0) + pad
            assert np.all(cell.estimate.atoms >= lo - 1e-9)
            assert np.all(cell.estimate.atoms <= hi + 1e-9)

    def test_deterministic(self):
        kernel, truth, grid, img = make_two_cluster_image(seed=6)
        r1 = run_pipeline(img, kernel, self.make_config())
        r2 = run_pipeline(img, kernel, self.make_config())
        assert np.array_equal(r1.estimate.atoms, r2.estimate.atoms)

    def test_single_cluster_equals_direct_estimation(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        truth = AtomicUniformMeasure([[0.45, 0.5], [0.55, 0.5]])
        grid = BinGrid([0, 0], [1, 1], (40, 40))
        img = simulate(kernel, truth, grid, 1e5, seed=7)
        config = PartitionConfig(
            mode_count=1, k=2, mode_half_widths=(0.1, 0.1), link_threshold=0.2,
            em=EmConfig(max_iterations=25),
        )
        result = run_pipeline(img, kernel, config)
        assert len([c for c in result.cells if c.estimate is not None]) == 1
        assert result.estimate.k == 2
        dists = np.linalg.norm(
            np.sort(result.estimate.atoms, axis=0) - np.sort(truth.atoms, axis=0),
            axis=1,
        )
        assert np.all(dists < 0.05)

    def test_order_invariance(self):
        # MM on every cell in reverse order, merged and refined on the full
        # image, gives the pipeline's atom multiset
        from poisson_deconv.mm import mm_complex
        from poisson_deconv.em import maximize_likelihood

        kernel, truth, grid, img = make_two_cluster_image(seed=9)
        config = self.make_config()
        result = run_pipeline(img, kernel, config)
        residual = result.residual
        atoms = []
        for cell in reversed(result.cells):
            if cell.k_assigned == 0:
                continue
            sub = denoise_and_crop(img, residual, cell.mask)
            if sub is None:
                continue
            atoms.append(mm_complex(sub, kernel, cell.k_assigned).atoms)
        refined, _ = maximize_likelihood(
            img, kernel, AtomicUniformMeasure(np.vstack(atoms)), config.em)
        a = refined.atoms[np.lexsort(refined.atoms.T)]
        b = result.estimate.atoms[np.lexsort(result.estimate.atoms.T)]
        assert np.allclose(a, b, atol=1e-12)

    def test_refinement_raises_the_likelihood_of_the_merged_cells(self):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        img = simulate(kernel, four_clusters(), BinGrid([0, 0], [1, 1], (80, 80)), 1e5,
                       replicate_seed(1, 0))
        config = PartitionConfig(
            mode_count=8, k=16, mode_half_widths=(0.08, 0.08), link_threshold=0.2
        )
        result = run_pipeline(img, kernel, config)
        merged = AtomicUniformMeasure(
            np.vstack([c.estimate.atoms for c in result.cells if c.estimate is not None]))
        refined = log_likelihood(img, kernel, result.estimate)
        assert refined >= log_likelihood(img, kernel, merged)
        assert result.trace.status == ["improved"]
        assert result.trace.loglik == [pytest.approx(refined, rel=1e-12)]

    def test_noiseless_four_clusters(self):
        # each cell's exposure is its own mass, so a cell holding 4 of the 16
        # atoms is not read as a quarter of a 4-atom image
        kernel = GaussianKernel(sigma=0.05, dim=2)
        truth = four_clusters()
        img = noiseless(kernel, truth, BinGrid([0, 0], [1, 1], (80, 80)))
        config = PartitionConfig(
            mode_count=8, k=16, mode_half_widths=(0.08, 0.08), link_threshold=0.2
        )
        result = run_pipeline(img, kernel, config)
        assert result.estimate.k == 16
        assert wasserstein_p(result.estimate, truth, 1) <= 1e-6

    def test_a_cell_whose_roots_fail_is_flagged_and_the_others_are_refined(self, monkeypatch,
                                                                          caplog):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        img = noiseless(kernel, four_clusters(), BinGrid([0, 0], [1, 1], (80, 80)))
        config = PartitionConfig(
            mode_count=8, k=16, mode_half_widths=(0.08, 0.08), link_threshold=0.2
        )
        expected = run_pipeline(img, kernel, config)
        real_roots, calls = mm.complex_roots, []

        def planted(coeffs):
            # cell 1's row gets NaN roots, as when both root paths fail
            calls.append(coeffs.shape)
            roots = real_roots(coeffs)
            roots[1] = np.nan
            return roots

        monkeypatch.setattr(mm, "complex_roots", planted)
        with caplog.at_level("WARNING", logger="poisson_deconv.pipeline"):
            result = run_pipeline(img, kernel, config)
        assert calls == [(4, 5)]  # every cell has k = 4: one stacked solve
        [record] = caplog.records
        assert record.getMessage().startswith("cell 1 failed: root finding failed")
        failed = result.cells[1]
        assert failed.estimate is None
        assert failed.flags == ["estimation_failed: root finding failed: Aberth iteration and "
                                "companion-matrix fallback both exceeded the residual bound"]
        for cell, alone in zip(result.cells, expected.cells):
            if cell is not failed:
                assert cell.flags == [] and np.array_equal(cell.estimate.atoms,
                                                           alone.estimate.atoms)
        assert result.estimate.k == 12 and result.trace.status == ["improved"]

    def test_an_image_without_counts_has_no_modes_and_no_cells(self):
        img = CountImage(BinGrid([0, 0], [1, 1], (10, 10)), np.zeros(100), 10.0)
        result = run_pipeline(img, GaussianKernel(sigma=0.05), self.make_config())
        assert result.modes.shape[0] == 0 and result.cells == []
        assert result.estimate is None and result.trace is None

    def test_when_every_cell_fails_nothing_is_refined(self, monkeypatch):
        kernel = GaussianKernel(sigma=0.05, dim=2)
        img = noiseless(kernel, four_clusters(), BinGrid([0, 0], [1, 1], (80, 80)))
        config = PartitionConfig(
            mode_count=8, k=16, mode_half_widths=(0.08, 0.08), link_threshold=0.2
        )
        monkeypatch.setattr(mm, "complex_roots",
                            lambda coeffs: np.full((coeffs.shape[0], coeffs.shape[1] - 1), np.nan))
        result = run_pipeline(img, kernel, config)
        assert [cell.k_assigned for cell in result.cells] == [4, 4, 4, 4]
        for cell in result.cells:
            assert cell.estimate is None and cell.flags[0].startswith("estimation_failed: ")
        assert result.estimate is None and result.trace is None

    def test_cells_of_each_k_are_inverted_in_one_call(self, monkeypatch):
        # clusters of 4, 2 and 2 atoms: the cells get k = 4, 2, 2
        kernel = GaussianKernel(sigma=0.05, dim=2)
        truth = AtomicUniformMeasure(
            [(0.25 + dx, 0.25 + dy) for dy in (-0.04, 0.04) for dx in (-0.04, 0.04)]
            + [(0.75 + dx, 0.75) for dx in (-0.04, 0.04)]
            + [(0.25, 0.75 + dy) for dy in (-0.04, 0.04)])
        img = noiseless(kernel, truth, BinGrid([0, 0], [1, 1], (80, 80)))
        config = PartitionConfig(
            mode_count=8, k=8, mode_half_widths=(0.08, 0.08), link_threshold=0.2
        )
        real_roots, calls = mm.complex_roots, []

        def recorded(coeffs):
            calls.append(coeffs.shape)
            return real_roots(coeffs)

        monkeypatch.setattr(mm, "complex_roots", recorded)
        result = run_pipeline(img, kernel, config)
        assert [cell.k_assigned for cell in result.cells] == [4, 2, 2]
        assert calls == [(1, 5), (2, 3)]
        monkeypatch.setattr(mm, "complex_roots", real_roots)
        for cell in result.cells:
            sub = denoise_and_crop(img, result.residual, cell.mask)
            alone = mm.mm_complex(sub, kernel, cell.k_assigned)
            assert cell.flags == [] and np.array_equal(cell.estimate.atoms, alone.atoms)

    def test_cell_counts_sum_to_k(self):
        # a noisy four-cluster image whose cell shares of k = 16 are 3.39,
        # 4.13, 3.44 and 5.04; rounding each to an even count gives 18 atoms
        kernel = GaussianKernel(sigma=0.05, dim=2)
        truth = four_clusters()
        img = simulate(kernel, truth, BinGrid([0, 0], [1, 1], (80, 80)), 1e5,
                       replicate_seed(5, 50))
        config = PartitionConfig(
            mode_count=8, k=16, mode_half_widths=(0.08, 0.08), link_threshold=0.2,
            em=EmConfig(max_iterations=1),
        )
        result = run_pipeline(img, kernel, config)
        shares = [16 * cell.mass_ratio for cell in result.cells]
        assert shares == pytest.approx([3.39, 4.13, 3.44, 5.04], abs=0.005)
        assert [cell.k_assigned for cell in result.cells] == [4, 4, 4, 4]
        assert result.estimate.k == 16

    def test_k_p_invariants(self):
        kernel, truth, grid, img = make_two_cluster_image(seed=8)
        result = run_pipeline(img, kernel, self.make_config())
        for cell in result.cells:
            assert cell.k_assigned % 2 == 0
            assert cell.k_assigned >= 0
            if cell.k_assigned > 0 and cell.estimate is not None:
                assert cell.estimate.k == cell.k_assigned
