import json
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisson_deconv.kernels import GaussianKernel
from poisson_deconv.measures import AtomicUniformMeasure
from poisson_deconv.observation import (
    BinGrid,
    CountImage,
    DimensionMismatchError,
    MalformedCountError,
    MetadataError,
    NegativeCountError,
    NonFiniteCountError,
    intensities,
    load_image,
    noiseless,
    poisson_image,
    replicate_seed,
    save_image,
    simulate,
)


@pytest.fixture
def setup_2d():
    kernel = GaussianKernel(sigma=0.08, dim=2)
    mu = AtomicUniformMeasure([[0.35, 0.45], [0.65, 0.6]])
    grid = BinGrid([0, 0], [1, 1], (12, 12))
    return kernel, mu, grid


class TestBinGrid:
    def test_partition_exact(self):
        grid = BinGrid([0, 0], [1, 2], (4, 5))
        assert grid.m == 20
        assert np.allclose(grid.bin_widths, [0.25, 0.4])
        covered = np.outer(np.diff(grid.axis_edges(1)), np.diff(grid.axis_edges(0)))
        assert covered.size == grid.m
        assert covered.sum() == pytest.approx(2.0)

    def test_row_major_ordering(self):
        grid = BinGrid([0, 0], [4, 3], (4, 3))
        anchors = grid.anchors()
        assert np.allclose(anchors[1], [1.5, 0.5])  # second bin: ix=1, iy=0
        assert np.allclose(anchors[4], [0.5, 1.5])  # ix=0, iy=1

    def test_anchors_center_and_corner(self):
        # anchors are bin centres, half a bin in from the window's corners
        grid = BinGrid([0, 0], [1, 1], (2, 2))
        centers = grid.anchors()
        assert np.allclose(centers[0], [0.25, 0.25])
        assert np.allclose(centers[3], [0.75, 0.75])
        assert np.allclose(centers[0] - grid.window_lo, grid.bin_widths / 2)
        assert np.allclose(grid.window_hi - centers[-1], grid.bin_widths / 2)

    def test_caller_window_stays_writeable(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        grid = BinGrid(lo, hi, (2, 2))
        lo[0], hi[1] = -3.0, 9.0
        np.testing.assert_array_equal(grid.window_lo, [0.0, 0.0])
        np.testing.assert_array_equal(grid.window_hi, [1.0, 2.0])
        assert not grid.window_lo.flags.writeable

    def test_axis_edges_stored_read_only(self):
        lo, hi = np.array([0.1, -2.0]), np.array([1.3, 5.0])
        grid = BinGrid(lo, hi, (7, 13))
        for axis, n in enumerate((7, 13)):
            edges = grid.axis_edges(axis)
            np.testing.assert_array_equal(edges, np.linspace(lo[axis], hi[axis], n + 1))
            assert edges is grid.axis_edges(axis)
            assert not edges.flags.writeable
            with pytest.raises(ValueError):
                edges[0] = 0.0
            assert not np.shares_memory(edges, lo) and not np.shares_memory(edges, hi)
        assert grid.m == 91

    @pytest.mark.parametrize("lo, hi", [
        ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0]), ([-np.inf, 0.0], [1.0, 1.0]),
        ([0.0], [np.nan]),
    ])
    def test_non_finite_window_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            BinGrid(lo, hi, (2, 2)[:len(lo)])

    def test_diameter_bound(self):
        # regular grid satisfies diam(B_i) <= C m^{-1/d} by construction
        for n in (10, 20, 40):
            grid = BinGrid([0, 0], [1, 1], (n, n))
            diam = np.linalg.norm(grid.bin_widths)
            assert diam <= np.sqrt(2) * grid.m ** (-1 / 2) + 1e-12


class TestSimulate:
    def test_determinism(self, setup_2d):
        kernel, mu, grid = setup_2d
        a = simulate(kernel, mu, grid, 1e4, seed=42)
        b = simulate(kernel, mu, grid, 1e4, seed=42)
        assert np.array_equal(a.counts, b.counts)
        c = simulate(kernel, mu, grid, 1e4, seed=43)
        assert not np.array_equal(a.counts, c.counts)

    def test_mean_matches_intensity(self, setup_2d):
        kernel, mu, grid = setup_2d
        t, reps = 50.0, 10_000
        lam = intensities(kernel, mu, grid)
        # accumulate replicate means for the brightest bin
        j = int(np.argmax(lam))
        vals = np.array([
            simulate(kernel, mu, grid, t, seed=replicate_seed(7, 0, r)).counts[j]
            for r in range(reps)
        ])
        mean = vals.mean() / t
        se = vals.std(ddof=1) / np.sqrt(reps) / t
        assert abs(mean - lam[j]) < 4 * se

    def test_variance_matches_mean(self, setup_2d):
        kernel, mu, grid = setup_2d
        t, reps = 80.0, 10_000
        lam = intensities(kernel, mu, grid)
        j = int(np.argmax(lam))
        vals = np.array([
            simulate(kernel, mu, grid, t, seed=replicate_seed(8, 0, r)).counts[j]
            for r in range(reps)
        ])
        var = vals.var(ddof=1)
        target = t * lam[j]
        # Var of sample variance of Poisson ~ (2 lam^2 + lam)/n
        se = np.sqrt((2 * target**2 + target) / reps)
        assert abs(var - target) < 5 * se

    def test_t_validation(self, setup_2d):
        kernel, mu, grid = setup_2d
        with pytest.raises(ValueError):
            simulate(kernel, mu, grid, np.inf, seed=0)
        with pytest.raises(ValueError):
            simulate(kernel, mu, grid, 0.0, seed=0)


class TestPoissonImage:
    def test_draw_matches_simulate_bit_for_bit(self, setup_2d):
        kernel, mu, grid = setup_2d
        lam = np.clip(intensities(kernel, mu, grid), 0.0, None)
        for seed in (0, 42, replicate_seed(3, 1, 2)):
            drawn = poisson_image(grid, lam, 1e4, seed)
            assert drawn.grid is grid and drawn.t == 1e4
            np.testing.assert_array_equal(
                drawn.counts, simulate(kernel, mu, grid, 1e4, seed).counts
            )

    @pytest.mark.parametrize("t", [np.inf, 0.0])
    def test_t_validation(self, setup_2d, t):
        kernel, mu, grid = setup_2d
        with pytest.raises(ValueError):
            poisson_image(grid, intensities(kernel, mu, grid), t, seed=0)


class TestNoiseless:
    def test_total_mass(self, setup_2d):
        kernel, mu, grid = setup_2d
        img = noiseless(kernel, mu, grid)
        assert img.noiseless
        assert img.total() == pytest.approx(
            intensities(kernel, mu, grid).sum(), abs=1e-12
        )
        assert img.total() == pytest.approx(1.0, abs=1e-4)

    def test_large_t_limit(self, setup_2d):
        # law of large numbers: X_i / t approaches the intensity at rate
        # 1/sqrt(t * lam_i); 1e-3 relative wherever that rate resolves it
        kernel, mu, grid = setup_2d
        exact = noiseless(kernel, mu, grid)
        t = 1e8
        sim = simulate(kernel, mu, grid, t, seed=3)
        mask = exact.counts > 1e-3
        lam = exact.counts[mask]
        rel = np.abs(sim.counts[mask] / t - lam) / lam
        tol = np.maximum(1e-3, 5.0 / np.sqrt(t * lam))
        assert np.all(rel < tol)

    def test_reflection_symmetry(self):
        kernel = GaussianKernel(sigma=0.1, dim=2)
        mu = AtomicUniformMeasure([[0.5, 0.5]])
        grid = BinGrid([0, 0], [1, 1], (8, 8))
        img = noiseless(kernel, mu, grid).as_2d()
        assert np.allclose(img, img[::-1, :], atol=1e-15)
        assert np.allclose(img, img[:, ::-1], atol=1e-15)

    def test_replicate_average_converges(self, setup_2d):
        # per-bin error of the replicate average shrinks at 1/sqrt(R * t);
        # the additive floor covers near-empty bins where a single photon
        # already moves the average by 1/(R*t)
        kernel, mu, grid = setup_2d
        exact = noiseless(kernel, mu, grid)
        t, reps = 200.0, 200
        acc = np.zeros(grid.m)
        for r in range(reps):
            acc += simulate(kernel, mu, grid, t, seed=replicate_seed(11, 0, r)).counts
        avg = acc / (reps * t)
        band = 4 * np.sqrt(exact.counts / (reps * t)) + 2.0 / (reps * t)
        assert np.all(np.abs(avg - exact.counts) < band)


class TestImageIO:
    def test_roundtrip(self, setup_2d, tmp_path):
        kernel, mu, grid = setup_2d
        img = simulate(kernel, mu, grid, 1e4, seed=1)
        save_image(img, tmp_path)
        back = load_image(tmp_path)
        assert np.array_equal(back.counts, img.counts)
        assert back.t == img.t
        assert np.allclose(back.grid.window_hi, img.grid.window_hi)

    def test_format_definition(self, tmp_path):
        (tmp_path / "image.csv").write_text("0,1\n2,3\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0, "units": "au", "t": 10}'
        )
        img = load_image(tmp_path)
        assert np.array_equal(img.counts, [0, 1, 2, 3])

    def test_window_from_pixel_size(self, tmp_path):
        rows = "\n".join(",".join("0" for _ in range(600)) for _ in range(600))
        (tmp_path / "image.csv").write_text(rows + "\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 600, "height_px": 600, "pixel_size": 10.0, "units": "nm", "t": 5}'
        )
        img = load_image(tmp_path)
        assert np.allclose(img.grid.window_hi, [6000.0, 6000.0])

    def test_negative_count_located(self, tmp_path):
        (tmp_path / "image.csv").write_text("0,1\n2,-3\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0, "t": 10}'
        )
        with pytest.raises(NegativeCountError, match="row 1, column 1"):
            load_image(tmp_path)

    @pytest.mark.parametrize("token", ["abc", "", "1e", "3;4"])
    def test_unparsable_token_located(self, tmp_path, token):
        (tmp_path / "image.csv").write_text("0,1\n\n2,%s\n" % token)
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0, "t": 10}'
        )
        with pytest.raises(MalformedCountError, match="row 2, column 1"):
            load_image(tmp_path)

    @pytest.mark.parametrize("t", ["10", '"inf"'])
    def test_nan_token_rejected(self, tmp_path, t):
        (tmp_path / "image.csv").write_text("0,1\n2,nan\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0, "t": %s}' % t
        )
        with pytest.raises(NonFiniteCountError):
            load_image(tmp_path)

    def test_dimension_mismatch(self, tmp_path):
        (tmp_path / "image.csv").write_text("0,1,5\n2,3,4\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0, "t": 10}'
        )
        with pytest.raises(DimensionMismatchError):
            load_image(tmp_path)

    def test_malformed_metadata(self, tmp_path):
        (tmp_path / "image.csv").write_text("0,1\n2,3\n")
        (tmp_path / "image.json").write_text('{"width_px": 2}')
        with pytest.raises(MetadataError, match="height_px"):
            load_image(tmp_path)

    @pytest.mark.parametrize("override", [
        {"origin": {"x": 1}}, {"origin": [0]}, {"origin": [0, 0, 0]}, {"origin": "ab"},
        {"origin": [[0, 0]]}, {"origin": [np.nan, 0]}, {"origin": [0, np.inf]},
        {"pixel_size": np.nan}, {"pixel_size": np.inf}, {"pixel_size_y": np.nan},
        {"pixel_size_y": np.inf}, {"width_px": np.inf}, {"width_px": 3.9}, {"width_px": 2.0},
        {"height_px": True}, {"height_px": "2"},
    ])
    def test_malformed_geometry_is_a_metadata_error(self, tmp_path, override):
        (tmp_path / "image.csv").write_text("0,1\n2,3\n")
        meta = {"width_px": 2, "height_px": 2, "pixel_size": 1.0, "t": 10, **override}
        (tmp_path / "image.json").write_text(json.dumps(meta))
        with pytest.raises(MetadataError):
            load_image(tmp_path)

    def test_missing_t_defaults_to_total(self, tmp_path, caplog):
        (tmp_path / "image.csv").write_text("1,2\n3,4\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0}'
        )
        img = load_image(tmp_path)
        assert img.t == 10.0

    def test_fractional_token_rejected_at_finite_t(self, tmp_path):
        (tmp_path / "image.csv").write_text("0,1\n2,100.0005\n")
        (tmp_path / "image.json").write_text(
            '{"width_px": 2, "height_px": 2, "pixel_size": 1.0, "t": 10}'
        )
        with pytest.raises(ValueError, match="integers"):
            load_image(tmp_path)

    def test_noiseless_roundtrip(self, setup_2d, tmp_path):
        kernel, mu, grid = setup_2d
        img = noiseless(kernel, mu, grid)
        save_image(img, tmp_path)
        back = load_image(tmp_path)
        assert back.noiseless
        assert np.array_equal(back.counts, img.counts)


@st.composite
def count_images(draw):
    """Planar images of 1-12 bins per axis with pixels up to 1e-5 away from square."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    px = draw(st.floats(1e-3, 1e2))
    py = px * (1.0 + draw(st.floats(0.0, 1e-5)))
    lo = np.array([draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))])
    grid = BinGrid(lo, lo + np.array([nx * px, ny * py]), (nx, ny))
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 10**6), min_size=grid.m, max_size=grid.m))
        return CountImage(grid, counts, draw(st.floats(1e-3, 1e9)))
    counts = draw(st.lists(st.floats(0.0, 1e3), min_size=grid.m, max_size=grid.m))
    return CountImage(grid, counts, np.inf)


class TestImageRoundtripProperty:
    @given(count_images())
    def test_save_load_roundtrip(self, img):
        with tempfile.TemporaryDirectory() as directory:
            save_image(img, directory)
            back = load_image(directory)
        assert np.array_equal(back.counts, img.counts)
        assert back.t == img.t
        lo, hi = img.grid.window_lo, img.grid.window_hi
        scale = np.abs(lo) + np.abs(hi)
        assert np.all(np.abs(back.grid.window_lo - lo) <= 1e-12 * scale)
        assert np.all(np.abs(back.grid.window_hi - hi) <= 1e-12 * scale)


class TestCountImageValidation:
    def test_integer_check_when_t_finite(self):
        grid = BinGrid([0, 0], [1, 1], (2, 2))
        with pytest.raises(ValueError):
            CountImage(grid, [0.5, 1, 2, 3], 10.0)
        CountImage(grid, [0.5, 1, 2, 3], np.inf)  # fine in noiseless mode

    @pytest.mark.parametrize("near", [100.0005, 1000000.5])
    def test_nearly_integer_counts_rejected(self, near):
        # save_image would write these rounded, so a round trip would change them
        grid = BinGrid([0, 0], [1, 1], (2, 2))
        with pytest.raises(ValueError, match="integers"):
            CountImage(grid, [0.0, 1.0, 2.0, near], 10.0)

    @pytest.mark.parametrize("t", [10.0, np.inf])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_rejected(self, t, bad):
        grid = BinGrid([0, 0], [1, 1], (2, 2))
        with pytest.raises(NonFiniteCountError):
            CountImage(grid, [0.0, 1.0, 2.0, bad], t)
