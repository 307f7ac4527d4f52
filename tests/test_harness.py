import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from poisson_deconv import harness, mm
from poisson_deconv.em import EmConfig, run_em
from poisson_deconv.harness import (
    ExperimentSpec,
    RiskTable,
    builtin_configuration,
    run_risk_experiment,
)
from poisson_deconv.kernels import GaussianKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.mm import mm_complex
from poisson_deconv.observation import BinGrid, noiseless, replicate_seed, simulate


class TestBuiltinConfiguration:
    def test_grid_k4(self):
        mu = builtin_configuration("grid", 4)
        expected = {(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)}
        got = {tuple(np.round(a, 12)) for a in mu.atoms}
        assert got == expected

    def test_grid_k16(self):
        mu = builtin_configuration("grid", 16)
        assert mu.k == 16
        xs = np.unique(np.round(mu.atoms[:, 0], 12))
        assert np.allclose(xs, [0.2, 0.4, 0.6, 0.8])

    def test_grid_requires_square(self):
        with pytest.raises(ValueError):
            builtin_configuration("grid", 5)

    def test_corners(self):
        mu = builtin_configuration("corners", 8)
        assert mu.k == 8
        got = {tuple(np.round(a, 12)) for a in mu.atoms}
        assert got == {(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)}
        with pytest.raises(ValueError):
            builtin_configuration("corners", 6)

    def test_u_shape_distinct(self):
        mu = builtin_configuration("u-shape", 9)
        assert mu.k == 9
        d = np.linalg.norm(mu.atoms[:, None] - mu.atoms[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0
        # endpoints are top corners of the U
        assert (np.round(mu.atoms[0], 12) == (0.2, 0.8)).all()
        assert (np.round(mu.atoms[-1], 12) == (0.8, 0.8)).all()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_configuration("ring", 4)


def lookup(table, estimator, t, m):
    """The table's row for one (estimator, t, m) cell."""
    [row] = [r for r in table.rows
             if r["estimator"] == estimator and r["t"] == t and r["m"] == m]
    return row


def small_spec(**overrides):
    base = dict(
        configuration="grid", k=4, sigma=0.05, resolutions=(20,),
        t_values=(1e4,), replicates=3, seed=5, estimators=("mm", "em"),
        em=EmConfig(max_iterations=10), jobs=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunRiskExperiment:
    def test_all_cells_present(self):
        spec = small_spec(t_values=(1e3, 1e4), resolutions=(10, 20))
        table = run_risk_experiment(spec)
        assert len(table.rows) == 2 * 2 * 2  # estimators x t x m
        for row in table.rows:
            assert row["n"] == 3
            assert row["mean_w1"] >= 0
            assert row["stderr_w1"] >= 0

    def test_deterministic_given_seed(self, tmp_path):
        spec = small_spec()
        a = run_risk_experiment(spec)
        b = run_risk_experiment(spec)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_mean_permutation_invariant(self):
        spec = small_spec(replicates=4)
        table = run_risk_experiment(spec)
        row = lookup(table, "mm", 1e4, 400)
        samples = [s for s in row["w1_samples"] if s is not None]
        assert row["mean_w1"] == pytest.approx(np.mean(sorted(samples)))

    def test_noiseless_row(self):
        spec = small_spec(t_values=(np.inf,), replicates=5)
        table = run_risk_experiment(spec)
        row = lookup(table, "em", np.inf, 400)
        assert row["n"] == 5
        assert row["stderr_w1"] == 0.0

    def test_noiseless_bounds_finite_t(self):
        spec = small_spec(t_values=(1e3, np.inf), replicates=4, seed=7)
        table = run_risk_experiment(spec)
        noiseless_row = lookup(table, "em", np.inf, 400)
        noisy_row = lookup(table, "em", 1e3, 400)
        assert (
            noiseless_row["mean_w1"]
            <= noisy_row["mean_w1"] + 2 * noisy_row["stderr_w1"]
        )


class TestReplicatesMatchDirectCalls:
    def test_every_sample_is_the_direct_simulate_and_estimate(self):
        spec = ExperimentSpec(
            configuration="u-shape", k=12, sigma=0.05, resolutions=(30, 40),
            t_values=(1e5, np.inf), replicates=2, seed=11, estimators=("mm", "em"),
            em=EmConfig(max_iterations=3), jobs=1,
        )
        table = run_risk_experiment(spec)
        truth = builtin_configuration("u-shape", 12)
        kernel = GaussianKernel(sigma=0.05, dim=2)
        cells = [(t, n) for t in spec.t_values for n in spec.resolutions]
        for cell_index, (t, n_side) in enumerate(cells):
            grid = BinGrid([0.0, 0.0], [1.0, 1.0], (n_side, n_side))
            for rep in range(spec.replicates):
                if np.isinf(t):
                    image = noiseless(kernel, truth, grid)
                else:
                    seed = replicate_seed(spec.seed, cell_index, rep)
                    image = simulate(kernel, truth, grid, t, seed)
                mm_est = mm_complex(image, kernel, truth.k)
                em_est, _ = run_em(image, kernel, mm_est, spec.em)
                for name, est in (("mm", mm_est), ("em", em_est)):
                    w1 = wasserstein_p(est, truth, 1)
                    row = lookup(table, name, t, n_side * n_side)
                    assert row["w1_samples"][rep] == w1, (name, t, n_side, rep)


class TestOneRootSolvePerCell:
    def test_each_cell_with_moments_inverts_them_in_one_call(self, monkeypatch):
        shapes = []
        real_roots = mm.complex_roots

        def recorded(coeffs):
            shapes.append(np.shape(coeffs))
            return real_roots(coeffs)

        monkeypatch.setattr(mm, "complex_roots", recorded)
        # t = 1e-9 draws all-zero images, which have no moments to invert
        spec = small_spec(t_values=(1e-9, 1e4, np.inf), resolutions=(10, 20), replicates=3)
        table = run_risk_experiment(spec)
        # a serial sweep is one batch: 2 cells of 3 replicates, 2 noiseless cells of 1
        assert shapes == [(8, 5)]
        centre = wasserstein_p(AtomicUniformMeasure(np.full((4, 2), 0.5)), spec.truth(), 1)
        for m in (100, 400):
            row = lookup(table, "mm", 1e-9, m)
            assert row["w1_samples"] == [centre] * 3
            assert row["n_warnings"] == 3  # one DegenerateDataWarning per replicate

    def test_a_row_that_fails_fails_its_replicate_alone(self, monkeypatch, caplog):
        spec = small_spec(t_values=(1e3, 1e4), resolutions=(10, 20), replicates=3,
                          estimators=("mm",))
        clean = run_risk_experiment(spec)
        real_roots = mm.complex_roots

        def planted(coeffs):
            roots = real_roots(coeffs)
            # rows run cell after cell, (1e3, 10), (1e3, 20), (1e4, 10), (1e4, 20),
            # so row 10 is replicate 1 of cell (1e4, 20); a NaN row is how a stack
            # reports a row that failed both paths
            roots[3 * 3 + 1] = np.nan
            return roots

        monkeypatch.setattr(mm, "complex_roots", planted)
        with caplog.at_level("WARNING", logger="poisson_deconv.harness"):
            table = run_risk_experiment(spec)
        for t in spec.t_values:
            for m in (100, 400):
                samples = lookup(clean, "mm", t, m)["w1_samples"]
                if (t, m) == (1e4, 400):
                    samples[1] = None
                row = lookup(table, "mm", t, m)
                assert row["w1_samples"] == samples
                assert row["n_fail"] == ((t, m) == (1e4, 400))
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert "estimator mm failed" in record.getMessage()
        assert "root finding failed" in record.getMessage()

    @pytest.mark.parametrize("estimators, draws", [(("mm", "em"), 2), (("mm",), 1)])
    def test_em_draws_each_finite_t_image_again(self, monkeypatch, estimators, draws):
        real_draw, seen = harness.poisson_image, []

        def counted(grid, intensity, t, seed):
            seen.append(seed.spawn_key)
            return real_draw(grid, intensity, t, seed)

        monkeypatch.setattr(harness, "poisson_image", counted)
        spec = small_spec(t_values=(1e3, np.inf), resolutions=(10, 20), replicates=2,
                          estimators=estimators, em=EmConfig(max_iterations=1))
        run_risk_experiment(spec)
        # cells 0 and 1 have t = 1e3; the noiseless cells draw nothing
        keys = [(cell, rep) for cell in (0, 1) for rep in (0, 1)]
        assert sorted(seen) == sorted(keys * draws)


class TestProcessPool:
    def test_one_pool_per_sweep_gives_the_serial_bytes(self, monkeypatch, tmp_path):
        pools = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        # mm and em on degenerate, noisy and noiseless cells: serially one
        # batch, in the pool one cell per task
        spec = small_spec(t_values=(1e-9, 1e3, 1e4, np.inf), replicates=2)
        serial = run_risk_experiment(spec)
        serial.to_csv(tmp_path / "serial.csv")
        assert pools == []
        pooled = run_risk_experiment(dataclasses.replace(spec, jobs=2))
        pooled.to_csv(tmp_path / "pool.csv")
        assert pools == [2]
        assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert [r["w1_samples"] for r in pooled.rows] == [r["w1_samples"] for r in serial.rows]

    def test_each_worker_builds_psi_once(self, monkeypatch, tmp_path):
        # forked workers inherit the patch; each appends its pid to one file
        log = tmp_path / "psi_builds.txt"
        real = mm.compute_psi

        def logged(moments):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(moments)

        monkeypatch.setattr(mm, "compute_psi", logged)
        spec = ExperimentSpec(configuration="u-shape", k=12, resolutions=(30,),
                              t_values=(1e5,), replicates=8, seed=3, estimators=("mm",))
        run_risk_experiment(dataclasses.replace(spec, jobs=2)).to_csv(tmp_path / "pool.csv")
        builds = log.read_text().split()
        assert 1 <= len(builds) <= 2 and len(set(builds)) == len(builds)
        run_risk_experiment(dataclasses.replace(spec, jobs=1)).to_csv(tmp_path / "serial.csv")
        assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


class TestWarningCounts:
    @pytest.fixture(autouse=True)
    def warning_moments(self, monkeypatch):
        """The harness's estimate_moments, raising one RuntimeWarning per call."""
        real_moments = harness.estimate_moments

        def warning_moments(image, psi):
            warnings.warn("probe", RuntimeWarning)
            return real_moments(image, psi)

        monkeypatch.setattr(harness, "estimate_moments", warning_moments)

    def test_each_estimator_counts_its_warnings(self, recwarn):
        table = run_risk_experiment(small_spec(replicates=3))
        # the same warning is counted on every replicate; "em" counts its MM start's
        assert lookup(table, "mm", 1e4, 400)["n_warnings"] == 3
        assert lookup(table, "em", 1e4, 400)["n_warnings"] == 3
        table = run_risk_experiment(small_spec(replicates=2, estimators=("em",)))
        assert lookup(table, "em", 1e4, 400)["n_warnings"] == 2
        assert len(recwarn) == 0

    def test_em_row_does_not_depend_on_the_estimator_order(self, recwarn):
        rows = [lookup(run_risk_experiment(small_spec(estimators=estimators)), "em", 1e4, 400)
                for estimators in [("mm", "em"), ("em",)]]
        for key in ("w1_samples", "n_warnings"):
            assert rows[0][key] == rows[1][key], key
        assert rows[0]["n_warnings"] == 3
        assert len(recwarn) == 0


def failing_scores(monkeypatch, failures: dict):
    """Patch the harness's W_1 to raise ``failures[n]`` when scoring its n-th estimate (from 1).

    The sweep's first call scores the window-centre fallback, not an estimate.
    """
    real_w1 = harness.wasserstein_p
    calls = []

    def planted(mu, nu, p):
        calls.append(None)
        if len(calls) - 1 in failures:
            raise failures[len(calls) - 1]
        return real_w1(mu, nu, p)

    monkeypatch.setattr(harness, "wasserstein_p", planted)


class TestFailures:
    def test_a_failed_replicate_scores_nan_and_the_centre_fallback(self, monkeypatch, caplog):
        spec = small_spec(replicates=3)
        clean = {name: lookup(run_risk_experiment(spec), name, 1e4, 400)["w1_samples"]
                 for name in ("mm", "em")}
        # scores run mm, em per replicate: em fails on replicate 0, mm on replicate 2
        failing_scores(monkeypatch, {2: mm.RootRecoveryError("no roots"), 5: ValueError("bad k")})
        with caplog.at_level("WARNING", logger="poisson_deconv.harness"):
            table = run_risk_experiment(spec)
        fallback = wasserstein_p(AtomicUniformMeasure(np.full((4, 2), 0.5)), spec.truth(), 1)
        expected = {"mm": [*clean["mm"][:2], None], "em": [None, *clean["em"][1:]]}
        for name, samples in expected.items():
            row = lookup(table, name, 1e4, 400)
            assert row["w1_samples"] == samples
            assert row["n"] == 3 and row["n_fail"] == 1
            successes = [w1 for w1 in samples if w1 is not None]
            assert row["mean_w1"] == np.mean(successes)
            pessimistic = [fallback if w1 is None else w1 for w1 in samples]
            assert row["mean_w1_pessimistic"] == np.mean(pessimistic)
        messages = [record.getMessage() for record in caplog.records]
        assert [record.levelname for record in caplog.records] == ["WARNING", "WARNING"]
        assert "estimator em failed" in messages[0] and "no roots" in messages[0]
        assert "estimator mm failed" in messages[1] and "bad k" in messages[1]

    def test_a_cell_with_no_success_writes_strict_json(self, monkeypatch, tmp_path):
        failing_scores(monkeypatch, {n: ValueError("planted") for n in range(1, 7)})
        table = run_risk_experiment(small_spec(replicates=3))
        table.summary_json(tmp_path / "summary.json")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        for row in payload:
            assert row["n_fail"] == row["n"] == 3
            assert row["mean_w1"] is None and row["w1_samples"] == [None] * 3


class TestRiskTableOutputs:
    def test_csv_excludes_timing(self, tmp_path):
        table = run_risk_experiment(small_spec())
        path = tmp_path / "risk.csv"
        table.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert "time" not in header
        assert "mean_w1" in header

    def test_timing_csv_and_summary(self, tmp_path):
        table = run_risk_experiment(small_spec())
        table.timing_to_csv(tmp_path / "timing.csv")
        table.summary_json(tmp_path / "summary.json")
        assert "mean_time_s" in (tmp_path / "timing.csv").read_text()
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert len(payload) == len(table.rows)

    def test_dat_files(self, tmp_path):
        spec = small_spec(t_values=(1e3, 1e4))
        table = run_risk_experiment(spec)
        paths = table.write_dat_files(tmp_path)
        assert len(paths) == 2  # one per estimator at single m
        body = open(paths[0]).read().splitlines()
        assert body[0].startswith("#")
        assert len(body) == 3  # header + two t values


class TestSpecValidation:
    def test_bad_configuration(self):
        with pytest.raises(ValueError):
            small_spec(configuration="blob")

    def test_custom_needs_atoms(self):
        with pytest.raises(ValueError):
            small_spec(configuration="custom")

    def test_bad_estimator(self):
        with pytest.raises(ValueError):
            small_spec(estimators=("mm", "nn"))

    def test_atoms_need_the_custom_configuration(self):
        with pytest.raises(ValueError, match="atoms are read only by the custom configuration"):
            small_spec(configuration="grid", k=4, atoms=((0.3, 0.3), (0.7, 0.7)))

    def test_custom_atoms_roundtrip(self):
        spec = small_spec(
            configuration="custom", atoms=((0.3, 0.3), (0.7, 0.7)), k=2
        )
        assert spec.truth().k == 2

    @pytest.mark.parametrize("configuration, k, message", [
        ("grid", 5, "perfect-square"),
        ("corners", 6, "divisible by 4"),
        ("u-shape", 1, "k >= 2"),
    ])
    def test_truth_the_configuration_cannot_lay_out(self, configuration, k, message):
        with pytest.raises(ValueError, match=message):
            small_spec(configuration=configuration, k=k)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            small_spec(sigma=sigma)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            small_spec(jobs=jobs)
