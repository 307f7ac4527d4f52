import json

import numpy as np
import pytest

from poisson_deconv import cli, mm
from poisson_deconv.cli import ConfigError, cmd_estimate, cmd_experiment, cmd_pipeline, main
from poisson_deconv.em import EmConfig, log_likelihood
from poisson_deconv.harness import RiskTable, builtin_configuration
from poisson_deconv.kernels import GaussianKernel
from poisson_deconv.measures import AtomicUniformMeasure, wasserstein_p
from poisson_deconv.observation import (
    BinGrid,
    CountImage,
    load_image,
    noiseless,
    save_image,
    simulate,
)


@pytest.fixture
def estimate_config(tmp_path):
    mu = AtomicUniformMeasure(np.array([[0.35, 0.4], [0.65, 0.6]]))
    image = noiseless(GaussianKernel(sigma=0.05), mu, BinGrid([0.0, 0.0], [1.0, 1.0], (24, 24)))
    save_image(image, tmp_path / "image")
    return {"kernel": {"type": "gaussian", "sigma": 0.05},
            "image": str(tmp_path / "image"), "k": 2, "seed": 1}


def run_estimate(config: dict, tmp_path, estimator: str):
    """Diagnostics and output directory of one estimate run, its atoms checked."""
    out = tmp_path / "out"
    assert cmd_estimate({**config, "estimator": estimator}, str(out)) == 0
    payload = json.loads((out / "estimate.json").read_text())
    assert payload["dimension"] == 2
    assert payload["diagnostics"]["estimator"] == estimator
    np.testing.assert_allclose(
        sorted(payload["atoms"]), [[0.35, 0.4], [0.65, 0.6]], atol=1e-3
    )
    return payload["diagnostics"], out


def test_mm_complex_estimate_writes_planar_atoms(estimate_config, tmp_path):
    diagnostics, out = run_estimate(estimate_config, tmp_path, "mm")
    assert "em" not in diagnostics and diagnostics["objective"] is None
    assert not (out / "trace.csv").exists()


def test_mm_complex_objective_is_the_log_likelihood_at_finite_t(estimate_config, tmp_path):
    mu = AtomicUniformMeasure(np.array([[0.35, 0.4], [0.65, 0.6]]))
    kernel = GaussianKernel(sigma=0.05)
    image = simulate(kernel, mu, BinGrid([0.0, 0.0], [1.0, 1.0], (24, 24)), 1e4, 3)
    save_image(image, tmp_path / "counts")
    config = {**estimate_config, "image": str(tmp_path / "counts"), "estimator": "mm"}
    assert cmd_estimate(config, str(tmp_path / "out")) == 0
    payload = json.loads((tmp_path / "out" / "estimate.json").read_text())
    est = AtomicUniformMeasure(np.array(payload["atoms"]))
    objective = log_likelihood(load_image(tmp_path / "counts"), kernel, est)
    assert payload["diagnostics"]["objective"] == objective


def test_estimate_and_its_moment_diagnostic_share_one_psi(estimate_config, tmp_path,
                                                          monkeypatch):
    built = []
    compute_psi = mm.compute_psi
    monkeypatch.setattr(mm, "compute_psi", lambda m: built.append(m.shape) or compute_psi(m))
    diagnostics, _ = run_estimate(estimate_config, tmp_path, "mm")
    assert built == [(3,)]  # k = 2: one psi, built by the estimator, read again for moments_hat
    assert len(diagnostics["moments_hat"]) == 2


def test_em_estimate_writes_a_monotone_trace(estimate_config, tmp_path):
    diagnostics, out = run_estimate(estimate_config, tmp_path, "em")
    assert diagnostics["em"]["monotone"] is True
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,loglik,w1_step,status,inner_nit,q_evals,error"
    assert len(lines) - 1 == diagnostics["em"]["iterations"]
    assert diagnostics["objective"] == float(lines[-1].split(",")[1])


def test_estimate_flags_the_warnings_the_estimator_raised(estimate_config, tmp_path):
    assert run_estimate(estimate_config, tmp_path, "mm")[0]["flags"] == []
    grid = BinGrid([0.0, 0.0], [1.0, 1.0], (8, 8))
    save_image(CountImage(grid, np.zeros(grid.m), 1e4), tmp_path / "zeros")
    config = {**estimate_config, "image": str(tmp_path / "zeros"), "estimator": "mm"}
    assert cmd_estimate(config, str(tmp_path / "zeros_out")) == 0
    payload = json.loads((tmp_path / "zeros_out" / "estimate.json").read_text())
    assert payload["diagnostics"]["flags"] == [
        "DegenerateDataWarning: all counts are zero; returning window-center atoms"
    ]


def test_mm_general_is_not_an_estimator(estimate_config, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "load_image", lambda path: pytest.fail("image read"))
    with pytest.raises(ConfigError, match="unknown estimator 'mm-general'; expected "
                                          "'mm' or 'em'"):
        cmd_estimate({**estimate_config, "estimator": "mm-general"}, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_mm_real_is_not_an_estimator(estimate_config, tmp_path, monkeypatch):
    # images load as planar grids, so a real-line MM name has nothing to select
    monkeypatch.setattr(cli, "load_image", lambda path: pytest.fail("image read"))
    with pytest.raises(ConfigError, match="unknown estimator 'mm-real'"):
        cmd_estimate({**estimate_config, "estimator": "mm-real"}, str(tmp_path / "out"))


def test_the_retired_mm_complex_name_exits_2_naming_mm(estimate_config, tmp_path, capsys):
    assert run_main(tmp_path, "estimate", {**estimate_config, "estimator": "mm-complex"}) == 2
    assert capsys.readouterr().err.startswith(
        "config error: unknown estimator 'mm-complex'; expected 'mm' or 'em'")
    assert not (tmp_path / "out").exists()


def test_estimate_with_a_line_kernel_exits_1_and_writes_nothing(estimate_config, tmp_path,
                                                               capsys):
    config = {**estimate_config, "kernel": {**estimate_config["kernel"], "dim": 1},
              "estimator": "em"}
    assert run_main(tmp_path, "estimate", config) == 1
    assert "1-d kernel cannot deconvolve a 2-d image" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_writes_the_refinement_trace(estimate_config, tmp_path):
    config = {"kernel": estimate_config["kernel"], "image": estimate_config["image"],
              "partition": {"mode_count": 2, "k": 2, "mode_half_widths": [0.08, 0.08],
                            "link_threshold": 0.2}}
    out = tmp_path / "out"
    assert cmd_pipeline(config, str(out)) == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,loglik,w1_step,status,inner_nit,q_evals,error"
    [row] = [line.split(",") for line in lines[1:]]
    assert row[0] == "1" and row[3] == "improved" and row[-1] == ""
    cells = json.loads((out / "cells.json").read_text())
    assert cells and all("em" not in cell for cell in cells)
    atoms = json.loads((out / "estimate.json").read_text())["atoms"]
    np.testing.assert_allclose(sorted(atoms), [[0.35, 0.4], [0.65, 0.6]], atol=1e-6)


@pytest.fixture
def captured_spec(monkeypatch):
    """The ExperimentSpec the experiment subcommand builds, without running it."""
    specs = []

    def capture(spec):
        specs.append(spec)
        return RiskTable()

    monkeypatch.setattr(cli, "run_risk_experiment", capture)
    return specs


EXPERIMENT = {"resolutions": [10], "t_values": [1e3], "seed": 1}


def test_experiment_reads_the_em_object(captured_spec, tmp_path):
    config = {**EXPERIMENT, "em": {"max_iterations": 3}}
    assert cmd_experiment(config, str(tmp_path), jobs=1) == 0
    [spec] = captured_spec
    assert spec.em == EmConfig(max_iterations=3)


def test_experiment_rejects_em_max_iterations(captured_spec, tmp_path):
    with pytest.raises(ConfigError, match="unknown field 'em_max_iterations'"):
        cmd_experiment({**EXPERIMENT, "em_max_iterations": 3}, str(tmp_path), jobs=1)
    assert captured_spec == []


def test_runtime_is_not_an_experiment_mode(captured_spec, tmp_path):
    with pytest.raises(ConfigError, match="^unknown experiment mode 'runtime'$"):
        cmd_experiment({**EXPERIMENT, "mode": "runtime"}, str(tmp_path), jobs=1)
    assert captured_spec == []


def run_main(tmp_path, command, config) -> int:
    (tmp_path / "run.json").write_text(json.dumps(config))
    return main([command, "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("override, message", [
    ({"replicates": 0}, "experiment spec: replicates"),
    ({"sigma": -0.1}, "experiment spec: sigma"),
    ({"resolutions": []}, "experiment spec: resolutions"),
    ({"resolutions": [0]}, "experiment spec: resolutions"),
    ({"t_values": ["soon"]}, "experiment spec: could not convert"),
    ({"em": {"early_stop_w1": -1}}, "em spec: early_stop_w1"),
    ({"em": {"inner_max_iterations": 0}}, "em spec: inner_max_iterations"),
    ({"k": 5}, "experiment spec: grid configuration requires a perfect-square k"),
    ({"configuration": "corners", "k": 6}, "experiment spec: corners configuration"),
    ({"configuration": "u-shape", "k": 1}, "experiment spec: u-shape configuration"),
    ({"replicates": 2.5}, "experiment spec: replicates must be an integer, got 2.5"),
    ({"k": True}, "experiment spec: k must be an integer, got True"),
    ({"resolutions": [10, 12.5]}, "experiment spec: resolutions must be an integer, got 12.5"),
    ({"resolutions": ["10"]}, "experiment spec: resolutions must be an integer, got '10'"),
    ({"em": {"max_iterations": 2.5}}, "em spec: max_iterations must be an integer, got 2.5"),
    ({"em": {"inner_grad_tol": 1e-8}}, "em spec: unknown field 'inner_grad_tol'"),
    ({"replicate": 8}, "experiment spec: unknown field 'replicate'"),
    ({"sigma ": 0.2}, "experiment spec: unknown field 'sigma '"),
    ({"k": 2, "atoms": [[0.3, 0.3], [0.7, 0.7]]},
     "experiment spec: atoms are read only by the custom configuration, not 'grid'"),
])
def test_invalid_experiment_values_exit_2(tmp_path, capsys, override, message):
    assert run_main(tmp_path, "experiment", {**EXPERIMENT, **override}) == 2
    assert capsys.readouterr().err.startswith(f"config error: invalid {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("partition, em, message", [
    ({"mode_count": 0, "k": 2}, {}, "partition spec: mode_count"),
    ({"mode_count": 2, "k": 2, "link_threshold": -1}, {}, "partition spec: link_threshold"),
    ({"mode_count": 2, "k": 2}, {"inner_max_iterations": 0}, "em spec: inner_max_iterations"),
    ({"mode_count": 2, "k": 2}, {"max_iteration": 1, "intensity_flor": 5},
     "em spec: unknown field 'max_iteration'"),
    ({"mode_count": 2, "k": 2}, {"intensity_floor": 1e-30},
     "em spec: unknown field 'intensity_floor'"),
    ({"mode_count": 2, "k": 2, "mode_half_width": [0.08, 0.08]}, {},
     "partition spec: unknown field 'mode_half_width'"),
    ({"mode_count": 2.5, "k": 2}, {}, "partition spec: mode_count must be an integer, got 2.5"),
    ({"mode_count": 2, "k": True}, {}, "partition spec: k must be an integer, got True"),
    ({"mode_count": 2, "k": 2}, {"inner_max_iterations": "3"},
     "em spec: inner_max_iterations must be an integer, got '3'"),
    ({"mode_count": 2, "k": 2, "mode_half_widths": [-1, 0.1]}, {},
     "partition spec: mode_half_widths must be two positive, finite numbers"),
    ({"mode_count": 2, "k": 2}, {"max_iterations": 5}, "em spec: unknown field 'max_iterations'"),
    ({"mode_count": 2, "k": 2}, {"early_stop_w1": 0.01}, "em spec: unknown field 'early_stop_w1'"),
])
def test_invalid_pipeline_values_exit_2(estimate_config, tmp_path, capsys, partition, em,
                                        message):
    config = {"kernel": estimate_config["kernel"], "image": estimate_config["image"],
              "partition": partition, "em": em}
    assert run_main(tmp_path, "pipeline", config) == 2
    assert capsys.readouterr().err.startswith(f"config error: invalid {message}")


def test_pipeline_rejects_an_unknown_partition_field_before_reading(estimate_config, tmp_path,
                                                                    capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_image", lambda path: pytest.fail("image read"))
    config = {"kernel": estimate_config["kernel"], "image": estimate_config["image"],
              "partition": {"mode_count": 2, "k": 2, "mode_half_width": [0.08, 0.08]}}
    assert run_main(tmp_path, "pipeline", config) == 2
    assert capsys.readouterr().err.startswith(
        "config error: invalid partition spec: unknown field 'mode_half_width'")
    assert not (tmp_path / "out").exists()


def test_pipeline_with_a_line_kernel_exits_1_and_writes_nothing(estimate_config, tmp_path,
                                                               capsys):
    config = {"kernel": {**estimate_config["kernel"], "dim": 1},
              "image": estimate_config["image"], "partition": {"mode_count": 2, "k": 2}}
    assert run_main(tmp_path, "pipeline", config) == 1
    assert "got a 2-d image and a 1-d kernel" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_em_estimate_rejects_an_unknown_em_field_before_estimating(estimate_config, tmp_path,
                                                                  capsys, monkeypatch):
    monkeypatch.setattr(cli, "mm_complex", lambda *args: pytest.fail("estimated"))
    config = {**estimate_config, "estimator": "em", "em": {"max_iteration": 5}}
    assert run_main(tmp_path, "estimate", config) == 2
    assert capsys.readouterr().err.startswith("config error: invalid em spec: unknown field")
    assert not (tmp_path / "out").exists()


def test_mm_complex_estimate_rejects_an_em_block(estimate_config, tmp_path, capsys):
    config = {**estimate_config, "estimator": "mm", "em": {"max_iterations": 5}}
    assert run_main(tmp_path, "estimate", config) == 2
    assert capsys.readouterr().err.startswith(
        "config error: unknown field 'em': the mm estimator runs no EM")
    assert not (tmp_path / "out").exists()


def test_invalid_em_values_in_estimate_exit_2(estimate_config, tmp_path, capsys):
    config = {**estimate_config, "estimator": "em", "em": {"early_stop_w1": "nan"}}
    assert run_main(tmp_path, "estimate", config) == 2
    assert capsys.readouterr().err.startswith("config error: invalid em spec: early_stop_w1")


@pytest.mark.parametrize("k", [0, -1, 1.5, True])
def test_invalid_k_in_estimate_exits_2(estimate_config, tmp_path, capsys, k):
    config = {**estimate_config, "estimator": "mm", "k": k}
    assert run_main(tmp_path, "estimate", config) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: invalid estimate spec: k must be an integer >= 1, got {k!r}"
    )
    assert not (tmp_path / "out").exists()


def test_non_finite_tabulated_kernel_is_a_config_error(tmp_path):
    (tmp_path / "k.csv").write_text("0.1,nan,0.1\n")
    (tmp_path / "k.json").write_text('{"spacing": 0.1, "origin": [0.0]}')
    config = {"kernel": {"type": "tabulated", "csv": str(tmp_path / "k.csv")},
              "measure": {"atoms": [0.5]}, "grid": {"resolution": [4], "window": [[0.0], [1.0]]}}
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_experiment_jobs_below_one_exits_2(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps(EXPERIMENT))
    assert main(["experiment", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out"), "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: invalid experiment spec: jobs must be >= 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "run.json", "--jobs", "2"],
    ["estimate", "--config", "run.json", "--jobs", "2"],
    ["metrics", "a.json", "b.json", "--seed", "1"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


SIMULATE = {"kernel": {"type": "gaussian", "sigma": 0.05}, "measure": {"atoms": [[0.5, 0.5]]},
            "grid": {"resolution": 8}, "t": 1e3}


@pytest.mark.parametrize("override, message", [
    ({"grid": {"resolution": 0}}, "grid spec: resolution must give >= 1 bins"),
    ({"t": -5}, "t: must be positive"),
    ({"t": "abc"}, "t: could not convert"),
    ({"grid": {"resolution": 8, "window": [[0, 0]]}}, "grid spec: window must be two points"),
    ({"grid": {"resolution": 8, "window": 5}}, "grid spec: window must be two points"),
    ({"grid": {"resolution": 8, "window": {"lo": 0}}}, "grid spec: float() argument"),
    ({"kernel": {"type": "gaussian", "sigma": [0.05]}}, "kernel spec: float() argument"),
    ({"kernel": {"type": "gaussian", "sigma": float("nan")}},
     "kernel spec: sigma must be positive and finite"),
    ({"kernel": {"type": "uniform-box", "half_widths": [float("inf"), 0.1]}},
     "kernel spec: half widths must be positive and finite"),
    ({"grid": {"resolution": 8.5}}, "grid spec: resolution must be an integer, got 8.5"),
    ({"seed": 2.5}, "config: seed must be an integer, got 2.5"),
    ({"grid": {"resolution": [8, "8"]}}, "grid spec: resolution must be an integer, got '8'"),
    ({"kernel": {"type": "gaussian", "sigma": 0.05, "dim": 2.0}},
     "kernel spec: dim must be an integer, got 2.0"),
    ({"measure": {"configuration": "grid", "k": True}},
     "measure spec: k must be an integer, got True"),
])
def test_invalid_simulate_values_exit_2(tmp_path, capsys, override, message):
    assert run_main(tmp_path, "simulate", {**SIMULATE, **override}) == 2
    assert capsys.readouterr().err.startswith(f"config error: invalid {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ({"origin": {"x": 1}}, "origin must be two finite numbers"),
    ({"origin": [0, 0, 0]}, "origin must be two finite numbers"),
    ({"pixel_size": float("nan")}, "image dimensions and pixel sizes must be positive and finite"),
])
def test_malformed_image_geometry_is_an_error_without_traceback(estimate_config, tmp_path,
                                                                capsys, override, message):
    meta_path = tmp_path / "image" / "image.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **override}))
    assert run_main(tmp_path, "estimate", {**estimate_config, "estimator": "mm"}) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("t", [1e3, "inf"])
def test_simulate_writes_an_image(tmp_path, t):
    assert run_main(tmp_path, "simulate", {**SIMULATE, "t": t}) == 0
    image = load_image(tmp_path / "out")
    assert image.grid.resolution == (8, 8) and image.t == float(t)


def test_gaussian_cov_kernel_simulates_its_own_blur(tmp_path):
    cov = [[0.003, 0.001], [0.001, 0.002]]
    config = {**SIMULATE, "kernel": {"type": "gaussian", "cov": cov}, "t": "inf"}
    assert run_main(tmp_path, "simulate", config) == 0
    direct = noiseless(GaussianKernel(cov=np.array(cov)), AtomicUniformMeasure([[0.5, 0.5]]),
                       BinGrid([0.0, 0.0], [1.0, 1.0], (8, 8)))
    save_image(direct, tmp_path / "direct")
    assert ((tmp_path / "out" / "image.csv").read_bytes()
            == (tmp_path / "direct" / "image.csv").read_bytes())


def test_gaussian_kernel_without_sigma_or_cov_exits_2(tmp_path, capsys):
    assert run_main(tmp_path, "simulate", {**SIMULATE, "kernel": {"type": "gaussian"}}) == 2
    assert capsys.readouterr().err == "config error: gaussian kernel spec needs 'sigma' or 'cov'\n"
    assert not (tmp_path / "out").exists()


def test_simulate_then_estimate_with_a_planar_tabulated_psf(tmp_path):
    # a Gaussian PSF (sigma 0.05) sampled on a 51 x 51 grid out to 5 sigma
    nodes = np.linspace(-0.25, 0.25, 51)
    xx, yy = np.meshgrid(nodes, nodes)
    np.savetxt(tmp_path / "psf.csv", np.exp(-0.5 * (xx**2 + yy**2) / 0.05**2), delimiter=",")
    (tmp_path / "psf.json").write_text(json.dumps({"spacing": 0.01, "origin": [-0.25, -0.25]}))
    kernel = {"type": "tabulated", "csv": str(tmp_path / "psf.csv")}
    simulate_config = {"kernel": kernel, "measure": {"configuration": "grid", "k": 4},
                       "grid": {"resolution": 32}, "t": 1e5, "seed": 3}
    assert run_main(tmp_path, "simulate", simulate_config) == 0
    (tmp_path / "estimate.json").write_text(json.dumps(
        {"kernel": kernel, "image": str(tmp_path / "out"), "k": 4, "estimator": "mm"}))
    assert main(["estimate", "--config", str(tmp_path / "estimate.json"),
                 "--out", str(tmp_path / "fit")]) == 0
    fit = AtomicUniformMeasure.from_json(tmp_path / "fit" / "estimate.json")
    assert wasserstein_p(fit, builtin_configuration("grid", 4), 1) < 0.01


def run_metrics(tmp_path, atoms_a, atoms_b) -> int:
    for name, atoms in (("a", atoms_a), ("b", atoms_b)):
        AtomicUniformMeasure(np.array(atoms)).to_json(tmp_path / f"{name}.json")
    return main(["metrics", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path / "out")])


def test_metrics_on_equal_counts_writes_every_distance(tmp_path):
    assert run_metrics(tmp_path, [[0.0, 0.0], [1.0, 0.0], [0.25, 0.5]],
                       [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]) == 0
    assert (tmp_path / "out" / "metrics.json").read_text() == (
        '{\n  "hausdorff": 0.9013878188659973,\n  "w1": 0.4166666666666667,\n'
        '  "w2": 0.5951190357119042,\n  "w_inf": 0.9013878188659973,\n'
        '  "moment_distance": 2.4180987520140844\n}')


def test_metrics_on_unequal_counts_writes_w1_and_w2(tmp_path):
    # the one atom sends a third of its mass to each of nu's atoms
    assert run_metrics(tmp_path, [[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert list(metrics) == ["hausdorff", "w1", "w2", "note"]
    assert metrics["hausdorff"] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert metrics["w1"] == pytest.approx(np.sqrt(2.0) / 2, rel=1e-15)
    assert metrics["w2"] == pytest.approx(np.sqrt(2.5 / 3), rel=1e-15)
    assert metrics["note"] == "W_inf and M_k need equal atom counts; not given"


@pytest.mark.parametrize("payload, message", [
    ({"atoms": [[0.0, 0.0]]}, "measure is missing required field 'dimension'"),
    ([[0.0, 0.0]], "a measure must be a JSON object, not list"),
    ({"dimension": [2], "atoms": [[0, 0]]}, "measure field 'dimension' must be an integer, got [2]"),
    ({"dimension": 2, "atoms": {"x": 1}}, "measure field 'atoms' must be an array of numbers"),
])
def test_malformed_measure_is_an_error_without_traceback(tmp_path, capsys, payload, message):
    (tmp_path / "a.json").write_text(json.dumps(payload))
    AtomicUniformMeasure(np.zeros((1, 2))).to_json(tmp_path / "b.json")
    assert main(["metrics", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
