import json

import numpy as np
import pytest

from poisson_deconv import cli
from poisson_deconv.cli import ConfigError, cmd_estimate, cmd_experiment, main
from poisson_deconv.em import EmConfig
from poisson_deconv.harness import RiskTable
from poisson_deconv.kernels import GaussianKernel
from poisson_deconv.measures import AtomicUniformMeasure
from poisson_deconv.observation import BinGrid, noiseless, save_image


@pytest.fixture
def estimate_config(tmp_path):
    mu = AtomicUniformMeasure(np.array([[0.35, 0.4], [0.65, 0.6]]))
    image = noiseless(GaussianKernel(sigma=0.05), mu, BinGrid([0.0, 0.0], [1.0, 1.0], (24, 24)))
    save_image(image, tmp_path / "image")
    return {"kernel": {"type": "gaussian", "sigma": 0.05},
            "image": str(tmp_path / "image"), "k": 2, "seed": 1}


def test_mm_complex_estimate_writes_planar_atoms(estimate_config, tmp_path):
    out = tmp_path / "out"
    assert cmd_estimate({**estimate_config, "estimator": "mm-complex"}, str(out)) == 0
    with open(out / "estimate.json") as fh:
        payload = json.load(fh)
    assert payload["dimension"] == 2
    assert payload["diagnostics"]["estimator"] == "mm-complex"
    np.testing.assert_allclose(
        sorted(payload["atoms"]), [[0.35, 0.4], [0.65, 0.6]], atol=1e-3
    )


def test_mm_real_is_not_an_estimator(estimate_config, tmp_path):
    # images load as planar grids, so a real-line MM name has nothing to select
    with pytest.raises(ConfigError, match="unknown estimator 'mm-real'"):
        cmd_estimate({**estimate_config, "estimator": "mm-real"}, str(tmp_path / "out"))


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
    with pytest.raises(ConfigError, match="em.max_iterations"):
        cmd_experiment({**EXPERIMENT, "em_max_iterations": 3}, str(tmp_path), jobs=1)
    assert captured_spec == []


def test_non_finite_tabulated_kernel_is_a_config_error(tmp_path):
    (tmp_path / "k.csv").write_text("0.1,nan,0.1\n")
    (tmp_path / "k.json").write_text('{"spacing": 0.1, "origin": [0.0]}')
    config = {"kernel": {"type": "tabulated", "csv": str(tmp_path / "k.csv")},
              "measure": {"atoms": [0.5]}, "grid": {"resolution": [4], "window": [[0.0], [1.0]]}}
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 2
