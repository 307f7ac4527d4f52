import json

import numpy as np
import pytest

from poisson_deconv.cli import ConfigError, cmd_estimate
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
