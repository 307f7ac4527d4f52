"""Command-line front end: simulate, estimate, pipeline, experiment, metrics.

Every run is driven by a JSON config file; command-line flags only override
the seed, output directory, parallelism, and log verbosity.  All randomness
flows from the single config seed, so identical config+seed runs produce
byte-identical outputs (timestamps are confined to log lines).

Exit codes: 0 success, 1 runtime failure, 2 config or usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import numbers
import os
import sys
import warnings

import numpy as np

from .em import EmConfig, log_likelihood, run_em
from .harness import ESTIMATOR_NAMES, ExperimentSpec, builtin_configuration, run_risk_experiment
from .kernels import GaussianKernel, TabulatedKernel, UniformBoxKernel
from .measures import (
    AtomicUniformMeasure,
    exact_moments,
    hausdorff,
    moment_distance,
    wasserstein_p,
)
from .mm import estimate_moments, kernel_psi, mm_complex, validate_k
from .observation import BinGrid, load_image, noiseless, save_image, simulate
from .pipeline import PartitionConfig, run_pipeline

logger = logging.getLogger("poisson_deconv")

DEFAULT_SEED = 20240909


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


def _require(config: dict, field: str, context: str = "config"):
    if field not in config:
        raise ConfigError(f"{context} is missing required field '{field}'")
    return config[field]


@contextlib.contextmanager
def _invalid(context: str):
    """Re-raise a ValueError, TypeError or missing file met building ``context`` as ConfigError.

    A TypeError there comes from a config value of the wrong JSON type,
    such as an object where a number or a list belongs.
    """
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, FileNotFoundError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _build_kernel(spec: dict):
    kind = _require(spec, "type", "kernel spec")
    with _invalid("kernel spec"):
        if kind == "gaussian":
            dim = _integer(spec.get("dim", 2), "dim")
            if "sigma" in spec:
                return GaussianKernel(sigma=float(spec["sigma"]), dim=dim)
            if "cov" in spec:
                return GaussianKernel(cov=np.asarray(spec["cov"], float), dim=dim)
            raise ConfigError("gaussian kernel spec needs 'sigma' or 'cov'")
        if kind == "uniform-box":
            return UniformBoxKernel(_require(spec, "half_widths", "kernel spec"))
        if kind == "tabulated":
            return TabulatedKernel.load(
                _require(spec, "csv", "kernel spec"), spec.get("json")
            )
    raise ConfigError(f"unknown kernel type '{kind}'")


def _build_measure(spec: dict) -> AtomicUniformMeasure:
    with _invalid("measure spec"):
        if "atoms" in spec:
            return AtomicUniformMeasure(np.asarray(spec["atoms"], float))
        if "configuration" in spec:
            return builtin_configuration(
                spec["configuration"], _integer(_require(spec, "k", "measure spec"), "k")
            )
    raise ConfigError("measure spec needs 'atoms' or 'configuration'")


def _build_grid(spec: dict) -> BinGrid:
    res = _require(spec, "resolution", "grid spec")
    with _invalid("grid spec"):
        if isinstance(res, (int, float)):
            res = [res, res]
        res = tuple(_integer(n, "resolution") for n in res)
        window = np.asarray(spec.get("window", [[0.0, 0.0], [1.0, 1.0]]), float)
        if window.shape != (2, len(res)) or not np.all(np.isfinite(window)):
            raise ValueError(f"window must be two points of {len(res)} finite coordinates")
        return BinGrid(window[0], window[1], res)


def _exposure(t) -> float:
    """An exposure value from a config: a number, or "inf" for the noiseless limit."""
    return np.inf if isinstance(t, str) and t.lower() in ("inf", "infinity") else float(t)


def _integer(value, name: str) -> int:
    """``value`` if it is an integer; ValueError naming ``name`` for 2.5, true or "3"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _fields(spec: dict, casts: dict) -> dict:
    """The keys of ``casts`` that ``spec`` sets, each value passed through its cast.

    A key that ``casts`` lacks raises ValueError: a typo must not go unseen.
    Keys left out take the defaults of the dataclass or function they feed.
    An ``int`` cast takes integers only, through ``_integer``.
    """
    unknown = [key for key in spec if key not in casts]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}; expected one of {', '.join(casts)}")
    return {key: _integer(spec[key], key) if cast is int else cast(spec[key])
            for key, cast in casts.items() if key in spec}


def _em_config(spec: dict, *keys: str) -> EmConfig:
    """The EmConfig ``spec`` sets; when ``keys`` are given, it may set only those."""
    casts = {"max_iterations": int, "early_stop_w1": float, "inner_max_iterations": int}
    with _invalid("em spec"):
        return EmConfig(**_fields(spec, {key: casts[key] for key in keys or casts}))


def cmd_simulate(config: dict, out_dir: str) -> int:
    kernel = _build_kernel(_require(config, "kernel"))
    mu = _build_measure(_require(config, "measure"))
    grid = _build_grid(_require(config, "grid"))
    with _invalid("t"):
        t = _exposure(config.get("t", "inf"))
        if not t > 0:
            raise ValueError(f"must be positive (inf for noiseless), got {t!r}")
    if np.isinf(t):
        image = noiseless(kernel, mu, grid)
    else:
        image = simulate(kernel, mu, grid, t, int(config["seed"]))
    csv_path, json_path = save_image(image, out_dir)
    logger.info("wrote %s and %s", csv_path, json_path)
    return 0


def cmd_estimate(config: dict, out_dir: str) -> int:
    estimator = _require(config, "estimator")
    if estimator not in ESTIMATOR_NAMES:
        raise ConfigError(f"unknown estimator '{estimator}'; expected 'mm' or 'em'")
    if estimator == "mm" and "em" in config:
        raise ConfigError("unknown field 'em': the mm estimator runs no EM")
    with _invalid("estimate spec"):
        k = validate_k(_require(config, "k"))
    em_config = _em_config(config.get("em", {}))
    kernel = _build_kernel(_require(config, "kernel"))
    image = load_image(_require(config, "image"))
    diagnostics = {"estimator": estimator, "flags": []}
    trace = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = mm_complex(image, kernel, k)
        if estimator == "mm":
            objective = None if image.noiseless else log_likelihood(image, kernel, est)
        else:
            est, trace = run_em(image, kernel, est, em_config)
            objective = trace.loglik[-1] if trace.loglik else None
            diagnostics["em"] = {
                "iterations": trace.iterations,
                "monotone": trace.monotone(),
                "collision": trace.collision,
            }
    # Every warning the estimator raised, repeats included, as the harness counts them.
    diagnostics["flags"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    for flag in diagnostics["flags"]:
        logger.warning("%s", flag)
    m_hat = estimate_moments(image, kernel_psi(kernel, k))  # load_image gives planar images
    diagnostics["moments_hat"] = [[m.real, m.imag] for m in m_hat.tolist()]
    diagnostics["objective"] = objective
    payload = est.to_dict()
    payload["diagnostics"] = diagnostics
    os.makedirs(out_dir, exist_ok=True)
    if trace is not None:
        trace.to_csv(os.path.join(out_dir, "trace.csv"))
    path = os.path.join(out_dir, "estimate.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
    logger.info("wrote %s", path)
    return 0


def _mask_to_rle(mask: np.ndarray) -> list:
    """Run-length encoding of a flat boolean mask: [start, length] pairs."""
    runs = []
    flat = np.asarray(mask, bool)
    idx = np.flatnonzero(np.diff(np.concatenate([[False], flat, [False]])))
    for start, end in zip(idx[::2], idx[1::2]):
        runs.append([int(start), int(end - start)])
    return runs


def cmd_pipeline(config: dict, out_dir: str) -> int:
    part = _require(config, "partition")
    with _invalid("partition spec"):
        for key in ("mode_count", "k"):
            _require(part, key, "partition spec")
        # the refinement reads no other EmConfig field (see PartitionConfig)
        em = _em_config(config.get("em", {}), "inner_max_iterations")
        pconfig = PartitionConfig(em=em, **_fields(part, {
            "mode_count": int, "k": int, "mode_half_widths": tuple, "link_threshold": float}))
    kernel = _build_kernel(_require(config, "kernel"))
    image = load_image(_require(config, "image"))
    result = run_pipeline(image, kernel, pconfig)
    os.makedirs(out_dir, exist_ok=True)
    cells_payload = []
    for cell in result.cells:
        cells_payload.append({
            "cell_id": cell.cell_id,
            "mask_rle": _mask_to_rle(cell.mask),
            "k_assigned": cell.k_assigned,
            "mass_ratio": cell.mass_ratio,
            "flags": cell.flags,
            "atoms": None if cell.estimate is None else cell.estimate.atoms.tolist(),
        })
    with open(os.path.join(out_dir, "cells.json"), "w") as fh:
        json.dump(cells_payload, fh, indent=2, allow_nan=False)
    if result.estimate is not None:
        result.estimate.to_json(os.path.join(out_dir, "estimate.json"))
        result.trace.to_csv(os.path.join(out_dir, "trace.csv"))
    res2d = result.residual.as_2d()
    with open(os.path.join(out_dir, "residual.csv"), "w") as fh:
        for row in res2d:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    logger.info("pipeline wrote %d cells to %s", len(result.cells), out_dir)
    return 0


def cmd_experiment(config: dict, out_dir: str, jobs: int | None) -> int:
    mode = config.get("mode", "risk")
    if mode != "risk":
        raise ConfigError(f"unknown experiment mode '{mode}'")
    _require(config, "resolutions")
    _require(config, "t_values")
    with _invalid("experiment spec"):
        fields = _fields(config, {
            "resolutions": lambda ns: tuple(_integer(n, "resolutions") for n in ns),
            "t_values": lambda ts: tuple(map(_exposure, ts)),
            "seed": int, "mode": str, "em": _em_config,
            "configuration": str, "k": int, "sigma": float, "replicates": int,
            "estimators": tuple, "atoms": lambda atoms: tuple(map(tuple, atoms)),
        })
        fields.pop("mode", None)
        spec = ExperimentSpec(jobs=jobs, **fields)
    table = run_risk_experiment(spec)
    os.makedirs(out_dir, exist_ok=True)
    table.to_csv(os.path.join(out_dir, "risk.csv"))
    table.timing_to_csv(os.path.join(out_dir, "timing.csv"))
    table.summary_json(os.path.join(out_dir, "risk_summary.json"))
    table.write_dat_files(out_dir)
    logger.info("experiment wrote %d rows to %s", len(table.rows), out_dir)
    return 0


def cmd_metrics(path_a: str, path_b: str, out_dir: str) -> int:
    mu = AtomicUniformMeasure.from_json(path_a)
    nu = AtomicUniformMeasure.from_json(path_b)
    metrics = {"hausdorff": hausdorff(mu, nu),
               "w1": wasserstein_p(mu, nu, 1), "w2": wasserstein_p(mu, nu, 2)}
    if mu.k == nu.k:
        metrics["w_inf"] = wasserstein_p(mu, nu, np.inf)
        order = mu.k
        metrics["moment_distance"] = moment_distance(
            exact_moments(mu, order), exact_moments(nu, order)
        )
    else:
        metrics["note"] = "W_inf and M_k need equal atom counts; not given"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.json")
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, allow_nan=False)
    print(json.dumps(metrics, indent=2, allow_nan=False))
    return 0


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-deconv",
        description="Recover k-atomic uniform measures from binned Poisson counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runs = {name: sub.add_parser(name)
            for name in ("simulate", "estimate", "pipeline", "experiment")}
    for p in runs.values():
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help=f"override the config seed (default {DEFAULT_SEED})")
    runs["experiment"].add_argument("--jobs", type=int, default=None,
                                    help="worker processes (default: logical cores)")
    metrics = sub.add_parser("metrics")
    metrics.add_argument("measure_a", help="measure JSON file")
    metrics.add_argument("measure_b", help="measure JSON file")
    for p in [*runs.values(), metrics]:
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--log-level", default="WARNING",
                       choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        if args.command == "metrics":
            return cmd_metrics(args.measure_a, args.measure_b, args.out)
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        config.setdefault("seed", DEFAULT_SEED)
        with _invalid("config"):
            config["seed"] = _integer(config["seed"], "seed")
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        if args.command == "estimate":
            return cmd_estimate(config, args.out)
        if args.command == "pipeline":
            return cmd_pipeline(config, args.out)
        if args.command == "experiment":
            return cmd_experiment(config, args.out, args.jobs)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
