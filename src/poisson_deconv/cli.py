"""Command-line front end: simulate, estimate, pipeline, experiment, metrics.

Every run is driven by a JSON config file; command-line flags only override
the seed, output directory, parallelism, and log verbosity.  All randomness
flows from the single config seed, so identical config+seed runs produce
byte-identical outputs (timestamps are confined to log lines).

Exit codes: 0 success, 1 runtime failure, 2 config or usage error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .em import EmConfig, run_em
from .harness import (
    ExperimentSpec,
    builtin_configuration,
    run_risk_experiment,
    run_runtime_comparison,
)
from .kernels import GaussianKernel, TabulatedKernel, UniformBoxKernel, kernel_moments
from .measures import (
    AtomicUniformMeasure,
    exact_moments,
    hausdorff,
    moment_distance,
    wasserstein_p,
)
from .mm import compute_psi, estimate_moments, mm_complex, mm_general
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


def _build_kernel(spec: dict):
    kind = _require(spec, "type", "kernel spec")
    try:
        if kind == "gaussian":
            dim = int(spec.get("dim", 2))
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
    except ConfigError:
        raise
    except (ValueError, FileNotFoundError) as exc:
        raise ConfigError(f"invalid kernel spec: {exc}")
    raise ConfigError(f"unknown kernel type '{kind}'")


def _build_measure(spec: dict) -> AtomicUniformMeasure:
    try:
        if "atoms" in spec:
            return AtomicUniformMeasure(np.asarray(spec["atoms"], float))
        if "configuration" in spec:
            return builtin_configuration(
                spec["configuration"], int(_require(spec, "k", "measure spec"))
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid measure spec: {exc}")
    raise ConfigError("measure spec needs 'atoms' or 'configuration'")


def _build_grid(spec: dict) -> BinGrid:
    res = _require(spec, "resolution", "grid spec")
    if isinstance(res, (int, float)):
        res = [int(res), int(res)]
    window = spec.get("window", [[0.0, 0.0], [1.0, 1.0]])
    return BinGrid(window[0], window[1], tuple(int(n) for n in res))


def _present(spec: dict, casts: dict) -> dict:
    """The keys of ``casts`` that ``spec`` sets, each value passed through its cast.

    Keys left out take the defaults of the dataclass or function they feed.
    """
    return {key: cast(spec[key]) for key, cast in casts.items() if key in spec}


def _em_config(spec: dict) -> EmConfig:
    return EmConfig(**_present(spec, {
        "max_iterations": int, "early_stop_w1": float, "inner_max_iterations": int,
        "inner_grad_tol": float, "intensity_floor": float,
    }))


def cmd_simulate(config: dict, out_dir: str) -> int:
    kernel = _build_kernel(_require(config, "kernel"))
    mu = _build_measure(_require(config, "measure"))
    grid = _build_grid(_require(config, "grid"))
    t = config.get("t", "inf")
    if isinstance(t, str) and t.lower() in ("inf", "infinity"):
        image = noiseless(kernel, mu, grid)
    else:
        image = simulate(kernel, mu, grid, float(t), int(config["seed"]))
    csv_path, json_path = save_image(image, out_dir)
    logger.info("wrote %s and %s", csv_path, json_path)
    return 0


def cmd_estimate(config: dict, out_dir: str) -> int:
    kernel = _build_kernel(_require(config, "kernel"))
    image = load_image(_require(config, "image"))
    estimator = _require(config, "estimator")
    k = int(_require(config, "k"))
    os.makedirs(out_dir, exist_ok=True)
    diagnostics = {"estimator": estimator, "flags": []}
    if estimator == "mm-complex":
        est = mm_complex(image, kernel, k)
        objective = None
    elif estimator == "mm-general":
        domain = config.get("domain")
        if domain is None:
            domain = [image.grid.window_lo.tolist(), image.grid.window_hi.tolist()]
        est, objective = mm_general(
            image, kernel, k, domain, seed=int(config["seed"]),
            **_present(config, {"restarts": int}),
        )
    elif estimator == "em":
        init = mm_complex(image, kernel, k)
        est, trace = run_em(image, kernel, init, _em_config(config.get("em", {})))
        trace.to_csv(os.path.join(out_dir, "trace.csv"))
        objective = trace.loglik[-1] if trace.loglik else None
        diagnostics["em"] = {
            "iterations": trace.iterations,
            "monotone": trace.monotone(),
            "collision": trace.collision,
        }
    else:
        raise ConfigError(f"unknown estimator '{estimator}'")
    if image.grid.dimension == 2:
        m_hat = estimate_moments(image, compute_psi(kernel_moments(kernel, k)))
        diagnostics["moments_hat"] = [[m.real, m.imag] for m in m_hat.tolist()]
    diagnostics["objective"] = objective
    payload = est.to_dict()
    payload["diagnostics"] = diagnostics
    path = os.path.join(out_dir, "estimate.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
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
    kernel = _build_kernel(_require(config, "kernel"))
    image = load_image(_require(config, "image"))
    part = _require(config, "partition")
    pconfig = PartitionConfig(
        mode_count=int(_require(part, "mode_count", "partition spec")),
        k=int(_require(part, "k", "partition spec")),
        em=_em_config(config.get("em", {})),
        **_present(part, {"mode_half_widths": tuple, "link_threshold": float}),
    )
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
        json.dump(cells_payload, fh, indent=2)
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
    if "em_max_iterations" in config:
        raise ConfigError(
            "unknown field 'em_max_iterations'; set em.max_iterations instead"
        )
    t_values = tuple(
        np.inf if isinstance(t, str) and t.lower() in ("inf", "infinity") else float(t)
        for t in _require(config, "t_values")
    )
    spec = ExperimentSpec(
        resolutions=tuple(int(n) for n in _require(config, "resolutions")),
        t_values=t_values,
        seed=int(config["seed"]),
        jobs=jobs,
        em=_em_config(config.get("em", {})),
        **_present(config, {
            "configuration": str, "k": int, "sigma": float, "replicates": int,
            "estimators": tuple, "atoms": lambda atoms: tuple(map(tuple, atoms)),
        }),
    )
    mode = config.get("mode", "risk")
    if mode == "risk":
        table = run_risk_experiment(spec)
    elif mode == "runtime":
        table = run_runtime_comparison(spec)
    else:
        raise ConfigError(f"unknown experiment mode '{mode}'")
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
    metrics = {"hausdorff": hausdorff(mu, nu)}
    if mu.k == nu.k:
        metrics["w1"] = wasserstein_p(mu, nu, 1)
        metrics["w2"] = wasserstein_p(mu, nu, 2)
        metrics["w_inf"] = wasserstein_p(mu, nu, np.inf)
        order = mu.k
        metrics["moment_distance"] = moment_distance(
            exact_moments(mu, order), exact_moments(nu, order)
        )
    else:
        metrics["note"] = "W_p and M_k need equal atom counts; only Hausdorff given"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.json")
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(json.dumps(metrics, indent=2))
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

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help=f"override the config seed (default {DEFAULT_SEED})")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: logical cores)")
        p.add_argument("--log-level", default="WARNING",
                       choices=["DEBUG", "INFO", "WARNING", "ERROR"])

    for name in ("simulate", "estimate", "pipeline", "experiment"):
        add_common(sub.add_parser(name))
    metrics = sub.add_parser("metrics")
    metrics.add_argument("measure_a", help="measure JSON file")
    metrics.add_argument("measure_b", help="measure JSON file")
    add_common(metrics, needs_config=False)
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
