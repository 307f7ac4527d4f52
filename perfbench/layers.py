"""Which parts of poisson_deconv are traced, and the per-layer metrics they give.

Layers are the package's modules.  Spans come from ``Tracer`` wrappers around
every public function and method of ``MODULES``; the hooks below add work
counts read from arguments and return values.  ``per_layer_metrics`` turns
one traced run into the named metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

from poisson_deconv import em, harness, kernels, measures, mm, observation, pipeline

from tracer import Stat, Tracer

MODULES = (observation, kernels, mm, em, measures, pipeline, harness)

# Kernel densities are evaluated once per quadrature point inside dblquad; a
# span there would time the tracer, not a layer.
EXCLUDE = ("density",)

FLOAT_BYTES = 8


def _count_entries(tracer, arguments, result):
    name = "kernels.bin_integral_gradient_matrix" if result.ndim == 3 else (
        "kernels.bin_integral_matrix")
    tracer.counts[f"{name}.entries"] += result.size
    if result.ndim == 3 and "em.m_step" in tracer.open_names():
        tracer.counts["em.q_evals"] += 1


def _count_simulated_bins(tracer, arguments, result):
    tracer.counts["observation.simulate.bins"] += result.grid.m


def _count_cropped_bins(tracer, arguments, result):
    if result is not None:
        tracer.counts["pipeline.denoise_and_crop.bins"] += result.grid.m


def _count_em_run(tracer, arguments, result):
    _, trace = result
    tracer.counts["em.run_em.iterations"] += trace.iterations
    tracer.counts["em.nonmonotone"] += not trace.monotone()
    tracer.counts["em.collisions"] += bool(trace.collision)


def _count_m_step_status(tracer, arguments, result):
    tracer.counts[f"em.m_step.status.{result[1]}"] += 1


def _count_cells(tracer, arguments, result):
    tracer.counts["pipeline.cells"] += len(result.cells)
    tracer.counts["pipeline.cells_failed"] += sum(
        any(flag.startswith("estimation_failed") for flag in cell.flags)
        for cell in result.cells
    )


def _count_replicates(tracer, arguments, result):
    tracer.counts["harness.replicates"] += sum(row["n"] for row in result.rows)
    tracer.counts["harness.n_fail"] += sum(row["n_fail"] for row in result.rows)


HOOKS = {
    "kernels.bin_integral_matrix": _count_entries,
    "kernels.bin_integral_gradient_matrix": _count_entries,
    "observation.simulate": _count_simulated_bins,
    "pipeline.denoise_and_crop": _count_cropped_bins,
    "em.run_em": _count_em_run,
    "em.m_step": _count_m_step_status,
    "pipeline.run_pipeline": _count_cells,
    "harness.run_risk_experiment": _count_replicates,
}

# (span name, kinds reported from its Stat)
SPAN_METRICS = (
    ("kernels.bin_integral_matrix", ("calls", "self_s")),
    ("kernels.bin_integral_gradient_matrix", ("calls", "self_s")),
    ("kernels.bin_integral", ("calls", "self_s")),
    ("observation.simulate", ("calls", "self_s")),
    ("observation.noiseless", ("calls", "self_s")),
    ("mm.estimate_moments", ("calls", "self_s")),
    ("mm.complex_roots", ("calls", "self_s")),
    ("mm.mm_complex", ("calls", "self_s")),
    ("em.run_em", ("calls", "self_s")),
    ("em.e_step", ("calls", "self_s")),
    ("em.m_step", ("calls", "self_s")),
    ("measures.wasserstein_p", ("calls", "self_s")),
    ("pipeline.mode_selection", ("calls", "self_s")),
    ("pipeline.partition", ("calls", "self_s")),
    ("pipeline.denoise_and_crop", ("calls", "self_s")),
    ("harness.run_risk_experiment", ("calls", "self_s")),
)

COUNT_METRICS = (
    "kernels.bin_integral_matrix.entries",
    "kernels.bin_integral_gradient_matrix.entries",
    "observation.simulate.bins",
    "em.run_em.iterations",
    "em.q_evals",
    "em.m_step.status.improved",
    "em.m_step.status.line_search",
    "em.m_step.status.kept",
    "em.nonmonotone",
    "em.collisions",
    "pipeline.denoise_and_crop.bins",
    "pipeline.cells",
    "pipeline.cells_failed",
    "harness.replicates",
    "harness.n_fail",
)


def new_tracer() -> Tracer:
    return Tracer(HOOKS)


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, overhead_s: float,
                      fail_ratio: float) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    ``traced_wall_s`` is the traced passes' wall time; ``overhead_s`` is that
    time minus the wall time of the same passes untraced.
    """
    out = {}
    for span, kinds in SPAN_METRICS:
        stat = tracer.stats.get(span, Stat())
        for kind in kinds:
            out[f"{span}.{kind}"] = (
                (stat.calls, "count") if kind == "calls" else (stat.self_s, "s")
            )
    for name in COUNT_METRICS:
        out[name] = (tracer.counts[name], "count")
    for name in ("kernels.bin_integral_matrix", "kernels.bin_integral_gradient_matrix"):
        out[f"{name}.bytes_computed"] = (
            tracer.counts[f"{name}.entries"] * FLOAT_BYTES, "B")
    m_steps = out["em.m_step.calls"][0]
    out["em.q_evals_per_m_step"] = (
        tracer.counts["em.q_evals"] / m_steps if m_steps else 0.0, "ratio")
    out["em.m_step.useful_ratio"] = (
        tracer.counts["em.m_step.status.improved"] / m_steps if m_steps else 0.0, "ratio")
    out["mm.root_failures"] = (tracer.stats.get("mm.complex_roots", Stat()).errors, "count")
    by_layer = tracer.self_seconds_by_prefix()
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[-1]
        out[f"layer.{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.untraced_s"] = (traced_wall_s - tracer.traced_seconds(), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    spans = len(tracer.spans) + tracer.dropped_spans
    out["trace.spans"] = (spans, "count")
    out["trace.span_cost_s"] = (spans * Tracer.span_cost_s(), "s")
    out["fail_ratio"] = (fail_ratio, "ratio")
    return out
