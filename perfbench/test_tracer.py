"""Tests for the benchmark's tracer and its per-layer hooks."""
from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from poisson_deconv import em, measures, mm, observation, pipeline  # noqa: E402
from poisson_deconv.em import EmConfig  # noqa: E402
from poisson_deconv.kernels import GaussianKernel  # noqa: E402
from poisson_deconv.measures import AtomicUniformMeasure  # noqa: E402
from poisson_deconv.observation import BinGrid  # noqa: E402
from tracer import Tracer  # noqa: E402


class StepClock:
    """Advances one second per reading, so span lengths count clock readings."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def nested_calls(tracer):
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("m.top", lambda: (mid(), leaf()))
    top()


def by_name(tracer):
    return {s.name: s for s in tracer.spans}


class TestSpans:
    def test_self_times_of_children_add_up_to_parent(self):
        tracer = Tracer(clock=StepClock())
        nested_calls(tracer)
        spans = tracer.spans
        for parent in spans:
            children = [s for s in spans if s.parent == parent.id]
            child_time = sum(s.end - s.start for s in children)
            assert parent.end - parent.start >= child_time
        top = by_name(tracer)["m.top"]
        assert tracer.traced_seconds() == pytest.approx(top.end - top.start)
        for name, stat in tracer.stats.items():
            mine = [s for s in spans if s.name == name]
            own = sum(
                (s.end - s.start)
                - sum(c.end - c.start for c in spans if c.parent == s.id)
                for s in mine
            )
            assert stat.self_s == pytest.approx(own)
            assert stat.calls == len(mine)

    def test_every_span_has_its_caller_as_parent(self):
        tracer = Tracer(clock=StepClock())
        nested_calls(tracer)
        ids = {s.id: s.name for s in tracer.spans}
        pairs = sorted((s.name, ids.get(s.parent)) for s in tracer.spans)
        assert pairs == [
            ("m.leaf", "m.mid"), ("m.leaf", "m.mid"), ("m.leaf", "m.top"),
            ("m.mid", "m.top"), ("m.top", None),
        ]

    def test_failed_call_closes_its_span_and_counts_an_error(self):
        tracer = Tracer(clock=StepClock())

        def boom():
            raise RuntimeError("no")

        outer = tracer.wrap("m.outer", tracer.wrap("m.boom", boom))
        with pytest.raises(RuntimeError):
            outer()
        assert tracer.open_names() == []
        assert tracer.stats["m.boom"].errors == 1
        assert by_name(tracer)["m.boom"].parent == by_name(tracer)["m.outer"].id


def snapshot(modules):
    owners = list(modules) + [
        cls for m in modules for cls in vars(m).values()
        if inspect.isclass(cls) and cls.__module__ == m.__name__
    ]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def tiny_image(k=2, n=10):
    kernel = GaussianKernel(sigma=0.1, dim=2)
    truth = AtomicUniformMeasure(np.array([[0.3, 0.4], [0.7, 0.6]])[:k])
    grid = BinGrid([0.0, 0.0], [1.0, 1.0], (n, n))
    return kernel, truth, observation.simulate(kernel, truth, grid, 1e4, 3)


class TestInstall:
    def test_wrappers_are_removed_after_a_traced_run(self):
        before = snapshot(layers.MODULES)
        original_run_em = em.run_em
        tracer = layers.new_tracer()
        with tracer.installed(layers.MODULES, exclude=layers.EXCLUDE):
            assert em.run_em is not original_run_em
            # a name imported into another module is replaced where it is looked up
            assert pipeline.run_em is em.run_em
            assert GaussianKernel.density is vars(GaussianKernel)["density"]
        assert snapshot(layers.MODULES) == before
        assert em.run_em is original_run_em and pipeline.run_em is original_run_em
        kernel, truth, image = tiny_image()
        measures.wasserstein_p(truth, truth, 1)
        mm.mm_complex(image, kernel, truth.k)
        assert tracer.spans == [] and tracer.stats == {}

    def test_wrappers_are_removed_when_the_run_raises(self):
        before = snapshot(layers.MODULES)
        with pytest.raises(KeyError):
            with layers.new_tracer().installed(layers.MODULES):
                raise KeyError("stop")
        assert snapshot(layers.MODULES) == before

    def test_spans_follow_the_call_chain_and_super_calls_share_a_span(self):
        kernel, truth, _ = tiny_image()
        grid = BinGrid([0.0, 0.0], [1.0, 1.0], (8, 8))
        tracer = layers.new_tracer()
        with tracer.installed(layers.MODULES, exclude=layers.EXCLUDE):
            image = observation.noiseless(kernel, truth, grid)
            mm.mm_complex(image, kernel, truth.k)
        names = {s.id: s.name for s in tracer.spans}
        parents = {(s.name, names.get(s.parent)) for s in tracer.spans}
        assert ("observation.intensities", "observation.noiseless") in parents
        assert ("kernels.bin_integral_matrix", "observation.intensities") in parents
        assert ("mm.estimate_moments", "mm.mm_complex") in parents
        assert ("mm.complex_roots", "mm.measure_from_moments") in parents
        # GaussianKernel -> _ProductKernel via super() is one call, not two
        assert tracer.stats["kernels.bin_integral_matrix"].calls == 1
        assert tracer.counts["kernels.bin_integral_matrix.entries"] == grid.m * truth.k


class TestLayerCounts:
    def test_em_counts_match_the_trace_and_the_gradient_calls(self):
        kernel, truth, image = tiny_image()
        init = AtomicUniformMeasure(truth.atoms + 0.02)
        tracer = layers.new_tracer()
        with tracer.installed(layers.MODULES, exclude=layers.EXCLUDE):
            _, trace = em.run_em(image, kernel, init, EmConfig(max_iterations=3))
        metrics = layers.per_layer_metrics(tracer, 1.0, 0.5, 0.0)
        value = {name: v for name, (v, _) in metrics.items()}
        assert value["em.run_em.calls"] == 1
        assert value["em.run_em.iterations"] == trace.iterations
        assert value["em.m_step.calls"] == trace.iterations
        assert sum(value[f"em.m_step.status.{s}"] for s in
                   ("improved", "line_search", "kept")) == trace.iterations
        # every gradient matrix in this run is evaluated inside an m_step
        assert value["em.q_evals"] == value["kernels.bin_integral_gradient_matrix.calls"] > 0
        assert value["kernels.bin_integral.calls"] == 0
        assert value["trace.untraced_s"] == pytest.approx(1.0 - tracer.traced_seconds())
        assert value["trace.overhead_s"] == pytest.approx(0.5)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(value) == {m["name"] for m in spec["per_layer"]}
