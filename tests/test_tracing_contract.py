"""The benchmark's span tracer still matches the package.

`benchmarks/tracing.py` wraps functions by name and sizes `project` spans
from the returned diagram.  A rename in the package would leave a traced
run without those spans, or make it fail, so both are checked here, and
so is that every crossing pass of a trial is drawn inside a `project`
span.  The tracer is executed from its source text, which writes nothing
beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

import linkless.projection as projection
from linkless.embedding import random_embedding
from linkless.experiments import conway_gordon_experiment, edge_swap_check
from linkless.multigraph import complete_graph
from linkless.omega import regular_projection
from linkless.projection import embedding_layout
from oracles import crossing_oracle

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists(tracing):
    for module_name, (_, names) in tracing.TRACED.items():
        module = importlib.import_module(f"linkless.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"linkless.{module_name}.{name}"


@pytest.mark.parametrize("seed", range(3))
def test_project_span_size_is_the_crossing_count(tracing, seed):
    emb = random_embedding(complete_graph(6), seed)
    diagram = regular_projection(embedding_layout(emb), seed=seed)
    segments = [(eid, i, p, q) for eid, path in sorted(emb.edge_paths.items())
                for i, (p, q) in enumerate(zip(path, path[1:]))]
    expected = len(crossing_oracle(segments, diagram.direction))
    assert expected > 0
    assert tracing._SIZE["project"](diagram) == expected


@pytest.mark.parametrize("run", [conway_gordon_experiment, edge_swap_check],
                         ids=["experiment", "reroute-check"])
def test_every_crossing_pass_runs_inside_a_project_span(tracing, run, monkeypatch):
    # the main and the check pass of every trial, a reroute's included,
    # are `project` calls, so `projection.projections` counts them all
    tracer = tracing.Tracer()
    inside = []
    real_pass = projection.crossing_pass

    def watched(layout, direction):
        inside.append(any(span.name == "project" for span in tracer._stack))
        return real_pass(layout, direction)

    monkeypatch.setattr(projection, "crossing_pass", watched)
    with tracer.installed(), tracer.operation(0):
        run(complete_graph(6), trials=6, seed=0)
    assert len(inside) >= 2 * 6 and all(inside), inside
    assert sum(span.name == "project" for span in tracer.spans) == len(inside)
