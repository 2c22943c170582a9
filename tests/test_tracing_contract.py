"""The benchmark's span tracer still matches the package.

`benchmarks/tracing.py` wraps functions by name and sizes `project` spans
from the returned diagram.  A rename in the package would leave a traced
run without those spans, or make it fail, so both are checked here.  The
tracer is executed from its source text, which writes nothing beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

from linkless.embedding import random_embedding
from linkless.multigraph import complete_graph
from linkless.omega import regular_projection
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
    diagram = regular_projection(emb, seed=seed)
    segments = [(eid, i, p, q) for eid, path in sorted(emb.edge_paths.items())
                for i, (p, q) in enumerate(zip(path, path[1:]))]
    expected = len(crossing_oracle(segments, diagram.direction))
    assert expected > 0
    assert tracing._SIZE["project"](diagram) == expected
