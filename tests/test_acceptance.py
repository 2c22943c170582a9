"""Full-scale acceptance suite.

One test per criterion, at the configured scale and with fixed seeds, each
printing a one-line PASS/FAIL summary (run pytest with -s to see them).
Everything here is exact: no tolerances anywhere, only equality of
integers and booleans, except for wall-clock limits which are generous.
"""

import argparse

import pytest

from linkless import projection
from linkless.acceptance import (
    criterion_1_k6_experiment,
    criterion_2_k331_experiment,
    criterion_3_edge_reroutes,
    criterion_4_petersen_family,
    criterion_5_classifier_table,
    criterion_6_minor_minimality,
    criterion_7_oracle_equivalence,
    criterion_8_projection_independence,
    run_acceptance,
)
from linkless.cli import _at_least
from linkless.embedding import RetryLimitExceeded


def report(result, budget_seconds):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number}: {status} "
          f"({result.elapsed:.1f}s)  {result.name}")
    assert result.passed, result.details
    assert result.elapsed < budget_seconds, (
        f"criterion {result.number} took {result.elapsed:.1f}s, "
        f"budget {budget_seconds}s")


def test_criterion_1_conway_gordon_k6():
    report(criterion_1_k6_experiment(trials=1000, seed=0), 60)


def test_criterion_2_conway_gordon_k331():
    report(criterion_2_k331_experiment(trials=500, seed=0), 60)


def test_criterion_3_edge_reroute_invariance():
    result = criterion_3_edge_reroutes(trials=200, seed=0)
    report(result, 120)
    for name in ("k6", "k331"):
        doc = result.details[name]
        assert doc["preserved"] == 200
        assert doc["violations"] == []


def test_criterion_4_petersen_family():
    result = criterion_4_petersen_family()
    report(result, 10)
    assert result.details["closed_under_delta_y"] is True
    assert [m["edges"] for m in result.details["members"]] == [15] * 7


def test_criterion_5_classifier_table():
    result = criterion_5_classifier_table()
    report(result, 60)
    table = result.details["table"]
    assert table["grid4x4"]["verdict"] == "unlinked"
    assert table["K4,4"]["verdict"] == "linked"


def test_criterion_6_minor_minimality():
    result = criterion_6_minor_minimality()
    report(result, 600)
    assert all(v["minor_minimal"] for v in result.details.values())
    assert all(v["children"] == 30 for v in result.details.values())


def test_criterion_7_oracle_equivalence():
    result = criterion_7_oracle_equivalence()
    report(result, 600)
    # 1 + 1 + 2 + 4 + 11 + 34 + 156 isomorphism classes on 0..6 vertices
    assert result.details["isomorphism_classes"] == 209
    assert result.details["checks"] == 209 * 4
    assert result.details["disagreements"] == []


def test_criterion_8_projection_independence():
    result = criterion_8_projection_independence(embeddings=50, directions=10, seed=0)
    report(result, 60)
    assert result.details["mismatches"] == []


def test_criterion_8_builds_one_layout_per_embedding(monkeypatch):
    # every direction drawn for an embedding is a pass over that
    # embedding's one strand layout
    layouts, passes = [], []
    real_layout, real_pass = projection.strand_layout, projection.crossing_pass

    def built(*args):
        layouts.append(real_layout(*args))
        return layouts[-1]

    def counted(layout, direction):
        passes.append(layout)
        return real_pass(layout, direction)

    monkeypatch.setattr(projection, "strand_layout", built)
    monkeypatch.setattr(projection, "crossing_pass", counted)
    result = criterion_8_projection_independence(embeddings=5, directions=10)
    assert result.passed, result.details
    assert len(layouts) == 5 and len(passes) >= 50
    assert all(sum(drawn is layout for drawn in passes) >= 10 for layout in layouts)


def test_criterion_8_gives_up_through_the_direction_search(monkeypatch):
    # criterion 8 draws its directions through regular_projection, so a run
    # with no regular direction stops at the search's cap with its error
    tried = []

    def refuse(layout, direction):
        tried.append(direction)
        raise projection.NonRegularProjection("forced")

    monkeypatch.setattr(projection, "crossing_pass", refuse)
    with pytest.raises(RetryLimitExceeded, match="in 64 attempts"):
        criterion_8_projection_independence(embeddings=1)
    assert len(tried) == 64


@pytest.mark.parametrize("trials", [0, -1])
def test_out_of_range_trials_are_rejected(trials):
    # the same range as the CLI's --trials, and before any criterion runs
    with pytest.raises(argparse.ArgumentTypeError):
        _at_least(1)(str(trials))
    with pytest.raises(ValueError, match="at least 1"):
        run_acceptance(trials=trials)
