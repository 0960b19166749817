import math
import random

import pytest

from procomp.errors import ConfigError
from procomp.ett import (
    Perspective,
    assign_weights,
    build_ett,
    load_ett,
    serialize_ett,
    validate_ett,
)
from procomp.defaults import default_ett, default_ett_document


def minimal_document(metric_ranks=(1,)):
    return {
        "version": "1",
        "criteria": [
            {
                "id": "c1",
                "name": "Only criterion",
                "perspective": "modeler",
                "rank": 1,
                "metrics": [
                    {
                        "id": f"m{i}",
                        "name": f"Metric {i}",
                        "description": "",
                        "source": "modeler-questionnaire",
                        "rank": rank,
                    }
                    for i, rank in enumerate(metric_ranks, start=1)
                ],
            }
        ],
    }


def test_default_catalog_shape():
    tree = default_ett()
    assert tree.metric_count() == 96
    assert tree.metric_count(Perspective.MODELER) == 54
    assert tree.metric_count(Perspective.READER) == 42
    assert len(tree.criteria_for(Perspective.MODELER)) == 6
    assert len(tree.criteria_for(Perspective.READER)) == 7


def test_single_criterion_single_metric_tree_loads():
    tree = load_ett(minimal_document())
    assert tree.metric_count() == 1
    assert tree.criteria[0].metrics[0].rank == 1


def test_duplicate_rank_rejected():
    with pytest.raises(ConfigError, match="rank permutation violation"):
        load_ett(minimal_document(metric_ranks=(1, 2, 2)))


def test_duplicate_metric_id_rejected():
    document = minimal_document()
    document["criteria"][0]["metrics"].append(dict(
        document["criteria"][0]["metrics"][0], rank=2))
    with pytest.raises(ConfigError, match="duplicate metric id"):
        load_ett(document)


def test_unknown_perspective_rejected_with_path():
    document = minimal_document()
    document["criteria"][0]["perspective"] = "manager"
    with pytest.raises(ConfigError) as exc:
        load_ett(document)
    assert "criteria[0].perspective" in str(exc.value)


def test_missing_field_reports_path():
    document = minimal_document()
    del document["criteria"][0]["metrics"][0]["source"]
    with pytest.raises(ConfigError, match=r"criteria\[0\].metrics\[0\]"):
        load_ett(document)


def test_roundtrip_is_semantically_identical():
    tree = default_ett()
    assert load_ett(serialize_ett(tree)) == tree
    weighted = assign_weights(tree, 10.0)
    assert load_ett(serialize_ett(weighted)) == weighted


def test_serialization_is_canonically_ordered():
    document = serialize_ett(default_ett())
    perspectives = [c["perspective"] for c in document["criteria"]]
    assert perspectives == sorted(perspectives)
    for criterion in document["criteria"]:
        ranks = [m["rank"] for m in criterion["metrics"]]
        assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# Weighting


def test_weight_endpoints_n5_d10():
    tree = load_ett(minimal_document(metric_ranks=(1, 2, 3, 4, 5)))
    weighted = assign_weights(tree, 10.0)
    weights = [m.weight for m in weighted.criteria[0].metrics]
    assert weights[0] == 10.0
    assert weights[4] == 1.0
    # direct substitution: rank 3 of 5 sits at 10**(2/4)
    assert math.isclose(weights[2], 10.0 ** 0.5, rel_tol=0, abs_tol=1e-12)
    assert weights[2] == pytest.approx(3.1622776601683795, abs=1e-12)


def test_weight_endpoints_n2_d4():
    tree = load_ett(minimal_document(metric_ranks=(1, 2)))
    weighted = assign_weights(tree, 4.0)
    assert [m.weight for m in weighted.criteria[0].metrics] == [4.0, 1.0]


def test_singleton_group_gets_full_weight():
    weighted = assign_weights(load_ett(minimal_document()), 10.0)
    assert weighted.criteria[0].metrics[0].weight == 10.0
    assert weighted.criteria[0].weight == 10.0


def test_weighting_rejects_d_at_most_one():
    tree = load_ett(minimal_document())
    for d in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            assign_weights(tree, d)


def test_weight_monotonicity_and_geometric_spacing():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        d = rng.uniform(1.01, 50.0)
        tree = assign_weights(load_ett(minimal_document(tuple(range(1, n + 1)))), d)
        weights = [m.weight for m in tree.criteria[0].metrics]
        assert all(a > b > 0 for a, b in zip(weights, weights[1:]))
        ratios = [a / b for a, b in zip(weights, weights[1:])]
        assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


def test_metric_level_weighting_can_be_disabled():
    tree = load_ett(minimal_document(metric_ranks=(1, 2, 3)))
    weighted = assign_weights(tree, 10.0, metric_level=False)
    assert {m.weight for m in weighted.criteria[0].metrics} == {1.0}
    assert weighted.criteria[0].weight == 10.0


# ---------------------------------------------------------------------------
# Validation


def test_default_tree_validates_clean():
    report = validate_ett(default_ett())
    assert report.empty
    assert report.ok


def test_interaction_weight_sum_violation():
    document = default_ett_document()
    document["interaction_weights"] = {"modeler": 0.3, "reader": 0.3}
    report = validate_ett(load_ett(document))
    assert not report.ok
    assert any(e.code == "interaction-weights-sum" for e in report)


@pytest.mark.parametrize("weights", [
    {"modeler": "nan", "reader": 0.5},
    {"modeler": "0.5", "reader": 0.5},
    {"modeler": True, "reader": False},
    {"modeler": math.nan, "reader": 0.5},
    {"modeler": 0.5, "reader": math.inf},
    {"modeler": 10 ** 400, "reader": 0},
    {"modeler": 0.5},
    [0.5, 0.5],
])
def test_interaction_weights_must_be_finite_numbers(weights):
    document = default_ett_document()
    document["interaction_weights"] = weights
    with pytest.raises(ConfigError) as exc:
        build_ett(document)
    assert exc.value.path == "interaction_weights"


def test_non_canonical_count_is_warning_not_error():
    document = default_ett_document()
    # drop one metric (and re-rank) so the tree holds 95
    metrics = document["criteria"][0]["metrics"]
    metrics.pop()
    for rank, metric in enumerate(metrics, start=1):
        metric["rank"] = rank
    report = validate_ett(load_ett(document))
    assert report.ok
    assert [e.code for e in report] == ["non-canonical-metric-count"]
    assert "95" in report.entries[0].message


def test_validate_reports_every_structural_violation():
    document = minimal_document(metric_ranks=(1, 1))
    document["criteria"][0]["metrics"][1]["weight"] = -1.0
    twin = dict(document["criteria"][0], rank=2)
    document["criteria"].append(twin)
    with pytest.raises(ConfigError, match="rank permutation violation"):
        load_ett(document)
    report = validate_ett(build_ett(document))
    assert not report.ok
    assert [e.code for e in report if e.severity == "error"] == [
        "rank-permutation", "rank-permutation", "nonpositive-weight",
        "duplicate-criterion-id", "duplicate-metric-id", "duplicate-metric-id",
        "nonpositive-weight",
    ]


def test_build_ett_matches_load_ett_on_a_valid_tree():
    assert build_ett(default_ett_document()) == default_ett()


def test_inverse_linear_clamp_kind_rejected():
    document = minimal_document()
    document["criteria"][0]["metrics"][0]["normalization"] = {
        "kind": "inverse-linear-clamp", "lo": 0.0, "hi": 10.0}
    with pytest.raises(ConfigError, match="expected one of: identity, linear-clamp, boolean"):
        load_ett(document)


def test_validate_rejects_nan_survey_d_and_weights():
    document = minimal_document()
    document["survey_d"] = float("nan")
    document["criteria"][0]["metrics"][0]["weight"] = float("nan")
    with pytest.raises(ConfigError, match="weight must be > 0"):
        load_ett(document)
    codes = [e.code for e in validate_ett(build_ett(document)) if e.severity == "error"]
    assert codes == ["survey-d-range", "nonpositive-weight"]
