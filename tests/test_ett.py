import math
import random
import sys

import pytest

from procomp import replace
from procomp.errors import ConfigError
from procomp.ett import (
    Perspective,
    assign_weights,
    build_ett,
    ensure_weighted,
    load_ett,
    validate_ett,
)
from procomp.defaults import default_ett, default_ett_document

from conftest import pinned_ett_document


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


def test_document_with_every_weight_pinned_loads_to_the_assigned_tree():
    pinned = load_ett(pinned_ett_document())
    assert pinned == assign_weights(default_ett())
    assert ensure_weighted(pinned) is pinned


def test_partially_pinned_weights_are_kept_and_the_rest_derived():
    document = default_ett_document()
    criterion = next(c for c in document["criteria"] if c["id"] == "m-language")
    criterion["weight"] = 2.0
    criterion["metrics"][0]["weight"] = 0.5
    pinned_metric = criterion["metrics"][0]["id"]
    weighted = ensure_weighted(load_ett(document))
    derived = assign_weights(default_ett())
    for ours, theirs in zip(weighted.criteria, derived.criteria, strict=True):
        assert ours.weight == (2.0 if ours.id == "m-language" else theirs.weight)
        for metric, reference in zip(ours.metrics, theirs.metrics, strict=True):
            assert metric.weight == (0.5 if metric.id == pinned_metric else reference.weight)


def test_serialization_is_canonically_ordered():
    document = default_ett_document()  # what `procomp init` writes
    perspectives = [c["perspective"] for c in document["criteria"]]
    assert perspectives == sorted(perspectives)
    for criterion in document["criteria"]:
        ranks = [m["rank"] for m in criterion["metrics"]]
        assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# Weighting


def test_weight_endpoints_n5_d10():
    tree = load_ett(minimal_document(metric_ranks=(1, 2, 3, 4, 5)))
    weighted = assign_weights(tree)
    weights = [m.weight for m in weighted.criteria[0].metrics]
    assert weights[0] == 10.0
    assert weights[4] == 1.0
    # direct substitution: rank 3 of 5 sits at 10**(2/4)
    assert math.isclose(weights[2], 10.0 ** 0.5, rel_tol=0, abs_tol=1e-12)
    assert weights[2] == pytest.approx(3.1622776601683795, abs=1e-12)


def test_weight_endpoints_n2_d4():
    tree = load_ett(minimal_document(metric_ranks=(1, 2)))
    weighted = assign_weights(replace(tree, survey_d=4.0))
    assert [m.weight for m in weighted.criteria[0].metrics] == [4.0, 1.0]


def test_singleton_group_gets_full_weight():
    weighted = assign_weights(load_ett(minimal_document()))
    assert weighted.criteria[0].metrics[0].weight == 10.0
    assert weighted.criteria[0].weight == 10.0


def test_weighting_rejects_d_at_most_one():
    tree = load_ett(minimal_document())
    for d in (1.0, 0.5, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and > 1"):
            assign_weights(replace(tree, survey_d=d))


def test_weighting_a_fully_pinned_tree_uses_no_d():
    # as scoring_violations, ett validate and score already accept it
    tree = load_ett(pinned_ett_document())
    assert assign_weights(replace(tree, survey_d=0.5)).criteria == assign_weights(tree).criteria


def test_weight_monotonicity_and_geometric_spacing():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        d = rng.uniform(1.01, 50.0)
        tree = assign_weights(replace(load_ett(minimal_document(tuple(range(1, n + 1)))), survey_d=d))
        weights = [m.weight for m in tree.criteria[0].metrics]
        assert all(a > b > 0 for a, b in zip(weights, weights[1:]))
        ratios = [a / b for a, b in zip(weights, weights[1:])]
        assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


# ---------------------------------------------------------------------------
# Validation


def test_default_tree_validates_clean():
    assert validate_ett(default_ett()) == ()


def test_interaction_weight_sum_violation():
    document = default_ett_document()
    document["interaction_weights"] = {"modeler": 0.3, "reader": 0.3}
    findings = validate_ett(load_ett(document))
    assert any(f.severity == "error" and f.code == "interaction-weights-sum" for f in findings)


@pytest.mark.parametrize("weights, path", [
    ({"modeler": "nan", "reader": 0.5}, "interaction_weights.modeler"),
    ({"modeler": "0.5", "reader": 0.5}, "interaction_weights.modeler"),
    ({"modeler": True, "reader": False}, "interaction_weights.modeler"),
    ({"modeler": math.nan, "reader": 0.5}, "interaction_weights.modeler"),
    ({"modeler": 0.5, "reader": math.inf}, "interaction_weights.reader"),
    ({"modeler": 10 ** 400, "reader": 0}, "interaction_weights.modeler"),
    ({"modeler": 0.5}, "interaction_weights"),  # the object that lacks the field
    ([0.5, 0.5], "interaction_weights"),
], ids=[f"weights{i}" for i in range(8)])
def test_interaction_weights_must_be_finite_numbers(weights, path):
    document = default_ett_document()
    document["interaction_weights"] = weights
    with pytest.raises(ConfigError) as exc:
        build_ett(document)
    assert exc.value.path == path


def test_non_canonical_count_is_warning_not_error():
    document = default_ett_document()
    # drop one metric (and re-rank) so the tree holds 95
    metrics = document["criteria"][0]["metrics"]
    metrics.pop()
    for rank, metric in enumerate(metrics, start=1):
        metric["rank"] = rank
    [finding] = validate_ett(load_ett(document))
    assert (finding.severity, finding.code) == ("warning", "non-canonical-metric-count")
    assert "95" in finding.message


def test_validate_reports_every_structural_violation():
    document = minimal_document(metric_ranks=(1, 1))
    document["criteria"][0]["metrics"][1]["weight"] = -1.0
    twin = dict(document["criteria"][0], rank=2)
    document["criteria"].append(twin)
    with pytest.raises(ConfigError, match="rank permutation violation"):
        load_ett(document)
    findings = validate_ett(build_ett(document))
    assert [f.code for f in findings if f.severity == "error"] == [
        "perspective-incomplete", "rank-permutation", "rank-permutation", "nonpositive-weight",
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
    assert codes == ["survey-d-range", "perspective-incomplete", "nonpositive-weight"]


def test_validate_reports_what_scoring_needs_of_a_tree():
    # the minimal tree has no reader criteria; give it an empty modeler criterion too
    document = minimal_document()
    document["criteria"].append({"id": "c2", "perspective": "modeler", "rank": 2, "metrics": []})
    findings = validate_ett(load_ett(document))
    assert [(f.severity, f.code, f.path) for f in findings][:2] == [
        ("error", "perspective-incomplete", "criteria(reader)"),
        ("error", "empty-criterion", "criteria[c2]"),
    ]


def test_weights_that_overflow_a_weighted_sum_of_scores_are_reported():
    # per sibling group, 10 x its size x its largest weight must be finite; survey_d bounds
    # the derived weights, and a weight out of range is reported by its own rule alone
    document = default_ett_document()
    document["survey_d"] = 1e308
    findings = validate_ett(load_ett(document))
    groups = [f"criteria({p.value})" for p in Perspective] + [
        f"criteria[{c['id']}].metrics" for c in sorted(document["criteria"],
                                                        key=lambda c: (c["perspective"], c["rank"]))]
    assert [(f.code, f.path) for f in findings] == [("weight-overflow", path) for path in groups]
    assert findings[0].message == ("weights of criteria(modeler) up to 1e+308 overflow a weighted "
                                   "sum of 6 scores up to 10")
    document["survey_d"] = 1e300
    assert validate_ett(load_ett(document)) == ()
    document = pinned_ett_document()
    document["survey_d"] = 1e308  # no weight is derived with it
    assert validate_ett(load_ett(document)) == ()
    metrics = document["criteria"][0]["metrics"]
    metrics[0]["weight"] = sys.float_info.max / 5 / len(metrics)
    findings = validate_ett(load_ett(document))
    assert [(f.code, f.path) for f in findings] == [
        ("weight-overflow", f"criteria[{document['criteria'][0]['id']}].metrics")]
    metrics[0]["weight"] = sys.float_info.max / 11 / len(metrics)
    assert validate_ett(load_ett(document)) == ()
    document["criteria"][0]["weight"] = math.inf
    assert [f.code for f in validate_ett(build_ett(document))] == ["nonpositive-weight"]


def test_a_criterion_with_no_metrics_is_weighted_and_left_to_the_empty_criterion_rule():
    # build_ett checks no invariant, so the empty criterion reaches the weighting
    document = default_ett_document()
    next(c for c in document["criteria"] if c["id"] == "r-representation")["metrics"] = []
    tree = build_ett(document)
    weighted = next(c for c in assign_weights(tree).criteria if c.id == "r-representation")
    assert weighted.metrics == ()
    assert weighted.weight is not None
    assert [(f.code, f.path, f.message) for f in validate_ett(tree) if f.severity == "error"] == [
        ("empty-criterion", "criteria[r-representation]",
         "criterion unscored: 'r-representation' holds no metrics")]
