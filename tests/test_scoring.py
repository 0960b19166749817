import random

import pytest

from procomp.errors import ScoringError
from procomp.ett import MetricSource, Perspective
from procomp.scoring import (
    ComprehensionEvaluation,
    CriterionResult,
    MetricResult,
    aggregate_criterion,
    combined_score,
    detect_noise,
    perspective_score,
)

from oracles import normalized_weighted_sum

TABLE_ROWS = [
    # (modeler, reader, combined) for ten evaluated model variants
    (5.20, 6.35, 6.17),
    (5.39, 6.37, 6.22),
    (4.74, 6.29, 6.06),
    (4.69, 6.47, 6.20),
    (5.90, 6.38, 6.30),
    (5.19, 6.30, 6.14),
    (5.39, 6.39, 6.23),
    (4.70, 6.26, 6.04),
    (4.70, 6.28, 6.05),
    (5.89, 6.35, 6.29),
]

DEFAULT_WEIGHTS = (0.156, 0.844)


def metric(metric_id, score, weight=1.0):
    return MetricResult(id=metric_id, name=metric_id,
                        source=MetricSource.MODELER_QUESTIONNAIRE,
                        score=score, weight=weight)


def criterion(cid, perspective, score, metrics=()):
    return CriterionResult(id=cid, name=cid, perspective=perspective,
                           score=score, metrics=tuple(metrics))


def noise_fixture():
    """The worked diagnosis case: two weak metrics and one weak criterion."""
    information = criterion(
        "m-information", Perspective.MODELER, 5.01,
        metrics=[
            metric("m-info-completeness", 8.26),
            metric("m-info-correctness", 8.04),
            metric("m-info-availability", 2.1),
            metric("m-info-method", 1.6),
        ],
    )
    person = criterion("r-person", Perspective.READER, 5.34,
                       metrics=[metric("r-person-experience", 5.34)])
    representation = criterion("r-representation", Perspective.READER, 3.68)
    return ComprehensionEvaluation(
        model_id="case-study-loop",
        criteria=(information, person, representation),
        s_m=5.2, s_r=6.0, s_b=5.6, w_m=0.5, w_r=0.5,
    )


# ---------------------------------------------------------------------------
# Criterion aggregation


def test_all_tens_aggregate_to_ten():
    assert aggregate_criterion([10.0] * 4, [9.0, 3.0, 1.5, 1.0]) == 10.0


def test_hand_computed_weighted_mean():
    assert aggregate_criterion([10.0, 1.0], [9.0, 1.0]) == pytest.approx(9.1)


def test_singleton_criterion_passes_through():
    assert aggregate_criterion([7.3], [123.0]) == 7.3


def test_empty_criterion_rejected():
    with pytest.raises(ScoringError, match="criterion unscored"):
        aggregate_criterion([], [])


def test_nonpositive_weight_rejected():
    with pytest.raises(ScoringError):
        aggregate_criterion([5.0], [0.0])


def test_weight_scale_invariance():
    rng = random.Random(31)
    for _ in range(100):
        scores = [rng.uniform(1, 10) for _ in range(rng.randint(1, 8))]
        weights = [rng.uniform(0.1, 10) for _ in scores]
        scale = rng.uniform(0.01, 50)
        base = aggregate_criterion(scores, weights)
        scaled = aggregate_criterion(scores, [scale * w for w in weights])
        assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# Perspective score


def test_all_tens_perspective():
    assert perspective_score([10.0, 10.0, 10.0], [5.0, 2.0, 1.0]) == 10.0


def test_uniform_weights_mean():
    assert perspective_score([4.0, 6.0], [1.0, 1.0]) == 5.0


def test_six_criteria_match_spreadsheet_recomputation():
    rng = random.Random(37)
    for _ in range(100):
        scores = [rng.uniform(1, 10) for _ in range(6)]
        weights = [rng.uniform(0.5, 10) for _ in range(6)]
        expected = normalized_weighted_sum(scores, weights)
        assert perspective_score(scores, weights) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Combined score


def test_equal_perspectives_any_weights():
    for w_m in (0.0, 0.156, 0.5, 1.0):
        assert combined_score(7.0, 7.0, w_m, 1.0 - w_m) == 7.0


def test_reference_row_with_default_weights():
    s_b = combined_score(5.20, 6.35, *DEFAULT_WEIGHTS)
    assert s_b == pytest.approx(6.17, abs=0.02)


def test_all_table_rows_within_tolerance():
    for s_m, s_r, expected in TABLE_ROWS:
        s_b = combined_score(s_m, s_r, *DEFAULT_WEIGHTS)
        assert s_b == pytest.approx(expected, abs=0.03)


def test_bad_interaction_weights_rejected():
    with pytest.raises(ScoringError):
        combined_score(5.0, 6.0, 0.3, 0.3)
    with pytest.raises(ScoringError):
        combined_score(5.0, 6.0, -0.2, 1.2)


@pytest.mark.parametrize("w_m, w_r", [
    (float("nan"), 0.5), (0.5, float("nan")), (float("nan"), float("nan")),
    (float("inf"), float("-inf")),
])
def test_non_finite_interaction_weights_rejected(w_m, w_r):
    with pytest.raises(ScoringError):
        combined_score(5.0, 6.0, w_m, w_r)


def test_combined_always_between_components():
    rng = random.Random(41)
    for _ in range(200):
        s_m, s_r = rng.uniform(1, 10), rng.uniform(1, 10)
        w_m = rng.random()
        s_b = combined_score(s_m, s_r, w_m, 1.0 - w_m)
        assert min(s_m, s_r) <= s_b <= max(s_m, s_r)


# ---------------------------------------------------------------------------
# Bounds closure over the whole aggregation chain


def test_bounds_closure_random_evaluations():
    rng = random.Random(43)
    for _ in range(2000):
        criterion_scores = []
        criterion_weights = []
        for _ in range(rng.randint(1, 7)):
            metric_scores = [rng.uniform(1, 10) for _ in range(rng.randint(1, 9))]
            metric_weights = [rng.uniform(0.01, 10) for _ in metric_scores]
            q_c = aggregate_criterion(metric_scores, metric_weights)
            assert 1.0 <= q_c <= 10.0
            assert min(metric_scores) <= q_c <= max(metric_scores)
            criterion_scores.append(q_c)
            criterion_weights.append(rng.uniform(0.01, 10))
        s = perspective_score(criterion_scores, criterion_weights)
        assert 1.0 <= s <= 10.0


def test_monotone_aggregation():
    rng = random.Random(47)
    for _ in range(100):
        scores = [rng.uniform(1, 9) for _ in range(5)]
        weights = [rng.uniform(0.1, 5) for _ in range(5)]
        base = aggregate_criterion(scores, weights)
        index = rng.randrange(5)
        raised = list(scores)
        raised[index] = min(10.0, raised[index] + rng.uniform(0, 1))
        assert aggregate_criterion(raised, weights) >= base - 1e-12


# ---------------------------------------------------------------------------
# Noise diagnosis


def test_worked_example_flags_exactly_three_ascending():
    flags = detect_noise(noise_fixture(), threshold=4.0)
    assert [(f.kind, f.id) for f in flags] == [
        ("metric", "m-info-method"),
        ("metric", "m-info-availability"),
        ("criterion", "r-representation"),
    ]
    assert [f.score for f in flags] == [1.6, 2.1, 3.68]
    assert flags[0].path == "modeler/m-information/m-info-method"
    assert flags[2].path == "reader/r-representation"


def test_all_tens_no_flags():
    evaluation = ComprehensionEvaluation(
        model_id="perfect",
        criteria=(criterion("c", Perspective.MODELER, 10.0,
                            metrics=[metric("m", 10.0)]),),
        s_m=10.0, s_r=10.0, s_b=10.0, w_m=0.5, w_r=0.5,
    )
    assert detect_noise(evaluation, threshold=4.0) == []


def test_threshold_ten_flags_everything():
    fixture = noise_fixture()
    flags = detect_noise(fixture, threshold=10.0)
    metric_count = sum(len(c.metrics) for c in fixture.criteria)
    assert len(flags) == metric_count + len(fixture.criteria)


def test_evaluation_invariants_enforced():
    with pytest.raises(ScoringError, match="outside"):
        ComprehensionEvaluation(model_id="bad", criteria=(),
                                s_m=0.5, s_r=5.0, s_b=5.0, w_m=0.0, w_r=1.0)
    with pytest.raises(ScoringError, match="inconsistent"):
        ComprehensionEvaluation(model_id="bad", criteria=(),
                                s_m=5.0, s_r=7.0, s_b=5.0, w_m=0.5, w_r=0.5)
