import math
import random

import pytest

from procomp.errors import ConfigError, ResponseError
from procomp.ett import Perspective
from procomp.questionnaire import (
    Question,
    QuestionKind,
    QuestionPolarity,
    QuestionnaireSchema,
    ResponseSet,
    load_responses,
    question_score,
    score_responses,
    serialize_responses,
    validate_responses,
    validate_schema,
)

from conftest import make_answers, make_responses


def schema_of(*questions):
    return QuestionnaireSchema(version="1", perspective=Perspective.MODELER,
                               questions=tuple(questions))


LIKERT5 = dict(kind=QuestionKind.LIKERT, levels=5)


def test_default_schema_counts(modeler_schema, reader_schema):
    assert len(modeler_schema.questions) == 49
    assert len(reader_schema.questions) == 24


def test_default_schemas_bind_cleanly_to_default_tree(ett, modeler_schema, reader_schema):
    assert validate_schema(modeler_schema, ett) == []
    assert validate_schema(reader_schema, ett) == []


def test_complete_valid_responses_produce_empty_report(modeler_schema):
    responses = make_responses(modeler_schema, "m", 3)
    assert validate_responses(modeler_schema, responses) == []


def test_missing_answer_reported(modeler_schema):
    answers = make_answers(modeler_schema, 0)
    del answers["mq-07"]
    issues = validate_responses(
        modeler_schema, ResponseSet("m", "1", answers))
    assert [(i.code, i.path) for i in issues] == [("missing-answer", "mq-07")]
    assert "missing answer: mq-07" in issues[0].message


def test_out_of_range_likert_reported():
    q = Question(id="q1", text="?", metric_id="m", **LIKERT5)
    issues = validate_responses(schema_of(q), ResponseSet("r", "1", {"q1": 6}))
    assert [i.code for i in issues] == ["out-of-range"]


def test_unknown_question_and_wrong_type_reported():
    q = Question(id="q1", text="?", metric_id="m", **LIKERT5)
    issues = validate_responses(
        schema_of(q), ResponseSet("r", "1", {"q1": True, "q9": 1}))
    assert {i.code for i in issues} == {"unknown-question", "wrong-type"}


# ---------------------------------------------------------------------------
# Scoring


def test_likert_endpoints_and_midpoint():
    q = Question(id="q1", text="?", metric_id="m", **LIKERT5)
    assert question_score(q, 5) == 10.0
    assert question_score(q, 1) == 1.0
    assert question_score(q, 3) == pytest.approx(5.5)


def test_true_false_maps_to_10_and_1():
    q = Question(id="q1", text="?", kind=QuestionKind.TRUE_FALSE, metric_id="m")
    assert question_score(q, True) == 10.0
    assert question_score(q, False) == 1.0


def test_reversed_polarity_flips():
    q = Question(id="q1", text="?", metric_id="m",
                 polarity=QuestionPolarity.REVERSED, **LIKERT5)
    assert question_score(q, 5) == 1.0
    assert question_score(q, 1) == 10.0


def test_two_questions_one_metric_average():
    q1 = Question(id="q1", text="?", kind=QuestionKind.TRUE_FALSE, metric_id="m")
    q2 = Question(id="q2", text="?", kind=QuestionKind.TRUE_FALSE, metric_id="m")
    scores = score_responses(schema_of(q1, q2),
                             ResponseSet("r", "1", {"q1": True, "q2": False}))
    assert scores == {"m": 5.5}


def test_questions_of_one_metric_average_with_fsum():
    # levels 2, 4 and 3 of 6 score 2.8, 6.4 and 4.6; added in question order they
    # gave a mean of 4.6, and 4.6000000000000005 in another order
    questions = [Question(id=f"q{i}", text="?", metric_id="m", kind=QuestionKind.LIKERT, levels=6)
                 for i in range(3)]
    scores = score_responses(schema_of(*questions),
                             ResponseSet("r", "1", {"q0": 2, "q1": 4, "q2": 3}))
    assert scores == {"m": math.fsum([2.8, 6.4, 4.6]) / 3} == {"m": 4.6000000000000005}


def test_invalid_responses_rejected_with_report():
    q = Question(id="q1", text="?", metric_id="m", **LIKERT5)
    with pytest.raises(ResponseError) as exc:
        score_responses(schema_of(q), ResponseSet("r", "1", {}))
    assert exc.value.report[0].code == "missing-answer"


def test_scores_always_in_range(modeler_schema):
    rng = random.Random(13)
    for trial in range(50):
        answers = {}
        for q in modeler_schema.questions:
            if q.kind is QuestionKind.TRUE_FALSE:
                answers[q.id] = rng.random() < 0.5
            else:
                answers[q.id] = rng.randint(1, q.levels)
        scores = score_responses(modeler_schema, ResponseSet(f"r{trial}", "1", answers))
        assert all(1.0 <= s <= 10.0 for s in scores.values())


def test_raising_positive_likert_never_lowers_metric_scores(reader_schema):
    rng = random.Random(17)
    answers = make_answers(reader_schema, 4)
    base = score_responses(reader_schema, ResponseSet("r", "1", answers))
    positive_likert = [
        q for q in reader_schema.questions
        if q.kind is QuestionKind.LIKERT and q.polarity is QuestionPolarity.POSITIVE
    ]
    for _ in range(20):
        q = rng.choice(positive_likert)
        if answers[q.id] >= q.levels:
            continue
        bumped = dict(answers, **{q.id: answers[q.id] + 1})
        after = score_responses(reader_schema, ResponseSet("r", "1", bumped))
        assert all(after[m] >= base[m] for m in base)


def test_reversal_involution():
    rng = random.Random(23)
    for _ in range(50):
        levels = rng.randint(2, 9)
        q = Question(id="q", text="?", kind=QuestionKind.LIKERT,
                     levels=levels, metric_id="m")
        answer = rng.randint(1, levels)
        once = question_score(q, answer)
        assert 11.0 - (11.0 - once) == pytest.approx(once)


# ---------------------------------------------------------------------------
# Cross-checks and documents


def test_schema_question_targeting_wrong_source_is_flagged(ett):
    q = Question(id="q1", text="?", metric_id="r-comp-overall", **LIKERT5)
    issues = validate_schema(schema_of(q), ett)
    codes = {i.code for i in issues}
    assert "source-mismatch" in codes  # reader metric probed by modeler schema
    assert "uncovered-metric" in codes  # the 48 real modeler metrics lack questions


def test_responses_document_roundtrip(modeler_schema):
    responses = make_responses(modeler_schema, "resp-9", 5)
    again = load_responses(serialize_responses(responses))
    assert again == responses


def test_duplicate_question_id_rejected():
    q = Question(id="q1", text="?", metric_id="m", **LIKERT5)
    with pytest.raises(ConfigError, match="duplicate question id"):
        schema_of(q, q)


def test_likert_needs_levels():
    with pytest.raises(ConfigError):
        Question(id="q1", text="?", kind=QuestionKind.LIKERT, metric_id="m")
