"""Questionnaire schemas, response validation, and response scoring.

True/false answers score 10 or 1; a Likert level maps linearly onto
[1, 10]. Reversed questions flip the score (11 - s). When several
questions feed one metric, the metric score is their arithmetic mean,
added with ``math.fsum``, so the order of the questions changes no bit.
"""

from __future__ import annotations

import enum
import math
from pathlib import Path

from .documents import read_document, read_field
from .errors import ConfigError, Finding, ResponseError
from .ett import EvaluationTheoryTree, MetricSource, Perspective
from .records import record


class QuestionKind(str, enum.Enum):
    TRUE_FALSE = "true-false"
    LIKERT = "likert"


class QuestionPolarity(str, enum.Enum):
    POSITIVE = "positive"
    REVERSED = "reversed"


@record
class Question:
    id: str
    text: str
    kind: QuestionKind
    metric_id: str
    levels: int | None = None  # Likert only
    polarity: QuestionPolarity = QuestionPolarity.POSITIVE

    def __post_init__(self):
        if self.kind is QuestionKind.LIKERT:
            if self.levels is None or self.levels < 2:
                raise ConfigError(f"question {self.id!r}: likert needs levels >= 2")
        elif self.levels is not None:
            raise ConfigError(f"question {self.id!r}: true/false takes no levels")


@record
class QuestionnaireSchema:
    version: str
    perspective: Perspective
    questions: tuple[Question, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for question in self.questions:
            if question.id in seen:
                raise ConfigError(f"duplicate question id {question.id!r}")
            seen.add(question.id)

    @property
    def expected_source(self) -> MetricSource:
        if self.perspective is Perspective.MODELER:
            return MetricSource.MODELER_QUESTIONNAIRE
        return MetricSource.READER_QUESTIONNAIRE


@record
class ResponseSet:
    respondent: str
    schema_version: str
    answers: dict[str, bool | int]


def validate_responses(schema: QuestionnaireSchema, responses: ResponseSet) -> list[Finding]:
    """Missing answers, unknown ids, wrong answer types, out-of-range levels,
    each at its question id."""
    findings: list[Finding] = []
    questions = {q.id for q in schema.questions}
    for question_id in responses.answers:
        if question_id not in questions:
            findings.append(Finding("unknown-question", question_id,
                                    f"answer for unknown question {question_id!r}"))
    for question in schema.questions:
        if question.id not in responses.answers:
            findings.append(Finding("missing-answer", question.id, f"missing answer: {question.id}"))
            continue
        answer = responses.answers[question.id]
        if question.kind is QuestionKind.TRUE_FALSE:
            if not isinstance(answer, bool):
                findings.append(Finding("wrong-type", question.id, f"expected true/false, got {answer!r}"))
        elif isinstance(answer, bool) or not isinstance(answer, int):
            findings.append(Finding("wrong-type", question.id, f"expected an integer level, got {answer!r}"))
        elif problem := level_out_of_range(question, answer):
            findings.append(Finding("out-of-range", question.id, problem))
    return findings


def level_out_of_range(question: Question, level: int) -> str | None:
    """Why ``level`` is not a level of the Likert ``question``; None if it is one."""
    if not 1 <= level <= question.levels:
        return f"level {level} outside [1, {question.levels}]"
    return None


def question_score(question: Question, answer: bool | int) -> float:
    if question.kind is QuestionKind.TRUE_FALSE:
        score = 10.0 if answer else 1.0
    else:
        score = 1.0 + 9.0 * (answer - 1) / (question.levels - 1)
    if question.polarity is QuestionPolarity.REVERSED:
        score = 11.0 - score
    return score


def score_responses(schema: QuestionnaireSchema, responses: ResponseSet) -> dict[str, float]:
    """Per-metric scores in [1, 10] for one respondent.

    Rejects response sets that do not validate cleanly.
    """
    findings = validate_responses(schema, responses)
    if findings:
        raise ResponseError(f"response set {responses.respondent!r} failed validation", tuple(findings))
    per_metric: dict[str, list[float]] = {}
    for question in schema.questions:
        score = question_score(question, responses.answers[question.id])
        per_metric.setdefault(question.metric_id, []).append(score)
    return {metric: math.fsum(scores) / len(scores) for metric, scores in per_metric.items()}


def validate_schema(schema: QuestionnaireSchema, tree: EvaluationTheoryTree) -> list[Finding]:
    """Cross-check question bindings against the evaluation tree.

    Every question must target an existing metric whose source matches the
    schema's perspective; every metric with that source must be covered by
    at least one question, whichever perspective's criterion holds it. A
    finding is at its question id; an uncovered metric has none.
    """
    findings: list[Finding] = []
    covered: set[str] = set()
    expected_source = schema.expected_source
    all_metrics = tree.all_metrics()
    metrics = {m.id: m for m in reversed(all_metrics)}  # the first of a duplicate id wins
    for question in schema.questions:
        metric = metrics.get(question.metric_id)
        if metric is None:
            findings.append(Finding("unknown-metric", question.id,
                                    f"question targets unknown metric {question.metric_id!r}"))
            continue
        if metric.source is not expected_source:
            findings.append(Finding("source-mismatch", question.id,
                                    f"metric {metric.id!r} has source {metric.source.value}, "
                                    f"expected {expected_source.value}"))
        covered.add(question.metric_id)
    for metric in all_metrics:
        if metric.source is expected_source and metric.id not in covered:
            findings.append(Finding("uncovered-metric", "", f"no question covers metric {metric.id!r}"))
    return findings


# ---------------------------------------------------------------------------
# Document form


def _load_question(document: dict, path: str) -> Question:
    return Question(
        id=read_field(document, "id", str, path),
        text=read_field(document, "text", str, path),
        kind=read_field(document, "kind", QuestionKind, path),
        metric_id=read_field(document, "metric", str, path),
        levels=read_field(document, "levels", int, path, default=None),
        polarity=read_field(document, "polarity", QuestionPolarity, path,
                            default=QuestionPolarity.POSITIVE),
    )


def load_schema(document: dict) -> QuestionnaireSchema:
    return QuestionnaireSchema(
        version=read_field(document, "version", str),
        perspective=read_field(document, "perspective", Perspective),
        questions=tuple(_load_question(q, f"questions[{qi}]")
                        for qi, q in enumerate(read_field(document, "questions", list))),
    )


def load_schema_file(path: str | Path) -> QuestionnaireSchema:
    return read_document(path, load_schema)


def load_responses(document: dict) -> ResponseSet:
    answers = read_field(document, "answers", dict)
    for qid, answer in answers.items():
        if not isinstance(answer, (bool, int)):
            raise ConfigError(f"expected a boolean or an integer, got {answer!r}", path=f"answers.{qid}")
    return ResponseSet(
        respondent=read_field(document, "respondent", str),
        schema_version=read_field(document, "schema_version", str, default="1"),
        answers=dict(answers),
    )


def load_responses_file(path: str | Path) -> ResponseSet:
    return read_document(path, load_responses)


def serialize_responses(responses: ResponseSet) -> dict:
    return {
        "version": "1",
        "respondent": responses.respondent,
        "schema_version": responses.schema_version,
        "answers": dict(sorted(responses.answers.items())),
    }
