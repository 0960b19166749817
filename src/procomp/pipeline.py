"""End-to-end evaluation: model + tree + registry + responses -> scores.

Languages feed the tree through registry bindings ("complexity" and
"control-flow-pattern-support"), the model through the metric extractors,
and respondents through the questionnaire scorer. Reader questionnaire
scores are averaged per metric across respondents before aggregation,
which (all aggregation being linear) equals averaging the per-respondent
perspective scores. The average adds with ``math.fsum``, which rounds once,
so the order of the readers changes no bit of a score.

``compile_plan`` does the work that depends only on the config, once: it
resolves the scoring language, scores the questionnaire metrics and that
language's registry metrics, and the criteria that hold only those.
``ScoringPlan.evaluate`` then scores the model-derived metrics of one
model at a time, and aggregates the criteria that hold them. Both look up
the functions they call in this module's namespace at call time, so that a
tracer can wrap them from outside, as ``perfbench/worker.py`` does.
"""

from __future__ import annotations

import math
from typing import Sequence

from .bpmn import LANGUAGE, ProcessModelGraph
from .errors import ConfigError, ResponseError, ScoringError
from .ett import (
    REGISTRY_BINDINGS,
    EvaluationTheoryTree,
    MetricSource,
    Perspective,
    QualityCriterion,
    QualityMetric,
    ensure_weighted,
    scoring_violations,
    tree_violations,
)
from .languages import (
    LanguageDescriptor,
    control_flow_percentage,
    normalize_complexity,
)
from .metrics import extract_metrics, normalize_metric
from .questionnaire import (
    QuestionnaireSchema,
    ResponseSet,
    score_responses,
    validate_schema,
)
from .records import record
from .scoring import (
    DEFAULT_NOISE_THRESHOLD,
    ComprehensionEvaluation,
    CriterionResult,
    MetricResult,
    aggregate_criterion,
    combined_score,
    detect_noise,
    perspective_score,
)

def language_metric_values(registry: Sequence[LanguageDescriptor], language: str) -> dict[str, float]:
    """Raw registry values of ``language``, keyed by binding name. Its
    complexity is relative to the whole registry; only its own descriptor
    needs a control-flow catalog."""
    complexity = normalize_complexity(registry)
    if language not in complexity:
        known = ", ".join(sorted(complexity))
        raise ConfigError(f"language {language!r} not registered (known: {known})")
    descriptor = next(d for d in registry if d.name == language)
    return dict(zip(REGISTRY_BINDINGS, (complexity[language], control_flow_percentage(descriptor))))


def _metric_result(metric: QualityMetric, score: float, raw: float | None) -> MetricResult:
    return MetricResult(id=metric.id, name=metric.name, source=metric.source, score=score,
                        weight=metric.weight, raw=raw)


def _scored(metric: QualityMetric, raw: float) -> MetricResult:
    """The result of a model-derived or registry metric whose raw value is ``raw``."""
    return _metric_result(metric, normalize_metric(raw, metric.normalization, metric.polarity), raw)


def _criterion_result(criterion: QualityCriterion,
                      metric_results: tuple[MetricResult, ...]) -> CriterionResult:
    score = aggregate_criterion([m.score for m in metric_results],
                                [m.weight for m in metric_results])
    return CriterionResult(id=criterion.id, name=criterion.name, perspective=criterion.perspective,
                           score=score, weight=criterion.weight, metrics=metric_results)


@record
class ScoringPlan:
    """The part of scoring that depends only on the config, compiled once.

    ``tree`` is weighted, holds the interaction weights in effect and fits
    both questionnaire schemas. ``criteria`` follows ``tree.criteria``: a
    criterion that holds only questionnaire metrics is already a result;
    any other is its metrics, the questionnaire and registry ones already
    results (reader scores averaged across respondents) and the
    model-derived ones still to score. The plan is plain data, so it can
    be pickled into worker processes and evaluate any number of models.
    """

    tree: EvaluationTheoryTree
    criteria: tuple[CriterionResult | tuple[MetricResult | QualityMetric, ...], ...]
    noise_threshold: float

    def evaluate(self, graph: ProcessModelGraph, *, model_id: str = "model") -> ComprehensionEvaluation:
        """Extract, normalize and aggregate what depends on one model, then
        combine and flag; ``compile_plan`` has scored the rest and proved
        that every metric has a value."""
        raw_values = extract_metrics(graph, self.tree)
        criteria_results: list[CriterionResult] = []
        for criterion, planned in zip(self.tree.criteria, self.criteria):
            if isinstance(planned, CriterionResult):
                criteria_results.append(planned)
                continue
            metric_results = tuple(metric if isinstance(metric, MetricResult)
                                   else _scored(metric, raw_values[metric.id]) for metric in planned)
            criteria_results.append(_criterion_result(criterion, metric_results))

        def _perspective(perspective: Perspective) -> float:
            group = [c for c in criteria_results if c.perspective is perspective]
            return perspective_score([c.score for c in group], [c.weight for c in group])

        s_m = _perspective(Perspective.MODELER)
        s_r = _perspective(Perspective.READER)
        w_m, w_r = self.tree.interaction_weights
        s_b = combined_score(s_m, s_r, w_m, w_r)

        return ComprehensionEvaluation(
            model_id=model_id,
            criteria=tuple(criteria_results),
            s_m=s_m,
            s_r=s_r,
            s_b=s_b,
            w_m=w_m,
            w_r=w_r,
            noise_threshold=self.noise_threshold,
            flags=tuple(detect_noise(criteria_results, self.noise_threshold)),
        )


def compile_plan(
    tree: EvaluationTheoryTree,
    registry: Sequence[LanguageDescriptor],
    modeler_responses: ResponseSet,
    reader_responses: Sequence[ResponseSet],
    modeler_schema: QuestionnaireSchema,
    reader_schema: QuestionnaireSchema,
    *,
    noise_threshold: float = DEFAULT_NOISE_THRESHOLD,
    language: str | None = None,
) -> ScoringPlan:
    """Check the tree, weight it, check both schemas against it, score
    every response set and the registry metrics of ``language``
    (``bpmn.LANGUAGE`` if None), once for all the models the plan will
    evaluate, so that every config error is found before a model is parsed.
    The tree check raises the first error validate_ett reports: a
    ScoringError for a scoring rule, the ConfigError load_ett raises for a
    structural one. The plan combines the perspectives with the tree's own
    interaction weights."""
    for finding in scoring_violations(tree):
        raise ScoringError(finding.message)
    for finding in tree_violations(tree):
        raise ConfigError(finding.message, path=finding.path)
    if not reader_responses:
        raise ResponseError("at least one reader response set is required")
    tree = ensure_weighted(tree)

    for schema in (modeler_schema, reader_schema):
        findings = validate_schema(schema, tree)
        if findings:
            raise ResponseError(f"{schema.perspective.value} questionnaire does not fit the tree",
                                tuple(findings))

    questionnaire_scores = score_responses(modeler_schema, modeler_responses)
    reader_scores = [score_responses(reader_schema, r) for r in reader_responses]
    questionnaire_scores.update({key: math.fsum(s[key] for s in reader_scores) / len(reader_scores)
                                 for key in reader_scores[0]})

    registry_values = language_metric_values(tuple(registry), LANGUAGE if language is None else language)

    criteria: list[CriterionResult | tuple[MetricResult | QualityMetric, ...]] = []
    for criterion in tree.criteria:
        planned = tuple(metric if metric.source is MetricSource.MODEL_DERIVED
                        else _scored(metric, registry_values[metric.binding_key])
                        if metric.source is MetricSource.LANGUAGE_REGISTRY
                        else _metric_result(metric, questionnaire_scores[metric.id], None)
                        for metric in criterion.metrics)
        criteria.append(planned if any(isinstance(m, QualityMetric) for m in planned)
                        else _criterion_result(criterion, planned))
    return ScoringPlan(tree=tree, criteria=tuple(criteria), noise_threshold=noise_threshold)


def evaluate_model(graph: ProcessModelGraph, *config, model_id: str = "model",
                   **options) -> ComprehensionEvaluation:
    """Run the whole scoring pipeline for one model: ``config`` and
    ``options`` are ``compile_plan``'s arguments (the tree, the registry,
    the modeler and reader responses and the two schemas; then
    ``noise_threshold`` and ``language``)."""
    return compile_plan(*config, **options).evaluate(graph, model_id=model_id)
