"""End-to-end evaluation: model + tree + registry + responses -> scores.

Languages feed the tree through registry bindings ("complexity" and
"control-flow-pattern-support"), the model through the metric extractors,
and respondents through the questionnaire scorer. Reader questionnaire
scores are averaged per metric across respondents before aggregation,
which (all aggregation being linear) equals averaging the per-respondent
perspective scores.

``compile_plan`` does the work that depends only on the config, once: it
scores the questionnaire metrics, the criteria that hold only those, and
the registry values of every language. ``ScoringPlan.evaluate`` then
scores the model-derived and registry metrics of one model at a time,
and aggregates the criteria that hold them. Both look up
the functions they call in this module's namespace at call time, so that a
tracer can wrap them from outside, as ``perfbench/worker.py`` does.
"""

from __future__ import annotations

from typing import Sequence

from .bpmn import ProcessModelGraph
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
from .ranking import left_sum
from .records import record, replace
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

# the metrics ScoringPlan.evaluate scores for each model; compile_plan scores the rest
_PER_MODEL_SOURCES = (MetricSource.MODEL_DERIVED, MetricSource.LANGUAGE_REGISTRY)


def language_metric_values(
    registry: Sequence[LanguageDescriptor],
) -> dict[str, dict[str, float] | str]:
    """Raw registry values of every registered language, keyed by language
    and then by binding name; for a language whose values cannot be
    computed, the reason, which is an error only for a model in it."""
    complexity = normalize_complexity(registry)
    values: dict[str, dict[str, float] | str] = {}
    for descriptor in registry:
        try:
            values[descriptor.name] = dict(zip(REGISTRY_BINDINGS, (
                complexity[descriptor.name], control_flow_percentage(descriptor))))
        except ConfigError as exc:
            values[descriptor.name] = str(exc)
    return values


def _metric_result(metric: QualityMetric, score: float, raw: float | None) -> MetricResult:
    return MetricResult(id=metric.id, name=metric.name, source=metric.source, score=score,
                        weight=metric.weight, raw=raw)


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
    any other is its metrics, the questionnaire ones already results (reader
    scores averaged across respondents) and the model-derived and registry
    ones still to score. ``registry_values`` is ``language_metric_values``
    of the registry. The plan is plain data, so it can be pickled into
    worker processes and evaluate any number of models.
    """

    tree: EvaluationTheoryTree
    criteria: tuple[CriterionResult | tuple[MetricResult | QualityMetric, ...], ...]
    registry_values: dict[str, dict[str, float] | str]
    noise_threshold: float
    language: str | None

    def evaluate(self, graph: ProcessModelGraph, *, model_id: str = "model") -> ComprehensionEvaluation:
        """Extract, normalize and aggregate what depends on one model, then
        combine and flag; ``compile_plan`` has scored the rest and proved
        that every metric has a value."""
        raw_values = extract_metrics(graph, self.tree)
        language = self.language or graph.language
        registry_values = self.registry_values.get(language)
        if registry_values is None:
            known = ", ".join(sorted(self.registry_values))
            raise ConfigError(f"language {language!r} not registered (known: {known})")
        if isinstance(registry_values, str):
            raise ConfigError(registry_values)
        criteria_results: list[CriterionResult] = []
        for criterion, planned in zip(self.tree.criteria, self.criteria):
            if isinstance(planned, CriterionResult):
                criteria_results.append(planned)
                continue
            metric_results = []
            for metric in planned:
                if not isinstance(metric, MetricResult):
                    raw = (raw_values[metric.id] if metric.source is MetricSource.MODEL_DERIVED
                           else registry_values[metric.binding_key])
                    metric = _metric_result(
                        metric, normalize_metric(raw, metric.normalization, metric.polarity), raw)
                metric_results.append(metric)
            criteria_results.append(_criterion_result(criterion, tuple(metric_results)))

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
    interaction_weights: tuple[float, float] | None = None,
    language: str | None = None,
) -> ScoringPlan:
    """Check the tree (its first scoring_violations entry is raised), weight
    it, check both schemas against it and score every response set, once for
    all the models the plan will evaluate, so that every config error is
    found before a model is parsed. ``interaction_weights``, if given,
    replace the tree's."""
    if interaction_weights is not None:
        tree = replace(tree, interaction_weights=interaction_weights)
    for _code, _path, message in scoring_violations(tree):
        raise ScoringError(message)
    if not reader_responses:
        raise ResponseError("at least one reader response set is required")
    tree = ensure_weighted(tree)

    for schema in (modeler_schema, reader_schema):
        issues = validate_schema(schema, tree)
        if issues:
            raise ResponseError(
                f"{schema.perspective.value} questionnaire does not fit the tree "
                f"({len(issues)} issue(s))",
                report=issues,
            )

    questionnaire_scores = score_responses(modeler_schema, modeler_responses)
    reader_scores = [score_responses(reader_schema, r) for r in reader_responses]
    questionnaire_scores.update({key: left_sum(s[key] for s in reader_scores) / len(reader_scores)
                                 for key in reader_scores[0]})

    criteria: list[CriterionResult | tuple[MetricResult | QualityMetric, ...]] = []
    for criterion in tree.criteria:
        planned = tuple(metric if metric.source in _PER_MODEL_SOURCES
                        else _metric_result(metric, questionnaire_scores[metric.id], None)
                        for metric in criterion.metrics)
        criteria.append(planned if any(isinstance(m, QualityMetric) for m in planned)
                        else _criterion_result(criterion, planned))
    return ScoringPlan(
        tree=tree,
        criteria=tuple(criteria),
        registry_values=language_metric_values(tuple(registry)),
        noise_threshold=noise_threshold,
        language=language,
    )


def evaluate_model(graph: ProcessModelGraph, *config, model_id: str = "model",
                   **options) -> ComprehensionEvaluation:
    """Run the whole scoring pipeline for one model: ``config`` and
    ``options`` are ``compile_plan``'s arguments (the tree, the registry,
    the modeler and reader responses and the two schemas; then
    ``noise_threshold``, ``interaction_weights`` and ``language``)."""
    return compile_plan(*config, **options).evaluate(graph, model_id=model_id)
