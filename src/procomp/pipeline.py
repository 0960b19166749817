"""End-to-end evaluation: model + tree + registry + responses -> scores.

Languages feed the tree through registry bindings ("complexity" and
"control-flow-pattern-support"), the model through the metric extractors,
and respondents through the questionnaire scorer. Reader questionnaire
scores are averaged per metric across respondents before aggregation,
which (all aggregation being linear) equals averaging the per-respondent
perspective scores.

``compile_plan`` does the work that depends only on the config, once;
``ScoringPlan.evaluate`` then scores one model at a time. Both look up
the functions they call in this module's namespace at call time, so that a
tracer can wrap them from outside, as ``perfbench/worker.py`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .bpmn import ProcessModelGraph
from .errors import ConfigError, ResponseError, ScoringError
from .ett import (
    EvaluationTheoryTree,
    MetricSource,
    Perspective,
    ensure_weighted,
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
    average_scores,
    score_responses,
    validate_schema,
)
from .scoring import (
    ComprehensionEvaluation,
    CriterionResult,
    MetricResult,
    aggregate_criterion,
    combined_score,
    detect_noise,
    perspective_score,
)

_REGISTRY_BINDINGS = ("complexity", "control-flow-pattern-support")


def language_metric_values(
    registry: Sequence[LanguageDescriptor],
    language: str,
) -> dict[str, float]:
    """Raw registry values for one language, keyed by binding name."""
    by_name = {d.name: d for d in registry}
    if language not in by_name:
        known = ", ".join(sorted(by_name))
        raise ConfigError(f"language {language!r} not registered (known: {known})")
    complexity = normalize_complexity(registry)[language]
    pattern_pct = control_flow_percentage(by_name[language])
    return {
        "complexity": complexity,
        "control-flow-pattern-support": pattern_pct,
    }


@dataclass(frozen=True)
class ScoringPlan:
    """The part of scoring that depends only on the config, compiled once.

    ``tree`` is weighted and both questionnaire schemas have been checked
    against it; ``questionnaire_scores`` holds the modeler scores and the
    reader scores averaged across respondents. The plan is plain data, so
    it can be pickled into worker processes and evaluate any number of
    models.
    """

    tree: EvaluationTheoryTree
    registry: tuple[LanguageDescriptor, ...]
    questionnaire_scores: dict[str, float]
    interaction_weights: tuple[float, float]
    noise_threshold: float
    language: str | None

    def evaluate(self, graph: ProcessModelGraph, *, model_id: str = "model") -> ComprehensionEvaluation:
        """Extract, normalize, aggregate and flag one model."""
        tree = self.tree
        # Raw values per metric id, from each non-questionnaire source.
        raw_values: dict[str, float] = {
            rv.metric_id: rv.value for rv in extract_metrics(graph, tree)
        }
        registry_values = language_metric_values(self.registry, self.language or graph.language)
        for metric in tree.all_metrics():
            if metric.source is MetricSource.LANGUAGE_REGISTRY:
                if metric.binding_key not in registry_values:
                    raise ConfigError(
                        f"metric {metric.id!r} binds to unknown registry value "
                        f"{metric.binding_key!r} (known: {', '.join(_REGISTRY_BINDINGS)})"
                    )
                raw_values[metric.id] = registry_values[metric.binding_key]

        questionnaire_scores = self.questionnaire_scores
        criteria_results: list[CriterionResult] = []
        for criterion in tree.criteria:
            metric_results: list[MetricResult] = []
            missing: list[str] = []
            for metric in criterion.metrics:
                if metric.source in (MetricSource.MODELER_QUESTIONNAIRE,
                                     MetricSource.READER_QUESTIONNAIRE):
                    if metric.id not in questionnaire_scores:
                        missing.append(metric.id)
                        continue
                    raw = None
                    score = questionnaire_scores[metric.id]
                else:
                    if metric.id not in raw_values:
                        missing.append(metric.id)
                        continue
                    raw = raw_values[metric.id]
                    score = normalize_metric(raw, metric.normalization, metric.polarity)
                metric_results.append(MetricResult(
                    id=metric.id,
                    name=metric.name,
                    source=metric.source,
                    score=score,
                    weight=metric.weight,
                    raw=raw,
                ))
            if missing:
                raise ScoringError(
                    f"criterion unscored: {criterion.id!r} is missing scores for "
                    + ", ".join(missing)
                )
            q_c = aggregate_criterion(
                [m.score for m in metric_results],
                [m.weight for m in metric_results],
            )
            criteria_results.append(CriterionResult(
                id=criterion.id,
                name=criterion.name,
                perspective=criterion.perspective,
                score=q_c,
                weight=criterion.weight,
                metrics=tuple(metric_results),
            ))

        def _perspective(perspective: Perspective) -> float:
            group = [c for c in criteria_results if c.perspective is perspective]
            if not group:
                raise ScoringError(f"perspective incomplete: no {perspective.value} criteria")
            return perspective_score([c.score for c in group], [c.weight for c in group])

        s_m = _perspective(Perspective.MODELER)
        s_r = _perspective(Perspective.READER)
        w_m, w_r = self.interaction_weights
        s_b = combined_score(s_m, s_r, w_m, w_r)

        evaluation = ComprehensionEvaluation(
            model_id=model_id,
            criteria=tuple(criteria_results),
            s_m=s_m,
            s_r=s_r,
            s_b=s_b,
            w_m=w_m,
            w_r=w_r,
            noise_threshold=self.noise_threshold,
        )
        return replace(evaluation, flags=tuple(detect_noise(evaluation, self.noise_threshold)))


def compile_plan(
    tree: EvaluationTheoryTree,
    registry: Sequence[LanguageDescriptor],
    modeler_responses: ResponseSet,
    reader_responses: Sequence[ResponseSet],
    modeler_schema: QuestionnaireSchema,
    reader_schema: QuestionnaireSchema,
    *,
    noise_threshold: float = 4.0,
    interaction_weights: tuple[float, float] | None = None,
    language: str | None = None,
) -> ScoringPlan:
    """Weight the tree, check both schemas against it and score every
    response set, once for all the models the plan will evaluate."""
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

    questionnaire_scores: dict[str, float] = dict(
        score_responses(modeler_schema, modeler_responses)
    )
    questionnaire_scores.update(
        average_scores([score_responses(reader_schema, r) for r in reader_responses])
    )
    return ScoringPlan(
        tree=tree,
        registry=tuple(registry),
        questionnaire_scores=questionnaire_scores,
        interaction_weights=interaction_weights if interaction_weights is not None
        else tree.interaction_weights,
        noise_threshold=noise_threshold,
        language=language,
    )


def evaluate_model(
    graph: ProcessModelGraph,
    tree: EvaluationTheoryTree,
    registry: Sequence[LanguageDescriptor],
    modeler_responses: ResponseSet,
    reader_responses: Sequence[ResponseSet],
    modeler_schema: QuestionnaireSchema,
    reader_schema: QuestionnaireSchema,
    *,
    model_id: str = "model",
    noise_threshold: float = 4.0,
    interaction_weights: tuple[float, float] | None = None,
    language: str | None = None,
) -> ComprehensionEvaluation:
    """Run the whole scoring pipeline for one model."""
    plan = compile_plan(tree, registry, modeler_responses, reader_responses,
                        modeler_schema, reader_schema, noise_threshold=noise_threshold,
                        interaction_weights=interaction_weights, language=language)
    return plan.evaluate(graph, model_id=model_id)
