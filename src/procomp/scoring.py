"""Aggregate metric scores into criterion, perspective, and combined scores.

All aggregation is weight-normalized, so every result stays inside the
[1, 10] band of its inputs; the combined score is the convex combination
of the two perspective scores.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ScoringError
from .ett import MetricSource, Perspective, interaction_weight_violations
from .ranking import weighted_mean_rank
from .records import record

COMBINED_CONSISTENCY_TOL = 1e-9
DEFAULT_NOISE_THRESHOLD = 4.0


def aggregate_criterion(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Weight-normalized sum of metric scores: sum(w*s) / sum(w).

    The result is pinned into [min(scores), max(scores)] so floating-point
    round-off can never push it outside the input band.
    """
    if not scores:
        raise ScoringError("criterion unscored: no metric scores available")
    if len(scores) != len(weights):
        raise ScoringError(f"{len(scores)} scores vs {len(weights)} weights")
    if any(w <= 0 for w in weights):
        raise ScoringError("metric weights must be > 0")
    mean = weighted_mean_rank(scores, weights)
    return min(max(mean, min(scores)), max(scores))


def perspective_score(criterion_scores: Sequence[float], criterion_weights: Sequence[float]) -> float:
    """Weight-normalized sum over a perspective's criterion scores."""
    if not criterion_scores:
        raise ScoringError("perspective incomplete: no criterion scores")
    return aggregate_criterion(criterion_scores, criterion_weights)


def combined_score(s_m: float, s_r: float, w_m: float, w_r: float) -> float:
    """Convex combination of the two perspective scores."""
    if any(interaction_weight_violations(w_m, w_r)):
        raise ScoringError(f"interaction weights ({w_m}, {w_r}) must be >= 0 and sum to 1")
    combined = w_m * s_m + w_r * s_r
    return min(max(combined, min(s_m, s_r)), max(s_m, s_r))


@record
class MetricResult:
    id: str
    name: str
    source: MetricSource
    score: float
    weight: float = 1.0
    raw: float | None = None


@record
class CriterionResult:
    id: str
    name: str
    perspective: Perspective
    score: float
    weight: float = 1.0
    metrics: tuple[MetricResult, ...] = ()


@record
class NoiseFlag:
    kind: str  # "metric" | "criterion"
    id: str
    name: str
    score: float
    threshold: float
    perspective: Perspective
    criterion_id: str

    @property
    def path(self) -> str:
        if self.kind == "criterion":
            return f"{self.perspective.value}/{self.criterion_id}"
        return f"{self.perspective.value}/{self.criterion_id}/{self.id}"


@record
class ComprehensionEvaluation:
    """Assembled result of one model evaluation.

    Construction validates the score ranges and the consistency of the
    combined score with its components.
    """

    model_id: str
    criteria: tuple[CriterionResult, ...]
    s_m: float
    s_r: float
    s_b: float
    w_m: float
    w_r: float
    noise_threshold: float = DEFAULT_NOISE_THRESHOLD
    flags: tuple[NoiseFlag, ...] = ()

    def __post_init__(self):
        for label, value in (("modeler", self.s_m), ("reader", self.s_r), ("combined", self.s_b)):
            if not 1.0 <= value <= 10.0:
                raise ScoringError(f"{label} score {value} outside [1, 10]")
        for criterion in self.criteria:
            if not 1.0 <= criterion.score <= 10.0:
                raise ScoringError(f"criterion {criterion.id!r} score {criterion.score} outside [1, 10]")
            for metric in criterion.metrics:
                if not 1.0 <= metric.score <= 10.0:
                    raise ScoringError(f"metric {metric.id!r} score {metric.score} outside [1, 10]")
        # the weights are checked, and the combination clamped, as scoring does it
        expected = combined_score(self.s_m, self.s_r, self.w_m, self.w_r)
        if abs(self.s_b - expected) > COMBINED_CONSISTENCY_TOL:
            raise ScoringError(
                f"combined score {self.s_b} inconsistent with components ({expected})"
            )

    def __iter__(self):
        return iter(self.criteria)

    def criteria_for(self, perspective: Perspective) -> tuple[CriterionResult, ...]:
        return tuple(c for c in self.criteria if c.perspective is perspective)

    def metric_results(self) -> tuple[tuple[CriterionResult, MetricResult], ...]:
        return tuple((c, m) for c in self.criteria for m in c.metrics)


def detect_noise(
    criteria: Iterable[CriterionResult],
    threshold: float = DEFAULT_NOISE_THRESHOLD,
) -> list[NoiseFlag]:
    """Every metric and criterion scoring below the threshold, worst first.

    ``criteria`` is the criterion results, or an evaluation, which iterates
    over its own."""
    flags = [
        NoiseFlag(kind=kind, id=item.id, name=item.name, score=item.score, threshold=threshold,
                  perspective=criterion.perspective, criterion_id=criterion.id)
        for criterion in criteria
        for kind, items in (("criterion", (criterion,)), ("metric", criterion.metrics))
        for item in items
        if item.score < threshold
    ]
    flags.sort(key=lambda flag: (flag.score, flag.id))
    return flags
