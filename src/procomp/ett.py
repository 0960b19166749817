"""The evaluation tree: two perspectives, ranked criteria, ranked metrics.

Scoring is driven entirely by this structure. Trees are immutable after
construction; the weighting pass returns a new tree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .documents import read_json_object
from .errors import ConfigError
from .ranking import dnlog_weight

INTERACTION_SUM_TOL = 1e-9
CANONICAL_TOTAL = 96
CANONICAL_MODELER = 54
CANONICAL_READER = 42


class Perspective(str, enum.Enum):
    MODELER = "modeler"
    READER = "reader"


class MetricSource(str, enum.Enum):
    MODEL_DERIVED = "model-derived"
    MODELER_QUESTIONNAIRE = "modeler-questionnaire"
    READER_QUESTIONNAIRE = "reader-questionnaire"
    LANGUAGE_REGISTRY = "language-registry"


class Polarity(str, enum.Enum):
    HIGHER_IS_BETTER = "higher-is-better"
    LOWER_IS_BETTER = "lower-is-better"


class NormalizationKind(str, enum.Enum):
    IDENTITY = "identity"
    LINEAR_CLAMP = "linear-clamp"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class NormalizationSpec:
    """How a raw metric value maps into the universal [1, 10] scale."""

    kind: NormalizationKind
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind is NormalizationKind.LINEAR_CLAMP:
            if self.lo is None or self.hi is None:
                raise ConfigError(f"{self.kind.value} normalization needs lo and hi")
            if not self.lo < self.hi:
                raise ConfigError(f"normalization bounds must satisfy lo < hi, got {self.lo} >= {self.hi}")


IDENTITY = NormalizationSpec(NormalizationKind.IDENTITY)


@dataclass(frozen=True)
class QualityMetric:
    """One measurable aspect under a criterion.

    ``binding`` names the value source for non-questionnaire metrics: the
    extractor key for model-derived metrics, or a registry quantity
    ("complexity", "control-flow-pattern-support") for language metrics.
    It defaults to the metric id.
    """

    id: str
    name: str
    description: str
    source: MetricSource
    rank: int
    normalization: NormalizationSpec = IDENTITY
    polarity: Polarity = Polarity.HIGHER_IS_BETTER
    weight: float | None = None
    binding: str | None = None

    @property
    def binding_key(self) -> str:
        return self.binding if self.binding is not None else self.id


@dataclass(frozen=True)
class QualityCriterion:
    id: str
    name: str
    perspective: Perspective
    rank: int
    metrics: tuple[QualityMetric, ...]
    weight: float | None = None


@dataclass(frozen=True)
class EvaluationTheoryTree:
    """Criteria for both perspectives plus the global weighting parameters.

    ``survey_d`` is the top weight handed to rank 1 in every sibling group;
    ``interaction_weights`` is the (modeler, reader) pair used to combine
    the two perspective scores.
    """

    version: str
    criteria: tuple[QualityCriterion, ...]
    survey_d: float = 10.0
    interaction_weights: tuple[float, float] = (0.156, 0.844)

    def criteria_for(self, perspective: Perspective) -> tuple[QualityCriterion, ...]:
        return tuple(c for c in self.criteria if c.perspective is perspective)

    def metric_count(self, perspective: Perspective | None = None) -> int:
        if perspective is None:
            return sum(len(c.metrics) for c in self.criteria)
        return sum(len(c.metrics) for c in self.criteria_for(perspective))

    def all_metrics(self) -> tuple[QualityMetric, ...]:
        return tuple(m for c in self.criteria for m in c.metrics)

    def find_metric(self, metric_id: str) -> tuple[QualityCriterion, QualityMetric] | None:
        for criterion in self.criteria:
            for metric in criterion.metrics:
                if metric.id == metric_id:
                    return criterion, metric
        return None


# ---------------------------------------------------------------------------
# Loading and serialization


def _require(document: dict, key: str, path: str) -> Any:
    if not isinstance(document, dict):
        raise ConfigError(f"expected an object, got {type(document).__name__}", path=path)
    if key not in document:
        raise ConfigError(f"missing field {key!r}", path=path)
    return document[key]


def _parse_enum(enum_cls, value: str, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"unknown value {value!r}, expected one of: {allowed}", path=path) from None


def _parse_normalization(document: dict | None, path: str) -> NormalizationSpec:
    if document is None:
        return IDENTITY
    kind = _parse_enum(NormalizationKind, _require(document, "kind", path), f"{path}.kind")
    try:
        return NormalizationSpec(kind=kind, lo=document.get("lo"), hi=document.get("hi"))
    except (ConfigError, TypeError) as exc:
        raise ConfigError(str(exc), path=path) from None


def _parse_ranked(document: dict, path: str) -> tuple[str, int, float | None]:
    """The id, rank and optional weight that criteria and metrics share."""
    node_id = _require(document, "id", path)
    if not isinstance(node_id, str):
        raise ConfigError(f"id must be a string, got {node_id!r}", path=f"{path}.id")
    rank = _require(document, "rank", path)
    if type(rank) is not int or rank < 1:  # bool is an int subclass
        raise ConfigError(f"rank must be a positive integer, got {rank!r}", path=f"{path}.rank")
    weight = document.get("weight")
    if weight is not None and type(weight) not in (int, float):
        raise ConfigError(f"weight must be a number, got {weight!r}", path=f"{path}.weight")
    return node_id, rank, weight


def _parse_metric(document: dict, path: str) -> QualityMetric:
    metric_id, rank, weight = _parse_ranked(document, path)
    return QualityMetric(
        id=metric_id,
        name=document.get("name", metric_id),
        description=document.get("description", ""),
        source=_parse_enum(MetricSource, _require(document, "source", path), f"{path}.source"),
        rank=rank,
        normalization=_parse_normalization(document.get("normalization"), f"{path}.normalization"),
        polarity=_parse_enum(Polarity, document.get("polarity", Polarity.HIGHER_IS_BETTER.value), f"{path}.polarity"),
        weight=weight,
        binding=document.get("binding"),
    )


def _parse_criterion(document: dict, path: str) -> QualityCriterion:
    criterion_id, rank, weight = _parse_ranked(document, path)
    perspective = _parse_enum(Perspective, _require(document, "perspective", path), f"{path}.perspective")
    metrics = [_parse_metric(mdoc, f"{path}.metrics[{mi}]")
               for mi, mdoc in enumerate(document.get("metrics", []))]
    return QualityCriterion(id=criterion_id, name=document.get("name", criterion_id),
                            perspective=perspective, rank=rank,
                            metrics=tuple(sorted(metrics, key=lambda m: m.rank)), weight=weight)


def build_ett(document: dict) -> EvaluationTheoryTree:
    """Build a tree from its document form without checking its invariants.

    Raises ConfigError on a missing field, a value of the wrong type or an
    unknown enum value. Ranks, ids and weights are left to load_ett and
    validate_ett, so that validate_ett can report every violation.
    """
    version = str(_require(document, "version", ""))
    try:
        raw_weights = document.get("interaction_weights", {"modeler": 0.156, "reader": 0.844})
        interaction = tuple(raw_weights[key] for key in ("modeler", "reader"))
        # bool is an int subclass; float() of a huge int overflows
        if not all(type(w) in (int, float) and math.isfinite(float(w)) for w in interaction):
            raise ValueError
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ConfigError("interaction_weights must map 'modeler' and 'reader' to finite numbers",
                          path="interaction_weights") from None
    interaction = (float(interaction[0]), float(interaction[1]))
    try:
        survey_d = float(document.get("survey_d", 10.0))
        criteria = [_parse_criterion(cdoc, f"criteria[{ci}]")
                    for ci, cdoc in enumerate(_require(document, "criteria", ""))]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad tree document: {exc}") from exc
    criteria.sort(key=lambda c: (c.perspective.value, c.rank))
    return EvaluationTheoryTree(version=version, criteria=tuple(criteria), survey_d=survey_d,
                                interaction_weights=interaction)


def _tree_violations(tree: EvaluationTheoryTree):
    """Every broken structural invariant of a tree, as (code, path, message).

    Sibling ranks must be permutations of 1..n, criterion and metric ids
    must be unique, and weights, where present, must be > 0.
    """
    ranked = [("criterion-rank-permutation", f"criteria({p.value})", tree.criteria_for(p))
              for p in Perspective]
    ranked += [("rank-permutation", f"criteria[{c.id}].metrics", c.metrics) for c in tree.criteria]
    for code, path, siblings in ranked:
        ranks = sorted(s.rank for s in siblings)
        if ranks != list(range(1, len(ranks) + 1)):
            yield code, path, f"rank permutation violation: ranks {ranks} are not a permutation of 1..{len(ranks)}"
    first_seen: dict[tuple[str, str], str] = {}
    for criterion in tree.criteria:
        cpath = f"criteria[{criterion.id}]"
        nodes = [("criterion", criterion, cpath)]
        nodes += [("metric", m, f"{cpath}.metrics[{m.id}]") for m in criterion.metrics]
        for kind, node, path in nodes:
            if (kind, node.id) in first_seen:
                yield (f"duplicate-{kind}-id", path,
                       f"duplicate {kind} id {node.id!r} (also at {first_seen[kind, node.id]})")
            first_seen.setdefault((kind, node.id), path)
            if node.weight is not None and not node.weight > 0:
                yield "nonpositive-weight", f"{path}.weight", f"weight must be > 0, got {node.weight!r}"


def load_ett(document: dict) -> EvaluationTheoryTree:
    """build_ett, raising ConfigError on the first broken structural invariant.

    Weights are optional; absent weights are derived later by assign_weights.
    """
    tree = build_ett(document)
    for _code, path, message in _tree_violations(tree):
        raise ConfigError(message, path=path)
    return tree


def load_ett_file(path: str | Path) -> EvaluationTheoryTree:
    return load_ett(read_json_object(path))


def serialize_ett(tree: EvaluationTheoryTree) -> dict:
    """Document form of a tree, in canonical order (perspective, ranks)."""
    criteria = sorted(tree.criteria, key=lambda c: (c.perspective.value, c.rank))
    out_criteria = []
    for criterion in criteria:
        metrics = []
        for metric in sorted(criterion.metrics, key=lambda m: m.rank):
            mdoc: dict[str, Any] = {
                "id": metric.id,
                "name": metric.name,
                "description": metric.description,
                "source": metric.source.value,
                "rank": metric.rank,
                "polarity": metric.polarity.value,
            }
            if metric.normalization.kind is not NormalizationKind.IDENTITY:
                norm: dict[str, Any] = {"kind": metric.normalization.kind.value}
                if metric.normalization.lo is not None:
                    norm["lo"] = metric.normalization.lo
                    norm["hi"] = metric.normalization.hi
                mdoc["normalization"] = norm
            if metric.binding is not None:
                mdoc["binding"] = metric.binding
            if metric.weight is not None:
                mdoc["weight"] = metric.weight
            metrics.append(mdoc)
        cdoc: dict[str, Any] = {
            "id": criterion.id,
            "name": criterion.name,
            "perspective": criterion.perspective.value,
            "rank": criterion.rank,
            "metrics": metrics,
        }
        if criterion.weight is not None:
            cdoc["weight"] = criterion.weight
        out_criteria.append(cdoc)
    return {
        "version": tree.version,
        "survey_d": tree.survey_d,
        "interaction_weights": {
            "modeler": tree.interaction_weights[0],
            "reader": tree.interaction_weights[1],
        },
        "criteria": out_criteria,
    }


# ---------------------------------------------------------------------------
# Weighting


def assign_weights(
    tree: EvaluationTheoryTree,
    d: float | None = None,
    *,
    criterion_level: bool = True,
    metric_level: bool = True,
) -> EvaluationTheoryTree:
    """Derive rank weights for every sibling group; returns a new tree.

    Within each group of n ranked siblings, rank 1 gets weight d, rank n
    gets weight 1, with a constant ratio in between; a singleton group gets
    d. Levels can be weighted independently; a disabled level gets uniform
    weight 1.
    """
    if d is None:
        d = tree.survey_d
    if not d > 1:
        raise ValueError(f"weighting requires d > 1, got {d}")

    new_criteria: list[QualityCriterion] = []
    for perspective in Perspective:
        group = tree.criteria_for(perspective)
        n_criteria = len(group)
        for criterion in group:
            if not criterion.metrics:
                raise ConfigError(f"criterion {criterion.id!r} has no metrics to weight")
            cweight = dnlog_weight(n_criteria, criterion.rank, d) if criterion_level else 1.0
            n_metrics = len(criterion.metrics)
            new_metrics = tuple(
                replace(m, weight=dnlog_weight(n_metrics, m.rank, d) if metric_level else 1.0)
                for m in criterion.metrics
            )
            new_criteria.append(replace(criterion, weight=cweight, metrics=new_metrics))
    new_criteria.sort(key=lambda c: (c.perspective.value, c.rank))
    return replace(tree, criteria=tuple(new_criteria))


def ensure_weighted(tree: EvaluationTheoryTree) -> EvaluationTheoryTree:
    """Assign weights with the tree's own d unless every weight is present."""
    have_all = all(c.weight is not None for c in tree.criteria) and all(
        m.weight is not None for m in tree.all_metrics()
    )
    return tree if have_all else assign_weights(tree)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationEntry:
    severity: str  # "error" | "warning"
    code: str
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ValidationEntry, ...]

    @property
    def ok(self) -> bool:
        return not any(e.severity == "error" for e in self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries

    def __iter__(self):
        return iter(self.entries)

    def render(self) -> str:
        if self.empty:
            return "tree is valid"
        return "\n".join(f"{e.severity}: [{e.code}] {e.path}: {e.message}" for e in self.entries)


def validate_ett(tree: EvaluationTheoryTree) -> ValidationReport:
    """Every invariant violation of an already-constructed tree.

    Structural violations, bad interaction weights or survey_d and empty
    criteria are errors; non-canonical catalog shapes (metric counts
    differing from the shipped 96 = 54 + 42) are warnings only, since the
    catalog is meant to be extended.
    """
    errors: list[tuple[str, str, str]] = []
    w_m, w_r = tree.interaction_weights
    if abs(w_m + w_r - 1.0) > INTERACTION_SUM_TOL:
        errors.append(("interaction-weights-sum", "interaction_weights",
                       f"interaction weights must sum to 1, got {w_m} + {w_r}"))
    if not (0.0 <= w_m <= 1.0 and 0.0 <= w_r <= 1.0):
        errors.append(("interaction-weights-range", "interaction_weights",
                       f"interaction weights must lie in [0, 1], got ({w_m}, {w_r})"))
    if not tree.survey_d > 1:
        errors.append(("survey-d-range", "survey_d", f"survey_d must be > 1, got {tree.survey_d}"))
    errors += [("empty-criterion", f"criteria[{c.id}]", "criterion holds no metrics")
               for c in tree.criteria if not c.metrics]
    errors += _tree_violations(tree)
    entries = [ValidationEntry("error", *error) for error in errors]

    total = tree.metric_count()
    modeler = tree.metric_count(Perspective.MODELER)
    reader = tree.metric_count(Perspective.READER)
    if (total, modeler, reader) != (CANONICAL_TOTAL, CANONICAL_MODELER, CANONICAL_READER):
        entries.append(ValidationEntry(
            "warning", "non-canonical-metric-count", "criteria",
            f"catalog holds {total} metrics ({modeler} modeler / {reader} reader); "
            f"the shipped default holds {CANONICAL_TOTAL} "
            f"({CANONICAL_MODELER} / {CANONICAL_READER})"))
    return ValidationReport(tuple(entries))
