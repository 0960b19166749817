"""The evaluation tree: two perspectives, ranked criteria, ranked metrics.

Scoring is driven entirely by this structure. Trees are immutable after
construction; the weighting pass returns a new tree.
"""

from __future__ import annotations

import enum
import math
import sys
from pathlib import Path

from .documents import read_document, read_field
from .errors import ConfigError, Finding
from .ranking import dnlog_weight
from .records import record, replace

INTERACTION_SUM_TOL = 1e-9
REGISTRY_BINDINGS = ("complexity", "control-flow-pattern-support")
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


@record
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


@record
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


@record
class QualityCriterion:
    id: str
    name: str
    perspective: Perspective
    rank: int
    metrics: tuple[QualityMetric, ...]
    weight: float | None = None


@record
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

    def fully_weighted(self) -> bool:
        """Whether every criterion and metric weight is already present."""
        return all(c.weight is not None and all(m.weight is not None for m in c.metrics)
                   for c in self.criteria)


# ---------------------------------------------------------------------------
# Loading


def _parse_normalization(metric: dict, path: str) -> NormalizationSpec:
    document = read_field(metric, "normalization", dict, path, default=None)
    if document is None:
        return IDENTITY
    path = f"{path}.normalization"
    kind = read_field(document, "kind", NormalizationKind, path)
    lo, hi = (read_field(document, key, float, path, default=None) for key in ("lo", "hi"))
    try:
        return NormalizationSpec(kind=kind, lo=lo, hi=hi)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=path) from None


def _parse_ranked(document: dict, path: str) -> tuple[str, str, int, float | None]:
    """The id, name, rank and optional weight that criteria and metrics share."""
    node_id = read_field(document, "id", str, path)
    name = read_field(document, "name", str, path, default=node_id)
    rank = read_field(document, "rank", int, path)
    weight = document.get("weight")
    if weight is not None and type(weight) not in (int, float):
        raise ConfigError(f"weight must be a number, got {weight!r}", path=f"{path}.weight")
    return node_id, name, rank, weight


def _parse_metric(document: dict, path: str) -> QualityMetric:
    metric_id, name, rank, weight = _parse_ranked(document, path)
    return QualityMetric(
        id=metric_id,
        name=name,
        description=read_field(document, "description", str, path, default=""),
        source=read_field(document, "source", MetricSource, path),
        rank=rank,
        normalization=_parse_normalization(document, path),
        polarity=read_field(document, "polarity", Polarity, path, default=Polarity.HIGHER_IS_BETTER),
        weight=weight,
        binding=read_field(document, "binding", str, path, default=None),
    )


def _parse_criterion(document: dict, path: str) -> QualityCriterion:
    criterion_id, name, rank, weight = _parse_ranked(document, path)
    perspective = read_field(document, "perspective", Perspective, path)
    metrics = [_parse_metric(mdoc, f"{path}.metrics[{mi}]")
               for mi, mdoc in enumerate(read_field(document, "metrics", list, path, default=[]))]
    return QualityCriterion(id=criterion_id, name=name,
                            perspective=perspective, rank=rank,
                            metrics=tuple(sorted(metrics, key=lambda m: m.rank)), weight=weight)


def build_ett(document: dict) -> EvaluationTheoryTree:
    """Build a tree from its document form without checking its invariants.

    Raises ConfigError on a missing field, a value of the wrong type or an
    unknown enum value. Ranks, ids and weights are left to load_ett and
    validate_ett, so that validate_ett can report every violation.
    """
    version = read_field(document, "version", str)
    weights = read_field(document, "interaction_weights", dict,
                         default={"modeler": 0.156, "reader": 0.844})
    w_m, w_r = (read_field(weights, key, float, "interaction_weights") for key in ("modeler", "reader"))
    survey_d = document.get("survey_d", 10.0)
    if type(survey_d) is not float:  # validate_ett reports a float out of range, NaN included
        survey_d = read_field(document, "survey_d", float)
    criteria = [_parse_criterion(cdoc, f"criteria[{ci}]")
                for ci, cdoc in enumerate(read_field(document, "criteria", list))]
    criteria.sort(key=lambda c: (c.perspective.value, c.rank))
    return EvaluationTheoryTree(version=version, criteria=tuple(criteria), survey_d=survey_d,
                                interaction_weights=(w_m, w_r))


def _sibling_groups(tree: EvaluationTheoryTree):
    """Each group of ranked siblings, as (rank rule code, path, siblings)."""
    for perspective in Perspective:
        yield "criterion-rank-permutation", f"criteria({perspective.value})", tree.criteria_for(perspective)
    for criterion in tree.criteria:
        yield "rank-permutation", f"criteria[{criterion.id}].metrics", criterion.metrics


def _node_path(kind: str, criterion_id: str, node_id: str) -> str:
    """The path of a criterion, or of a metric of the criterion ``criterion_id``."""
    cpath = f"criteria[{criterion_id}]"
    return cpath if kind == "criterion" else f"{cpath}.metrics[{node_id}]"


def tree_violations(tree: EvaluationTheoryTree):
    """Every broken structural invariant of a tree, as findings.

    Sibling ranks must be permutations of 1..n, criterion and metric ids
    must be unique, and weights, where present, must be finite and > 0.
    compile_plan checks every tree it is given, so a node's path is
    formatted only for a finding.
    """
    for code, path, siblings in _sibling_groups(tree):
        ranks = sorted([s.rank for s in siblings])
        if ranks != [*range(1, len(ranks) + 1)]:
            yield Finding(code, path, f"rank permutation violation: ranks {ranks} "
                                      f"are not a permutation of 1..{len(ranks)}")
    first_seen: dict[tuple[str, str], str] = {}  # (kind, id) -> the criterion id of its first node
    for criterion in tree.criteria:
        for kind, node in (("criterion", criterion), *[("metric", m) for m in criterion.metrics]):
            key = (kind, node.id)
            if key in first_seen:
                yield Finding(f"duplicate-{kind}-id", _node_path(kind, criterion.id, node.id),
                              f"duplicate {kind} id {node.id!r} "
                              f"(also at {_node_path(kind, first_seen[key], node.id)})")
            else:
                first_seen[key] = criterion.id
            if node.weight is not None and not 0 < node.weight < math.inf:
                rule = "finite" if node.weight == math.inf else "> 0"
                yield Finding("nonpositive-weight", f"{_node_path(kind, criterion.id, node.id)}.weight",
                              f"weight must be {rule}, got {node.weight!r}")


def scoring_violations(tree: EvaluationTheoryTree):
    """Why a tree, however well formed, cannot be scored, as findings:
    interaction weights that are negative or do not sum to 1, a survey_d of at
    most 1 or of inf while some weight is still to be derived, a sibling group
    whose weighted sum of scores up to 10 would overflow a float or that holds
    a subnormal weight (its products with scores lose precision), a
    perspective without criteria, a criterion without metrics, and a binding
    to an unknown extractor or registry value.

    compile_plan raises the first of them; validate_ett reports them all.
    """
    from .metrics import EXTRACTORS  # metrics imports this module

    yield from interaction_weight_violations(*tree.interaction_weights)
    if not 1 < tree.survey_d < math.inf and not tree.fully_weighted():
        rule = "finite" if tree.survey_d == math.inf else "> 1"
        yield Finding("survey-d-range", "survey_d", f"survey_d must be {rule}, got {tree.survey_d}")
    # a derived weight is at most survey_d; a weight out of range is reported elsewhere
    d = tree.survey_d if 1 < tree.survey_d < math.inf else 0.0
    for _code, path, siblings in _sibling_groups(tree):
        weights = [w for w in (d if s.weight is None else s.weight for s in siblings) if 0 < w < math.inf]
        if not weights:
            continue
        largest, smallest = max(weights), min(weights)
        if 10.0 * len(siblings) * largest == math.inf:
            yield Finding("weight-overflow", path, f"weights of {path} up to {largest} overflow "
                                                   f"a weighted sum of {len(siblings)} scores up to 10")
        if smallest < sys.float_info.min:
            yield Finding("weight-underflow", path, f"weights of {path} down to {smallest} are below "
                                                    f"the smallest normal float {sys.float_info.min}")
    for perspective in Perspective:
        if not tree.criteria_for(perspective):
            yield Finding("perspective-incomplete", f"criteria({perspective.value})",
                          f"perspective incomplete: no {perspective.value} criteria")
    for criterion in tree.criteria:
        if not criterion.metrics:
            yield Finding("empty-criterion", f"criteria[{criterion.id}]",
                          f"criterion unscored: {criterion.id!r} holds no metrics")
    bindings = ((MetricSource.MODEL_DERIVED, EXTRACTORS, "unknown-extractor", "extractor {!r}"),
                (MetricSource.LANGUAGE_REGISTRY, REGISTRY_BINDINGS, "unknown-registry-value",
                 "registry value {!r} (known: " + ", ".join(REGISTRY_BINDINGS) + ")"))
    for source, known, code, unknown in bindings:
        for criterion in tree.criteria:
            for metric in criterion.metrics:
                if metric.source is source and metric.binding_key not in known:
                    yield Finding(code, f"criteria[{criterion.id}].metrics[{metric.id}].binding",
                                  f"metric {metric.id!r} binds to unknown "
                                  + unknown.format(metric.binding_key))


def load_ett(document: dict) -> EvaluationTheoryTree:
    """build_ett, raising ConfigError on the first broken structural invariant.

    Weights are optional; absent weights are derived later by assign_weights.
    """
    tree = build_ett(document)
    for finding in tree_violations(tree):
        raise ConfigError(finding.message, path=finding.path)
    return tree


def load_ett_file(path: str | Path) -> EvaluationTheoryTree:
    return read_document(path, load_ett)


# ---------------------------------------------------------------------------
# Weighting


def assign_weights(tree: EvaluationTheoryTree, d: float | None = None) -> EvaluationTheoryTree:
    """Derive the absent rank weights of every sibling group, keeping the
    pinned ones; returns a new tree.

    Within each group of n ranked siblings, rank 1 gets weight d, rank n
    gets weight 1, with a constant ratio in between; a singleton group gets
    d. ``dnlog_weight`` raises ValueError, once a weight is to be derived
    with d, for a d that is not finite and > 1 or a weight past the
    largest float.
    """
    if d is None:
        d = tree.survey_d

    def weight(node, n_siblings: int) -> float:
        return node.weight if node.weight is not None else dnlog_weight(n_siblings, node.rank, d)

    # one constructor call per node: half the cost of a replace, which reads every field back first
    new_criteria: list[QualityCriterion] = []
    for perspective in Perspective:
        group = tree.criteria_for(perspective)
        for criterion in group:
            n_metrics = len(criterion.metrics)
            metrics = tuple(
                QualityMetric(id=m.id, name=m.name, description=m.description, source=m.source,
                              rank=m.rank, normalization=m.normalization, polarity=m.polarity,
                              weight=weight(m, n_metrics), binding=m.binding)
                for m in criterion.metrics)
            new_criteria.append(QualityCriterion(
                id=criterion.id, name=criterion.name, perspective=criterion.perspective,
                rank=criterion.rank, metrics=metrics, weight=weight(criterion, len(group))))
    new_criteria.sort(key=lambda c: (c.perspective.value, c.rank))
    return replace(tree, criteria=tuple(new_criteria))


def ensure_weighted(tree: EvaluationTheoryTree) -> EvaluationTheoryTree:
    """Assign the absent weights with the tree's own d; the tree itself if none is absent."""
    return tree if tree.fully_weighted() else assign_weights(tree)


# ---------------------------------------------------------------------------
# Validation


def interaction_weight_violations(w_m: float, w_r: float):
    """How a (modeler, reader) pair of interaction weights breaks the rule
    that both are >= 0 and sum to 1, as findings."""
    # written so that a NaN weight fails every comparison and is reported
    if not abs(w_m + w_r - 1.0) <= INTERACTION_SUM_TOL:
        yield Finding("interaction-weights-sum", "interaction_weights",
                      f"interaction weights must sum to 1, got {w_m} + {w_r}")
    if not (w_m >= 0 and w_r >= 0):
        yield Finding("interaction-weights-range", "interaction_weights",
                      f"interaction weights must be >= 0, got ({w_m}, {w_r})")


def validate_ett(tree: EvaluationTheoryTree) -> tuple[Finding, ...]:
    """Every invariant violation of an already-constructed tree.

    scoring_violations and structural violations are errors; non-canonical
    catalog shapes (metric counts differing from the shipped 96 = 54 + 42)
    are warnings only, since the catalog is meant to be extended.
    """
    findings = (*scoring_violations(tree), *tree_violations(tree))
    total = tree.metric_count()
    modeler = tree.metric_count(Perspective.MODELER)
    reader = tree.metric_count(Perspective.READER)
    if (total, modeler, reader) != (CANONICAL_TOTAL, CANONICAL_MODELER, CANONICAL_READER):
        findings += (Finding("non-canonical-metric-count", "criteria",
                             f"catalog holds {total} metrics ({modeler} modeler / {reader} reader); "
                             f"the shipped default holds {CANONICAL_TOTAL} "
                             f"({CANONICAL_MODELER} / {CANONICAL_READER})", "warning"),)
    return findings
