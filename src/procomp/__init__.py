"""Score how comprehensible business process models are.

The library evaluates a model from two perspectives (the modeler who
created it and the readers who work with it): a weighted catalog of
quality metrics is filled from the model's structure, the modeling
language's registry entry, and questionnaires, then aggregated into
per-criterion, per-perspective, and combined scores on a [1, 10] scale,
with low-scoring spots flagged as comprehension noise.
"""

from .bpmn import (
    Edge,
    EdgeKind,
    Node,
    NodeKind,
    ProcessModelGraph,
    parse_model,
    parse_model_file,
)
from .defaults import (
    builtin_language_registry,
    default_ett,
    default_ett_document,
    default_modeler_schema,
    default_reader_schema,
)
from .errors import (
    ConfigError,
    Finding,
    ModelParseError,
    ProcompError,
    ResponseError,
    ScoringError,
)
from .ett import (
    EvaluationTheoryTree,
    MetricSource,
    NormalizationKind,
    NormalizationSpec,
    Perspective,
    Polarity,
    QualityCriterion,
    QualityMetric,
    assign_weights,
    build_ett,
    load_ett,
    load_ett_file,
    validate_ett,
)
from .languages import (
    LanguageDescriptor,
    PatternSupportTable,
    PatternType,
    Support,
    complexity_score,
    control_flow_percentage,
    load_descriptor,
    load_descriptor_file,
    normalize_complexity,
    pattern_score,
)
from .metrics import EXTRACTORS, extract_metrics, normalize_metric
from .pipeline import ScoringPlan, compile_plan, evaluate_model
from .questionnaire import (
    Question,
    QuestionnaireSchema,
    ResponseSet,
    load_responses,
    load_responses_file,
    load_schema,
    load_schema_file,
    score_responses,
    validate_responses,
    validate_schema,
)
from .ranking import (
    MethodKind,
    RankMethod,
    SurveyDataset,
    compare_methods,
    dnlog_weight,
    load_survey_csv,
    method_weight,
    rank_items,
    weighted_mean_rank,
)
from .records import replace
from .report import ReportDocument, ReportFormat, export, parse_evaluation, render_summary
from .scoring import (
    ComprehensionEvaluation,
    CriterionResult,
    MetricResult,
    NoiseFlag,
    aggregate_criterion,
    combined_score,
    detect_noise,
    perspective_score,
)

__version__ = "0.1.0"
