"""The default metric catalog: 54 modeler and 42 reader metrics.

Rows are (id, name, description, source, binding, normalization, polarity)
with source codes md = model-derived, mq/rq = modeler/reader questionnaire,
lr = language registry. Normalization is None for identity, "bool", or
("linear", lo, hi). Criterion and metric ranks follow row order;
reorder rows (or edit the exported file) to re-rank.

Normalization bounds for model-derived metrics are pragmatic defaults:
counts clamp between an unproblematic lower bound and a size where models
are widely considered hard to read. They are meant to be tuned per
organization.
"""

from __future__ import annotations

_MODELER_CRITERIA = (
    ("m-language", "Process Modeling Language", (
        ("m-lang-complexity", "Language complexity",
         "Normalized complexity coefficient of the modeling language",
         "lr", "complexity", None, "+"),
        ("m-lang-pattern-support", "Workflow pattern support",
         "Share of the control-flow pattern catalog the language supports",
         "lr", "control-flow-pattern-support", ("linear", 0.0, 1.0), "+"),
        ("m-lang-familiarity", "Language familiarity",
         "How familiar the modeler is with the language", "mq", None, None, "+"),
        ("m-lang-notation-knowledge", "Notation knowledge",
         "Command of the notation symbols used", "mq", None, None, "+"),
        ("m-lang-grammar-knowledge", "Composition-rule knowledge",
         "Command of the rules for combining constructs", "mq", None, None, "+"),
        ("m-lang-expressiveness", "Expressiveness fit",
         "Whether the process could be expressed directly", "mq", None, None, "+"),
        ("m-lang-learnability", "Learnability",
         "How easy the language was to learn", "mq", None, None, "+"),
        ("m-lang-suitability", "Domain suitability",
         "Fit between language and process domain", "mq", None, None, "+"),
        ("m-lang-training", "Language training",
         "Formal training received for the language", "mq", None, None, "+"),
        ("m-lang-reference-use", "Reference dependence",
         "How often reference material was needed while modeling",
         "mq", None, None, "+"),
    )),
    ("m-tool", "Process Modeling Tool", (
        ("m-tool-usability", "Tool usability",
         "Overall usability of the modeling tool", "mq", None, None, "+"),
        ("m-tool-views", "Model views",
         "Availability of different views on the model", "mq", None, None, "+"),
        ("m-tool-syntax-support", "Syntax checking",
         "Tool checks syntax during modeling", "mq", None, None, "+"),
        ("m-tool-layout-support", "Layout support",
         "Help with arranging and laying out the model", "mq", None, None, "+"),
        ("m-tool-repository", "Model repository",
         "Versioned, shared model storage", "mq", None, None, "+"),
        ("m-tool-collaboration", "Collaboration support",
         "Working on models together with others", "mq", None, None, "+"),
        ("m-tool-documentation", "Tool documentation",
         "Quality of tool documentation and help", "mq", None, None, "+"),
        ("m-tool-export", "Interchange support",
         "Export to formats other tools understand", "mq", None, None, "+"),
    )),
    ("m-information", "Information", (
        ("m-info-completeness", "Completeness",
         "Completeness of the gathered process information", "mq", None, None, "+"),
        ("m-info-correctness", "Correctness",
         "Correctness of the gathered process information", "mq", None, None, "+"),
        ("m-info-availability", "Availability",
         "Availability of process information while modeling", "mq", None, None, "+"),
        ("m-info-method", "Retrieval methods",
         "Quality of the methods available for information retrieval",
         "mq", None, None, "+"),
        ("m-info-timeliness", "Timeliness",
         "Process information was up to date", "mq", None, None, "+"),
        ("m-info-sources", "Source access",
         "Access to the people who know the process best", "mq", None, None, "+"),
        ("m-info-consistency", "Consistency",
         "Absence of contradictory process information", "mq", None, None, "+"),
        ("m-info-granularity", "Granularity fit",
         "Information matched the needed level of detail", "mq", None, None, "+"),
        ("m-info-validation", "Expert validation",
         "Information validated with domain experts", "mq", None, None, "+"),
    )),
    ("m-errors", "Errors", (
        ("m-err-syntactic", "Syntactic errors",
         "Freedom from violations of the notation rules", "mq", None, None, "+"),
        ("m-err-semantic", "Semantic errors",
         "Freedom from logical errors such as deadlocks", "mq", None, None, "+"),
        ("m-err-or-routing", "Inclusive-gateway routing",
         "Count of inclusive gateways, whose semantics are error-prone",
         "md", "or-gateway-count", ("linear", 0.0, 5.0), "-"),
        ("m-err-labeling", "Label coverage",
         "Share of activities left unlabeled",
         "md", "unlabeled-ratio", ("linear", 0.0, 1.0), "-"),
        ("m-err-review", "Peer review",
         "Model reviewed by at least one other person", "mq", None, None, "+"),
        ("m-err-syntax-check", "Automated checks",
         "Automated validation run on the final model", "mq", None, None, "+"),
        ("m-err-pragmatic", "Convention adherence",
         "Consistent application of modeling conventions", "mq", None, None, "+"),
        ("m-err-rework", "Rework volume",
         "Rework needed after the first complete version", "mq", None, None, "+"),
        ("m-err-confidence", "Error confidence",
         "Confidence that the final model is error-free", "mq", None, None, "+"),
    )),
    ("m-person", "Person", (
        ("m-person-experience", "Modeling experience",
         "Experience in process modeling", "mq", None, None, "+"),
        ("m-person-domain-knowledge", "Domain knowledge",
         "Knowledge about the process domain", "mq", None, None, "+"),
        ("m-person-education", "Formal education",
         "Formal education or certification in process management",
         "mq", None, None, "+"),
        ("m-person-frequency", "Modeling frequency",
         "How frequently the modeler creates models", "mq", None, None, "+"),
        ("m-person-models-created", "Modeling volume",
         "Number of models created so far", "mq", None, None, "+"),
        ("m-person-motivation", "Motivation",
         "Motivation while creating this model", "mq", None, None, "+"),
        ("m-person-time", "Time budget",
         "Freedom from time pressure during modeling", "mq", None, None, "+"),
        ("m-person-process-involvement", "Process involvement",
         "First-hand involvement in the modeled process", "mq", None, None, "+"),
        ("m-person-confidence", "Skill confidence",
         "Confidence in own modeling skills", "mq", None, None, "+"),
    )),
    ("m-guidelines", "Process Modeling Guidelines", (
        ("m-guide-enterprise", "Enterprise guidelines",
         "Organization-specific modeling guidelines available", "mq", None, None, "+"),
        ("m-guide-academic", "Published guidelines",
         "Knowledge of published modeling guidelines", "mq", None, None, "+"),
        ("m-guide-start-events", "Start-event discipline",
         "Number of start events; a single explicit start reads best",
         "md", "start-event-count", ("linear", 1.0, 5.0), "-"),
        ("m-guide-end-events", "End-event discipline",
         "Number of end events; a single explicit end reads best",
         "md", "end-event-count", ("linear", 1.0, 5.0), "-"),
        ("m-guide-naming", "Naming conventions",
         "Consistent naming of activities and events", "mq", None, None, "+"),
        ("m-guide-size", "Size discipline",
         "Decomposition applied when the model grew large", "mq", None, None, "+"),
        ("m-guide-structure", "Structural rules",
         "Structured-modeling rules followed", "mq", None, None, "+"),
        ("m-guide-training", "Guideline training",
         "Training in the applicable guidelines", "mq", None, None, "+"),
        ("m-guide-compliance-check", "Compliance check",
         "Guideline compliance checked before release", "mq", None, None, "+"),
    )),
)

_READER_CRITERIA = (
    ("r-language", "Process Modeling Language", (
        ("r-lang-complexity", "Language complexity",
         "Normalized complexity coefficient of the modeling language",
         "lr", "complexity", None, "+"),
        ("r-lang-vocabulary", "Construct variety",
         "Number of distinct construct kinds used in the model",
         "md", "distinct-kind-count", ("linear", 2.0, 11.0), "-"),
        ("r-lang-familiarity", "Language familiarity",
         "How familiar the reader is with the language", "rq", None, None, "+"),
        ("r-lang-symbol-clarity", "Symbol clarity",
         "Symbols interpretable without looking them up", "rq", None, None, "+"),
        ("r-lang-notation-training", "Notation training",
         "Training for reading models in this language", "rq", None, None, "+"),
        ("r-lang-ambiguity", "Construct clarity",
         "Freedom from doubt about construct meaning", "rq", None, None, "+"),
    )),
    ("r-medium", "Medium", (
        ("r-medium-suitability", "Medium suitability",
         "Fit of the reading medium (paper, screen)", "rq", None, None, "+"),
        ("r-medium-legibility", "Legibility",
         "Legibility of labels and symbols as presented", "rq", None, None, "+"),
        ("r-medium-navigation", "Navigability",
         "Ease of navigating to relevant model parts", "rq", None, None, "+"),
        ("r-medium-annotations", "Annotation support",
         "Ability to highlight or annotate while reading", "rq", None, None, "+"),
    )),
    ("r-information", "Information", (
        ("r-info-participants", "Participant visibility",
         "Lanes making process participants explicit",
         "md", "lane-count", ("linear", 0.0, 6.0), "+"),
        ("r-info-pools", "Organizational context",
         "Pools separating the organizations involved",
         "md", "pool-count", ("linear", 0.0, 3.0), "+"),
        ("r-info-data", "Data visibility",
         "Data objects making exchanged information explicit",
         "md", "data-object-count", ("linear", 0.0, 10.0), "+"),
        ("r-info-sufficiency", "Sufficiency",
         "Model contained all information the reader needed", "rq", None, None, "+"),
        ("r-info-relevance", "Relevance",
         "Shown information was relevant to the process", "rq", None, None, "+"),
        ("r-info-clarity", "Clarity",
         "Model communicated clearly what happens", "rq", None, None, "+"),
        ("r-info-trust", "Currency trust",
         "Trust that the model reflects the current process", "rq", None, None, "+"),
    )),
    ("r-person", "Person", (
        ("r-person-experience", "Reading experience",
         "Experience in reading process models", "rq", None, None, "+"),
        ("r-person-domain-knowledge", "Domain knowledge",
         "Knowledge about the process domain", "rq", None, None, "+"),
        ("r-person-notation-knowledge", "Notation knowledge",
         "Command of the notation used in the model", "rq", None, None, "+"),
        ("r-person-motivation", "Motivation",
         "Motivation while working through the model", "rq", None, None, "+"),
    )),
    ("r-detail", "Level of Detail", (
        ("r-detail-nesting", "Nesting depth",
         "Depth of sub-process nesting",
         "md", "nesting-depth", ("linear", 0.0, 5.0), "-"),
        ("r-detail-decomposition", "Decomposition",
         "Explicit decomposition into sub-processes",
         "md", "subprocess-count", ("linear", 0.0, 5.0), "+"),
        ("r-detail-granularity", "Granularity fit",
         "Level of detail appropriate for understanding", "rq", None, None, "+"),
        ("r-detail-abstraction-fit", "Abstraction fit",
         "Needed details were not abstracted away", "rq", None, None, "+"),
        ("r-detail-uniformity", "Detail uniformity",
         "Uniform level of detail across the model", "rq", None, None, "+"),
        ("r-detail-completeness", "Step completeness",
         "Expected process steps were actually shown", "rq", None, None, "+"),
    )),
    ("r-representation", "Representation Factors", (
        ("r-rep-element-count", "Element count",
         "Number of flow elements in the model",
         "md", "node-count", ("linear", 0.0, 50.0), "-"),
        ("r-rep-block-structure", "Block structure",
         "Every split has a matching join of the same kind",
         "md", "block-structuredness", "bool", "+"),
        ("r-rep-flow-count", "Flow count",
         "Number of sequence flows",
         "md", "edge-count", ("linear", 0.0, 60.0), "-"),
        ("r-rep-gateway-count", "Gateway count",
         "Number of gateways",
         "md", "gateway-count", ("linear", 0.0, 20.0), "-"),
        ("r-rep-connector-degree", "Connector degree",
         "Average degree of gateway nodes",
         "md", "average-connector-degree", ("linear", 0.0, 6.0), "-"),
        ("r-rep-max-degree", "Maximum degree",
         "Highest in-plus-out degree of any flow node",
         "md", "max-degree", ("linear", 0.0, 8.0), "-"),
        ("r-rep-labeling", "Label coverage",
         "Share of activities left unlabeled",
         "md", "unlabeled-ratio", ("linear", 0.0, 1.0), "-"),
        ("r-rep-start-events", "Start-event clarity",
         "Number of start events; one explicit start reads best",
         "md", "start-event-count", ("linear", 1.0, 5.0), "-"),
        ("r-rep-end-events", "End-event clarity",
         "Number of end events; one explicit end reads best",
         "md", "end-event-count", ("linear", 1.0, 5.0), "-"),
        ("r-rep-gateway-balance", "Gateway balance",
         "Mismatch between split and join counts per gateway kind",
         "md", "gateway-mismatch-count", ("linear", 0.0, 5.0), "-"),
        ("r-rep-density", "Density",
         "Sequence flows relative to possible connections",
         "md", "density", ("linear", 0.0, 0.3), "-"),
    )),
    ("r-comprehension", "Comprehension Questions", (
        ("r-comp-control-flow", "Control-flow comprehension",
         "Reader could determine the order of activities", "rq", None, None, "+"),
        ("r-comp-decisions", "Decision comprehension",
         "Reader could tell when paths diverge", "rq", None, None, "+"),
        ("r-comp-concurrency", "Concurrency comprehension",
         "Reader could identify parallel activities", "rq", None, None, "+"),
        ("r-comp-overall", "Overall comprehension",
         "Self-assessed overall understanding", "rq", None, None, "+"),
    )),
)

_SOURCES = {
    "md": "model-derived",
    "mq": "modeler-questionnaire",
    "rq": "reader-questionnaire",
    "lr": "language-registry",
}


def _norm_document(norm):
    if norm is None:
        return None
    if norm == "bool":
        return {"kind": "boolean"}
    kind, lo, hi = norm
    return {"kind": f"{kind}-clamp", "lo": lo, "hi": hi}


def _criteria_documents(table, perspective: str) -> list[dict]:
    documents = []
    for rank, (cid, cname, metrics) in enumerate(table, start=1):
        metric_documents = []
        for mrank, (mid, mname, mdesc, source, binding, norm, polarity) in enumerate(metrics, start=1):
            mdoc = {
                "id": mid,
                "name": mname,
                "description": mdesc,
                "source": _SOURCES[source],
                "rank": mrank,
                "polarity": "higher-is-better" if polarity == "+" else "lower-is-better",
            }
            norm_doc = _norm_document(norm)
            if norm_doc is not None:
                mdoc["normalization"] = norm_doc
            if binding is not None:
                mdoc["binding"] = binding
            metric_documents.append(mdoc)
        documents.append({
            "id": cid,
            "name": cname,
            "perspective": perspective,
            "rank": rank,
            "metrics": metric_documents,
        })
    return documents


def ett_document() -> dict:
    return {
        "version": "1",
        "survey_d": 10.0,
        "interaction_weights": {"modeler": 0.156, "reader": 0.844},
        "criteria": _criteria_documents(_MODELER_CRITERIA, "modeler")
        + _criteria_documents(_READER_CRITERIA, "reader"),
    }
