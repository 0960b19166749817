"""Render evaluations as text, markdown, JSON, or CSV.

Display values round half-up to two decimals; the JSON export keeps full
precision and parses back into an identical evaluation.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .errors import ProcompError
from .ett import MetricSource, Perspective
from .scoring import (
    ComprehensionEvaluation,
    CriterionResult,
    MetricResult,
    NoiseFlag,
)


class ReportFormat(str, enum.Enum):
    TEXT = "text"
    MARKDOWN = "markdown"
    JSON = "json"
    CSV = "csv"


@dataclass(frozen=True)
class ReportDocument:
    format: ReportFormat
    body: str


def fmt2(value: float) -> str:
    """Two-decimal, half-up display form of a score."""
    return str(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _no_noise(evaluation: ComprehensionEvaluation) -> str:
    return f"No noise detected (no score below threshold {fmt2(evaluation.noise_threshold)})."


def _table(header: tuple[str, ...], rows) -> list[str]:
    """The lines of a markdown table."""
    return ["| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(row) + " |" for row in rows)]


def render_summary(evaluation: ComprehensionEvaluation) -> ReportDocument:
    """The summary view: perspective scores, criterion table, noise flags."""
    lines = [
        f"Comprehension summary for {evaluation.model_id}",
        "",
        f"  Modeler score  (S_m): {fmt2(evaluation.s_m)}",
        f"  Reader score   (S_r): {fmt2(evaluation.s_r)}",
        f"  Combined score (S_b): {fmt2(evaluation.s_b)}"
        f"   [weights {evaluation.w_m:g}/{evaluation.w_r:g}]",
        "",
        "  Criterion scores:",
    ]
    for perspective in Perspective:
        group = evaluation.criteria_for(perspective)
        if not group:
            continue
        lines.append(f"    {perspective.value}:")
        width = max(len(c.name) for c in group)
        for criterion in group:
            lines.append(f"      {criterion.name:<{width}}  {fmt2(criterion.score):>5}")
    lines.append("")
    if evaluation.flags:
        lines.append(f"  Noise below threshold {fmt2(evaluation.noise_threshold)}:")
        for flag in evaluation.flags:
            lines.append(f"    {fmt2(flag.score):>5}  {flag.kind:<9}  {flag.name}  ({flag.path})")
    else:
        lines.append(f"  {_no_noise(evaluation)}")
    lines.append("")
    return ReportDocument(ReportFormat.TEXT, "\n".join(lines))


def _render_markdown(evaluation: ComprehensionEvaluation) -> str:
    lines = [
        f"# Comprehension summary: {evaluation.model_id}",
        "",
        *_table(("Perspective", "Score"), [("Modeler (S_m)", fmt2(evaluation.s_m)),
                                           ("Reader (S_r)", fmt2(evaluation.s_r)),
                                           ("Combined (S_b)", fmt2(evaluation.s_b))]),
        "",
        "## Criteria",
        "",
        *_table(("Perspective", "Criterion", "Score"),
                [(c.perspective.value, c.name, fmt2(c.score)) for c in evaluation.criteria]),
        "",
        "## Noise",
        "",
    ]
    if evaluation.flags:
        lines += _table(("Score", "Kind", "Name", "Path"),
                        [(fmt2(f.score), f.kind, f.name, f.path) for f in evaluation.flags])
    else:
        lines.append(_no_noise(evaluation))
    lines.append("")
    return "\n".join(lines)


def _evaluation_document(evaluation: ComprehensionEvaluation) -> dict:
    return {
        "version": "1",
        "model": evaluation.model_id,
        "scores": {
            "modeler": evaluation.s_m,
            "reader": evaluation.s_r,
            "combined": evaluation.s_b,
        },
        "interaction_weights": {"modeler": evaluation.w_m, "reader": evaluation.w_r},
        "noise_threshold": evaluation.noise_threshold,
        "criteria": [
            {
                "id": c.id,
                "name": c.name,
                "perspective": c.perspective.value,
                "weight": c.weight,
                "score": c.score,
                "metrics": [
                    {
                        "id": m.id,
                        "name": m.name,
                        "source": m.source.value,
                        "raw": m.raw,
                        "score": m.score,
                        "weight": m.weight,
                    }
                    for m in c.metrics
                ],
            }
            for c in evaluation.criteria
        ],
        "noise_flags": [
            {
                "kind": f.kind,
                "id": f.id,
                "name": f.name,
                "score": f.score,
                "threshold": f.threshold,
                "perspective": f.perspective.value,
                "criterion": f.criterion_id,
            }
            for f in evaluation.flags
        ],
    }


def parse_evaluation(body: str) -> ComprehensionEvaluation:
    """Inverse of the JSON export."""
    document = json.loads(body)
    # criterion and metric keys are the result field names; only the enums need converting
    criteria = tuple(
        CriterionResult(**{**c, "perspective": Perspective(c["perspective"]), "metrics": tuple(
            MetricResult(**{**m, "source": MetricSource(m["source"])}) for m in c["metrics"])})
        for c in document["criteria"]
    )
    flags = tuple(
        NoiseFlag(
            kind=f["kind"],
            id=f["id"],
            name=f["name"],
            score=f["score"],
            threshold=f["threshold"],
            perspective=Perspective(f["perspective"]),
            criterion_id=f["criterion"],
        )
        for f in document["noise_flags"]
    )
    return ComprehensionEvaluation(
        model_id=document["model"],
        criteria=criteria,
        s_m=document["scores"]["modeler"],
        s_r=document["scores"]["reader"],
        s_b=document["scores"]["combined"],
        w_m=document["interaction_weights"]["modeler"],
        w_r=document["interaction_weights"]["reader"],
        noise_threshold=document["noise_threshold"],
        flags=flags,
    )


CSV_HEADER = ("metric", "criterion", "perspective", "raw", "normalized", "weight")


def _csv_rows(evaluation: ComprehensionEvaluation) -> list[list[str]]:
    return [[m.id, c.id, c.perspective.value, "" if m.raw is None else repr(m.raw),
             repr(m.score), repr(m.weight)] for c, m in evaluation.metric_results()]


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def export(evaluation: ComprehensionEvaluation, format: ReportFormat | str) -> ReportDocument:
    """Render the evaluation in the requested format."""
    try:
        fmt = ReportFormat(format)
    except ValueError:
        supported = ", ".join(f.value for f in ReportFormat)
        raise ProcompError(f"unsupported format {format!r} (supported: {supported})") from None
    if fmt is ReportFormat.TEXT:
        return render_summary(evaluation)
    if fmt is ReportFormat.MARKDOWN:
        return ReportDocument(fmt, _render_markdown(evaluation))
    if fmt is ReportFormat.JSON:
        body = json.dumps(_evaluation_document(evaluation), indent=2) + "\n"
        return ReportDocument(fmt, body)
    return ReportDocument(fmt, _csv_text([CSV_HEADER, *_csv_rows(evaluation)]))


def batch_entry(evaluation: ComprehensionEvaluation, format: ReportFormat | str) -> str:
    """One model's part of a multi-model report (see frame_batch)."""
    fmt = ReportFormat(format)
    if fmt is ReportFormat.CSV:
        return _csv_text([evaluation.model_id, *row] for row in _csv_rows(evaluation))
    body = export(evaluation, fmt).body
    # a JSON part is an element of the report's array, so it is indented one level
    return "  " + body.rstrip("\n").replace("\n", "\n  ") if fmt is ReportFormat.JSON else body


def frame_batch(parts: list[str], format: ReportFormat | str) -> list[str]:
    """Pieces that concatenate the models' batch_entry parts into one report.

    JSON gives one array, byte-equal to ``json.dumps(documents, indent=2)``;
    CSV one table whose first column is ``model``; text and markdown the
    reports one after another.
    """
    head, separator, tail = {
        ReportFormat.JSON: ("[\n", ",\n", "\n]\n"),
        ReportFormat.CSV: (",".join(("model", *CSV_HEADER)) + "\n", "", ""),
    }.get(ReportFormat(format), ("", "\n", ""))
    pieces = [head]
    for part in parts:
        pieces += (part, separator)
    pieces[-1] = tail
    return pieces
