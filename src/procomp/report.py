"""Render evaluations as text, markdown, JSON, or CSV.

Display values round half-up to two decimals; the JSON export keeps full
precision and parses back into an identical evaluation. The JSON is the
bytes ``json.dumps(document, indent=2)`` writes, filled into one ``%``
template per object (the document, a criterion, a metric, a flag), made
at import; every value is an argument of its template, never part of it.
"""

from __future__ import annotations

import enum
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .errors import ProcompError
from .ett import MetricSource, Perspective
from .records import record
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


@record
class ReportDocument:
    format: ReportFormat
    body: str


def fmt2(value: float) -> str:
    """Two-decimal, half-up display form of a score."""
    from decimal import ROUND_HALF_UP, Decimal  # only text and markdown need it: import on first use

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


def _json_number(value: float | None) -> str:
    """A number, or None, as ``json.dumps`` writes it."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value)  # an int, or NaN or an infinity by name


def _template(pad: str, fields: dict[str, str]) -> str:
    """A ``%`` template of an object whose keys and value templates are
    ``fields``, laid out as ``json.dumps(indent=2)`` lays it out at the
    indentation ``pad``."""
    lines = ",\n".join(f'{pad}  "{key}": {value}' for key, value in fields.items())
    return f"{{\n{lines}\n{pad}}}"


# the templates of the JSON export: the document, a criterion, a metric and a flag; then
# what joins two criteria or flags and the template of their array; then the same for metrics
_LAYOUT = (
    _template("", {
        "version": '"1"',
        "model": "%s",
        "scores": _template("  ", dict.fromkeys(("modeler", "reader", "combined"), "%s")),
        "interaction_weights": _template("  ", dict.fromkeys(("modeler", "reader"), "%s")),
        **dict.fromkeys(("noise_threshold", "criteria", "noise_flags"), "%s"),
    }),
    _template(" " * 4, dict.fromkeys(("id", "name", "perspective", "weight", "score", "metrics"), "%s")),
    _template(" " * 8, dict.fromkeys(("id", "name", "source", "raw", "score", "weight"), "%s")),
    _template(" " * 4, dict.fromkeys(
        ("kind", "id", "name", "score", "threshold", "perspective", "criterion"), "%s")),
    ",\n    ", "[\n    %s\n  ]", ",\n        ", "[\n        %s\n      ]",
)
_ENUM_JSON = {member: encode_basestring_ascii(member.value)
              for kind in (MetricSource, Perspective) for member in kind}


def _json_evaluation(evaluation: ComprehensionEvaluation) -> str:
    """The JSON export without its final newline, written straight from the
    templates: ``json.dumps`` with an ``indent`` uses the stdlib's pure-Python
    encoder, about twice as slow."""
    s, n, e = encode_basestring_ascii, _json_number, _ENUM_JSON
    document, criterion, metric, flag, join, array, metric_join, metric_array = _LAYOUT
    criteria = join.join([criterion % (
        s(c.id), s(c.name), e[c.perspective], n(c.weight), n(c.score),
        metric_array % metric_join.join([metric % (
            s(m.id), s(m.name), e[m.source], n(m.raw), n(m.score), n(m.weight),
        ) for m in c.metrics]) if c.metrics else "[]",
    ) for c in evaluation.criteria])
    flags = join.join([flag % (
        s(f.kind), s(f.id), s(f.name), n(f.score), n(f.threshold), e[f.perspective], s(f.criterion_id),
    ) for f in evaluation.flags])
    return document % (
        s(evaluation.model_id), n(evaluation.s_m), n(evaluation.s_r), n(evaluation.s_b),
        n(evaluation.w_m), n(evaluation.w_r), n(evaluation.noise_threshold),
        array % criteria if criteria else "[]", array % flags if flags else "[]",
    )


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
_CSV_BATCH_HEADER = ",".join(("model", *CSV_HEADER)) + "\n"


def _csv_rows(evaluation: ComprehensionEvaluation) -> list[list[str]]:
    return [[m.id, c.id, c.perspective.value, "" if m.raw is None else repr(m.raw),
             repr(m.score), repr(m.weight)] for c, m in evaluation.metric_results()]


def _csv_text(rows) -> str:
    import csv  # only CSV reports need it: import on first use

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def report_format(format: ReportFormat | str) -> ReportFormat:
    """The format ``format`` names, or the ``ProcompError`` that lists the supported ones."""
    try:
        return ReportFormat(format)
    except ValueError:
        supported = ", ".join(f.value for f in ReportFormat)
        raise ProcompError(f"unsupported format {format!r} (supported: {supported})") from None


def export(evaluation: ComprehensionEvaluation, format: ReportFormat | str) -> ReportDocument:
    """Render the evaluation in the requested format."""
    fmt = report_format(format)
    if fmt is ReportFormat.TEXT:
        return render_summary(evaluation)
    if fmt is ReportFormat.MARKDOWN:
        return ReportDocument(fmt, _render_markdown(evaluation))
    if fmt is ReportFormat.JSON:
        return ReportDocument(fmt, _json_evaluation(evaluation) + "\n")
    return ReportDocument(fmt, _csv_text([CSV_HEADER, *_csv_rows(evaluation)]))


def batch_entry(evaluation: ComprehensionEvaluation, format: ReportFormat | str) -> str:
    """One model's part of a multi-model report (see frame_batch)."""
    fmt = report_format(format)
    if fmt is ReportFormat.CSV:
        return _csv_text([evaluation.model_id, *row] for row in _csv_rows(evaluation))
    if fmt is ReportFormat.JSON:  # an element of the report's array: the document one level in
        return "  " + _json_evaluation(evaluation).replace("\n", "\n  ")
    return export(evaluation, fmt).body


def frame_batch(parts: Iterable[str], format: ReportFormat | str) -> Iterator[str]:
    """Pieces that concatenate the models' batch_entry parts into one report,
    each part passed on as soon as ``parts`` yields it.

    JSON gives one array, byte-equal to ``json.dumps(documents, indent=2)``
    (``[]`` for no parts); CSV one table whose first column is ``model`` (the
    header alone for no parts); text and markdown the reports one after another.
    """
    head, separator, tail, empty = {
        ReportFormat.JSON: ("[\n", ",\n", "\n]\n", "[]\n"),
        ReportFormat.CSV: (_CSV_BATCH_HEADER, "", "", _CSV_BATCH_HEADER),
    }.get(report_format(format), ("", "\n", "", ""))
    framed = False
    for part in parts:
        yield separator if framed else head
        yield part
        framed = True
    yield tail if framed else empty
