import json
import math
import random
import re

import pytest

from procomp import replace
from procomp.defaults import builtin_language_registry
from procomp.bpmn import parse_model_file
from procomp.errors import ProcompError, ScoringError
from procomp.ett import MetricSource, Perspective
from procomp.pipeline import compile_plan, evaluate_model
from procomp.report import batch_entry, export, fmt2, frame_batch, parse_evaluation
from procomp.scoring import (ComprehensionEvaluation, CriterionResult, MetricResult,
                             combined_score, detect_noise)

from conftest import FIXTURES, make_responses
from oracles import evaluation_document, json_export


@pytest.fixture(scope="module")
def evaluation(ett, modeler_schema, reader_schema):
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    return evaluate_model(
        graph,
        ett,
        builtin_language_registry(),
        make_responses(modeler_schema, "m-1", 1),
        [make_responses(reader_schema, "r-1", 0), make_responses(reader_schema, "r-2", 2)],
        modeler_schema,
        reader_schema,
        model_id="order_fulfillment",
    )


def reference_evaluation():
    """Scores matching one reference result row, two-decimal display."""
    # weights solved so the stored combined score is exactly consistent:
    # 6.06 = w*4.74 + (1-w)*6.29  =>  w = 0.23/1.55
    w_m = 0.23 / 1.55
    return ComprehensionEvaluation(
        model_id="loop-model-explicit",
        criteria=(
            CriterionResult(id="m-information", name="Information",
                            perspective=Perspective.MODELER, score=5.01),
            CriterionResult(id="r-person", name="Person",
                            perspective=Perspective.READER, score=5.34),
        ),
        s_m=4.74, s_r=6.29, s_b=6.06, w_m=w_m, w_r=1.0 - w_m,
    )


def test_half_up_two_decimal_formatting():
    assert fmt2(6.055) == "6.06"
    assert fmt2(6.064999) == "6.06"
    assert fmt2(2.675) == "2.68"
    assert fmt2(10.0) == "10.00"


def test_summary_contains_reference_rounded_values():
    body = export(reference_evaluation(), "text").body
    assert "4.74" in body
    assert "6.29" in body
    assert "6.06" in body


def test_summary_without_flags_has_explicit_no_noise_line():
    body = export(reference_evaluation(), "text").body
    assert "No noise detected" in body


def test_summary_lists_only_the_perspectives_that_hold_criteria():
    modeler_only = replace(reference_evaluation(), criteria=reference_evaluation().criteria[:1])
    body = export(modeler_only, "text").body
    assert "  Criterion scores:\n    modeler:\n      Information   5.01\n\n" in body
    assert "reader:" not in body


def test_summary_lists_flags_with_paths(evaluation):
    body = export(evaluation, "text").body
    assert "Noise below threshold 4.00" in body
    assert "modeler/m-information/m-info-method" in body


def test_rendering_is_deterministic(evaluation):
    first = export(evaluation, "text").body
    second = export(evaluation, "text").body
    assert first == second
    assert export(evaluation, "json").body == export(evaluation, "json").body


def test_json_roundtrip_is_field_exact(evaluation):
    body = export(evaluation, "json").body
    assert parse_evaluation(body) == evaluation


@pytest.mark.parametrize("edit, message", [
    (lambda document: document["criteria"][0], r"criterion '.+' score 11 outside \[1, 10\]"),
    (lambda document: document["criteria"][0]["metrics"][0],
     r"metric '.+' score 11 outside \[1, 10\]"),
], ids=["criterion", "metric"])
def test_json_with_a_score_above_10_is_refused(evaluation, edit, message):
    document = json.loads(export(evaluation, "json").body)
    edit(document)["score"] = 11
    with pytest.raises(ScoringError, match=message):
        parse_evaluation(json.dumps(document))


def test_csv_has_one_row_per_metric(evaluation):
    body = export(evaluation, "csv").body
    lines = body.strip().split("\n")
    assert lines[0] == "metric,criterion,perspective,raw,normalized,weight"
    assert len(lines) == 1 + 96


def test_csv_contains_noise_example_rows():
    evaluation = reference_evaluation()
    weak = ComprehensionEvaluation(
        model_id=evaluation.model_id,
        criteria=(
            CriterionResult(
                id="m-information", name="Information",
                perspective=Perspective.MODELER, score=5.01,
                metrics=(
                    MetricResult(id="m-info-availability", name="Availability",
                                 source=MetricSource.MODELER_QUESTIONNAIRE, score=2.1),
                    MetricResult(id="m-info-method", name="Retrieval methods",
                                 source=MetricSource.MODELER_QUESTIONNAIRE, score=1.6),
                ),
            ),
        ),
        s_m=evaluation.s_m, s_r=evaluation.s_r, s_b=evaluation.s_b,
        w_m=evaluation.w_m, w_r=evaluation.w_r,
    )
    body = export(weak, "csv").body
    assert "m-info-availability,m-information,modeler,,2.1," in body
    assert "m-info-method,m-information,modeler,,1.6," in body


def test_markdown_contains_score_table(evaluation):
    body = export(evaluation, "markdown").body
    assert "| Modeler (S_m) |" in body
    assert "| Representation Factors |" in body


def test_markdown_without_flags_ends_with_the_no_noise_line(evaluation):
    unflagged = replace(evaluation, noise_threshold=1.0, flags=())
    golden = (FIXTURES / "golden" / "order_fulfillment.md").read_text(encoding="utf-8")
    noise = golden.index("## Noise\n\n") + len("## Noise\n\n")
    assert export(unflagged, "markdown").body == (
        golden[:noise] + "No noise detected (no score below threshold 1.00).\n")


@pytest.mark.parametrize("name, cell", [
    ("Language | notation", "Language \\| notation"),
    ("Language\nnotation", "Language<br>notation"),
    ("Language\r\nnotation\r", "Language<br>notation<br>"),
], ids=["pipe", "newline", "crlf-and-cr"])
def test_a_markdown_cell_keeps_a_name_with_a_pipe_or_a_line_break_in_its_column(evaluation, name, cell):
    renamed = replace(evaluation, criteria=tuple(replace(c, name=name) for c in evaluation.criteria),
                      flags=tuple(replace(f, name=name) for f in evaluation.flags))
    body = export(renamed, "markdown").body
    assert f"| modeler | {cell} | " in body
    assert f" | {cell} | modeler/" in body
    # every row of the three tables has as many unescaped pipes as its header
    borders = [len(re.findall(r"(?<!\\)\|", line)) for line in body.split("\n") if line.startswith("|")]
    assert borders == [3] * 5 + [4] * (len(evaluation.criteria) + 2) + [5] * (len(evaluation.flags) + 2)


def test_unsupported_format_rejected(evaluation):
    with pytest.raises(ProcompError, match="unsupported format"):
        export(evaluation, "xlsx")


# ---------------------------------------------------------------------------
# The JSON writer against the stdlib encoder

NAMES = ["Plain", "", 'say "hi"', "back\\slash", "tab\there\nnewline", "\x00\x1f\x7f controls",
         "Größe – naïve", "模型", "emoji \U0001f642", "slash / and \u2028",
         "100 %", "%s of %(name)s", "{} and {0}"]  # template syntax, written as text
RAWS = [None, 0.0, -0.0, 1e-7, 1e16, 3, 2.5e-310, math.inf, -math.inf, math.nan]


def _number(rng):
    """A score or weight: a float, or an int as a pinned weight in a tree document is."""
    return rng.choice([rng.uniform(1.0, 10.0), rng.randint(1, 10), 10.0, 1.0])


def random_evaluation(rng: random.Random) -> ComprehensionEvaluation:
    criteria = tuple(
        CriterionResult(
            id=f"c{ci}", name=rng.choice(NAMES), perspective=rng.choice(list(Perspective)),
            score=_number(rng), weight=_number(rng),
            metrics=tuple(
                MetricResult(id=f"c{ci}-m{mi}", name=rng.choice(NAMES),
                             source=rng.choice(list(MetricSource)), score=_number(rng),
                             weight=_number(rng), raw=rng.choice(RAWS + [rng.uniform(-1e3, 1e3)]))
                for mi in range(rng.randint(0, 4))))
        for ci in range(rng.randint(0, 4)))
    s_m, s_r = _number(rng), _number(rng)
    w_m = rng.choice([0.156, rng.random(), 0, 1])
    evaluation = ComprehensionEvaluation(
        model_id=rng.choice(["model", "modèle-ü", "模型", 'a"b\\c', "line\nbreak", "%s", "50%", "{}"]),
        criteria=criteria, s_m=s_m, s_r=s_r, s_b=combined_score(s_m, s_r, w_m, 1 - w_m),
        w_m=w_m, w_r=1 - w_m, noise_threshold=rng.choice([4.0, 4, 7.5]))
    if rng.random() < 0.5:
        evaluation = replace(evaluation, flags=tuple(detect_noise(evaluation.criteria,
                                                                  evaluation.noise_threshold)))
    return evaluation


def _assert_json_matches_the_stdlib_encoder(evaluations):
    for evaluation in evaluations:
        expected = json_export(evaluation)
        assert export(evaluation, "json").body == expected
        assert batch_entry(evaluation, "json") == "  " + expected.rstrip("\n").replace("\n", "\n  ")
    framed = "".join(frame_batch([batch_entry(e, "json") for e in evaluations], "json"))
    assert framed == json.dumps([evaluation_document(e) for e in evaluations], indent=2) + "\n"


def test_json_of_the_fixtures_matches_the_stdlib_encoder(ett, modeler_schema, reader_schema):
    plan = compile_plan(ett, builtin_language_registry(), make_responses(modeler_schema, "m-1", 1),
                        [make_responses(reader_schema, "r-1", 0)], modeler_schema, reader_schema)
    _assert_json_matches_the_stdlib_encoder([
        plan.evaluate(parse_model_file(FIXTURES / f"{model}.bpmn"), model_id=model)
        for model in ("sequence", "xor_loop", "and_parallel", "order_fulfillment")])


def test_json_of_random_evaluations_matches_the_stdlib_encoder():
    rng = random.Random(2024)
    evaluations = [random_evaluation(rng) for _ in range(300)]
    assert any(not e.flags for e in evaluations) and any(e.flags for e in evaluations)
    assert any(not e.criteria for e in evaluations)
    _assert_json_matches_the_stdlib_encoder(evaluations)
