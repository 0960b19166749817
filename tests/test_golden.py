"""Byte-for-byte ``score`` exports of the four fixture models.

The files under ``fixtures/golden`` hold the single-model ``score`` output
for the conftest response bundle. A change that moves any of them changes
what users see and must say so; regenerate a file by running the same
``score`` command with ``--output``.
"""

import pytest

from procomp.cli import main
from procomp.report import export, parse_evaluation

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
MODELS = ("sequence", "xor_loop", "and_parallel", "order_fulfillment")
FORMATS = {"json": "json", "csv": "csv", "text": "txt", "markdown": "md"}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("model", MODELS)
def test_score_export_matches_golden(capsys, response_bundle, model, fmt):
    code = main([
        "score",
        "--model", str(FIXTURES / f"{model}.bpmn"),
        "--modeler-responses", str(response_bundle["modeler"]),
        "--reader-responses", *[str(p) for p in response_bundle["readers"]],
        "--format", fmt,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{model}.{FORMATS[fmt]}").read_bytes()


@pytest.mark.parametrize("model", MODELS)
def test_parsed_golden_json_exports_every_golden_file(model):
    evaluation = parse_evaluation((GOLDEN / f"{model}.json").read_text(encoding="utf-8"))
    for fmt, suffix in FORMATS.items():
        assert export(evaluation, fmt).body.encode("utf-8") == (GOLDEN / f"{model}.{suffix}").read_bytes()
