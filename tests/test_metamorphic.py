"""Edits to the inputs of ``score`` that by definition change no score.

Each test scores the four fixtures with ``main`` in-process, makes an edit
that must leave every score as it was, and compares the two reports: byte
for byte, or score by id where the edit reorders the report's rows.
"""

import json
import random

import pytest

from procomp.cli import main
from procomp.defaults import default_ett_document, default_modeler_schema, reader_questionnaire_document
from procomp.questionnaire import QuestionKind, ResponseSet, load_schema, serialize_responses

from conftest import FIXTURES, write_response_file

MODELS = [FIXTURES / f"{name}.bpmn" for name in ("sequence", "xor_loop", "and_parallel", "order_fulfillment")]


def reader_schema_document(levels: int) -> dict:
    """The default reader schema with each Likert question at ``levels`` levels
    and asked three times, so that a metric's score is a mean of three. At 6
    or 11 levels most scores are not multiples of a power of two, and a sum
    of them rounds."""
    document = reader_questionnaire_document()
    questions = []
    for question in document["questions"]:
        if question["kind"] == "likert":
            questions += [dict(question, id=f"{question['id']}-{k}", levels=levels) for k in range(3)]
        else:
            questions.append(question)
    return dict(document, questions=questions)


def write_json(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def write_readers(tmp_path, document, count, rng):
    """``count`` reader response files of random answers to the schema ``document``."""
    schema = load_schema(document)
    paths = []
    for i in range(count):
        answers = {q.id: rng.random() < 0.5 if q.kind is QuestionKind.TRUE_FALSE else rng.randint(1, q.levels)
                   for q in schema.questions}
        responses = ResponseSet(respondent=f"r-{i}", schema_version=schema.version, answers=answers)
        paths.append(write_json(tmp_path / f"reader-{i}.json", serialize_responses(responses)))
    return paths


def score(capsys, *argv):
    """The JSON report of ``score`` over the four fixtures with ``argv``."""
    models = [arg for model in MODELS for arg in ("--model", str(model))]
    assert main(["score", *models, "--format", "json", *map(str, argv)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def by_id(report: str) -> list[dict]:
    """Each model of a JSON report, its criteria and their metrics keyed by id."""
    return [dict(model, criteria={c["id"]: dict(c, metrics={m["id"]: m for m in c["metrics"]})
                                  for c in model["criteria"]})
            for model in json.loads(report)]


@pytest.mark.parametrize("levels", [6, 11])
def test_the_order_of_the_readers_changes_no_byte(capsys, tmp_path, levels):
    # added in reader order, a reader metric's mean moved in the last bit in most shuffles
    rng = random.Random(levels)
    document = reader_schema_document(levels)
    config = ["--schema-reader", write_json(tmp_path / "reader-schema.json", document),
              "--modeler-responses",
              write_response_file(tmp_path / "modeler.json", default_modeler_schema(), "m-1", 1)]
    for trial in range(5):
        readers = write_readers(tmp_path, document, rng.randint(3, 33), rng)
        expected = score(capsys, *config, "--reader-responses", *readers)
        rng.shuffle(readers)
        assert score(capsys, *config, "--reader-responses", *readers) == expected, trial


def _shuffle_tree(document, rng):
    rng.shuffle(document["criteria"])
    for criterion in document["criteria"]:
        rng.shuffle(criterion["metrics"])


def _shuffle_questions(document, rng):
    rng.shuffle(document["questions"])


@pytest.mark.parametrize("flag, shuffle", [("--ett", _shuffle_tree), ("--schema-reader", _shuffle_questions)],
                         ids=["tree-criteria-and-metrics", "schema-questions"])
def test_a_document_in_another_order_gives_every_score(capsys, tmp_path, flag, shuffle):
    # the ranks, not the order of the entries, weight a tree; a question's id, not its place,
    # links it to its answer
    rng = random.Random(31)
    documents = {"--ett": default_ett_document(), "--schema-reader": reader_schema_document(6)}
    readers = write_readers(tmp_path, documents["--schema-reader"], 5, rng)
    responses = ["--modeler-responses",
                 write_response_file(tmp_path / "modeler.json", default_modeler_schema(), "m-1", 1),
                 "--reader-responses", *readers]

    def scored():
        paths = [arg for name, document in documents.items()
                 for arg in (name, write_json(tmp_path / f"{name[2:]}.json", document))]
        return by_id(score(capsys, *paths, *responses))

    expected = scored()
    for trial in range(20):
        shuffle(documents[flag], rng)
        assert scored() == expected, trial
