import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from procomp.bpmn import parse_model_file
from procomp.defaults import builtin_language_registry, default_ett_document
from procomp.errors import (
    ConfigError,
    ExtractionError,
    ModelParseError,
    ResponseError,
    ScoringError,
)
from procomp.ett import Perspective, load_ett
from procomp.pipeline import compile_plan
from procomp.questionnaire import (
    Question,
    QuestionKind,
    ResponseIssue,
    ResponseSet,
    score_responses,
)
from procomp.report import export

from conftest import FIXTURES, make_responses

MODELS = ("sequence", "xor_loop", "and_parallel", "order_fulfillment")


@pytest.fixture(scope="module")
def config(ett, modeler_schema, reader_schema):
    return (
        ett,
        builtin_language_registry(),
        make_responses(modeler_schema, "m-1", 1),
        [make_responses(reader_schema, "r-1", 0), make_responses(reader_schema, "r-2", 2)],
        modeler_schema,
        reader_schema,
    )


def test_unpickled_plan_exports_the_same_bytes(config):
    plan = compile_plan(*config)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    for model in MODELS:
        graph = parse_model_file(FIXTURES / f"{model}.bpmn")
        for fmt in ("json", "csv"):
            assert (export(clone.evaluate(graph, model_id=model), fmt).body
                    == export(plan.evaluate(graph, model_id=model), fmt).body)


def test_pool_workers_start_under_spawn(config):
    # spawn (and forkserver, the default from Python 3.14) pickles the
    # initializer's arguments into a freshly imported interpreter
    from procomp import cli
    plan = compile_plan(*config)
    paths = [str(FIXTURES / f"{model}.bpmn") for model in MODELS]
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"),
                             initializer=cli._init_worker, initargs=(plan, "json")) as pool:
        parts = list(pool.map(cli._worker_entry, paths, timeout=60))
    assert parts == [cli._score_entry(plan, "json", path) for path in paths]


def test_plan_needs_a_reader(config):
    with pytest.raises(ResponseError, match="at least one reader"):
        compile_plan(*config[:3], [], *config[4:])


def test_modeler_question_scores_its_metric_under_a_reader_criterion(config):
    _, registry, _, readers, modeler_schema, reader_schema = config
    document = default_ett_document()
    criterion = next(c for c in document["criteria"] if c["perspective"] == "reader")
    criterion["metrics"].append({"id": "x-modeler-view", "source": "modeler-questionnaire",
                                 "rank": len(criterion["metrics"]) + 1})
    question = Question(id="qx", text="?", kind=QuestionKind.LIKERT, metric_id="x-modeler-view",
                        levels=5)
    schema = replace(modeler_schema, questions=(*modeler_schema.questions, question))
    modeler = make_responses(schema, "m-1", 1)
    plan = compile_plan(load_ett(document), registry, modeler, readers, schema, reader_schema)
    evaluation = plan.evaluate(parse_model_file(FIXTURES / "sequence.bpmn"))
    results = {m.id: (c.id, m.score) for c in evaluation.criteria for m in c.metrics}
    assert results["x-modeler-view"] == (criterion["id"],
                                         score_responses(schema, modeler)["x-modeler-view"])


def test_a_perspective_without_criteria_is_reported_by_compile_plan(config):
    tree, registry, modeler, _, modeler_schema, reader_schema = config
    modeler_only = replace(tree, criteria=tree.criteria_for(Perspective.MODELER))
    no_questions = replace(reader_schema, questions=())
    reader = ResponseSet(respondent="r-1", schema_version=reader_schema.version, answers={})
    with pytest.raises(ScoringError, match="perspective incomplete: no reader criteria"):
        compile_plan(modeler_only, registry, modeler, [reader], modeler_schema, no_questions)


ERRORS = [
    (ConfigError("bad weight", path="criteria[0].weight"), {"path": "criteria[0].weight"}),
    (ModelParseError("dangling reference", context="flow f1"), {"context": "flow f1"}),
    (ExtractionError(["m-err-or-routing", "m-x"]), {"metric_ids": ["m-err-or-routing", "m-x"]}),
    (ResponseError("1 issue(s)", report=[ResponseIssue("missing-answer", "q1", "missing")]),
     {"report": [ResponseIssue("missing-answer", "q1", "missing")]}),
    (ScoringError("criterion unscored"), {}),
]


@pytest.mark.parametrize("error, attributes", ERRORS,
                         ids=[type(error).__name__ for error, _ in ERRORS])
def test_errors_survive_pickling(error, attributes):
    # errors raised in worker processes reach the caller pickled
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is type(error)
    assert str(clone) == str(error)
    for name, value in attributes.items():
        assert getattr(clone, name) == value
