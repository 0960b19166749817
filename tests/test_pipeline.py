import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from procomp.bpmn import parse_model_file
from procomp.defaults import builtin_language_registry
from procomp.errors import (
    ConfigError,
    ExtractionError,
    ModelParseError,
    ResponseError,
    ScoringError,
)
from procomp.pipeline import compile_plan
from procomp.questionnaire import ResponseIssue
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
