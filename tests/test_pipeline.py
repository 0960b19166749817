import copy
import json
import math
import multiprocessing
import os
import pickle
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from procomp import replace
from procomp.bpmn import Node, NodeKind, ProcessModelGraph, parse_model, parse_model_file
from procomp.defaults import builtin_language_registry, default_ett_document
from procomp.errors import (
    ConfigError,
    Finding,
    ModelParseError,
    ProcompError,
    ResponseError,
    ScoringError,
)
from procomp.ett import (
    MetricSource,
    Perspective,
    build_ett,
    load_ett,
    scoring_violations,
    tree_violations,
    validate_ett,
)
from procomp.languages import LanguageDescriptor, PatternSupportTable
from procomp.metrics import EXTRACTORS
from procomp.pipeline import compile_plan, evaluate_model
from procomp.questionnaire import (
    Question,
    QuestionKind,
    QuestionnaireSchema,
    QuestionPolarity,
    ResponseSet,
    score_responses,
)
from procomp.ranking import left_sum
from procomp.report import ReportFormat, batch_entry, export, frame_batch
from procomp.scoring import ComprehensionEvaluation, CriterionResult, detect_noise

from conftest import FIXTURES, child_env, make_responses, pinned_ett_document, random_bpmn_document
from oracles import per_model_evaluation

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


def test_reader_scores_average_with_fsum(config):
    # six-level answers (1, 2.8, 4.6, ...): for 10 of the 24 reader metrics the sum
    # added in reader order rounds differently, so the order of the readers showed
    tree, registry, modeler, _, modeler_schema, reader_schema = config
    reader_schema = replace(reader_schema, questions=tuple(
        replace(q, levels=6) if q.kind is QuestionKind.LIKERT else q
        for q in reader_schema.questions))
    readers = [make_responses(reader_schema, f"r-{seed}", seed) for seed in range(5)]
    per_reader = [score_responses(reader_schema, r) for r in readers]
    evaluation = compile_plan(tree, registry, modeler, readers, modeler_schema,
                              reader_schema).evaluate(parse_model_file(FIXTURES / "sequence.bpmn"))
    averaged = in_order = 0
    for _, metric in evaluation.metric_results():
        if metric.source is MetricSource.READER_QUESTIONNAIRE:
            scores = [s[metric.id] for s in per_reader]
            assert metric.score == math.fsum(scores) / len(scores)
            averaged += 1
            in_order += metric.score == left_sum(scores) / len(scores)
    assert (averaged, in_order) == (24, 14)


def test_unpickled_plan_exports_the_same_bytes(config):
    plan = compile_plan(*config)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    for model in MODELS:
        graph = parse_model_file(FIXTURES / f"{model}.bpmn")
        for fmt in ("json", "csv"):
            assert (export(clone.evaluate(graph, model_id=model), fmt).body
                    == export(plan.evaluate(graph, model_id=model), fmt).body)


def test_plan_builds_one_evaluation_per_model(config, monkeypatch):
    plan = compile_plan(*config)
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    checked = []  # the model id of each evaluation built
    post_init = ComprehensionEvaluation.__post_init__

    def counted(self):
        checked.append(self.model_id)
        post_init(self)

    monkeypatch.setattr(ComprehensionEvaluation, "__post_init__", counted)
    evaluation = plan.evaluate(graph, model_id="order_fulfillment")
    assert checked == ["order_fulfillment"]
    assert evaluation.flags and list(evaluation.flags) == detect_noise(evaluation.criteria, plan.noise_threshold)


def test_plan_evaluate_scores_only_the_model_derived_metrics(config, monkeypatch):
    from procomp import pipeline
    plan = compile_plan(*config)
    calls = []
    normalize_metric = pipeline.normalize_metric
    monkeypatch.setattr(pipeline, "normalize_metric",
                        lambda *a: calls.append(a) or normalize_metric(*a))
    plan.evaluate(parse_model_file(FIXTURES / "order_fulfillment.bpmn"))
    model_derived = [m for m in config[0].all_metrics() if m.source is MetricSource.MODEL_DERIVED]
    assert len(calls) == len(model_derived) == 21
    # the language criterion, with its registry metrics, is scored with the questionnaire-only ones
    assert sum(isinstance(planned, CriterionResult) for planned in plan.criteria) == 7


def test_evaluate_model_takes_compile_plan_arguments(config):
    graph = parse_model_file(FIXTURES / "xor_loop.bpmn")
    options = {"noise_threshold": 5.0, "language": "BPMN 2.0"}
    # the interaction weights are the tree's own: no keyword sets them
    config = (replace(config[0], interaction_weights=(0.3, 0.7)), *config[1:])
    evaluation = evaluate_model(graph, *config, model_id="xor_loop", **options)
    assert evaluation == compile_plan(*config, **options).evaluate(graph, model_id="xor_loop")
    assert (evaluation.w_m, evaluation.w_r) == (0.3, 0.7)
    assert evaluate_model(graph, *config) == compile_plan(*config).evaluate(graph)
    for unknown in ("noise_treshold", "interaction_weights"):
        with pytest.raises(TypeError, match=unknown):
            evaluate_model(graph, *config, **{unknown: 5.0})


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_start_under_every_start_method(config, tmp_path, method):
    # spawn and forkserver (the Linux default from Python 3.14) pickle the plan
    # and the pipe's write end into a freshly imported interpreter; the error
    # that stops the worker comes back through the real pipe. The worker ignores
    # SIGINT by itself, as a forkserver child has its handlers restored.
    from procomp import batch
    plan = compile_plan(*config)
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    paths = [str(FIXTURES / f"{model}.bpmn") for model in MODELS]
    context = multiprocessing.get_context(method)
    receiver, sender = context.Pipe(duplex=False)
    inherited = (receiver,) if method == "fork" else ()
    worker = context.Process(target=batch._score_share,
                             args=(plan, "json", [*paths, str(broken), *paths], sender, inherited))
    worker.start()
    sender.close()
    try:
        parts = []
        for _ in range(len(paths) + 1):
            assert receiver.poll(60)
            parts.append(receiver.recv())
            if len(parts) == 1:  # the worker is in _score_share: Ctrl-C must not stop it
                os.kill(worker.pid, signal.SIGINT)
        with pytest.raises(EOFError):  # the worker stops at the error
            receiver.poll(60) and receiver.recv()
        worker.join(60)
        assert (worker.is_alive(), worker.exitcode) == (False, 0)
    finally:
        receiver.close()
        worker.kill()
        worker.join()
    assert parts[:-1] == [batch._score_entry(plan, "json", path) for path in paths]
    with pytest.raises(ModelParseError) as raised:
        batch._score_entry(plan, "json", str(broken))
    assert type(parts[-1]) is ModelParseError and str(parts[-1]) == str(raised.value)


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_score_batch_is_what_score_writes_under_every_start_method(config, response_bundle, tmp_path,
                                                                   capsys, monkeypatch, method):
    from procomp import batch
    from procomp.cli import main
    # the workers start with `method`, and jobs 2 starts two of them on any host
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: context)
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 2)
    monkeypatch.delenv("PROCOMP_CONFIG_DIR", raising=False)
    plan = compile_plan(*config)  # the config that response_bundle's files hold
    paths = [str(FIXTURES / f"{model}.bpmn") for model in MODELS]
    responses = ["--modeler-responses", str(response_bundle["modeler"]),
                 "--reader-responses", *[str(p) for p in response_bundle["readers"]]]

    def score(models, fmt, jobs, output):
        """``score``'s exit code and stderr, and the report it wrote to ``output``, if any."""
        argv = ["score", *[arg for path in models for arg in ("--model", path)], *responses,
                "--format", fmt, "--jobs", str(jobs), "--output", str(output)]
        code = main(argv)
        return code, capsys.readouterr().err, output.exists() and output.read_text(encoding="utf-8")

    for fmt in (f.value for f in ReportFormat):
        expected = score(paths, fmt, 1, tmp_path / f"serial.{fmt}")
        assert expected[:2] == (0, "")
        for jobs in (1, 2):
            assert "".join(batch.score_batch(plan, paths, fmt, jobs)) == expected[2], (fmt, jobs)
        assert score(paths, fmt, 2, tmp_path / f"pooled.{fmt}") == expected, fmt

    # the first broken model's error comes back through the worker's pipe as one process
    # raises it, and score writes no report
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    models = [paths[0], str(broken), *paths[1:]]
    errors = []
    for jobs in (1, 2):
        with pytest.raises(ModelParseError) as raised:
            "".join(batch.score_batch(plan, models, "json", jobs))
        errors.append(str(raised.value))
        output = tmp_path / f"broken-{jobs}.json"
        assert score(models, "json", jobs, output) == (2, f"error: {errors[0]}\n", False)
    assert errors[0] == errors[1]
    assert multiprocessing.active_children() == []

    # each worker has 20 entries to send, more than its pipe holds, so both are still running
    pieces = batch.score_batch(plan, paths * 10, "json", 2)
    assert next(pieces) == "[\n" and next(pieces)  # the head, then the first model's entry
    assert len(multiprocessing.active_children()) == 2
    pieces.close()
    assert multiprocessing.active_children() == []


EMPTY_BATCH_PROBE = """\
import json, pickle, sys
from procomp.batch import score_batch
plan = pickle.load(open(sys.argv[1], "rb"))
report = "".join(score_batch(plan, [], "json", 2))
print(json.dumps({"report": report, "multiprocessing": "multiprocessing" in sys.modules}))
"""


def test_an_empty_batch_is_the_frame_of_no_parts_and_starts_no_worker(config, tmp_path, monkeypatch):
    from procomp import batch
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 2)
    plan = compile_plan(*config)
    for fmt in ReportFormat:
        for jobs in (1, 2):
            assert "".join(batch.score_batch(plan, [], fmt.value, jobs)) == "".join(frame_batch([], fmt))
    assert "".join(frame_batch([], "json")) == json.dumps([], indent=2) + "\n" == "[]\n"
    assert "".join(frame_batch([], "csv")) == "model,metric,criterion,perspective,raw,normalized,weight\n"
    assert "".join(frame_batch([], "text")) == "".join(frame_batch([], "markdown")) == ""

    # a fresh interpreter, so that no other test has imported multiprocessing already
    (tmp_path / "plan.pickle").write_bytes(pickle.dumps(plan))
    result = subprocess.run([sys.executable, "-c", EMPTY_BATCH_PROBE, str(tmp_path / "plan.pickle")],
                            capture_output=True, text=True, env=child_env(), timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"report": "[]\n", "multiprocessing": False}


def test_an_unknown_format_is_one_procomp_error_before_any_model_is_read(config, tmp_path):
    from procomp import batch
    message = "unsupported format 'xml' (supported: text, markdown, json, csv)"
    plan = compile_plan(*config)
    evaluation = plan.evaluate(parse_model_file(FIXTURES / "sequence.bpmn"), model_id="sequence")
    missing = str(tmp_path / "missing.bpmn")
    calls = [lambda: export(evaluation, "xml"), lambda: batch_entry(evaluation, "xml"),
             lambda: "".join(frame_batch([], "xml")),
             lambda: "".join(frame_batch([batch_entry(evaluation, "json")], "xml"))]
    calls += [lambda jobs=jobs: "".join(batch.score_batch(plan, [missing, missing + "2"], "xml", jobs))
              for jobs in (1, 2)]
    for call in calls:
        with pytest.raises(ProcompError) as raised:
            call()
        assert type(raised.value) is ProcompError and str(raised.value) == message
    with pytest.raises(FileNotFoundError):  # a known format does read the models
        "".join(batch.score_batch(plan, [missing], "json", 1))


def test_a_cycle_of_sub_process_parents_is_a_model_error(config):
    # the parser cannot make such a graph, but a graph built in code reaches the plan
    graph = ProcessModelGraph((Node("a", NodeKind.SUB_PROCESS, parent="b"),
                               Node("b", NodeKind.SUB_PROCESS, parent="a"),
                               Node("t", NodeKind.TASK, parent="a")), ())
    with pytest.raises(ModelParseError, match=r"sub-process parents form a cycle \([ab]\)"):
        compile_plan(*config).evaluate(graph)
    looped = ProcessModelGraph((Node("s", NodeKind.SUB_PROCESS, parent="s"),), ())
    with pytest.raises(ModelParseError, match=r"form a cycle \(s\)"):
        EXTRACTORS["nesting-depth"](looped)


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


# ---------------------------------------------------------------------------
# The pre-scored plan against scoring every metric per model

GRAPHS = [parse_model_file(FIXTURES / f"{model}.bpmn") for model in MODELS]
QUESTIONNAIRE_SOURCES = {MetricSource.MODELER_QUESTIONNAIRE: Perspective.MODELER,
                         MetricSource.READER_QUESTIONNAIRE: Perspective.READER}
NORMALIZATIONS = [None, {"kind": "identity"}, {"kind": "boolean"},
                  {"kind": "linear-clamp", "lo": 0, "hi": 1}, {"kind": "linear-clamp", "lo": 0.5, "hi": 40}]


def _weight(rng):
    return rng.choice([rng.randint(1, 6), rng.uniform(0.5, 9.0)])


def random_config(rng: random.Random):
    """A random tree whose criteria draw metrics from every source, with
    questionnaire schemas that cover it and responses to them."""
    questions = {perspective: [] for perspective in Perspective}
    criteria = []
    pin_all = rng.random() < 0.25
    for perspective in Perspective:
        for rank in range(1, rng.randint(1, 4) + 1):
            metrics = []
            for metric_rank in range(1, rng.randint(1, 5) + 1):
                source = rng.choice(list(MetricSource))
                metric = {"id": f"x{len(criteria)}-{metric_rank}", "source": source.value,
                          "rank": metric_rank, "polarity": rng.choice(["higher-is-better",
                                                                       "lower-is-better"])}
                if source is MetricSource.MODEL_DERIVED:
                    metric["binding"] = rng.choice(sorted(EXTRACTORS))
                elif source is MetricSource.LANGUAGE_REGISTRY:
                    metric["binding"] = rng.choice(["complexity", "control-flow-pattern-support"])
                else:
                    levels = rng.choice([None, 3, 5, 7])
                    questions[QUESTIONNAIRE_SOURCES[source]] += [Question(
                        id=f"q-{metric['id']}-{i}", text="?", metric_id=metric["id"],
                        kind=QuestionKind.TRUE_FALSE if levels is None else QuestionKind.LIKERT,
                        levels=levels, polarity=rng.choice(list(QuestionPolarity)))
                        for i in range(rng.randint(1, 2))]
                if source in (MetricSource.MODEL_DERIVED, MetricSource.LANGUAGE_REGISTRY):
                    normalization = rng.choice(NORMALIZATIONS)
                    if normalization is not None:
                        metric["normalization"] = normalization
                if pin_all or rng.random() < 0.3:
                    metric["weight"] = _weight(rng)
                metrics.append(metric)
            criterion = {"id": f"c{len(criteria)}", "perspective": perspective.value, "rank": rank,
                         "metrics": metrics}
            if pin_all or rng.random() < 0.3:
                criterion["weight"] = _weight(rng)
            criteria.append(criterion)
    w_m = rng.choice([0.156, 0.5, rng.random()])
    tree = load_ett({"version": "1", "criteria": criteria, "survey_d": rng.choice([10.0, 4, 2.5]),
                     "interaction_weights": {"modeler": w_m, "reader": 1 - w_m}})
    modeler_schema, reader_schema = (QuestionnaireSchema("1", p, tuple(questions[p]))
                                     for p in Perspective)
    modeler = make_responses(modeler_schema, "m-1", rng.randint(0, 9))
    readers = [make_responses(reader_schema, f"r-{i}", rng.randint(0, 9))
               for i in range(rng.randint(1, 3))]
    return tree, builtin_language_registry(), modeler, readers, modeler_schema, reader_schema


def _assert_plan_matches_per_model_scoring(config, graphs, **options):
    plan = compile_plan(*config, **options)
    for index, graph in enumerate(graphs):
        expected = per_model_evaluation(graph, *config, model_id=f"m{index}", **options)
        assert plan.evaluate(graph, model_id=f"m{index}") == expected


@pytest.mark.parametrize("language", [None, "EPC"])
@pytest.mark.parametrize("document", ["default", "pinned"])
def test_plan_on_the_default_tree_matches_per_model_scoring(config, document, language):
    tree = load_ett(pinned_ett_document()) if document == "pinned" else config[0]
    _assert_plan_matches_per_model_scoring((tree, *config[1:]), GRAPHS, language=language)


def test_plan_on_random_trees_matches_per_model_scoring():
    rng = random.Random(909)
    seen = set()
    for _ in range(60):
        config = random_config(rng)
        for criterion in config[0].criteria:
            sources = {m.source for m in criterion.metrics}
            if MetricSource.LANGUAGE_REGISTRY in sources:
                seen.add(criterion.perspective)
            if len(sources) == len(MetricSource):
                seen.add("all sources in one criterion")
        seen.add("all pinned" if all(c.weight is not None for c in config[0].criteria)
                 and all(m.weight is not None for m in config[0].all_metrics()) else "derived")
        graphs = [rng.choice(GRAPHS), parse_model(random_bpmn_document(rng).encode())]
        language = rng.choice([None, "BPMN 2.0", "EPC", "UML Activity Diagram"])
        weights = rng.choice([None, (0.3, 0.7)])
        if weights is not None:
            config = (replace(config[0], interaction_weights=weights), *config[1:])
        _assert_plan_matches_per_model_scoring(
            config, graphs, language=language, noise_threshold=rng.choice([4.0, 6.5, 10.0]))
    assert seen == {*Perspective, "all sources in one criterion", "all pinned", "derived"}


@pytest.mark.parametrize("language", ["Petri nets", None])
def test_an_unregistered_language_fails_as_in_per_model_scoring(config, language):
    if language is None:  # scored in bpmn.LANGUAGE, which this registry leaves out
        config = (config[0], config[1][1:], *config[2:])
    with pytest.raises(ConfigError) as expected:
        per_model_evaluation(GRAPHS[0], *config, language=language)
    with pytest.raises(ConfigError) as compiled:
        compile_plan(*config, language=language)
    with pytest.raises(ConfigError) as one_shot:
        evaluate_model(GRAPHS[0], *config, language=language)
    assert str(compiled.value) == str(expected.value) == str(one_shot.value) == (
        "language 'Petri nets' not registered (known: BPMN 2.0, EPC, UML Activity Diagram)"
        if language else "language 'BPMN 2.0' not registered (known: EPC, UML Activity Diagram)")


def test_a_language_without_a_control_flow_catalog_fails_only_its_own_models(config):
    sketch = LanguageDescriptor("Sketch", 3, 1, 2, PatternSupportTable((), {}))
    config = (config[0], (*config[1], sketch), *config[2:])
    _assert_plan_matches_per_model_scoring(config, GRAPHS[:1])
    with pytest.raises(ConfigError) as expected:
        per_model_evaluation(GRAPHS[0], *config, language="Sketch")
    with pytest.raises(ConfigError) as compiled:
        compile_plan(*config, language="Sketch")
    with pytest.raises(ConfigError) as one_shot:
        evaluate_model(GRAPHS[0], *config, language="Sketch")
    assert str(compiled.value) == str(expected.value) == str(one_shot.value) == (
        "descriptor 'Sketch' has no control-flow pattern catalog")


ERRORS = [
    (ConfigError("bad weight", path="criteria[0].weight"), {"path": "criteria[0].weight"}),
    (ModelParseError("dangling reference", context="flow f1"), {"context": "flow f1"}),
    (ResponseError("response set 'r' failed validation", (Finding("missing-answer", "q1", "missing"),)),
     {"report": (Finding("missing-answer", "q1", "missing"),)}),
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


# ---------------------------------------------------------------------------
# ett validate and score accept and reject the same trees

def _fitting_config(tree):
    """The default registry, and schemas with a question for every
    questionnaire metric of ``tree``, with responses to them."""
    questions = {perspective: [] for perspective in Perspective}
    for metric in {m.id: m for m in tree.all_metrics()}.values():  # one question per metric id
        if metric.source in QUESTIONNAIRE_SOURCES:
            questions[QUESTIONNAIRE_SOURCES[metric.source]].append(Question(
                id=f"q-{metric.id}", text="?", kind=QuestionKind.TRUE_FALSE, metric_id=metric.id))
    modeler_schema, reader_schema = (QuestionnaireSchema("1", p, tuple(questions[p]))
                                     for p in Perspective)
    return (builtin_language_registry(), make_responses(modeler_schema, "m-1", 1),
            [make_responses(reader_schema, "r-1", 2)], modeler_schema, reader_schema)


NUMBERS = [-1, 0, 0.5, 1, 1.0, 1.5, 10, float("nan"), float("inf"), "2"]


def _edit_tree_document(rng: random.Random, document: dict) -> None:
    """Change one field of a tree document, or drop criteria or metrics."""
    criterion = rng.choice(document["criteria"])
    node = rng.choice([criterion, *criterion["metrics"]])
    metric = rng.choice(criterion["metrics"]) if criterion["metrics"] else node
    edit = rng.choice(["survey_d", "interaction_weights", "rank", "weight", "source", "binding",
                       "id", "empty-criterion", "drop-perspective", "inf"])
    if edit == "inf":  # only a document built in Python can hold one: JSON refuses it
        value = rng.choice([float("inf"), float("-inf")])
        if rng.random() < 0.5:
            document["survey_d"] = value
        else:
            node["weight"] = value
    elif edit == "survey_d":
        document["survey_d"] = rng.choice([*NUMBERS, 1.0001, 2.5])
    elif edit == "interaction_weights":
        w_m = rng.choice([0.0, 0.156, 0.5, 1.0, 1 + 5e-10, -0.1, 0.9, float("nan")])
        w_r = rng.choice([1 - w_m, 1 - w_m, 0.9, 1.1, -0.5])
        document["interaction_weights"] = {"modeler": w_m, "reader": w_r}
    elif edit == "rank":
        node["rank"] = rng.choice([0, 1, 2, 3, len(criterion["metrics"]) + 1, 2.0])
    elif edit == "weight":
        if rng.random() < 0.4:
            node.pop("weight", None)
        else:
            node["weight"] = rng.choice(NUMBERS)
    elif edit == "source":
        metric["source"] = rng.choice([*(s.value for s in MetricSource), "survey"])
    elif edit == "binding":
        binding = rng.choice([*EXTRACTORS, "complexity", "control-flow-pattern-support",
                              "no-such-binding", None])
        if binding is None:
            metric.pop("binding", None)
        else:
            metric["binding"] = binding
    elif edit == "id":
        node["id"] = rng.choice([c["id"] for c in document["criteria"]]
                                + [m["id"] for m in criterion["metrics"]])
    elif edit == "empty-criterion":
        criterion["metrics"] = []
    else:
        perspective = rng.choice(list(Perspective)).value
        document["criteria"] = [c for c in document["criteria"] if c["perspective"] != perspective]


def test_validate_accepts_exactly_the_trees_compile_plan_accepts():
    # a tree loaded from its document, or built in code with build_ett alone: compile_plan
    # raises the first error ett validate reports, a scoring rule's or a structural one's
    rng = random.Random(1313)
    bases = {"default": default_ett_document(), "pinned": pinned_ett_document()}
    verdicts, codes, infinite = {(True, True): 0, (False, False): 0}, set(), 0
    refused_as_built: set[str] = set()
    for case in range(400):
        base = "pinned" if case % 2 else "default"
        document = copy.deepcopy(bases[base])
        for _ in range(rng.choice([1, 2])):
            _edit_tree_document(rng, document)
        try:
            built = build_ett(document)
        except ConfigError:
            built = None
        findings = None if built is None else validate_ett(built)
        errors = [] if findings is None else [f for f in findings if f.severity == "error"]
        codes.update(e.code for e in errors)
        infinite += sum("must be finite" in e.message for e in errors)
        try:
            tree = load_ett(document)
            scored = True
        except ConfigError:
            scored = False
        if scored:
            try:
                plan = compile_plan(tree, *_fitting_config(tree))
            except ScoringError as exc:
                assert str(exc) == errors[0].message, case
                scored = False
            else:
                plan.evaluate(GRAPHS[-1])  # a tree both accept scores a model
        accepted = findings is not None and not errors
        assert accepted == scored, (case, base, [e.code for e in errors])
        verdicts[accepted, scored] += 1
        if built is not None:
            config = _fitting_config(built)
            try:
                compile_plan(built, *config)
            except ScoringError as exc:
                assert str(exc) == errors[0].message and errors[0] in scoring_violations(built), case
            except ConfigError as exc:
                assert (exc.path, str(exc)) == (errors[0].path, f"{errors[0].path}: {errors[0].message}")
                assert errors[0] in tree_violations(built), case
                refused_as_built.add(errors[0].code)
            else:
                assert accepted, (case, base, [e.code for e in errors])
    assert min(verdicts.values()) >= 100, verdicts
    assert infinite >= 10, infinite
    assert codes >= {"interaction-weights-sum", "interaction-weights-range", "survey-d-range",
                     "perspective-incomplete", "empty-criterion", "unknown-extractor",
                     "unknown-registry-value", "rank-permutation", "criterion-rank-permutation",
                     "duplicate-metric-id", "duplicate-criterion-id", "nonpositive-weight"}, codes
    assert refused_as_built >= {"rank-permutation", "duplicate-metric-id", "nonpositive-weight"}, \
        refused_as_built


def test_compile_plan_refuses_a_code_built_tree_with_a_duplicate_metric_id():
    # both metrics scored the raw value of the last one's binding, keyed by their shared id
    document = default_ett_document()
    model_derived = [(c, m) for c in document["criteria"] for m in c["metrics"]
                     if m["source"] == MetricSource.MODEL_DERIVED.value]
    (first_criterion, first), (last_criterion, last) = model_derived[0], model_derived[-1]
    assert (first["id"], first["binding"], last["binding"]) == ("m-err-or-routing", "or-gateway-count",
                                                                "density")
    last["id"] = first["id"]
    tree = build_ett(document)
    assert [f.code for f in validate_ett(tree) if f.severity == "error"] == ["duplicate-metric-id"]
    path = f"criteria[{last_criterion['id']}].metrics[m-err-or-routing]"
    with pytest.raises(ConfigError) as raised:
        compile_plan(tree, *_fitting_config(tree))
    assert raised.value.path == path
    assert str(raised.value) == (f"{path}: duplicate metric id 'm-err-or-routing' "
                                 f"(also at criteria[{first_criterion['id']}].metrics[m-err-or-routing])")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["criteria"][0]["metrics"][0].update(weight=float("nan")), "weight must be > 0, got nan"),
    (lambda d: d["criteria"][0].update(weight=-1.0), "weight must be > 0, got -1.0"),
])
def test_compile_plan_refuses_a_code_built_tree_with_a_weight_out_of_range(edit, message):
    # the failure came only from evaluate, once per model
    document = pinned_ett_document()
    edit(document)
    tree = build_ett(document)
    with pytest.raises(ConfigError, match=f"\\.weight: {re.escape(message)}$"):
        compile_plan(tree, *_fitting_config(tree))


def _exact_mean(results) -> float:
    """The results' weighted mean score in exact rational arithmetic, rounded once."""
    weights = [Fraction(r.weight) for r in results]
    return float(sum(w * Fraction(r.score) for r, w in zip(results, weights)) / sum(weights))


def test_a_tree_that_validates_aggregates_without_overflow():
    # weights near the largest float: a weighted sum that overflowed was clamped to a
    # plausible score, so every tree ett validate accepts must aggregate as exact arithmetic does
    rng = random.Random(2626)
    verdicts = {True: 0, False: 0}
    for case in range(60):
        document = pinned_ett_document() if case % 2 else default_ett_document()
        document["survey_d"] = 10.0 ** rng.uniform(*rng.choice([(1.0, 300.0), (305.0, 308.25)]))
        for node in (n for c in document["criteria"] for n in (c, *c["metrics"])):
            if "weight" in node and rng.random() < 0.1:
                node["weight"] *= 10.0 ** rng.uniform(295.0, 307.0)
        tree = load_ett(document)
        errors = [f for f in validate_ett(tree) if f.severity == "error"]
        verdicts[not errors] += 1
        if errors:
            assert {f.code for f in errors} == {"weight-overflow"}
            with pytest.raises(ScoringError, match=f"^{re.escape(errors[0].message)}$"):
                compile_plan(tree, *_fitting_config(tree))
            continue
        evaluation = compile_plan(tree, *_fitting_config(tree)).evaluate(GRAPHS[-1])
        for criterion in evaluation.criteria:
            assert criterion.score == pytest.approx(_exact_mean(criterion.metrics), rel=1e-12), case
        for perspective, score in zip(Perspective, (evaluation.s_m, evaluation.s_r)):
            group = [c for c in evaluation.criteria if c.perspective is perspective]
            assert score == pytest.approx(_exact_mean(group), rel=1e-12), case
    assert min(verdicts.values()) >= 15, verdicts
