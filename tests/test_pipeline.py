import copy
import multiprocessing
import pickle
import random

import pytest

from procomp import replace
from procomp.bpmn import Node, NodeKind, ProcessModelGraph, parse_model, parse_model_file
from procomp.defaults import builtin_language_registry, default_ett_document
from procomp.errors import (
    ConfigError,
    ExtractionError,
    ModelParseError,
    ResponseError,
    ScoringError,
)
from procomp.ett import MetricSource, Perspective, build_ett, load_ett, validate_ett
from procomp.languages import LanguageDescriptor, PatternSupportTable
from procomp.metrics import EXTRACTORS
from procomp.pipeline import compile_plan, evaluate_model
from procomp.questionnaire import (
    Question,
    QuestionKind,
    QuestionnaireSchema,
    QuestionPolarity,
    ResponseIssue,
    ResponseSet,
    score_responses,
)
from procomp.report import export
from procomp.scoring import ComprehensionEvaluation, CriterionResult, detect_noise

from conftest import FIXTURES, make_responses, pinned_ett_document, random_bpmn_document
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


def test_reader_scores_average_left_to_right(config):
    # six-level answers (1, 2.8, 4.6, ...) that sum() from Python 3.12 on
    # averages differently for 10 of the 24 reader metrics
    tree, registry, modeler, _, modeler_schema, reader_schema = config
    reader_schema = replace(reader_schema, questions=tuple(
        replace(q, levels=6) if q.kind is QuestionKind.LIKERT else q
        for q in reader_schema.questions))
    readers = [make_responses(reader_schema, f"r-{seed}", seed) for seed in range(5)]
    per_reader = [score_responses(reader_schema, r) for r in readers]
    evaluation = compile_plan(tree, registry, modeler, readers, modeler_schema,
                              reader_schema).evaluate(parse_model_file(FIXTURES / "sequence.bpmn"))
    averaged = 0
    for _, metric in evaluation.metric_results():
        if metric.source is MetricSource.READER_QUESTIONNAIRE:
            total = 0.0
            for scores in per_reader:
                total += scores[metric.id]
            assert metric.score == total / len(per_reader)
            averaged += 1
    assert averaged == 24


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
    assert evaluation.flags and list(evaluation.flags) == detect_noise(evaluation, plan.noise_threshold)


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
    options = {"noise_threshold": 5.0, "interaction_weights": (0.3, 0.7), "language": "BPMN 2.0"}
    assert (evaluate_model(graph, *config, model_id="xor_loop", **options)
            == compile_plan(*config, **options).evaluate(graph, model_id="xor_loop"))
    assert evaluate_model(graph, *config) == compile_plan(*config).evaluate(graph)
    with pytest.raises(TypeError, match="noise_treshold"):
        evaluate_model(graph, *config, noise_treshold=5.0)


def test_pool_workers_start_under_spawn(config, tmp_path):
    # spawn (and forkserver, the default from Python 3.14) pickles the plan and
    # the pipe's write end into a freshly imported interpreter; the error that
    # stops the worker comes back through the real pipe
    from procomp import cli
    plan = compile_plan(*config)
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    paths = [str(FIXTURES / f"{model}.bpmn") for model in MODELS]
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=cli._score_share,
                             args=(plan, "json", [*paths, str(broken), *paths], sender, ()))
    worker.start()
    sender.close()
    try:
        parts = []
        for _ in range(len(paths) + 1):
            assert receiver.poll(60)
            parts.append(receiver.recv())
        with pytest.raises(EOFError):  # the worker stops at the error
            receiver.poll(60) and receiver.recv()
        worker.join(60)
        assert (worker.is_alive(), worker.exitcode) == (False, 0)
    finally:
        receiver.close()
        worker.kill()
        worker.join()
    assert parts[:-1] == [cli._score_entry(plan, "json", path) for path in paths]
    with pytest.raises(ModelParseError) as raised:
        cli._score_entry(plan, "json", str(broken))
    assert type(parts[-1]) is ModelParseError and str(parts[-1]) == str(raised.value)


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
        _assert_plan_matches_per_model_scoring(
            config, graphs, language=language, interaction_weights=weights,
            noise_threshold=rng.choice([4.0, 6.5, 10.0]))
    assert seen == {*Perspective, "all sources in one criterion", "all pinned", "derived"}


@pytest.mark.parametrize("language, graph_language", [("Petri nets", "BPMN 2.0"),
                                                      (None, "Petri nets")])
def test_an_unregistered_language_fails_as_in_per_model_scoring(config, language, graph_language):
    graph = replace(GRAPHS[0], language=graph_language)
    with pytest.raises(ConfigError) as expected:
        per_model_evaluation(graph, *config, language=language)
    with pytest.raises(ConfigError) as actual:
        evaluate_model(graph, *config, language=language)
    assert str(actual.value) == str(expected.value) == (
        "language 'Petri nets' not registered (known: BPMN 2.0, EPC, UML Activity Diagram)")
    if language is not None:  # the plan's own language: no plan is compiled
        with pytest.raises(ConfigError) as compiled:
            compile_plan(*config, language=language)
        assert str(compiled.value) == str(expected.value)
        return
    # a plan compiled without a language scores only graphs in bpmn.LANGUAGE,
    # while evaluate_model scores each graph in its own language
    plan = compile_plan(*config)
    epc = replace(graph, language="EPC")
    assert evaluate_model(epc, *config) == per_model_evaluation(epc, *config)
    for other in (graph, epc):
        with pytest.raises(ConfigError) as refused:
            plan.evaluate(other)
        assert str(refused.value) == (f"model language {other.language!r} is not 'BPMN 2.0', "
                                      "the language of a plan compiled without one")


def test_a_language_without_a_control_flow_catalog_fails_only_its_own_models(config):
    sketch = LanguageDescriptor("Sketch", 3, 1, 2, PatternSupportTable((), {}))
    config = (config[0], (*config[1], sketch), *config[2:])
    _assert_plan_matches_per_model_scoring(config, GRAPHS[:1])
    with pytest.raises(ConfigError) as expected:
        per_model_evaluation(GRAPHS[0], *config, language="Sketch")
    with pytest.raises(ConfigError) as compiled:
        compile_plan(*config, language="Sketch")
    with pytest.raises(ConfigError) as one_shot:
        evaluate_model(replace(GRAPHS[0], language="Sketch"), *config)
    assert str(compiled.value) == str(expected.value) == str(one_shot.value) == (
        "descriptor 'Sketch' has no control-flow pattern catalog")


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


# ---------------------------------------------------------------------------
# ett validate and score accept and reject the same trees

def _fitting_config(tree):
    """The default registry, and schemas with a question for every
    questionnaire metric of ``tree``, with responses to them."""
    questions = {perspective: [] for perspective in Perspective}
    for metric in tree.all_metrics():
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
    rng = random.Random(1313)
    bases = {"default": default_ett_document(), "pinned": pinned_ett_document()}
    verdicts, codes, infinite = {(True, True): 0, (False, False): 0}, set(), 0
    for case in range(400):
        base = "pinned" if case % 2 else "default"
        document = copy.deepcopy(bases[base])
        for _ in range(rng.choice([1, 2])):
            _edit_tree_document(rng, document)
        try:
            report = validate_ett(build_ett(document))
        except ConfigError:
            report = None
        errors = [] if report is None else [e for e in report if e.severity == "error"]
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
        accepted = report is not None and report.ok
        assert accepted == scored, (case, base, [e.code for e in errors])
        verdicts[accepted, scored] += 1
    assert min(verdicts.values()) >= 100, verdicts
    assert infinite >= 10, infinite
    assert codes >= {"interaction-weights-sum", "interaction-weights-range", "survey-d-range",
                     "perspective-incomplete", "empty-criterion", "unknown-extractor",
                     "unknown-registry-value", "rank-permutation", "criterion-rank-permutation",
                     "duplicate-metric-id", "duplicate-criterion-id", "nonpositive-weight"}, codes
