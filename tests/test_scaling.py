"""No layer may cost more than near-linearly in the size of its input.

Cost is counted, not timed: ``sys.settrace`` line events for the model
layers and the ``tracemalloc`` peak for survey ranking. Both are exact and
do not depend on the host, but their absolute values change between Python
versions, so the gate bounds the ratio between sizes: each 4x step in size
may cost at most ``STEP_BOUND`` times as much. A layer that fails it is a
defect to mend, not a bound to loosen. A batch is gated by what it keeps
alive, which must not grow with the number of models at all.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import Counter

import pytest

from procomp.batch import score_batch
from procomp.bpmn import ProcessModelGraph, parse_model, parse_model_file
from procomp.defaults import builtin_language_registry
from procomp.ett import (
    REGISTRY_BINDINGS,
    EvaluationTheoryTree,
    MetricSource,
    Perspective,
    QualityCriterion,
    QualityMetric,
)
from procomp.metrics import EXTRACTORS
from procomp.pipeline import compile_plan
from procomp.questionnaire import Question, QuestionKind, QuestionnaireSchema
from procomp.ranking import MethodKind, RankMethod, load_survey_csv, rank_items
from procomp.report import export
from procomp.scoring import ComprehensionEvaluation

from conftest import FIXTURES, make_responses, survey_table

STEP_BOUND = 4.6
SIZES = (1, 4, 16)  # about 40 flow nodes per unit of size


def _document(processes: str) -> bytes:
    return ('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">'
            f'<process id="p">{processes}</process></definitions>').encode()


def _flows(pairs: list[tuple[str, str]]) -> str:
    return "".join(f'<sequenceFlow id="f{i}" sourceRef="{a}" targetRef="{b}"/>'
                   for i, (a, b) in enumerate(pairs))


def nested_block_chain(size: int) -> bytes:
    """A sequence of 4 * size segments, about 10 flow nodes each: an exclusive
    block whose one branch is a parallel block of two tasks and whose other is
    a sub-process holding a labeled task."""
    elements, pairs, previous = ['<startEvent id="s"/>'], [], "s"
    for i in range(4 * size):
        elements.append(
            f'<exclusiveGateway id="xs{i}"/><exclusiveGateway id="xj{i}"/>'
            f'<parallelGateway id="as{i}"/><parallelGateway id="aj{i}"/>'
            f'<task id="ta{i}" name="Check {i}"/><task id="tb{i}"/>'
            f'<subProcess id="sp{i}" name="Handle {i}"><startEvent id="ss{i}"/>'
            f'<task id="st{i}" name="Do {i}"/><endEvent id="se{i}"/>'
            f'<sequenceFlow id="sf{i}a" sourceRef="ss{i}" targetRef="st{i}"/>'
            f'<sequenceFlow id="sf{i}b" sourceRef="st{i}" targetRef="se{i}"/></subProcess>')
        pairs += [(previous, f"xs{i}"), (f"xs{i}", f"as{i}"), (f"as{i}", f"ta{i}"),
                  (f"as{i}", f"tb{i}"), (f"ta{i}", f"aj{i}"), (f"tb{i}", f"aj{i}"),
                  (f"aj{i}", f"xj{i}"), (f"xs{i}", f"sp{i}"), (f"sp{i}", f"xj{i}")]
        previous = f"xj{i}"
    elements.append('<endEvent id="e"/>')
    return _document("".join(elements) + _flows(pairs + [(previous, "e")]))


def wide_star(size: int) -> bytes:
    """One parallel split into 40 * size - 4 tasks, all closed by one join."""
    spokes = 40 * size - 4
    elements = ['<startEvent id="s"/><parallelGateway id="split"/>'
                '<parallelGateway id="join"/><endEvent id="e"/>']
    pairs = [("s", "split"), ("join", "e")]
    for i in range(spokes):
        elements.append(f'<task id="t{i}" name="Task {i}"/>')
        pairs += [("split", f"t{i}"), (f"t{i}", "join")]
    return _document("".join(elements) + _flows(pairs))


def fault_ladder(size: int) -> bytes:
    """A sequence of 10 * size exclusive diamonds of two tasks, the middle one
    closed by a parallel join, so that no block-structuredness reduction
    removes it."""
    diamonds, elements, pairs, previous = 10 * size, ['<startEvent id="s"/>'], [], "s"
    for i in range(diamonds):
        join = "parallelGateway" if i == diamonds // 2 else "exclusiveGateway"
        elements.append(f'<exclusiveGateway id="x{i}"/><{join} id="j{i}"/>'
                        f'<task id="ta{i}" name="Check {i}"/><task id="tb{i}" name="Book {i}"/>')
        pairs += [(previous, f"x{i}"), (f"x{i}", f"ta{i}"), (f"x{i}", f"tb{i}"),
                  (f"ta{i}", f"j{i}"), (f"tb{i}", f"j{i}")]
        previous = f"j{i}"
    elements.append('<endEvent id="e"/>')
    return _document("".join(elements) + _flows(pairs + [(previous, "e")]))


def nested_sub_processes(size: int) -> bytes:
    """10 * size sub-processes nested in one another, each a start event, a
    labeled task, the next sub-process (but in the innermost) and an end
    event in sequence."""
    depth, opened, closed = 10 * size, [], []
    for i in range(depth):
        inner = [f"sp{i + 1}"] if i + 1 < depth else []
        chain = [f"ss{i}", f"t{i}", *inner, f"se{i}"]
        opened.append(f'<subProcess id="sp{i}" name="Handle {i}"><startEvent id="ss{i}"/>'
                      f'<task id="t{i}" name="Do {i}"/>')
        closed.append(f'<endEvent id="se{i}"/>'
                      + "".join(f'<sequenceFlow id="sf{i}-{k}" sourceRef="{a}" targetRef="{b}"/>'
                                for k, (a, b) in enumerate(zip(chain, chain[1:])))
                      + "</subProcess>")
    return _document('<startEvent id="s"/>' + "".join(opened) + "".join(reversed(closed))
                     + '<endEvent id="e"/>' + _flows([("s", "sp0"), ("sp0", "e")]))


SHAPES = {"nested-block-chain": nested_block_chain, "wide-star": wide_star,
          "fault-ladder": fault_ladder, "nested-sub-processes": nested_sub_processes}


def line_events(call) -> int:
    """The number of line events that ``call()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def assert_near_linear(costs: list[int], what: str) -> None:
    for smaller, larger in zip(costs, costs[1:]):
        assert larger <= STEP_BOUND * smaller, f"{what}: {costs}, more than {STEP_BOUND}x per 4x step"


@pytest.fixture(scope="module")
def plan(ett, modeler_schema, reader_schema):
    return compile_plan(ett, builtin_language_registry(), make_responses(modeler_schema, "m-1", 1),
                        [make_responses(reader_schema, "r-1", 0)], modeler_schema, reader_schema)


@pytest.fixture(scope="module", params=SHAPES)
def documents(request):
    return request.param, [SHAPES[request.param](size) for size in SIZES]


def test_the_shapes_have_about_40_160_and_640_flow_nodes(documents):
    shape, docs = documents
    counts = [len(parse_model(doc).flow_nodes()) for doc in docs]
    assert counts == {"nested-block-chain": [42, 162, 642], "wide-star": [40, 160, 640],
                      "fault-ladder": [42, 162, 642], "nested-sub-processes": [42, 162, 642]}[shape]


def test_parse_is_near_linear(documents):
    shape, docs = documents
    assert_near_linear([line_events(lambda: parse_model(doc)) for doc in docs], f"parse {shape}")


# each extractor twice: on a fresh graph, where its index is built on first use
# and counted too, and with the index built first, which bounds it apart
@pytest.mark.parametrize("key, index_built_first", [
    *(pytest.param(key, False, id=key) for key in ["graph-index", *EXTRACTORS]),
    *(pytest.param(key, True, id=f"{key}-index-built-first") for key in EXTRACTORS),
])
def test_each_extractor_is_near_linear_on_a_fresh_graph(documents, key, index_built_first):
    shape, docs = documents
    costs = []
    for doc in docs:
        graph = parse_model(doc)
        if index_built_first:
            graph.index
        extract = (lambda: graph.index) if key == "graph-index" else (lambda: EXTRACTORS[key](graph))
        costs.append(line_events(extract))
    assert_near_linear(costs, f"{key} on {shape}")


def test_plan_evaluate_and_both_exports_are_near_linear(documents, plan):
    shape, docs = documents
    costs: dict[str, list[int]] = {"evaluate": [], "json": [], "csv": []}
    for doc in docs:
        graph = parse_model(doc)
        evaluation = None

        def evaluate():
            nonlocal evaluation
            evaluation = plan.evaluate(graph, model_id=shape)

        costs["evaluate"].append(line_events(evaluate))
        for fmt in ("json", "csv"):
            costs[fmt].append(line_events(lambda: export(evaluation, fmt)))
    for step, counts in costs.items():
        assert_near_linear(counts, f"{step} on {shape}")


QUESTIONNAIRE = {Perspective.MODELER: MetricSource.MODELER_QUESTIONNAIRE,
                 Perspective.READER: MetricSource.READER_QUESTIONNAIRE}


def scaled_config(size: int) -> tuple:
    """A tree of 4 * size criteria per perspective, each of two model-derived,
    one registry and three questionnaire metrics, with the registry and the
    two schemas and their responses that fit it."""
    extractors, criteria = list(EXTRACTORS), []
    questions: dict[Perspective, list[Question]] = {p: [] for p in Perspective}
    for perspective in Perspective:
        for c in range(4 * size):
            cid = f"{perspective.value}-{c}"
            sources = [MetricSource.MODEL_DERIVED] * 2 + [MetricSource.LANGUAGE_REGISTRY]
            sources += [QUESTIONNAIRE[perspective]] * 3
            metrics = []
            for rank, source in enumerate(sources, start=1):
                mid = f"{cid}-m{rank}"
                binding = (extractors[(2 * c + rank) % len(extractors)]
                           if source is MetricSource.MODEL_DERIVED
                           else REGISTRY_BINDINGS[c % 2] if source is MetricSource.LANGUAGE_REGISTRY
                           else None)
                metrics.append(QualityMetric(mid, mid, "", source, rank, binding=binding))
                if binding is None:
                    questions[perspective].append(
                        Question(f"q-{mid}", "?", QuestionKind.TRUE_FALSE, mid))
            criteria.append(QualityCriterion(cid, cid, perspective, c + 1, tuple(metrics)))
    tree = EvaluationTheoryTree("scaled", tuple(criteria))
    modeler_schema, reader_schema = (QuestionnaireSchema("1", p, tuple(questions[p]))
                                     for p in Perspective)
    return (tree, builtin_language_registry(), make_responses(modeler_schema, "m-1", 1),
            [make_responses(reader_schema, "r-1", 0)], modeler_schema, reader_schema)


def test_compile_plan_and_plan_evaluate_are_near_linear_in_tree_size():
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    graph.index  # built here, so that no evaluate counts it
    costs: dict[str, list[int]] = {"compile_plan": [], "evaluate": []}
    for size in SIZES:
        config = scaled_config(size)
        plan = None

        def compile():
            nonlocal plan
            plan = compile_plan(*config)

        costs["compile_plan"].append(line_events(compile))
        costs["evaluate"].append(line_events(lambda: plan.evaluate(graph)))
        assert len(plan.tree.all_metrics()) == 48 * size
    for step, counts in costs.items():
        assert_near_linear(counts, f"{step} on a tree of {SIZES} x 48 metrics")


def test_a_batch_keeps_one_model_alive_in_the_main_process(plan, tmp_path):
    # gc.get_objects, not a tracemalloc peak: the peak also holds CPython's tuple
    # free lists, which are bounded and grow with the batch up to their bound
    model = (FIXTURES / "order_fulfillment.bpmn").read_bytes()
    for count in (10, 40, 160):
        models = []
        for i in range(count):
            path = tmp_path / f"m{count}-{i}.bpmn"
            path.write_bytes(model)
            models.append(str(path))
        pieces = 0
        gc.collect()
        gc.freeze()  # gc.get_objects() leaves out what is alive now: it lists what the batch made
        try:
            for _ in score_batch(plan, models, "json", 1):
                pieces += 1
                alive = Counter(map(type, gc.get_objects()))
                assert alive[ProcessModelGraph] <= 1 and alive[ComprehensionEvaluation] <= 1, (
                    count, pieces, alive[ProcessModelGraph], alive[ComprehensionEvaluation])
        finally:
            gc.unfreeze()
        assert pieces == 2 * count + 1  # the head and the separators, the entries, the tail


def test_survey_ranking_memory_is_near_linear_in_rows(tmp_path):
    import csv  # noqa: F401  -- loaded on first use: keep the import out of the peaks
    peaks = []
    for rows in (250, 1_000, 4_000):
        path = tmp_path / f"survey-{rows}.csv"
        path.write_text(survey_table(rows), encoding="utf-8")
        gc.collect()  # empties the free lists, so no size reuses what an earlier one freed
        tracemalloc.start()
        try:
            ranked = rank_items(load_survey_csv(path), RankMethod(MethodKind.DNLOG))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ranked) == rows and ranked[0][0] == "i0"
    assert_near_linear(peaks, "load_survey_csv + rank_items peak bytes")
