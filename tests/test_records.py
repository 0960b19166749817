"""The record contract: procomp's value types behave as the frozen, slotted
dataclasses they replaced would.

A plan's pickle round trip is pinned by
``test_pipeline.py::test_unpickled_plan_exports_the_same_bytes``, and one
index build per graph by
``test_model.py::test_graph_index_is_built_once_per_graph``.
"""

import copy
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import procomp
from procomp import replace
from procomp.bpmn import Edge, EdgeKind, GraphIndex, Node, NodeKind, ProcessModelGraph, parse_model_file
from procomp.defaults import builtin_language_registry
from procomp.errors import ConfigError
from procomp.ett import MetricSource, ValidationEntry, ValidationReport
from procomp.pipeline import compile_plan
from procomp.questionnaire import QuestionKind, ResponseSet, validate_responses
from procomp.ranking import MethodKind, RankMethod, SurveyDataset, compare_methods
from procomp.records import FrozenInstanceError
from procomp.report import export
from procomp.scoring import MetricResult

from conftest import FIXTURES, make_responses


def record_classes() -> dict[str, type]:
    """Every record class procomp defines, by ``module.name``."""
    classes = {}
    for info in pkgutil.walk_packages(procomp.__path__, "procomp."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "_fields" in value.__dict__):
                classes[f"{module.__name__.removeprefix('procomp.')}.{name}"] = value
    return classes


RECORD_CLASSES = record_classes()


def reachable_records(*roots) -> dict[type, object]:
    """The first record of each class found in ``roots``, their fields and
    the tuples, lists and dicts among them."""
    found, stack = {}, list(roots)
    while stack:
        value = stack.pop()
        if isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.items())
        elif "_fields" in type(value).__dict__:
            found.setdefault(type(value), value)
            stack.extend(getattr(value, name) for name in value._fields)
    return found


@pytest.fixture(scope="module")
def samples(ett, modeler_schema, reader_schema):
    registry = builtin_language_registry()
    plan = compile_plan(ett, registry, make_responses(modeler_schema, "m-1", 1),
                        [make_responses(reader_schema, "r-1", 0)], modeler_schema, reader_schema)
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    evaluation = plan.evaluate(graph, model_id="order_fulfillment")
    survey = SurveyDataset(("a", "b"), 2, {"a": (0.75, 0.25), "b": (0.25, 0.75)})
    responses = ResponseSet("m-2", modeler_schema.version, {})  # every answer missing
    return reachable_records(
        plan, graph, graph.index, evaluation, export(evaluation, "json"), registry,
        modeler_schema, responses, validate_responses(modeler_schema, responses),
        ValidationReport((ValidationEntry("warning", "code", "path", "message"),)),
        survey, compare_methods(survey), RankMethod(MethodKind.DNLOG))


def test_the_samples_hold_every_record_class(samples):
    assert len(RECORD_CLASSES) == 26
    assert set(samples) == set(RECORD_CLASSES.values())
    assert RECORD_CLASSES["bpmn.ProcessModelGraph"] is ProcessModelGraph


def fields_of(record) -> list:
    return [getattr(record, name) for name in record._fields]


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_a_record_keeps_its_fields_in_slots(samples, name):
    record = samples[RECORD_CLASSES[name]]
    if name == "bpmn.ProcessModelGraph":  # cached_property keeps the index in it
        assert set(vars(record)) <= {"index"}
    else:
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)
    with pytest.raises(TypeError):
        weakref.ref(record)


@pytest.mark.parametrize("name", RECORD_CLASSES)
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_copied_record_is_equal_and_frozen(samples, name, clone):
    record = samples[RECORD_CLASSES[name]]
    copied = clone(record)
    assert type(copied) is type(record) and fields_of(copied) == fields_of(record)
    if name != "bpmn.GraphIndex":  # compared by identity
        assert copied == record
    first = record._fields[0]
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{first}'"):
        setattr(copied, first, None)
    with pytest.raises(FrozenInstanceError):
        copied.other = 1
    assert fields_of(copied) == fields_of(record)


def small_graph(warnings=()):
    nodes = (Node("s", NodeKind.START_EVENT), Node("e", NodeKind.END_EVENT))
    return ProcessModelGraph(nodes, (Edge("f", "s", "e", EdgeKind.SEQUENCE),), warnings=warnings)


def test_equal_records_hash_equal(samples):
    for record in samples.values():  # every record class hashes
        equal = copy.deepcopy(record)  # equal field by field, and no field shared
        if isinstance(record, GraphIndex):  # compared by identity, see below
            assert equal != record and hash(equal) != hash(record)
        else:
            assert equal == record and hash(equal) == hash(record)
    a = MetricResult("m", "M", MetricSource.MODEL_DERIVED, 5.0, raw=3.0)
    b = MetricResult(id="m", name="M", source=MetricSource.MODEL_DERIVED, score=5.0, weight=1.0, raw=3.0)
    assert a == b and hash(a) == hash(b)
    assert a != replace(b, raw=4.0)
    assert a != ("m", "M", MetricSource.MODEL_DERIVED, 5.0, 1.0, 3.0)


def test_a_dict_field_hashes_by_its_items():
    first = ResponseSet("r", "v1", {"q1": True, "q2": 3})
    second = ResponseSet("r", "v1", {"q2": 3, "q1": True})
    assert first == second and hash(first) == hash(second)
    assert first != replace(first, answers={"q1": True, "q2": 4})
    descriptor = builtin_language_registry()[0]
    assert hash(descriptor) == hash(copy.deepcopy(descriptor))
    assert len({descriptor, copy.deepcopy(descriptor), *builtin_language_registry()[1:]}) == len(
        builtin_language_registry())


# each constructor's parameters and defaults, as ``dataclasses`` built them
SIGNATURES = {
    "bpmn.Edge": "(id, source, target, kind)",
    "bpmn.GraphIndex": "(flow_nodes, position, gateways, sequence_edges, in_degree, out_degree, kind_counts)",
    "bpmn.Node": "(id, kind, label='', parent=None)",
    "bpmn.ProcessModelGraph": "(nodes, edges, language='BPMN 2.0', warnings=())",
    "ett.EvaluationTheoryTree": "(version, criteria, survey_d=10.0, interaction_weights=(0.156, 0.844))",
    "ett.NormalizationSpec": "(kind, lo=None, hi=None)",
    "ett.QualityCriterion": "(id, name, perspective, rank, metrics, weight=None)",
    "ett.QualityMetric": "(id, name, description, source, rank, normalization=NormalizationSpec("
                         "kind=<NormalizationKind.IDENTITY: 'identity'>, lo=None, hi=None), "
                         "polarity=<Polarity.HIGHER_IS_BETTER: 'higher-is-better'>, weight=None, binding=None)",
    "ett.ValidationEntry": "(severity, code, path, message)",
    "ett.ValidationReport": "(entries)",
    "languages.LanguageDescriptor": "(name, elements, characteristics, relations, patterns)",
    "languages.PatternEntry": "(id, type, support, name='')",
    "languages.PatternSupportTable": "(entries, catalog_sizes)",
    "pipeline.ScoringPlan": "(tree, criteria, noise_threshold, language)",
    "questionnaire.Question": "(id, text, kind, metric_id, levels=None, "
                              "polarity=<QuestionPolarity.POSITIVE: 'positive'>)",
    "questionnaire.QuestionnaireSchema": "(version, perspective, questions)",
    "questionnaire.ResponseIssue": "(code, question_id, message)",
    "questionnaire.ResponseSet": "(respondent, schema_version, answers)",
    "ranking.MethodComparison": "(method, growth, ordering)",
    "ranking.RankMethod": "(kind, param=None)",
    "ranking.SurveyDataset": "(items, n, placements)",
    "report.ReportDocument": "(format, body)",
    "scoring.ComprehensionEvaluation": "(model_id, criteria, s_m, s_r, s_b, w_m, w_r, noise_threshold=4.0, "
                                       "flags=())",
    "scoring.CriterionResult": "(id, name, perspective, score, weight=1.0, metrics=())",
    "scoring.MetricResult": "(id, name, source, score, weight=1.0, raw=None)",
    "scoring.NoiseFlag": "(kind, id, name, score, threshold, perspective, criterion_id)",
}


def listed(names: list[str]) -> str:
    """``names`` quoted and joined as Python's argument errors join them."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_the_constructor_keeps_its_signature_errors_and_post_init(samples, name, monkeypatch):
    cls, record = RECORD_CLASSES[name], samples[RECORD_CLASSES[name]]
    signature = inspect.signature(cls)
    assert str(signature) == SIGNATURES[name]
    assert list(signature.parameters) == list(cls._fields)
    required = [p.name for p in signature.parameters.values() if p.default is p.empty]
    plural = "s" if len(required) > 1 else ""
    with pytest.raises(TypeError) as missing:
        cls()
    assert str(missing.value) == (f"{cls.__qualname__}.__init__() missing {len(required)} required "
                                  f"positional argument{plural}: {listed(required)}")
    with pytest.raises(TypeError) as unexpected:
        cls(*fields_of(record), bogus=1)
    assert str(unexpected.value) == f"{cls.__qualname__}.__init__() got an unexpected keyword argument 'bogus'"
    checked = []
    if hasattr(cls, "__post_init__"):
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(post_init(self)))
    rebuilt = cls(**{field: getattr(record, field) for field in cls._fields})
    assert checked == ([None] if hasattr(cls, "__post_init__") else [])
    assert fields_of(rebuilt) == fields_of(record)


def test_compare_false_fields_do_not_affect_equality_or_hash():
    graph, warned = small_graph(), small_graph(warnings=("dangling flow",))
    assert graph == warned and hash(graph) == hash(warned)
    assert warned.warnings == ("dangling flow",)
    first = SurveyDataset(("a", "b"), 2, {"a": (1.0, 0.0), "b": (0.0, 1.0)})
    second = SurveyDataset(("a", "b"), 2, {"a": (0.5, 0.5), "b": (0.5, 0.5)})
    assert first == second
    assert first != SurveyDataset(("b", "a"), 2, first.placements)


def test_graph_index_is_compared_by_identity():
    graph = small_graph()
    index, rebuilt = graph.index, GraphIndex.of(graph)
    assert index is graph.index
    assert index != rebuilt and index == index
    assert hash(index) == object.__hash__(index)


@pytest.mark.parametrize("record, name", [(Node("t", NodeKind.TASK), "kind"), (small_graph(), "nodes"),
                                          (RankMethod(MethodKind.DNLOG), "param")])
def test_fields_cannot_be_assigned_or_deleted(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 1
    assert getattr(record, name) is value


def test_repr_is_the_dataclass_format():
    assert repr(Node("t1", NodeKind.TASK, "Check order")) == (
        "Node(id='t1', kind=<NodeKind.TASK: 'task'>, label='Check order', parent=None)")
    assert repr(MetricResult("node-count", "Node count", MetricSource.MODEL_DERIVED, 7.5, 0.25, 12.0)) == (
        "MetricResult(id='node-count', name='Node count', "
        "source=<MetricSource.MODEL_DERIVED: 'model-derived'>, score=7.5, weight=0.25, raw=12.0)")
    assert repr(RankMethod(MethodKind.DNLOG)) == (
        "RankMethod(kind=<MethodKind.DNLOG: 'dnlog'>, param=10.0)")


def test_construction_errors_name_the_class():
    with pytest.raises(TypeError, match=r"Node.__init__\(\) missing 2 required positional arguments"):
        Node()
    with pytest.raises(TypeError, match=r"Node.__init__\(\) got an unexpected keyword argument 'x'"):
        replace(Node("a", NodeKind.TASK), x=1)


def test_replace_runs_post_init(modeler_schema):
    question = next(q for q in modeler_schema.questions if q.kind is QuestionKind.LIKERT)
    assert replace(question, levels=7).levels == 7
    with pytest.raises(ConfigError, match=f"question '{question.id}': likert needs levels >= 2"):
        replace(question, levels=1)


def test_pickled_graph_keeps_its_cached_index():
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    index = graph.index
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph and clone.warnings == graph.warnings
    assert clone.index is clone.index
    assert clone.index.position == index.position and clone.index.in_degree == index.in_degree


STARTUP_PROBE = """\
import argparse, gc, json, sys
before = set(sys.modules)
compiles = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>" and compiles.append(1))
from procomp.cli import main
imported = len(compiles)
records = {value for name, module in list(sys.modules.items()) if name.startswith("procomp")
           for value in vars(module).values() if isinstance(value, type) and "_fields" in value.__dict__}
shapes = {(len(cls._fields), hasattr(cls, "__post_init__")) for cls in records}
unloaded = [m for m in ("dataclasses", "inspect", "decimal", "xml.etree", "csv", "concurrent.futures")
            if m in sys.modules and m not in before]
parsers, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    parsers.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
codes = [main(sys.argv[1:])]
in_process = gc.get_freeze_count()
parsers.clear()
output = sys.argv[1 + sys.argv.index("--output")]
sys.argv[1 + sys.argv.index("--output")] += ".program"
codes.append(main())
program_parsers, single = len(parsers), "multiprocessing" in sys.modules
model = sys.argv[1 + sys.argv.index("--model")]
codes.append(main([*sys.argv[1:], "--model", model.replace("order_fulfillment", "sequence"),
                   "--jobs", "2", "--output", output + ".batch"]))
pooled = [m for m in ("concurrent.futures", "logging", "queue") if m in sys.modules and m not in before]
print(json.dumps({"compiles": imported, "records": len(records), "shapes": len(shapes), "loaded": unloaded,
                  "codes": codes, "in_process": in_process, "frozen": gc.get_freeze_count(),
                  "parsers": program_parsers, "single": single, "pooled": pooled}))
"""


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path, response_bundle):
    # a fresh interpreter, so that no other test has imported them already, and so that
    # main() may run as the program there and freeze that interpreter's collector
    golden = FIXTURES / "golden" / "order_fulfillment.txt"
    out = tmp_path / "report.txt"
    src = str(Path(procomp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PROCOMP_CONFIG_DIR", None)
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, "score", "--model", str(FIXTURES / "order_fulfillment.bpmn"),
         "--modeler-responses", str(response_bundle["modeler"]),
         "--reader-responses", *[str(p) for p in response_bundle["readers"]],
         "--format", "text", "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["loaded"] == []
    # one generated __init__ per record shape, not one per record class
    assert probe["compiles"] <= probe["shapes"] < probe["records"]
    assert probe["codes"] == [0, 0, 0]
    # scoring one model starts no process machinery; a --jobs 2 batch runs without an executor
    assert probe["single"] is False and probe["pooled"] == []
    # main(argv) never freezes; main() as the program does, and builds the parser of `score` alone
    assert probe["in_process"] == 0 and probe["frozen"] > 0
    assert probe["parsers"] == 2
    assert out.read_bytes() == golden.read_bytes()
    assert Path(f"{out}.program").read_bytes() == golden.read_bytes()
