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
import pickle
import pkgutil
import subprocess
import sys
import weakref
from functools import cached_property
from pathlib import Path
from types import MemberDescriptorType

import pytest

import procomp
from procomp import replace
from procomp.bpmn import Edge, EdgeKind, GraphIndex, Node, NodeKind, ProcessModelGraph, parse_model_file
from procomp.defaults import builtin_language_registry, default_ett_document
from procomp.errors import ConfigError
from procomp.ett import MetricSource, load_ett, validate_ett
from procomp.pipeline import compile_plan
from procomp.questionnaire import QuestionKind, ResponseSet, validate_responses
from procomp.ranking import MethodKind, RankMethod, SurveyDataset, compare_methods
from procomp.records import FrozenInstanceError
from procomp.report import export
from procomp.scoring import MetricResult

from conftest import FIXTURES, child_env, make_responses


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
    survey = SurveyDataset(("a", "b"), 2, {"a": ((1, 0.75), (2, 0.25)), "b": ((1, 0.25), (2, 0.75))})
    responses = ResponseSet("m-2", modeler_schema.version, {})  # every answer missing
    return reachable_records(
        plan, graph, graph.index, evaluation, export(evaluation, "json"), registry,
        modeler_schema, responses, validate_responses(modeler_schema, responses),
        survey, compare_methods(survey), RankMethod(MethodKind.DNLOG))


# The findings that tree and response validation return keep the case names
# of the two records that Finding replaced.
FINDING_CASES = ("ett.ValidationEntry", "questionnaire.ResponseIssue")


@pytest.fixture(scope="module")
def cases(samples, modeler_schema):
    """A record for each case name: the sample of each record class, and a
    finding from each validation that returns findings."""
    document = default_ett_document()
    document["interaction_weights"] = {"modeler": 0.3, "reader": 0.3}
    [tree_finding] = validate_ett(load_ett(document))
    response_finding = validate_responses(modeler_schema, ResponseSet("m-2", modeler_schema.version, {}))[0]
    return {**{name: samples[cls] for name, cls in RECORD_CLASSES.items()},
            "ett.ValidationEntry": tree_finding, "questionnaire.ResponseIssue": response_finding}


def test_the_samples_hold_every_record_class(samples):
    assert len(RECORD_CLASSES) == 24
    assert set(samples) == set(RECORD_CLASSES.values())
    assert RECORD_CLASSES["bpmn.ProcessModelGraph"] is ProcessModelGraph


def fields_of(record) -> list:
    return [getattr(record, name) for name in record._fields]


@pytest.mark.parametrize("name", [*RECORD_CLASSES, *FINDING_CASES])
def test_a_record_keeps_its_fields_in_slots(cases, name):
    record = cases[name]
    cls = type(record)
    assert all(isinstance(vars(cls)[field], MemberDescriptorType) for field in cls._fields)
    cached = {key for key, value in vars(cls).items() if isinstance(value, cached_property)}
    if cached:  # a cached_property needs a __dict__, which holds nothing else
        assert set(vars(record)) <= cached
    else:
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)
    with pytest.raises(TypeError):
        weakref.ref(record)


@pytest.mark.parametrize("name", [*RECORD_CLASSES, *FINDING_CASES])
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_copied_record_is_equal_and_frozen(cases, name, clone):
    record = cases[name]
    copied = clone(record)
    assert type(copied) is type(record) and fields_of(copied) == fields_of(record)
    assert copied == record and hash(copied) == hash(record)
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
    assert set(samples) == set(RECORD_CLASSES.values())
    for record in samples.values():  # every record class hashes
        equal = copy.deepcopy(record)  # equal field by field, and no field shared
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
    "bpmn.GraphIndex": ("(flow_nodes, gateways, flow_sources, flow_targets, sequence_count, in_degree, "
                        "out_degree, kind_counts)"),
    "bpmn.Node": "(id, kind, label='', parent=None)",
    "bpmn.ProcessModelGraph": "(nodes, edges, warnings=())",
    "errors.Finding": "(code, path, message, severity='error')",
    "ett.EvaluationTheoryTree": "(version, criteria, survey_d=10.0, interaction_weights=(0.156, 0.844))",
    "ett.NormalizationSpec": "(kind, lo=None, hi=None)",
    "ett.QualityCriterion": "(id, name, perspective, rank, metrics, weight=None)",
    "ett.QualityMetric": "(id, name, description, source, rank, normalization=NormalizationSpec("
                         "kind=<NormalizationKind.IDENTITY: 'identity'>, lo=None, hi=None), "
                         "polarity=<Polarity.HIGHER_IS_BETTER: 'higher-is-better'>, weight=None, binding=None)",
    "languages.LanguageDescriptor": "(name, elements, characteristics, relations, patterns)",
    "languages.PatternEntry": "(id, type, support, name='')",
    "languages.PatternSupportTable": "(entries, catalog_sizes)",
    "pipeline.ScoringPlan": "(tree, criteria, noise_threshold)",
    "questionnaire.Question": "(id, text, kind, metric_id, levels=None, "
                              "polarity=<QuestionPolarity.POSITIVE: 'positive'>)",
    "questionnaire.QuestionnaireSchema": "(version, perspective, questions)",
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


def test_warnings_and_placements_count_in_equality_and_hash():
    graph, warned = small_graph(), small_graph(warnings=("dangling flow",))
    assert graph != warned and hash(graph) != hash(warned)
    assert warned == small_graph(warnings=("dangling flow",))
    assert graph.index == warned.index  # the index holds no warnings
    first = SurveyDataset(("a", "b"), 2, {"a": ((1, 1.0),), "b": ((2, 1.0),)})
    second = SurveyDataset(("a", "b"), 2, {"a": ((1, 0.5), (2, 0.5)), "b": ((1, 0.5), (2, 0.5))})
    assert first != second and hash(first) != hash(second)
    reordered = SurveyDataset(("a", "b"), 2, dict(reversed(first.placements.items())))
    assert first == reordered and hash(first) == hash(reordered)
    zeros_listed = SurveyDataset(("a", "b"), 2, {"a": ((1, 1.0), (2, 0.0)), "b": ((1, 0.0), (2, 1.0))})
    assert first == zeros_listed and hash(first) == hash(zeros_listed)


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


def test_a_required_field_after_a_defaulted_one_is_refused():
    message = "[.]Late: field 'required' without a default follows one with a default$"
    with pytest.raises(TypeError, match=message):
        @procomp.records.record
        class Late:
            defaulted: int = 0
            required: int


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


def test_a_copied_graph_builds_its_index_once_on_first_use(monkeypatch):
    graph = replace(parse_model_file(FIXTURES / "order_fulfillment.bpmn"), warnings=("dangling flow",))
    index = graph.index
    built, original = [], GraphIndex.of
    monkeypatch.setattr(GraphIndex, "of", lambda graph: built.append(graph) or original(graph))
    for clone in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
        assert clone == graph and hash(clone) == hash(graph) and clone.warnings == graph.warnings
        assert vars(clone) == {}  # the copy carries the fields alone
        assert clone.index is clone.index and built[-1] is clone
        assert clone.index == index and clone.index is not index
    assert len(built) == 3


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
unloaded = [m for m in ("dataclasses", "inspect", "decimal", "xml.etree", "csv", "concurrent.futures",
                        "procomp.batch")
            if m in sys.modules and m not in before]
parsers, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    parsers.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
baseline = gc.get_freeze_count()  # not 0 on every Python: a fresh 3.12.1 reports 375
codes = [main(sys.argv[1:])]
in_process = gc.get_freeze_count()
parsers.clear()
output = sys.argv[1 + sys.argv.index("--output")]
sys.argv[1 + sys.argv.index("--output")] += ".program"
codes.append(main())
program_parsers, single = len(parsers), any(m in sys.modules for m in ("multiprocessing", "procomp.batch"))
model = sys.argv[1 + sys.argv.index("--model")]
codes.append(main([*sys.argv[1:], "--model", model.replace("order_fulfillment", "sequence"),
                   "--jobs", "2", "--output", output + ".batch"]))
pooled = [m for m in ("concurrent.futures", "logging", "queue") if m in sys.modules and m not in before]
print(json.dumps({"compiles": imported, "records": len(records), "shapes": len(shapes), "loaded": unloaded,
                  "codes": codes, "baseline": baseline, "in_process": in_process,
                  "frozen": gc.get_freeze_count(),
                  "parsers": program_parsers, "single": single, "pooled": pooled}))
"""


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path, response_bundle):
    # a fresh interpreter, so that no other test has imported them already, and so that
    # main() may run as the program there and freeze that interpreter's collector
    golden = FIXTURES / "golden" / "order_fulfillment.txt"
    out = tmp_path / "report.txt"
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, "score", "--model", str(FIXTURES / "order_fulfillment.bpmn"),
         "--modeler-responses", str(response_bundle["modeler"]),
         "--reader-responses", *[str(p) for p in response_bundle["readers"]],
         "--format", "text", "--output", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["loaded"] == []
    # one generated __init__ per record shape, not one per record class
    assert probe["compiles"] <= probe["shapes"] < probe["records"]
    assert probe["codes"] == [0, 0, 0]
    # scoring one model starts no process machinery; a --jobs 2 batch runs without an executor
    assert probe["single"] is False and probe["pooled"] == []
    # main(argv) never freezes; main() as the program does, and builds the parser of `score` alone
    assert probe["in_process"] == probe["baseline"] < probe["frozen"]
    assert probe["parsers"] == 2
    assert out.read_bytes() == golden.read_bytes()
    assert Path(f"{out}.program").read_bytes() == golden.read_bytes()
