"""The record contract: procomp's value types behave as the frozen
dataclasses they replaced did.

A plan's pickle round trip is pinned by
``test_pipeline.py::test_unpickled_plan_exports_the_same_bytes``, and one
index build per graph by
``test_model.py::test_graph_index_is_built_once_per_graph``.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import procomp
from procomp import replace
from procomp.bpmn import Edge, EdgeKind, GraphIndex, Node, NodeKind, ProcessModelGraph, parse_model_file
from procomp.errors import ConfigError
from procomp.ett import MetricSource
from procomp.questionnaire import QuestionKind
from procomp.ranking import MethodKind, RankMethod, SurveyDataset
from procomp.scoring import MetricResult

from conftest import FIXTURES


def small_graph(warnings=()):
    nodes = (Node("s", NodeKind.START_EVENT), Node("e", NodeKind.END_EVENT))
    return ProcessModelGraph(nodes, (Edge("f", "s", "e", EdgeKind.SEQUENCE),), warnings=warnings)


def test_equal_records_hash_equal():
    a = MetricResult("m", "M", MetricSource.MODEL_DERIVED, 5.0, raw=3.0)
    b = MetricResult(id="m", name="M", source=MetricSource.MODEL_DERIVED, score=5.0, weight=1.0, raw=3.0)
    assert a == b and hash(a) == hash(b)
    assert a != replace(b, raw=4.0)
    assert a != ("m", "M", MetricSource.MODEL_DERIVED, 5.0, 1.0, 3.0)


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


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path, response_bundle):
    # a fresh interpreter, so that no other test has imported them already
    golden = FIXTURES / "golden" / "order_fulfillment.txt"
    out = tmp_path / "report.txt"
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from procomp.cli import main\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'decimal', 'xml.etree')\n"
        "               if m in sys.modules and m not in before))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(procomp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PROCOMP_CONFIG_DIR", None)
    result = subprocess.run(
        [sys.executable, "-c", script, "score", "--model", str(FIXTURES / "order_fulfillment.bpmn"),
         "--modeler-responses", str(response_bundle["modeler"]),
         "--reader-responses", *[str(p) for p in response_bundle["readers"]],
         "--format", "text", "--output", str(out)],
        capture_output=True, text=True, env=env, timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
    assert out.read_bytes() == golden.read_bytes()
