"""The streaming BPMN parser against the element-tree walk it replaced.

``tree_parse_model`` (``oracles.py``) builds the whole ``ElementTree`` and
walks it. ``parse_model`` and ``parse_model_file`` read expat events once.
Both must give the same nodes, edges and warnings, in order, or the same
``ModelParseError`` text, on every input.
"""

from __future__ import annotations

import copy
import gc
import random
import re
import tracemalloc
import xml.etree.ElementTree as ElementTree

import pytest

from procomp.bpmn import _CHUNK_BYTES, parse_model, parse_model_file
from procomp.cli import main
from procomp.defaults import builtin_language_registry
from procomp.errors import ModelParseError
from procomp.pipeline import compile_plan
from procomp.report import ReportFormat, batch_entry, export

from conftest import (FIXTURES, make_responses, namespace_documents, nested_subprocess_document,
                      random_bpmn_document)
from oracles import tree_parse_model

BPMN = "http://www.omg.org/spec/BPMN/20100524/MODEL"
FIXTURE_NAMES = ("sequence", "xor_loop", "and_parallel", "order_fulfillment")


def outcome(parse, source):
    try:
        graph = parse(source)
    except ModelParseError as exc:
        return str(exc)
    return graph.nodes, graph.edges, graph.warnings


def assert_parsers_agree(document, path):
    """Same outcome from the tree walk, ``parse_model`` and ``parse_model_file``."""
    want = outcome(tree_parse_model, document)
    assert outcome(parse_model, document) == want
    path.write_bytes(document.encode() if isinstance(document, str) else document)
    assert outcome(parse_model_file, path) == want
    return want


MALFORMED = [
    b"",
    b"<definitions><process>",
    f'<definitions xmlns="{BPMN}"><process id="p"><task id="t"/><task id="t"/></process>'
    "</definitions><junk/>".encode(),
    f'<definitions xmlns="{BPMN}"><process id="p"><task id="t" name="&nope;"/>'
    "</process></definitions>".encode(),
    f'<!DOCTYPE definitions SYSTEM "bpmn.dtd"><definitions xmlns="{BPMN}"><process id="p">'
    "<task id='t'/><sequenceFlow id='f'/>\n &undeclared; <broken </process></definitions>".encode(),
    f'<!DOCTYPE definitions [<!ENTITY ext SYSTEM "elsewhere.xml">]><definitions xmlns="{BPMN}">'
    '<process id="p">&ext;</process></definitions>'.encode(),
    f'<!DOCTYPE definitions [<!ENTITY ext SYSTEM "elsewhere.xml"><!ENTITY in "a&ext;b">]>\n'
    f'<definitions xmlns="{BPMN}" xmlns:x="urn:x"><process id="p">\n &in;</process></definitions>'.encode(),
    f'<definitions xmlns="{BPMN}"><process id="p"><task id="t" name="\xff"/></process>'
    "</definitions>".encode("latin-1"),
    b'<definitions><bpmn:process id="p"/></definitions>',
]


@pytest.mark.parametrize("index", range(len(MALFORMED)))
def test_malformed_documents_fail_alike(index, tmp_path):
    message = assert_parsers_agree(MALFORMED[index], tmp_path / "model.bpmn")
    assert isinstance(message, str)


def test_fixtures_namespaces_and_generated_documents_parse_alike(tmp_path):
    documents = [(FIXTURES / f"{name}.bpmn").read_bytes() for name in FIXTURE_NAMES]
    documents += namespace_documents() + [nested_subprocess_document(1100)]
    rng = random.Random(14)
    documents += [random_bpmn_document(rng) for _ in range(100)]
    for document in documents:
        assert not isinstance(assert_parsers_agree(document, tmp_path / "model.bpmn"), str)


def wrap(body: str) -> str:
    return f'<definitions xmlns="{BPMN}" id="d"><process id="p">{body}</process></definitions>'


def test_parse_rules_hold_on_hand_written_documents(tmp_path):
    path = tmp_path / "model.bpmn"
    # collaborations first, then processes, whatever the document order
    nodes, _, _ = assert_parsers_agree(
        f'<definitions xmlns="{BPMN}"><process id="p"><task id="t"/></process>'
        '<collaboration id="c"><participant id="pool"/></collaboration></definitions>', path)
    assert [n.id for n in nodes] == ["pool", "t"]
    # a process is found at any depth, even where the walk skips the subtree
    assert_parsers_agree(wrap('<task id="t"><extensionElements><process id="p2"><task id="t2"/>'
                              "</process></extensionElements></task>"), path)
    assert [n.id for n in parse_model_file(path).nodes] == ["t", "t2"]
    # a sub-process's data association edges come before its children's nodes and edges
    document = wrap('<dataObject id="d1"/><subProcess id="sp"><task id="a"/><task id="b"/>'
                    '<sequenceFlow sourceRef="a" targetRef="b"/><dataInputAssociation>'
                    "<sourceRef>d1</sourceRef></dataInputAssociation></subProcess>")
    assert_parsers_agree(document, path)
    assert [(e.id, e.source, e.target) for e in parse_model(document).edges] == [
        ("_edge1", "d1", "sp"), ("_edge2", "a", "b")]
    # only the first ref child counts, and only its text before its first child element
    for refs, source in [("<sourceRef> d1 <x/>d2</sourceRef><sourceRef>d2</sourceRef>", "d1"),
                         ("<sourceRef><x/>d2</sourceRef><sourceRef>d2</sourceRef>", None)]:
        document = wrap(f'<dataObject id="d1"/><dataObject id="d2"/><task id="t">'
                        f"<dataInputAssociation>{refs}</dataInputAssociation></task>")
        assert_parsers_agree(document, path)
        assert [e.source for e in parse_model(document).edges] == ([source] if source else [])
    # the first error in walk order wins: a collaboration's before a process's
    document = (f'<definitions xmlns="{BPMN}"><process id="p"><task id="t"/><task id="t"/></process>'
                '<collaboration id="c"><messageFlow id="m" sourceRef="t"/></collaboration></definitions>')
    assert assert_parsers_agree(document, path) == "messageFlow lacks sourceRef/targetRef (m)"


# ---------------------------------------------------------------------------
# Diagram interchange: the layout every BPMN editor writes next to the model

DI_NAMESPACES = ('xmlns:bpmndi="http://www.omg.org/spec/BPMN/20100524/DI" '
                 'xmlns:dc="http://www.omg.org/spec/DD/20100524/DC" '
                 'xmlns:di="http://www.omg.org/spec/DD/20100524/DI"')


def diagram(graph) -> str:
    """A bpmn.io-style ``BPMNDiagram`` of ``graph``: per node a shape with
    bounds and a label, per flow an edge with three waypoints."""
    shapes = "".join(
        f'<bpmndi:BPMNShape id="shape{i}" bpmnElement="{node.id}">'
        f'<dc:Bounds x="{100 + 150 * i}" y="80" width="100" height="80"/>'
        f'<bpmndi:BPMNLabel><dc:Bounds x="{105 + 150 * i}" y="165" width="90" height="14"/>'
        "</bpmndi:BPMNLabel></bpmndi:BPMNShape>" for i, node in enumerate(graph.nodes))
    edges = "".join(
        f'<bpmndi:BPMNEdge id="edge{i}" bpmnElement="{edge.id}">'
        + "".join(f'<di:waypoint x="{200 + 150 * i + 25 * k}" y="120"/>' for k in range(3))
        + "</bpmndi:BPMNEdge>" for i, edge in enumerate(graph.edges))
    return (f'<bpmndi:BPMNDiagram id="diagram" {DI_NAMESPACES}><bpmndi:BPMNPlane id="plane">'
            f"{shapes}{edges}</bpmndi:BPMNPlane></bpmndi:BPMNDiagram>")


def with_diagram(document: str, place: str) -> str:
    """``document`` with its diagram at the end, or before its first process."""
    at = (document.rindex("</definitions>") if place == "end"
          else re.search(r"<process[\s>]", document).start())
    return document[:at] + diagram(parse_model(document)) + document[at:]


def test_a_diagram_at_the_end_or_before_a_process_changes_no_graph():
    documents = [(FIXTURES / f"{name}.bpmn").read_text(encoding="utf-8") for name in FIXTURE_NAMES]
    rng = random.Random(35)
    documents += [random_bpmn_document(rng) for _ in range(200)]
    for document in documents:
        graph = parse_model(document)
        for place in ("end", "before-process"):
            laid_out = with_diagram(document, place)
            assert laid_out.count("<bpmndi:BPMNShape ") == len(graph.nodes)
            assert parse_model(laid_out) == graph


def test_a_diagram_changes_no_byte_of_model_inspect(capsys, tmp_path):
    document = (FIXTURES / "order_fulfillment.bpmn").read_text(encoding="utf-8")
    outputs = []
    for text in (document, with_diagram(document, "end"), with_diagram(document, "before-process")):
        path = tmp_path / "order_fulfillment.bpmn"
        path.write_text(text, encoding="utf-8")
        assert main(["model", "inspect", str(path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out and not outputs[0].err
    assert outputs[1] == outputs[2] == outputs[0]


def test_unreadable_files_fail_with_the_os_error(tmp_path):
    missing = tmp_path / "nested" / ".." / "missing.bpmn"
    with pytest.raises(FileNotFoundError) as caught:
        parse_model_file(str(missing))
    assert str(caught.value) == f"[Errno 2] No such file or directory: '{missing}'"
    with pytest.raises(IsADirectoryError) as caught:
        parse_model_file(tmp_path)
    assert str(caught.value) == f"[Errno 21] Is a directory: '{tmp_path}'"


# ---------------------------------------------------------------------------
# Seeded mutations of the fixtures


INSERTED_TAGS = ("process", "collaboration", "subProcess", "dataInputAssociation",
                 "dataOutputAssociation", "sourceRef", "targetRef", "task", "participant",
                 "messageFlow", "sequenceFlow", "laneSet", "lane", "association",
                 "incoming", "fancyWidget")
# where the parse rules differ: activities and their data associations, refs, containers
HOST_TAGS = {"subProcess", "task", "userTask", "dataInputAssociation", "dataOutputAssociation",
             "sourceRef", "targetRef", "process", "collaboration", "laneSet", "incoming",
             "messageFlow", "sequenceFlow"}


def local_name(element: ElementTree.Element) -> str:
    return element.tag.rsplit("}", 1)[-1]


def new_element(rng: random.Random, ids: list[str], tag: str | None = None) -> ElementTree.Element:
    """A new element with random attributes, text and, for data associations
    and refs, children of their own."""
    tag = tag or rng.choice(INSERTED_TAGS)
    namespace = rng.choice((BPMN, BPMN, BPMN, "", "urn:other"))
    element = ElementTree.Element(f"{{{namespace}}}{tag}" if namespace else tag)
    for name in ("id", "sourceRef", "targetRef", "name"):
        if rng.random() < 0.5:
            element.set(name, rng.choice(ids + [f"new{rng.randrange(99)}"]))
    if rng.random() < 0.5:
        element.text = rng.choice(ids)
    if tag in ("dataInputAssociation", "dataOutputAssociation"):
        for _ in range(rng.randint(0, 2)):
            element.append(new_element(rng, ids, rng.choice(("sourceRef", "targetRef"))))
    elif tag in ("sourceRef", "targetRef") and rng.random() < 0.3:
        inner = ElementTree.SubElement(element, f"{{{BPMN}}}{rng.choice(('sourceRef', 'x'))}")
        inner.tail = rng.choice(ids)
    return element


def mutate(root: ElementTree.Element, rng: random.Random) -> None:
    """Apply one random edit to the tree in place."""
    elements = list(root.iter())
    ids = [e.get("id") for e in elements if e.get("id")] + ["ghost", ""]
    hosts = [e for e in elements if local_name(e) in HOST_TAGS]
    target = rng.choice(hosts if hosts and rng.random() < 0.5 else elements)
    move = rng.randrange(7)
    if move == 6 and target is not root:  # drop an element and what it holds
        next(e for e in elements if target in list(e)).remove(target)
    elif move == 0 and target.attrib:  # drop an attribute
        del target.attrib[rng.choice(sorted(target.attrib))]
    elif move == 1:  # re-point an attribute at another id, a missing one or nothing
        target.set(rng.choice(("id", "sourceRef", "targetRef", "name")), rng.choice(ids))
    elif move in (2, 3) and target is not root:  # move or duplicate an element
        if move == 2:
            next(e for e in elements if target in list(e)).remove(target)
        else:
            target = copy.deepcopy(target)
        hosts = [e for e in root.iter() if local_name(e) in HOST_TAGS] or [root]
        host = rng.choice(hosts if rng.random() < 0.5 else list(root.iter()))
        host.insert(rng.randint(0, len(host)), target)
    elif move == 4:  # insert a new element
        target.insert(rng.randint(0, len(target)), new_element(rng, ids))
    else:  # set or clear an element's text, or the text after it
        value = rng.choice((None, "", "  ", rng.choice(ids), f" {rng.choice(ids)}\n"))
        if rng.random() < 0.7:
            target.text = value
        else:
            target.tail = value


def test_mutated_fixtures_parse_alike(tmp_path):
    trees = [ElementTree.parse(FIXTURES / f"{name}.bpmn").getroot() for name in FIXTURE_NAMES]
    trees.append(ElementTree.fromstring(namespace_documents()[0]))  # pools, lanes, message flows
    rng = random.Random(2014)
    outcomes = {"graph": 0, "error": 0}
    messages = set()
    for _ in range(2000):
        root = copy.deepcopy(rng.choice(trees))
        for _ in range(rng.randint(1, 3)):
            mutate(root, rng)
        document = ElementTree.tostring(root, encoding="utf-8")
        if rng.random() < 0.05:  # cut short: malformed, whatever else is wrong
            document = document[:rng.randrange(len(document))]
        got = assert_parsers_agree(document, tmp_path / "model.bpmn")
        if isinstance(got, str):
            outcomes["error"] += 1
            messages.add(" ".join(got.split(" ", 2)[:2]))
        else:
            outcomes["graph"] += 1
    # the edits reach both outcomes and every kind of error
    assert min(outcomes.values()) >= 200, outcomes
    assert messages == {"malformed XML:", "document contains", "duplicate node", "sequenceFlow lacks",
                        "messageFlow lacks", "flow references"}, messages


# ---------------------------------------------------------------------------
# Chunk boundaries and encodings


def padded_document(label: str, offset: int) -> bytes:
    """A model whose task label starts ``offset`` bytes into the document."""
    head = f'<definitions xmlns="{BPMN}" id="d"><process id="p"><!--'
    tail = f'--><task id="t" name="{label}"/></process></definitions>'
    fill = offset - len(head.encode()) - len('--><task id="t" name="')
    return (head + "x" * fill + tail).encode()


@pytest.mark.parametrize("char", ["é", "€", "𝄞"])
def test_label_straddling_a_chunk_boundary_parses_whole(char, tmp_path):
    width = len(char.encode())
    for before in range(1, width):  # bytes of the character in the first chunk
        label = f"Pay {char} now"
        document = padded_document(label, _CHUNK_BYTES - before - len("Pay "))
        assert document.index(char.encode()) == _CHUNK_BYTES - before
        assert len(document) > _CHUNK_BYTES
        path = tmp_path / "model.bpmn"
        path.write_bytes(document)
        assert parse_model_file(path).nodes[0].label == label
        assert_parsers_agree(document, path)


@pytest.mark.parametrize("position", [_CHUNK_BYTES - 1, _CHUNK_BYTES, _CHUNK_BYTES + 1,
                                      3 * _CHUNK_BYTES + 17])
def test_bad_byte_after_the_first_chunk_reports_the_same_place(position, tmp_path):
    lines = [f'<definitions xmlns="{BPMN}" id="d"><process id="p">']
    lines += [f'<task id="t{i}" name="Task {i}"/>' for i in range(12000)]
    lines.append("</process></definitions>")
    document = bytearray("\n".join(lines).encode())
    assert len(document) > position
    document[position] = 0xFF
    message = assert_parsers_agree(bytes(document), tmp_path / "model.bpmn")
    assert message.startswith("malformed XML: not well-formed (invalid token): line ")
    line = document[:position].count(b"\n") + 1
    column = position - (document.rfind(b"\n", 0, position) + 1)
    assert message.endswith(f": line {line}, column {column}")


ENCODED_BODY = (f'<definitions xmlns="{BPMN}" id="d"><process id="p">'
                '<startEvent id="s" name="Café"/><task id="t" name="Prüfen £ 5"/>'
                '<sequenceFlow id="f" sourceRef="s" targetRef="t"/></process></definitions>')


@pytest.mark.parametrize("encoding", ["ISO-8859-1", "windows-1252", "UTF-16", "utf-8"])
def test_encodings_str_and_bytes_parse_alike(encoding, tmp_path):
    want = outcome(parse_model, ENCODED_BODY)
    assert want[0][0].label == "Café" and want[0][1].label == "Prüfen £ 5"
    declared = f'<?xml version="1.0" encoding="{encoding}"?>\n{ENCODED_BODY}'
    assert outcome(parse_model, declared) == want  # a str is read as UTF-8 whatever it declares
    assert assert_parsers_agree(declared.encode(encoding), tmp_path / "model.bpmn") == want


# ---------------------------------------------------------------------------
# What a parse leaves behind


def test_parse_evaluate_and_export_leave_no_reference_cycles(ett, modeler_schema, reader_schema):
    plan = compile_plan(ett, builtin_language_registry(), make_responses(modeler_schema, "m-1", 1),
                        [make_responses(reader_schema, "r-1", 0)], modeler_schema, reader_schema)
    rng = random.Random(50)
    documents = [random_bpmn_document(rng) for _ in range(50)]
    gc.collect()
    gc.disable()
    try:
        graphs = [parse_model_file(FIXTURES / f"{name}.bpmn") for name in FIXTURE_NAMES]
        graphs += [parse_model(document) for document in documents]
        for graph in graphs:
            evaluation = plan.evaluate(graph)
            for fmt in ReportFormat:
                export(evaluation, fmt)
                batch_entry(evaluation, fmt)
        del graphs, evaluation
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_parsed_graph_keeps_under_150_bytes_per_node():
    # Python 3.11.7: 170 bytes per node while a record kept its fields in
    # an instance __dict__, 130 with them in slots
    document = nested_subprocess_document(1100)
    parse_model(document)  # the first parse fills the parser's caches
    tracemalloc.start()
    try:
        graph = parse_model(document)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(graph.nodes) == 1101
    assert kept <= 150 * len(graph.nodes), kept / len(graph.nodes)
