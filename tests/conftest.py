from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

import procomp
from procomp.defaults import (
    default_ett,
    default_ett_document,
    default_modeler_schema,
    default_reader_schema,
)
from procomp.ett import assign_weights
from procomp.questionnaire import QuestionKind, ResponseSet, serialize_responses

FIXTURES = Path(__file__).parent / "fixtures"


def child_env() -> dict[str, str]:
    """The environment of a child interpreter: it imports the ``procomp`` this
    process imported, the checkout's or an installed one, and reads no
    ``PROCOMP_CONFIG_DIR``."""
    parent = str(Path(procomp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")])))
    env.pop("PROCOMP_CONFIG_DIR", None)
    return env


@pytest.fixture(scope="session")
def ett():
    return default_ett()


@pytest.fixture(scope="session")
def modeler_schema():
    return default_modeler_schema()


@pytest.fixture(scope="session")
def reader_schema():
    return default_reader_schema()


def pinned_ett_document() -> dict:
    """The default tree document with every weight pinned to the value it derives."""
    weighted = assign_weights(default_ett())
    criteria = {c.id: c for c in weighted.criteria}
    metrics = {m.id: m for m in weighted.all_metrics()}
    document = default_ett_document()
    for cdoc in document["criteria"]:
        cdoc["weight"] = criteria[cdoc["id"]].weight
        for mdoc in cdoc["metrics"]:
            mdoc["weight"] = metrics[mdoc["id"]].weight
    return document


def make_answers(schema, seed: int) -> dict[str, bool | int]:
    """Deterministic full answer set for a schema."""
    answers: dict[str, bool | int] = {}
    for index, question in enumerate(schema.questions):
        if question.kind is QuestionKind.TRUE_FALSE:
            answers[question.id] = (index + seed) % 3 != 0
        else:
            answers[question.id] = 1 + (index + seed) % question.levels
    return answers


def make_responses(schema, respondent: str, seed: int) -> ResponseSet:
    return ResponseSet(
        respondent=respondent,
        schema_version=schema.version,
        answers=make_answers(schema, seed),
    )


def write_response_file(path: Path, schema, respondent: str, seed: int) -> Path:
    document = serialize_responses(make_responses(schema, respondent, seed))
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def response_bundle(tmp_path, modeler_schema, reader_schema):
    """Model path plus response files for a full CLI run."""
    return {
        "model": FIXTURES / "order_fulfillment.bpmn",
        "modeler": write_response_file(tmp_path / "modeler.json", modeler_schema, "m-1", 1),
        "readers": [
            write_response_file(tmp_path / "reader1.json", reader_schema, "r-1", 0),
            write_response_file(tmp_path / "reader2.json", reader_schema, "r-2", 2),
        ],
    }


def survey_table(rows: int) -> str:
    """``rows - 1`` items placed only at rank 1, and one placed only at rank
    ``rows``: the highest rank the row count allows."""
    return ("item,rank,fraction\n" + "".join(f"i{j},1,1.0\n" for j in range(rows - 1))
            + f"last,{rows},1.0\n")


def nested_subprocess_document(depth: int) -> str:
    """``depth`` sub-processes nested in one another, a task in the innermost."""
    return (
        '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">'
        '<process id="p">'
        + "".join(f'<subProcess id="sp{i}">' for i in range(depth))
        + '<task id="t" name="Innermost"/>'
        + "</subProcess>" * depth
        + "</process></definitions>"
    )


_NAMESPACE_BODY = (
    '<{p}collaboration id="c">'
    '<{p}participant id="pool" name="Shop" processRef="p"/>'
    '<{p}participant id="ext" name="Bank"/>'
    '<{p}messageFlow id="m1" sourceRef="t1" targetRef="ext"/>'
    "</{p}collaboration>"
    '<{p}process id="p">'
    '<{p}laneSet id="ls"><{p}lane id="lane1" name="Desk"/></{p}laneSet>'
    '<{p}dataObjectReference id="d1" name="Order"/>'
    '<{p}startEvent id="s"/>'
    '<{p}task id="t1" name="Take">'
    "<{p}dataInputAssociation id=\"da1\"><{p}sourceRef>d1</{p}sourceRef>"
    "</{p}dataInputAssociation></{p}task>"
    '<{p}subProcess id="sub"><{p}startEvent id="s2"/><{p}complexGateway id="cg"/>'
    '<{p}sequenceFlow id="f4" sourceRef="s2" targetRef="cg"/></{p}subProcess>'
    '<{p}textAnnotation id="note"><{p}text>Why</{p}text></{p}textAnnotation>'
    '<{p}association id="a1" sourceRef="note" targetRef="t1"/>'
    '<{p}endEvent id="e"/>'
    '<{p}sequenceFlow id="f1" sourceRef="s" targetRef="t1"/>'
    '<{p}sequenceFlow id="f2" sourceRef="t1" targetRef="sub"/>'
    '<{p}sequenceFlow id="f3" sourceRef="sub" targetRef="e"/>'
    "</{p}process>"
)


def namespace_documents() -> list[str]:
    """One model written with a prefix, with a default namespace and with none."""
    ns = "http://www.omg.org/spec/BPMN/20100524/MODEL"
    return [
        f'<bpmn:definitions xmlns:bpmn="{ns}" id="d">'
        + _NAMESPACE_BODY.format(p="bpmn:") + "</bpmn:definitions>",
        f'<definitions xmlns="{ns}" id="d">' + _NAMESPACE_BODY.format(p="") + "</definitions>",
        '<definitions id="d">' + _NAMESPACE_BODY.format(p="") + "</definitions>",
    ]


# ---------------------------------------------------------------------------
# Random BPMN documents for parser/extractor cross-checks


def random_bpmn_document(rng: random.Random) -> str:
    """A random flat BPMN document with at most 30 flow nodes."""
    nodes: list[str] = []
    node_ids: list[str] = []

    def add(tag: str, node_id: str, label: str | None) -> None:
        name_attr = f' name="{label}"' if label else ""
        nodes.append(f'    <{tag} id="{node_id}"{name_attr}/>')
        node_ids.append(node_id)

    counter = 0

    def next_id(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    for _ in range(rng.randint(1, 2)):
        add("startEvent", next_id("s"), "Start" if rng.random() < 0.8 else None)
    for _ in range(rng.randint(1, 2)):
        add("endEvent", next_id("e"), "End" if rng.random() < 0.8 else None)
    for _ in range(rng.randint(0, 12)):
        add("task", next_id("t"), f"Task {counter}" if rng.random() < 0.7 else None)
    for _ in range(rng.randint(0, 5)):
        tag = rng.choice(["exclusiveGateway", "parallelGateway", "inclusiveGateway"])
        add(tag, next_id("g"), None)
    for _ in range(rng.randint(0, 3)):
        add(rng.choice(["intermediateThrowEvent", "intermediateCatchEvent"]),
            next_id("i"), None)
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            add("dataObjectReference", next_id("d"), "Record")
    if rng.random() < 0.2:
        lanes = "".join(
            f'\n      <lane id="{next_id("lane")}" name="Lane"/>'
            for _ in range(rng.randint(1, 2))
        )
        nodes.append(f'    <laneSet id="{next_id("ls")}">{lanes}\n    </laneSet>')

    flows = []
    flow_targets = [i for i in node_ids if not i.startswith(("d", "lane", "ls"))]
    for index in range(rng.randint(0, 2 * len(flow_targets))):
        source = rng.choice(flow_targets)
        target = rng.choice(flow_targets)
        flows.append(
            f'    <sequenceFlow id="f{index}" sourceRef="{source}" targetRef="{target}"/>'
        )

    body = "\n".join(nodes + flows)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"'
        ' id="defs" targetNamespace="http://example.org/random">\n'
        '  <process id="p1">\n'
        f"{body}\n"
        "  </process>\n"
        "</definitions>\n"
    )
