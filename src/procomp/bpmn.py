"""Parse BPMN 2.0 XML into a typed node/edge graph.

Covers the constructs needed for structural analysis: events, tasks,
subprocesses, the three gateway kinds, data objects, pools, lanes,
sequence/message flows and data associations. Anything else that looks
like a flow element is kept as a generic node and reported as a warning.
Elements are matched by local tag name, so any namespace prefix works.
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ModelParseError


class NodeKind(str, enum.Enum):
    START_EVENT = "start-event"
    END_EVENT = "end-event"
    INTERMEDIATE_EVENT = "intermediate-event"
    TASK = "task"
    SUB_PROCESS = "sub-process"
    GATEWAY_XOR = "gateway-xor"
    GATEWAY_AND = "gateway-and"
    GATEWAY_OR = "gateway-or"
    DATA_OBJECT = "data-object"
    POOL = "pool"
    LANE = "lane"
    GENERIC = "generic"


FLOW_NODE_KINDS = frozenset(
    {
        NodeKind.START_EVENT,
        NodeKind.END_EVENT,
        NodeKind.INTERMEDIATE_EVENT,
        NodeKind.TASK,
        NodeKind.SUB_PROCESS,
        NodeKind.GATEWAY_XOR,
        NodeKind.GATEWAY_AND,
        NodeKind.GATEWAY_OR,
        NodeKind.GENERIC,
    }
)

GATEWAY_KINDS = frozenset(
    {NodeKind.GATEWAY_XOR, NodeKind.GATEWAY_AND, NodeKind.GATEWAY_OR}
)


class EdgeKind(str, enum.Enum):
    SEQUENCE = "sequence"
    MESSAGE = "message"
    DATA = "data"


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    label: str = ""
    parent: str | None = None  # enclosing sub-process id, if nested


@dataclass(frozen=True)
class Edge:
    id: str
    source: str
    target: str
    kind: EdgeKind


@dataclass(frozen=True)
class ProcessModelGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    language: str = "BPMN 2.0"
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def node_map(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    def flow_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind in FLOW_NODE_KINDS)

    def sequence_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.kind is EdgeKind.SEQUENCE)


_NODE_TAGS: dict[str, NodeKind] = {
    "startEvent": NodeKind.START_EVENT,
    "endEvent": NodeKind.END_EVENT,
    "intermediateThrowEvent": NodeKind.INTERMEDIATE_EVENT,
    "intermediateCatchEvent": NodeKind.INTERMEDIATE_EVENT,
    "boundaryEvent": NodeKind.INTERMEDIATE_EVENT,
    "task": NodeKind.TASK,
    "userTask": NodeKind.TASK,
    "serviceTask": NodeKind.TASK,
    "scriptTask": NodeKind.TASK,
    "manualTask": NodeKind.TASK,
    "sendTask": NodeKind.TASK,
    "receiveTask": NodeKind.TASK,
    "businessRuleTask": NodeKind.TASK,
    "callActivity": NodeKind.TASK,
    "subProcess": NodeKind.SUB_PROCESS,
    "transaction": NodeKind.SUB_PROCESS,
    "adHocSubProcess": NodeKind.SUB_PROCESS,
    "exclusiveGateway": NodeKind.GATEWAY_XOR,
    "parallelGateway": NodeKind.GATEWAY_AND,
    "inclusiveGateway": NodeKind.GATEWAY_OR,
    "dataObject": NodeKind.DATA_OBJECT,
    "dataObjectReference": NodeKind.DATA_OBJECT,
    "dataStoreReference": NodeKind.DATA_OBJECT,
}

# Child elements of a process/sub-process that are neither nodes nor flows.
# Data associations are skipped here because the owning activity parses them.
_SKIP_TAGS = frozenset(
    {
        "documentation",
        "extensionElements",
        "incoming",
        "outgoing",
        "ioSpecification",
        "property",
        "auditing",
        "monitoring",
        "dataInputAssociation",
        "dataOutputAssociation",
        "multiInstanceLoopCharacteristics",
        "standardLoopCharacteristics",
        "conditionExpression",
        "dataInput",
        "dataOutput",
        "inputSet",
        "outputSet",
        "messageFlowRef",
        "participantMultiplicity",
        "categoryValue",
        "text",
    }
)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(element, local_name: str) -> str | None:
    for child in element:
        if _local(child.tag) == local_name:
            return (child.text or "").strip()
    return None


class _Builder:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self.warnings: list[str] = []
        self._node_ids: set[str] = set()
        self._edge_seq = 0

    def add_node(self, node_id: str, kind: NodeKind, label: str, parent: str | None) -> None:
        if node_id in self._node_ids:
            raise ModelParseError("duplicate node id", context=node_id)
        self._node_ids.add(node_id)
        self.nodes.append(Node(id=node_id, kind=kind, label=label, parent=parent))

    def add_edge(self, edge_id: str | None, source: str, target: str, kind: EdgeKind) -> None:
        if edge_id is None:
            self._edge_seq += 1
            edge_id = f"_edge{self._edge_seq}"
        self.edges.append(Edge(id=edge_id, source=source, target=target, kind=kind))


def _parse_data_associations(element, owner_id: str, builder: _Builder) -> None:
    for child in element:
        local = _local(child.tag)
        if local == "dataInputAssociation":
            source = _child_text(child, "sourceRef")
            if source:
                builder.add_edge(child.get("id"), source, owner_id, EdgeKind.DATA)
        elif local == "dataOutputAssociation":
            target = _child_text(child, "targetRef")
            if target:
                builder.add_edge(child.get("id"), owner_id, target, EdgeKind.DATA)


def _parse_flow_elements(container, parent: str | None, builder: _Builder) -> None:
    # An explicit stack of (children, parent) walks nested sub-processes in
    # document pre-order without recursion, so nesting depth is unbounded.
    stack = [(iter(container), parent)]
    while stack:
        children, parent = stack[-1]
        element = next(children, None)
        if element is None:
            stack.pop()
            continue
        local = _local(element.tag)
        if local in _SKIP_TAGS:
            continue
        if local == "laneSet":
            for lane in element:
                if _local(lane.tag) == "lane" and lane.get("id"):
                    builder.add_node(lane.get("id"), NodeKind.LANE,
                                     (lane.get("name") or "").strip(), parent)
            continue
        if local == "sequenceFlow":
            source, target = element.get("sourceRef"), element.get("targetRef")
            if not source or not target:
                raise ModelParseError(
                    "sequenceFlow lacks sourceRef/targetRef",
                    context=element.get("id") or "<no id>",
                )
            builder.add_edge(element.get("id"), source, target, EdgeKind.SEQUENCE)
            continue
        if local == "association":
            source, target = element.get("sourceRef"), element.get("targetRef")
            if source and target:
                builder.add_edge(element.get("id"), source, target, EdgeKind.DATA)
            continue
        node_id = element.get("id")
        if node_id is None:
            continue
        label = (element.get("name") or "").strip()
        kind = _NODE_TAGS.get(local)
        if kind is None:
            builder.add_node(node_id, NodeKind.GENERIC, label, parent)
            builder.warnings.append(
                f"unknown construct <{local}> kept as generic node ({node_id})"
            )
            continue
        builder.add_node(node_id, kind, label, parent)
        if kind in (NodeKind.TASK, NodeKind.SUB_PROCESS):
            _parse_data_associations(element, node_id, builder)
        if kind is NodeKind.SUB_PROCESS:
            stack.append((iter(element), node_id))


def parse_model(document: bytes | str) -> ProcessModelGraph:
    """Parse a BPMN 2.0 XML document into a process model graph.

    Raises ModelParseError for malformed XML, documents without any process
    element, and flows that reference missing nodes.
    """
    try:
        root = ElementTree.fromstring(document)
    except ElementTree.ParseError as exc:
        raise ModelParseError(f"malformed XML: {exc}") from exc

    builder = _Builder()
    processes = [el for el in root.iter() if _local(el.tag) == "process"]
    if not processes:
        raise ModelParseError("document contains no process element")

    for collaboration in (el for el in root.iter() if _local(el.tag) == "collaboration"):
        for child in collaboration:
            local = _local(child.tag)
            if local == "participant" and child.get("id"):
                builder.add_node(child.get("id"), NodeKind.POOL,
                                 (child.get("name") or "").strip(), None)
            elif local == "messageFlow":
                source, target = child.get("sourceRef"), child.get("targetRef")
                if not source or not target:
                    raise ModelParseError(
                        "messageFlow lacks sourceRef/targetRef",
                        context=child.get("id") or "<no id>",
                    )
                builder.add_edge(child.get("id"), source, target, EdgeKind.MESSAGE)

    for process in processes:
        _parse_flow_elements(process, None, builder)

    known = {n.id for n in builder.nodes}
    for edge in builder.edges:
        for endpoint in (edge.source, edge.target):
            if endpoint not in known:
                raise ModelParseError(
                    f"flow references missing node {endpoint!r}",
                    context=f"{edge.kind.value} flow {edge.id}",
                )

    return ProcessModelGraph(
        nodes=tuple(builder.nodes),
        edges=tuple(builder.edges),
        language="BPMN 2.0",
        warnings=tuple(builder.warnings),
    )


def parse_model_file(path: str | Path) -> ProcessModelGraph:
    return parse_model(Path(path).read_bytes())
