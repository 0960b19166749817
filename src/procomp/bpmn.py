"""Parse BPMN 2.0 XML into a typed node/edge graph.

Covers the constructs needed for structural analysis: events, tasks,
subprocesses, the three gateway kinds, data objects, pools, lanes,
sequence/message flows and data associations. Text annotations and groups
are kept as artifact nodes, which are not flow nodes. Anything else that
looks like a flow element is kept as a generic node and reported as a
warning. Elements are matched by local tag name, so any namespace prefix
works; each distinct tag is resolved to its local name once per document.

The document is read in one pass of expat events, a file 64 KiB at a time,
and no element tree is built. Most elements of a real model (``incoming``,
``outgoing``, ``flowNodeRef``, ``conditionExpression``) are never read, and a
tree of them all was the memory peak of a ``score`` run on a large model.
The events are recorded per process and per collaboration, so the graph
comes out in the order of a walk over the tree: collaborations first, then
processes, each in document order, with a sub-process's data associations
straight after it. Malformed XML is reported before any other error, in the
words ElementTree uses.
"""

from __future__ import annotations

import enum
from functools import cached_property, partial
from pathlib import Path
from xml.parsers import expat

from .errors import ModelParseError
from .records import record

LANGUAGE = "BPMN 2.0"  # the scoring language when none is given: the one the parser reads


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
    ARTIFACT = "artifact"  # text annotation or group: no part of the flow
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

GATEWAY_KINDS = frozenset({NodeKind.GATEWAY_XOR, NodeKind.GATEWAY_AND, NodeKind.GATEWAY_OR})

ACTIVITY_KINDS = frozenset({NodeKind.TASK, NodeKind.SUB_PROCESS})


class EdgeKind(str, enum.Enum):
    SEQUENCE = "sequence"
    MESSAGE = "message"
    DATA = "data"


@record
class Node:
    id: str
    kind: NodeKind
    label: str = ""
    parent: str | None = None  # enclosing sub-process id, if nested


@record
class Edge:
    id: str
    source: str
    target: str
    kind: EdgeKind


@record
class GraphIndex:
    """What the structural metrics share, built in one pass over the nodes
    and one over the edges.

    ``gateways`` holds the places of the gateways in ``flow_nodes``.
    ``flow_sources`` and ``flow_targets`` hold the places of the two ends of
    each sequence flow whose ends are both flow nodes, in edge order;
    ``sequence_count`` counts every sequence flow. ``in_degree`` and
    ``out_degree`` count sequence flows per place; a flow whose end is not
    a flow node adds nothing to that end. ``kind_counts`` covers every
    node, flow node or not, and is shared by every reader of the graph: it
    must not be changed.
    """

    flow_nodes: tuple[Node, ...]
    gateways: tuple[int, ...]
    flow_sources: tuple[int, ...]
    flow_targets: tuple[int, ...]
    sequence_count: int
    in_degree: tuple[int, ...]
    out_degree: tuple[int, ...]
    kind_counts: dict[NodeKind, int]

    @classmethod
    def of(cls, graph: ProcessModelGraph) -> GraphIndex:
        flow_nodes: list[Node] = []
        gateways: list[int] = []
        kind_counts: dict[NodeKind, int] = {}
        for node in graph.nodes:
            kind = node.kind
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if kind in FLOW_NODE_KINDS:
                if kind in GATEWAY_KINDS:
                    gateways.append(len(flow_nodes))
                flow_nodes.append(node)
        position = {node.id: i for i, node in enumerate(flow_nodes)}
        in_degree = [0] * len(flow_nodes)
        out_degree = [0] * len(flow_nodes)
        sources: list[int] = []
        targets: list[int] = []
        sequence_count = 0
        sequence = EdgeKind.SEQUENCE
        for edge in graph.edges:
            if edge.kind is sequence:
                sequence_count += 1
                source, target = position.get(edge.source), position.get(edge.target)
                if source is not None:
                    out_degree[source] += 1
                if target is not None:
                    in_degree[target] += 1
                    if source is not None:
                        sources.append(source)
                        targets.append(target)
        return cls(tuple(flow_nodes), tuple(gateways), tuple(sources), tuple(targets),
                   sequence_count, tuple(in_degree), tuple(out_degree), kind_counts)


@record
class ProcessModelGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    warnings: tuple[str, ...] = ()

    @cached_property
    def index(self) -> GraphIndex:
        """Built on first use and kept with the graph, which is immutable."""
        return GraphIndex.of(self)

    def flow_nodes(self) -> tuple[Node, ...]:
        return self.index.flow_nodes


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
    "textAnnotation": NodeKind.ARTIFACT,
    "group": NodeKind.ARTIFACT,
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

# The ref child whose text names the other end of a data association
_ASSOCIATION_REFS = {"dataInputAssociation": "sourceRef", "dataOutputAssociation": "targetRef"}

_CHUNK_BYTES = 1 << 16  # how much of a file parse_model_file feeds expat at a time

# What the children of an open element are to the parse. The stack holds one
# entry per open element: None where nothing below is wanted (apart from a
# nested process or collaboration), else a tuple that starts with one of:
_FLOW = 0  # (_FLOW, items, parent, slot): flow elements of a process or sub-process
_LANES = 1  # (_LANES, items, parent): the lanes of a laneSet
_ACTIVITY = 2  # (_ACTIVITY, items, owner): the data associations of a task
_ASSOCIATION = 3  # (_ASSOCIATION, items, owner, id, ref): the first child named ref decides
_REF = 4  # (_REF, items, owner, id, ref): its text up to its first child element
_COLLABORATION = 5  # (_COLLABORATION, items): participants and message flows

# Each process and collaboration records a list of items: a Node, an edge
# (id, source, target, kind), the warning about the node before it, a
# sub-process's slot (a list of the edges of its own data associations, which
# come before its children's items) or a ModelParseError to raise there.

_NOT_READING = ("not reading",)  # never on the stack


def _label(attrs: dict[str, str]) -> str:
    """The label of a node, lane or pool: its ``name``, stripped; "" if it has none."""
    return (attrs.get("name") or "").strip()


def _read(chunks) -> ProcessModelGraph:
    """Parse the document given as ``chunks`` (bytes or str pieces) in one
    pass of expat events, then build the graph from what it recorded."""
    parser = expat.ParserCreate(namespace_separator="}")
    names: dict[str, str] = {}  # tag -> local name, one entry per distinct tag
    collaborations: list[list] = []  # the items of each container, in document order
    processes: list[list] = []
    stack: list = [None]
    push, pop = stack.append, stack.pop
    text: list[str] = []
    reading = _NOT_READING  # the _REF context whose text is being collected

    def start(tag, attrs):
        nonlocal reading
        local = names.get(tag)
        if local is None:
            local = names[tag] = tag.rpartition("}")[2]
        context = stack[-1]
        child = None
        if context is None:
            pass
        elif context[0] == _ACTIVITY:
            ref = _ASSOCIATION_REFS.get(local)
            if ref is not None:
                child = (_ASSOCIATION, context[1], context[2], attrs.get("id"), ref)
        elif context[0] == _FLOW:
            _, items, parent, slot = context
            if local == "sequenceFlow":
                source, target = attrs.get("sourceRef"), attrs.get("targetRef")
                if source and target:
                    items.append((attrs.get("id"), source, target, EdgeKind.SEQUENCE))
                else:
                    items.append(ModelParseError("sequenceFlow lacks sourceRef/targetRef",
                                                 context=attrs.get("id") or "<no id>"))
            elif local in _SKIP_TAGS:
                if slot is not None and local in _ASSOCIATION_REFS:
                    child = (_ASSOCIATION, slot, parent, attrs.get("id"), _ASSOCIATION_REFS[local])
            elif local == "laneSet":
                child = (_LANES, items, parent)
            elif local == "association":
                source, target = attrs.get("sourceRef"), attrs.get("targetRef")
                if source and target:
                    items.append((attrs.get("id"), source, target, EdgeKind.DATA))
            else:
                node_id = attrs.get("id")
                if node_id is not None:
                    label = _label(attrs)
                    kind = _NODE_TAGS.get(local)
                    if kind is None:
                        items.append(Node(node_id, NodeKind.GENERIC, label, parent))
                        items.append(f"unknown construct <{local}> kept as generic node ({node_id})")
                    else:
                        items.append(Node(node_id, kind, label, parent))
                        if kind is NodeKind.TASK:
                            child = (_ACTIVITY, items, node_id)
                        elif kind is NodeKind.SUB_PROCESS:
                            slot = []
                            items.append(slot)
                            child = (_FLOW, items, node_id, slot)
        elif context[0] == _LANES:
            if local == "lane":
                lane_id = attrs.get("id")
                if lane_id:
                    context[1].append(Node(lane_id, NodeKind.LANE, _label(attrs), context[2]))
        elif context[0] == _ASSOCIATION:
            if local == context[4]:
                stack[-1] = None  # only the first such child counts
                child = reading = (_REF, *context[1:])
                parser.CharacterDataHandler = text.append
        elif context[0] == _REF:
            finish()  # text after a child element is not the ref's
            stack[-1] = None
        else:  # _COLLABORATION
            if local == "participant":
                pool_id = attrs.get("id")
                if pool_id:
                    context[1].append(Node(pool_id, NodeKind.POOL, _label(attrs), None))
            elif local == "messageFlow":
                source, target = attrs.get("sourceRef"), attrs.get("targetRef")
                if source and target:
                    context[1].append((attrs.get("id"), source, target, EdgeKind.MESSAGE))
                else:
                    context[1].append(ModelParseError("messageFlow lacks sourceRef/targetRef",
                                                      context=attrs.get("id") or "<no id>"))
        if local == "process":  # at any depth, whatever its parent made of it
            items = []
            processes.append(items)
            child = (_FLOW, items, None, None)
        elif local == "collaboration":
            items = []
            collaborations.append(items)
            child = (_COLLABORATION, items)
        push(child)

    def end(tag):
        if pop() is reading:
            finish()

    def finish():
        nonlocal reading
        parser.CharacterDataHandler = None
        _, items, owner, edge_id, ref = reading
        reading = _NOT_READING
        value = "".join(text).strip()
        text.clear()
        if value:
            items.append((edge_id, value, owner, EdgeKind.DATA) if ref == "sourceRef"
                         else (edge_id, owner, value, EdgeKind.DATA))

    # ElementTree expands no entity that the document does not declare inline,
    # and reports each such reference in its own words; so does this parse
    external: set[str] = set()  # general entities declared with a system id

    def undefined_entity(name):
        ref = f"&{name};".encode()[:100].decode("utf-8", "replace")
        raise ModelParseError(f"malformed XML: undefined entity {ref}: line "
                              f"{parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}")

    def skipped_entity(name, is_parameter_entity):
        if not is_parameter_entity:
            undefined_entity(name)

    def entity_declared(name, is_parameter_entity, value, *_):
        if not is_parameter_entity and value is None:
            external.add(name)

    def external_entity(context, *_):
        # context: namespace bindings ("prefix=uri") and the open entities, by "\f"
        parts = context.split("\f")
        undefined_entity(next((part for part in parts if part in external), parts[-1]))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    parser.EntityDeclHandler = entity_declared
    parser.ExternalEntityRefHandler = external_entity
    try:
        for chunk in chunks:
            parser.Parse(chunk, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise ModelParseError(f"malformed XML: {exc}") from exc
    except LookupError as exc:  # an encoding declaration that names no codec
        if type(exc) is not LookupError:  # an IndexError or KeyError is a fault of this parser
            raise
        raise ModelParseError(f"malformed XML: {exc}") from exc
    finally:
        # the handlers refer to the parser: drop them, or each parse leaves a cycle
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.SkippedEntityHandler = None
        parser.EntityDeclHandler = parser.ExternalEntityRefHandler = None
    if not processes:
        raise ModelParseError("document contains no process element")
    return _assemble(collaborations + processes)


def _assemble(containers: list[list]) -> ProcessModelGraph:
    """Build the graph from the items of every collaboration, then every
    process, raising the first recorded error where the walk would. Each
    edge's ends are its nodes' own id strings, not equal copies."""
    nodes: list[Node] = []
    flows: list[tuple] = []  # (id, source, target, kind) of every edge, in order
    warnings: list[str] = []
    node_ids: dict[str, str] = {}  # each node id to itself, so that its edges share it
    for items in containers:
        for item in items:
            cls = type(item)
            if cls is Node:
                if item.id in node_ids:
                    raise ModelParseError("duplicate node id", context=item.id)
                node_ids[item.id] = item.id
                nodes.append(item)
            elif cls is str:
                warnings.append(item)
            elif cls is tuple:
                flows.append(item)
            elif cls is list:
                flows.extend(item)
            else:
                raise item

    edges: list[Edge] = []
    edge_seq = 0
    for edge_id, source, target, kind in flows:
        if edge_id is None:
            edge_seq += 1
            edge_id = f"_edge{edge_seq}"
        shared_source, shared_target = node_ids.get(source), node_ids.get(target)
        if shared_source is None or shared_target is None:
            raise ModelParseError(
                f"flow references missing node {source if shared_source is None else target!r}",
                context=f"{kind.value} flow {edge_id}",
            )
        edges.append(Edge(edge_id, shared_source, shared_target, kind))
    return ProcessModelGraph(nodes=tuple(nodes), edges=tuple(edges), warnings=tuple(warnings))


def parse_model(document: bytes | str) -> ProcessModelGraph:
    """Parse a BPMN 2.0 XML document into a process model graph.

    Raises ModelParseError for malformed XML, documents without any process
    element, and flows that reference missing nodes.
    """
    return _read((document,))


def model_id(path: str | Path) -> str:
    """The id a model file is scored under: its file name without the suffix."""
    return Path(path).stem


def parse_model_file(path: str | Path) -> ProcessModelGraph:
    """``parse_model`` of a file, read and parsed a piece at a time."""
    with Path(path).open("rb") as file:
        return _read(iter(partial(file.read, _CHUNK_BYTES), b""))
