import itertools
import math
import random
import tracemalloc

import pytest

from procomp.bpmn import (
    GATEWAY_KINDS,
    Edge,
    EdgeKind,
    GraphIndex,
    Node,
    NodeKind,
    ProcessModelGraph,
    parse_model,
    parse_model_file,
)
from procomp.defaults import builtin_language_registry, default_ett_document
from procomp.errors import ModelParseError, ScoringError
from procomp.ett import (
    NormalizationKind,
    NormalizationSpec,
    Polarity,
    load_ett,
    validate_ett,
)
from procomp.metrics import EXTRACTORS, extract_metrics, normalize_metric
from procomp.pipeline import compile_plan

from conftest import (FIXTURES, make_responses, namespace_documents, nested_subprocess_document,
                      random_bpmn_document)
from oracles import naive_block_structuredness, naive_counts

BPMN_NS = 'xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"'


def wrap(body: str) -> str:
    return (
        f'<definitions {BPMN_NS} id="d" targetNamespace="http://x">'
        f"<process id=\"p\">{body}</process></definitions>"
    )


# ---------------------------------------------------------------------------
# Parsing


def test_minimal_sequence_parses():
    graph = parse_model_file(FIXTURES / "sequence.bpmn")
    assert len(graph.nodes) == 3
    assert len(graph.edges) == 2
    assert all(e.kind is EdgeKind.SEQUENCE for e in graph.edges)
    kinds = [n.kind for n in graph.nodes]
    assert kinds.count(NodeKind.START_EVENT) == 1
    assert kinds.count(NodeKind.TASK) == 1
    assert kinds.count(NodeKind.END_EVENT) == 1


def test_xor_loop_fixture_hand_counts():
    graph = parse_model_file(FIXTURES / "xor_loop.bpmn")
    assert len(graph.flow_nodes()) == 5
    assert graph.index.sequence_count == 5
    assert sum(1 for n in graph.nodes if n.kind is NodeKind.GATEWAY_XOR) == 2


def test_dangling_reference_rejected():
    xml = wrap(
        '<startEvent id="s"/><endEvent id="e"/>'
        '<sequenceFlow id="f" sourceRef="s" targetRef="ghost"/>'
    )
    with pytest.raises(ModelParseError, match="ghost"):
        parse_model(xml)


def test_malformed_xml_rejected():
    with pytest.raises(ModelParseError, match="malformed XML"):
        parse_model("<definitions><process>")


def test_document_without_process_rejected():
    xml = f'<definitions {BPMN_NS} id="d"><collaboration id="c"/></definitions>'
    with pytest.raises(ModelParseError, match="no process element"):
        parse_model(xml)


def test_unknown_construct_becomes_generic_with_warning():
    graph = parse_model(wrap('<startEvent id="s"/><complexGateway id="cg"/>'))
    generic = [n for n in graph.nodes if n.kind is NodeKind.GENERIC]
    assert [n.id for n in generic] == ["cg"]
    assert any("complexGateway" in w for w in graph.warnings)


def test_artifacts_are_not_flow_nodes():
    graph = parse_model(wrap(
        '<startEvent id="s"/><task id="t" name="Work"/><endEvent id="e"/>'
        '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
        '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
        '<textAnnotation id="note"><text>Check twice</text></textAnnotation>'
        '<group id="grp" categoryValueRef="cv"/>'
        '<association id="a1" sourceRef="note" targetRef="t"/>'
    ))
    assert [(n.id, n.kind) for n in graph.nodes if n.kind is NodeKind.ARTIFACT] == [
        ("note", NodeKind.ARTIFACT), ("grp", NodeKind.ARTIFACT)]
    assert graph.warnings == ()
    assert ("note", "t") in {(e.source, e.target) for e in graph.edges
                             if e.kind is EdgeKind.DATA}
    assert EXTRACTORS["node-count"](graph) == 3.0
    assert EXTRACTORS["density"](graph) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert EXTRACTORS["distinct-kind-count"](graph) == 3.0
    for key, want in naive_counts(graph).items():
        assert EXTRACTORS[key](graph) == pytest.approx(want, abs=1e-12), key


def test_namespace_forms_parse_alike():
    graphs = [parse_model(document) for document in namespace_documents()]
    first = graphs[0]
    assert len(first.nodes) == 11 and len(first.edges) == 7
    assert first.warnings == ("unknown construct <complexGateway> kept as generic node (cg)",)
    for graph in graphs[1:]:
        assert (graph.nodes, graph.edges, graph.warnings) == (
            first.nodes, first.edges, first.warnings)


def test_prefixed_namespace_parses_too():
    xml = (
        '<bpmn2:definitions xmlns:bpmn2="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">'
        '<bpmn2:process id="p">'
        '<bpmn2:startEvent id="s" name="Go"/>'
        '<bpmn2:endEvent id="e"/>'
        '<bpmn2:sequenceFlow id="f" sourceRef="s" targetRef="e"/>'
        "</bpmn2:process></bpmn2:definitions>"
    )
    graph = parse_model(xml)
    assert len(graph.nodes) == 2
    assert graph.nodes[0].label == "Go"


def test_subprocess_children_carry_parent():
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    by_id = {n.id: n for n in graph.nodes}
    assert by_id["t4"].parent == "sub1"
    assert by_id["t1"].parent is None
    assert by_id["sub1"].kind is NodeKind.SUB_PROCESS


def test_collaboration_pool_lanes_and_data():
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    kinds = [n.kind for n in graph.nodes]
    assert kinds.count(NodeKind.POOL) == 1
    assert kinds.count(NodeKind.LANE) == 2
    assert kinds.count(NodeKind.DATA_OBJECT) == 1
    data_edges = [e for e in graph.edges if e.kind is EdgeKind.DATA]
    assert [(e.source, e.target) for e in data_edges] == [("d1", "t7")]


def test_data_association_on_subprocess_is_an_edge_not_a_node():
    xml = wrap(
        '<dataObjectReference id="d1" name="Input"/>'
        '<subProcess id="sub" name="Work">'
        '<dataInputAssociation id="da1"><sourceRef>d1</sourceRef></dataInputAssociation>'
        '<startEvent id="s2"/><endEvent id="e2"/>'
        '<sequenceFlow id="sf" sourceRef="s2" targetRef="e2"/>'
        "</subProcess>"
        '<startEvent id="s1"/><endEvent id="e1"/>'
        '<sequenceFlow id="f1" sourceRef="s1" targetRef="sub"/>'
        '<sequenceFlow id="f2" sourceRef="sub" targetRef="e1"/>'
    )
    graph = parse_model(xml)
    assert "da1" not in {n.id for n in graph.nodes}
    assert ("d1", "sub") in {(e.source, e.target) for e in graph.edges
                             if e.kind is EdgeKind.DATA}
    assert graph.warnings == ()


def test_deeply_nested_sub_processes_parse():
    graph = parse_model(nested_subprocess_document(1100))
    assert [n.id for n in graph.nodes] == [f"sp{i}" for i in range(1100)] + ["t"]
    assert graph.nodes[-1].parent == "sp1099"
    assert EXTRACTORS["nesting-depth"](graph) == 1100.0


def test_nesting_depth_matches_naive_count_on_random_containment_trees():
    # sibling sub-processes at different depths, nodes in shuffled order, and
    # parents that are no flow node (a lane) or absent from the graph
    rng = random.Random(1100)
    for _ in range(200):
        nodes, parents = [], [None, "absent"]
        for i in range(rng.randint(1, 40)):
            kind = rng.choice((NodeKind.SUB_PROCESS, NodeKind.SUB_PROCESS, NodeKind.TASK,
                               NodeKind.LANE))
            nodes.append(Node(f"n{i}", kind, parent=rng.choice(parents)))
            if kind is not NodeKind.TASK:
                parents.append(f"n{i}")
        rng.shuffle(nodes)
        graph = ProcessModelGraph(tuple(nodes), ())
        assert EXTRACTORS["nesting-depth"](graph) == naive_counts(graph)["nesting-depth"], graph


# ---------------------------------------------------------------------------
# Extractors on hand-counted fixtures


SEQUENCE_COUNTS = {
    "node-count": 3.0, "edge-count": 2.0, "gateway-count": 0.0,
    "or-gateway-count": 0.0, "start-event-count": 1.0, "end-event-count": 1.0,
    "max-degree": 2.0, "average-connector-degree": 0.0, "nesting-depth": 0.0,
    "unlabeled-ratio": 0.0, "block-structuredness": 1.0, "subprocess-count": 0.0,
    "data-object-count": 0.0, "lane-count": 0.0, "pool-count": 0.0,
    "distinct-kind-count": 3.0, "gateway-mismatch-count": 0.0, "density": 2.0 / 6.0,
}

XOR_LOOP_COUNTS = {
    "node-count": 5.0, "edge-count": 5.0, "gateway-count": 2.0,
    "or-gateway-count": 0.0, "start-event-count": 1.0, "end-event-count": 1.0,
    "max-degree": 3.0, "average-connector-degree": 3.0, "nesting-depth": 0.0,
    "unlabeled-ratio": 0.0, "block-structuredness": 1.0, "subprocess-count": 0.0,
    "data-object-count": 0.0, "lane-count": 0.0, "pool-count": 0.0,
    "distinct-kind-count": 4.0, "gateway-mismatch-count": 0.0, "density": 5.0 / 20.0,
}

AND_PARALLEL_COUNTS = {
    "node-count": 6.0, "edge-count": 6.0, "gateway-count": 2.0,
    "or-gateway-count": 0.0, "start-event-count": 1.0, "end-event-count": 1.0,
    "max-degree": 3.0, "average-connector-degree": 3.0, "nesting-depth": 0.0,
    "unlabeled-ratio": 0.0, "block-structuredness": 1.0, "subprocess-count": 0.0,
    "data-object-count": 0.0, "lane-count": 0.0, "pool-count": 0.0,
    "distinct-kind-count": 4.0, "gateway-mismatch-count": 0.0, "density": 6.0 / 30.0,
}

ORDER_FULFILLMENT_COUNTS = {
    "node-count": 16.0, "edge-count": 16.0, "gateway-count": 4.0,
    "or-gateway-count": 0.0, "start-event-count": 2.0, "end-event-count": 2.0,
    "max-degree": 3.0, "average-connector-degree": 3.0, "nesting-depth": 1.0,
    "unlabeled-ratio": 0.0, "block-structuredness": 1.0, "subprocess-count": 1.0,
    "data-object-count": 1.0, "lane-count": 2.0, "pool-count": 1.0,
    "distinct-kind-count": 6.0, "gateway-mismatch-count": 0.0, "density": 16.0 / 240.0,
}


@pytest.mark.parametrize("fixture,expected", [
    ("sequence.bpmn", SEQUENCE_COUNTS),
    ("xor_loop.bpmn", XOR_LOOP_COUNTS),
    ("and_parallel.bpmn", AND_PARALLEL_COUNTS),
    ("order_fulfillment.bpmn", ORDER_FULFILLMENT_COUNTS),
])
def test_fixture_metrics_match_hand_counts(fixture, expected):
    graph = parse_model_file(FIXTURES / fixture)
    for key, want in expected.items():
        got = EXTRACTORS[key](graph)
        assert got == pytest.approx(want, abs=1e-12), key


def test_mismatched_gateway_kinds_break_block_structure():
    xml = wrap(
        '<startEvent id="s"/>'
        '<exclusiveGateway id="g1"/>'
        '<task id="t1" name="A"/><task id="t2" name="B"/>'
        '<parallelGateway id="g2"/>'
        '<endEvent id="e"/>'
        '<sequenceFlow id="f1" sourceRef="s" targetRef="g1"/>'
        '<sequenceFlow id="f2" sourceRef="g1" targetRef="t1"/>'
        '<sequenceFlow id="f3" sourceRef="g1" targetRef="t2"/>'
        '<sequenceFlow id="f4" sourceRef="t1" targetRef="g2"/>'
        '<sequenceFlow id="f5" sourceRef="t2" targetRef="g2"/>'
        '<sequenceFlow id="f6" sourceRef="g2" targetRef="e"/>'
    )
    graph = parse_model(xml)
    assert EXTRACTORS["block-structuredness"](graph) == 0.0
    assert EXTRACTORS["gateway-mismatch-count"](graph) == 2.0


def flows(*pairs: str) -> str:
    """Sequence flows from "a>b" pairs."""
    return "".join(
        f'<sequenceFlow id="f{i}" sourceRef="{pair.split(">")[0]}"'
        f' targetRef="{pair.split(">")[1]}"/>'
        for i, pair in enumerate(pairs)
    )


BLOCK_STRUCTURE_CASES = {
    # an exclusive split closed by a parallel join, then an exclusive diamond
    "xor-split-and-join-before-xor-diamond": (wrap(
        '<startEvent id="s"/><exclusiveGateway id="x1"/><task id="a"/><task id="b"/>'
        '<parallelGateway id="p1"/><exclusiveGateway id="x2"/><task id="c"/>'
        '<task id="d"/><exclusiveGateway id="x3"/><endEvent id="e"/>'
        + flows("s>x1", "x1>a", "x1>b", "a>p1", "b>p1", "p1>x2", "x2>c", "x2>d",
                "c>x3", "d>x3", "x3>e")
    ), 0.0),
    "xor-loop-around-and-block": (wrap(
        '<startEvent id="s"/><exclusiveGateway id="j"/><parallelGateway id="p1"/>'
        '<task id="a"/><task id="b"/><parallelGateway id="p2"/>'
        '<exclusiveGateway id="x"/><endEvent id="e"/>'
        + flows("s>j", "j>p1", "p1>a", "p1>b", "a>p2", "b>p2", "p2>x", "x>j", "x>e")
    ), 1.0),
    "and-loop": (wrap(
        '<startEvent id="s"/><parallelGateway id="j"/><task id="a"/>'
        '<parallelGateway id="x"/><endEvent id="e"/>'
        + flows("s>j", "j>a", "a>x", "x>j", "x>e")
    ), 1.0),
    "split-into-separate-end-events": (wrap(
        '<startEvent id="s"/><exclusiveGateway id="x"/><task id="a"/><task id="b"/>'
        '<endEvent id="e1"/><endEvent id="e2"/>'
        + flows("s>x", "x>a", "x>b", "a>e1", "b>e2")
    ), 0.0),
    "unstructured-sub-process-in-structured-parent": (wrap(
        '<startEvent id="s"/><exclusiveGateway id="x1"/><task id="a"/>'
        '<subProcess id="sub"><startEvent id="s2"/><inclusiveGateway id="o1"/>'
        '<task id="b"/><task id="c"/><exclusiveGateway id="o2"/><endEvent id="e2"/>'
        '<sequenceFlow id="g1" sourceRef="s2" targetRef="o1"/>'
        '<sequenceFlow id="g2" sourceRef="o1" targetRef="b"/>'
        '<sequenceFlow id="g3" sourceRef="o1" targetRef="c"/>'
        '<sequenceFlow id="g4" sourceRef="b" targetRef="o2"/>'
        '<sequenceFlow id="g5" sourceRef="c" targetRef="o2"/>'
        '<sequenceFlow id="g6" sourceRef="o2" targetRef="e2"/>'
        '</subProcess><exclusiveGateway id="x2"/><endEvent id="e"/>'
        + flows("s>x1", "x1>a", "x1>sub", "a>x2", "sub>x2", "x2>e")
    ), 0.0),
    "two-structured-pools": (
        f'<definitions {BPMN_NS} id="d" targetNamespace="http://x">'
        '<collaboration id="c"><participant id="pa" processRef="p1"/>'
        '<participant id="pb" processRef="p2"/>'
        '<messageFlow id="m" sourceRef="a" targetRef="b"/></collaboration>'
        '<process id="p1"><startEvent id="s1"/><parallelGateway id="g1"/><task id="a"/>'
        '<task id="a2"/><parallelGateway id="g2"/><endEvent id="e1"/>'
        '<sequenceFlow id="f1" sourceRef="s1" targetRef="g1"/>'
        '<sequenceFlow id="f2" sourceRef="g1" targetRef="a"/>'
        '<sequenceFlow id="f3" sourceRef="g1" targetRef="a2"/>'
        '<sequenceFlow id="f4" sourceRef="a" targetRef="g2"/>'
        '<sequenceFlow id="f5" sourceRef="a2" targetRef="g2"/>'
        '<sequenceFlow id="f6" sourceRef="g2" targetRef="e1"/></process>'
        '<process id="p2"><startEvent id="s2"/><exclusiveGateway id="h1"/><task id="b"/>'
        '<exclusiveGateway id="h2"/><endEvent id="e2"/>'
        '<sequenceFlow id="k1" sourceRef="s2" targetRef="h1"/>'
        '<sequenceFlow id="k2" sourceRef="h1" targetRef="b"/>'
        '<sequenceFlow id="k3" sourceRef="h1" targetRef="h2"/>'
        '<sequenceFlow id="k4" sourceRef="b" targetRef="h2"/>'
        '<sequenceFlow id="k5" sourceRef="h2" targetRef="e2"/></process>'
        '</definitions>', 1.0),
}


@pytest.mark.parametrize("case", sorted(BLOCK_STRUCTURE_CASES))
def test_block_structuredness_cases(case):
    document, want = BLOCK_STRUCTURE_CASES[case]
    graph = parse_model(document)
    assert EXTRACTORS["block-structuredness"](graph) == want
    assert naive_block_structuredness(graph) == want


STRUCTURED_LOOPS = {
    # loops around the join j and the split x; the declaration order decides
    # which the reduction meets first, so in the bare loop rule (c) drops the
    # back flow with j as the join in some orders and with x as the split in others
    "bare": (('<startEvent id="s"/>', '<exclusiveGateway id="j"/>',
              '<exclusiveGateway id="x"/>', '<endEvent id="e"/>'),
             flows("s>j", "j>x", "x>j", "x>e")),
    "with-a-task": (('<startEvent id="s"/>', '<exclusiveGateway id="j"/>', '<task id="a"/>',
                     '<exclusiveGateway id="x"/>', '<endEvent id="e"/>'),
                    flows("s>j", "j>a", "a>x", "x>j", "x>e")),
}


@pytest.mark.parametrize("loop", sorted(STRUCTURED_LOOPS))
def test_a_structured_loop_extracts_alike_in_every_declaration_order(loop):
    nodes, edges = STRUCTURED_LOOPS[loop]
    want = {key: fn(parse_model(wrap("".join(nodes) + edges))) for key, fn in EXTRACTORS.items()}
    assert want["block-structuredness"] == 1.0
    for order in itertools.permutations(nodes):
        graph = parse_model(wrap("".join(order) + edges))
        assert {key: fn(graph) for key, fn in EXTRACTORS.items()} == want, order


def random_block_graph(rng: random.Random, max_flow_nodes: int = 12) -> ProcessModelGraph:
    """A small structured graph, usually with a defect injected.

    Fragments are sequences, split/join blocks and loops of any gateway
    kind; the defects are mismatched join kinds, extra random flows (back
    edges, parallel edges, flows into unrelated joins), dropped flows and
    branches ending in their own end event.
    """
    gateway_kinds = sorted(GATEWAY_KINDS)
    while True:
        kinds: list[NodeKind] = []
        pairs: list[tuple[int, int]] = []

        def node(kind: NodeKind) -> int:
            kinds.append(kind)
            return len(kinds) - 1

        def fragment(depth: int) -> tuple[int, int]:
            shape = "task" if depth >= 3 else rng.choices(
                ("task", "seq", "block", "loop"), weights=(3 if depth else 0, 2, 3, 1))[0]
            if shape == "task":
                t = node(rng.choice((NodeKind.TASK, NodeKind.INTERMEDIATE_EVENT)))
                return t, t
            if shape == "seq":
                first, second = fragment(depth + 1), fragment(depth + 1)
                pairs.append((first[1], second[0]))
                return first[0], second[1]
            kind = rng.choice(gateway_kinds)
            split = node(kind)
            if shape == "loop":
                body = fragment(depth + 1)
                join = node(kind)
                pairs.extend([(split, body[0]), (body[1], join), (join, split)])
                return split, join
            ends = []
            for _ in range(rng.randint(2, 3)):
                if rng.random() < 0.25:
                    ends.append(split)
                    continue
                entry, exit_ = fragment(depth + 1)
                pairs.append((split, entry))
                ends.append(exit_)
            join = node(kind)
            pairs.extend((end, join) for end in ends)
            return split, join

        start = node(NodeKind.START_EVENT)
        entry, exit_ = fragment(0)
        end = node(NodeKind.END_EVENT)
        pairs.extend([(start, entry), (exit_, end)])
        if len(kinds) <= max_flow_nodes:
            break

    gateways = [i for i, kind in enumerate(kinds) if kind in GATEWAY_KINDS]
    for _ in range(rng.choice((0, 1, 1, 2))):
        defect = rng.choice(("kind", "flow", "parallel", "drop", "end"))
        if defect == "kind" and gateways:
            kinds[rng.choice(gateways)] = rng.choice(gateway_kinds)
        elif defect == "flow":
            pairs.append((rng.randrange(len(kinds)), rng.randrange(len(kinds))))
        elif defect == "parallel":
            pairs.append(rng.choice(pairs))
        elif defect == "drop":
            pairs.remove(rng.choice(pairs))
        elif defect == "end" and gateways and len(kinds) < max_flow_nodes:
            pairs.append((rng.choice(gateways), node(NodeKind.END_EVENT)))

    nodes = [Node(id=f"n{i}", kind=kind) for i, kind in enumerate(kinds)]
    edges = [Edge(id=f"f{i}", source=f"n{a}", target=f"n{b}", kind=EdgeKind.SEQUENCE)
             for i, (a, b) in enumerate(pairs)]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return ProcessModelGraph(nodes=tuple(nodes), edges=tuple(edges))


def test_block_structuredness_matches_exhaustive_reduction():
    rng = random.Random(2008)
    seen = []
    for _ in range(400):
        graph = random_block_graph(rng)
        assert len(graph.flow_nodes()) <= 12
        want = naive_block_structuredness(graph)
        assert naive_block_structuredness(graph, rng) == want, graph
        assert EXTRACTORS["block-structuredness"](graph) == want, graph
        seen.append(want)
    assert 0.25 < sum(seen) / len(seen) < 0.75


CHAIN_SHAPES = ("long-chain", "chain-cycle", "chain-to-itself", "task-split-or-merge",
                "parallel-chains")


def random_chain_graph(rng: random.Random) -> tuple[ProcessModelGraph, set[str]]:
    """A random block graph with chains woven in, and the shapes it holds.

    Chains are runs of fresh tasks, events and gateways with one flow in and
    one out: long ones in place of a flow, cycles made only of them, ones
    that leave a node and come back to it (a self-loop once contracted) and
    two or three between a new split and join of one kind, which rule (b)
    merges once they are contracted. Tasks of the base graph are made to
    split or merge.
    """
    base = random_block_graph(rng, max_flow_nodes=10)
    kinds = {n.id: n.kind for n in base.nodes}
    pairs = [(e.source, e.target) for e in base.edges]
    base_nodes, base_pairs = list(kinds), pairs[:]  # where a shape may attach
    chain_kinds = (NodeKind.TASK, NodeKind.TASK, NodeKind.INTERMEDIATE_EVENT, *sorted(GATEWAY_KINDS))
    shapes: set[str] = set()

    def node(kind: NodeKind) -> str:
        kinds[f"c{len(kinds)}"] = kind
        return f"c{len(kinds) - 1}"

    def chain(low: int, high: int) -> tuple[str, str]:
        ids = [node(rng.choice(chain_kinds)) for _ in range(rng.randint(low, high))]
        pairs.extend(zip(ids, ids[1:]))
        return ids[0], ids[-1]

    def cut() -> tuple[str, str]:  # a flow of the base graph, taken out
        flow = base_pairs.pop(rng.randrange(len(base_pairs)))
        pairs.remove(flow)
        return flow

    for _ in range(rng.randint(1, 3)):
        shape = rng.choice(CHAIN_SHAPES)
        if shape == "long-chain" and base_pairs:
            u, w = cut()
            first, last = chain(3, 7)
            pairs.extend([(u, first), (last, w)])
        elif shape == "chain-cycle":
            first, last = chain(2, 5)
            pairs.append((last, first))
        elif shape == "chain-to-itself":
            u = rng.choice(base_nodes)
            first, last = chain(1, 4)
            pairs.extend([(u, first), (last, u)])
        elif shape == "task-split-or-merge":
            tasks = [v for v in base_nodes if kinds[v] is NodeKind.TASK]
            if not tasks:
                continue
            task, other = rng.choice(tasks), rng.choice(base_nodes)
            pairs.append((task, other) if rng.random() < 0.5 else (other, task))
        elif shape == "parallel-chains" and base_pairs:
            u, w = cut()
            kind = rng.choice(sorted(GATEWAY_KINDS))
            split, join = node(kind), node(kind)
            pairs.extend([(u, split), (join, w)])
            for _ in range(rng.randint(2, 3)):
                first, last = chain(1, 3)
                pairs.extend([(split, first), (last, join)])
        else:
            continue
        shapes.add(shape)

    nodes = [Node(id=v, kind=kind) for v, kind in kinds.items()]
    edges = [Edge(id=f"f{i}", source=a, target=b, kind=EdgeKind.SEQUENCE)
             for i, (a, b) in enumerate(pairs)]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return ProcessModelGraph(nodes=tuple(nodes), edges=tuple(edges)), shapes


def test_chains_contract_as_the_exhaustive_reduction_does():
    rng = random.Random(2018)
    shapes: dict[str, int] = dict.fromkeys(CHAIN_SHAPES, 0)
    seen = []
    for _ in range(400):
        graph, held = random_chain_graph(rng)
        want = naive_block_structuredness(graph)
        assert naive_block_structuredness(graph, rng) == want, graph
        assert EXTRACTORS["block-structuredness"](graph) == want, graph
        for shape in held:
            shapes[shape] += 1
        seen.append(want)
    assert min(shapes.values()) >= 50, shapes
    assert 0.2 < sum(seen) / len(seen) < 0.8


def graph_of(kinds: list[NodeKind], pairs: list[tuple[int, int]]) -> ProcessModelGraph:
    return ProcessModelGraph(
        tuple(Node(f"n{i}", kind) for i, kind in enumerate(kinds)),
        tuple(Edge(f"f{i}", f"n{a}", f"n{b}", EdgeKind.SEQUENCE) for i, (a, b) in enumerate(pairs)))


def sequence_in_a_block(tasks: int) -> ProcessModelGraph:
    """start -> split -> t0 -> ... -> t(tasks-1) -> join -> end, plus split -> join."""
    kinds = [NodeKind.START_EVENT, NodeKind.GATEWAY_XOR, NodeKind.GATEWAY_XOR,
             NodeKind.END_EVENT] + [NodeKind.TASK] * tasks
    pairs = [(0, 1), (1, 4), (3 + tasks, 2), (1, 2), (2, 3)]
    pairs += [(4 + i, 5 + i) for i in range(tasks - 1)]
    return graph_of(kinds, pairs)


def exclusive_star(branches: int) -> ProcessModelGraph:
    """start -> split, one task per branch into the join, join -> end."""
    kinds = [NodeKind.START_EVENT, NodeKind.GATEWAY_XOR, NodeKind.GATEWAY_XOR,
             NodeKind.END_EVENT] + [NodeKind.TASK] * branches
    pairs = [(0, 1), (2, 3)] + [(1, 4 + i) for i in range(branches)]
    pairs += [(4 + i, 2) for i in range(branches)]
    return graph_of(kinds, pairs)


# Before chains were contracted first, each flow node had adjacency of its
# own: a tracemalloc peak of 531 bytes per flow node on the sequence and 587
# on the star (Python 3.11.7). The bounds are half of that.
@pytest.mark.parametrize("build, size, bytes_per_node", [
    (sequence_in_a_block, 20_000, 265),
    (exclusive_star, 5_000, 293),
], ids=["20000-task-sequence", "5000-branch-star"])
def test_block_structuredness_peak_memory(build, size, bytes_per_node):
    graph = build(size)
    graph.index  # the graph's own, built before the extractor runs
    tracemalloc.start()
    try:
        value = EXTRACTORS["block-structuredness"](graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak <= bytes_per_node * len(graph.index.flow_nodes), peak


def test_every_edge_shares_its_nodes_id_strings():
    rng = random.Random(18)
    graphs = [parse_model_file(path) for path in sorted(FIXTURES.glob("*.bpmn"))]
    graphs += [parse_model(random_bpmn_document(rng)) for _ in range(100)]
    assert len(graphs) == 104
    for graph in graphs:
        ids = {node.id: node.id for node in graph.nodes}
        for edge in graph.edges:
            assert ids[edge.source] is edge.source and ids[edge.target] is edge.target, edge


def test_random_documents_match_naive_traversal():
    rng = random.Random(42)
    for _ in range(100):
        graph = parse_model(random_bpmn_document(rng))
        expected = naive_counts(graph)
        for key, want in expected.items():
            got = EXTRACTORS[key](graph)
            assert got == pytest.approx(want, abs=1e-12), key


def test_random_block_graphs_match_naive_counts():
    # parallel flows, self-loops and shuffled node and edge order
    rng = random.Random(2008)
    for _ in range(400):
        graph = random_block_graph(rng)
        for key, want in naive_counts(graph).items():
            got = EXTRACTORS[key](graph)
            assert got == pytest.approx(want, abs=1e-12), (key, graph)


def test_sequence_flows_touching_non_flow_nodes():
    # such a flow counts as an edge and adds degree at its flow-node end only
    nodes = (
        Node("pool", NodeKind.POOL), Node("lane", NodeKind.LANE),
        Node("d", NodeKind.DATA_OBJECT), Node("s", NodeKind.START_EVENT),
        Node("g", NodeKind.GATEWAY_XOR), Node("t", NodeKind.TASK),
        Node("e", NodeKind.END_EVENT),
    )
    pairs = [("s", "g"), ("g", "t"), ("t", "e"), ("g", "d"), ("lane", "t"), ("d", "lane")]
    edges = tuple(Edge(f"f{i}", a, b, EdgeKind.SEQUENCE) for i, (a, b) in enumerate(pairs))
    graph = ProcessModelGraph(nodes=nodes, edges=edges)
    index = graph.index
    assert [n.id for n in index.flow_nodes] == ["s", "g", "t", "e"]
    assert (index.flow_sources, index.flow_targets, index.sequence_count) == ((0, 1, 2), (1, 2, 3), 6)
    assert index.gateways == (1,)
    assert index.in_degree == (0, 1, 2, 1)
    assert index.out_degree == (1, 2, 1, 0)
    hand = {"node-count": 4.0, "edge-count": 6.0, "max-degree": 3.0,
            "average-connector-degree": 3.0, "gateway-mismatch-count": 1.0,
            "distinct-kind-count": 4.0, "density": 6.0 / 12.0}
    counts = naive_counts(graph)
    for key, want in hand.items():
        assert counts[key] == want, key
    for key, want in counts.items():
        assert EXTRACTORS[key](graph) == pytest.approx(want, abs=1e-12), key


def test_graph_index_is_built_once_per_graph(ett, monkeypatch):
    built: list[ProcessModelGraph] = []
    original = GraphIndex.of
    monkeypatch.setattr(GraphIndex, "of", lambda graph: built.append(graph) or original(graph))
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    model_derived = {m.binding_key for m in ett.all_metrics()
                     if m.source.value == "model-derived"}
    assert model_derived == set(EXTRACTORS)
    extract_metrics(graph, ett)
    assert len(built) == 1 and built[0] is graph
    assert graph.flow_nodes() is graph.flow_nodes()


# ---------------------------------------------------------------------------
# extract_metrics against a tree


def test_extract_covers_every_model_derived_metric(ett):
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    values = extract_metrics(graph, ett)
    model_derived = [
        m for m in ett.all_metrics() if m.source.value == "model-derived"
    ]
    assert set(values) == {m.id for m in model_derived}
    assert values["r-rep-element-count"] == 16.0
    assert values["r-detail-nesting"] == 1.0
    assert all(math.isfinite(v) for v in values.values())


def test_extract_calls_each_binding_once(ett, monkeypatch):
    calls: list[str] = []
    for key, extractor in list(EXTRACTORS.items()):
        monkeypatch.setitem(
            EXTRACTORS, key,
            lambda graph, key=key, extractor=extractor: calls.append(key) or extractor(graph),
        )
    graph = parse_model_file(FIXTURES / "order_fulfillment.bpmn")
    values = extract_metrics(graph, ett)
    model_derived = [m for m in ett.all_metrics() if m.source.value == "model-derived"]
    assert list(values) == [m.id for m in model_derived]
    assert len(calls) == len(set(calls)) == len({m.binding_key for m in model_derived})
    assert len(values) > len(calls)
    for metric in model_derived:
        assert values[metric.id] == EXTRACTORS[metric.binding_key](graph)


def test_unextractable_metric_is_reported():
    document = {
        "version": "1",
        "criteria": [{
            "id": "c1", "name": "C", "perspective": "reader", "rank": 1,
            "metrics": [{
                "id": "strange-metric", "name": "?", "description": "",
                "source": "model-derived", "rank": 1,
            }],
        }],
    }
    tree = load_ett(document)
    graph = parse_model_file(FIXTURES / "sequence.bpmn")
    with pytest.raises(ScoringError,
                       match="^metric 'strange-metric' binds to unknown extractor 'strange-metric'$"):
        extract_metrics(graph, tree)


def test_an_unbound_metric_fails_extraction_with_the_error_compile_plan_raises(
        modeler_schema, reader_schema):
    document = default_ett_document()
    unbound = {"m-err-labeling": "no-such-extractor", "r-rep-density": "nor-this-one"}
    for criterion in document["criteria"]:
        for metric in criterion["metrics"]:
            if metric["id"] in unbound:
                metric["binding"] = unbound[metric["id"]]
    tree = load_ett(document)
    with pytest.raises(ScoringError) as extracted:
        extract_metrics(parse_model_file(FIXTURES / "sequence.bpmn"), tree)
    with pytest.raises(ScoringError) as compiled:
        compile_plan(tree, builtin_language_registry(), make_responses(modeler_schema, "m-1", 1),
                     [make_responses(reader_schema, "r-1", 0)], modeler_schema, reader_schema)
    # the first of the two unknown-extractor findings, whatever the walk extracted before it
    findings = [f.message for f in validate_ett(tree) if f.code == "unknown-extractor"]
    assert str(extracted.value) == str(compiled.value) == findings[0] == (
        "metric 'm-err-labeling' binds to unknown extractor 'no-such-extractor'")
    assert len(findings) == 2


# ---------------------------------------------------------------------------
# Normalization


LINEAR_0_100 = NormalizationSpec(NormalizationKind.LINEAR_CLAMP, 0.0, 100.0)
HIGHER = Polarity.HIGHER_IS_BETTER
LOWER = Polarity.LOWER_IS_BETTER


def test_upper_clamp():
    assert normalize_metric(100.0, LINEAR_0_100, HIGHER) == 10.0
    assert normalize_metric(250.0, LINEAR_0_100, HIGHER) == 10.0


def test_midpoint():
    assert normalize_metric(50.0, LINEAR_0_100, HIGHER) == pytest.approx(5.5)


def test_boolean_false_scores_one():
    spec = NormalizationSpec(NormalizationKind.BOOLEAN)
    assert normalize_metric(0.0, spec, HIGHER) == 1.0
    assert normalize_metric(1.0, spec, HIGHER) == 10.0


def test_lower_is_better_reflects():
    assert normalize_metric(100.0, LINEAR_0_100, LOWER) == 1.0
    assert normalize_metric(0.0, LINEAR_0_100, LOWER) == 10.0


def test_inverse_linear_clamp():
    # an inverted clamp is a linear clamp with lower-is-better polarity
    spec = NormalizationSpec(NormalizationKind.LINEAR_CLAMP, 0.0, 10.0)
    assert normalize_metric(0.0, spec, LOWER) == 10.0
    assert normalize_metric(10.0, spec, LOWER) == 1.0


def test_normalization_monotonicity_and_range():
    rng = random.Random(6)
    for _ in range(200):
        lo = rng.uniform(-50, 50)
        hi = lo + rng.uniform(0.1, 100)
        spec = NormalizationSpec(NormalizationKind.LINEAR_CLAMP, lo, hi)
        a, b = sorted(rng.uniform(lo - 20, hi + 20) for _ in range(2))
        score_a = normalize_metric(a, spec, HIGHER)
        score_b = normalize_metric(b, spec, HIGHER)
        assert score_a <= score_b
        assert normalize_metric(a, spec, LOWER) >= normalize_metric(b, spec, LOWER)
        for score in (score_a, score_b):
            assert 1.0 <= score <= 10.0


def test_bad_bounds_rejected():
    with pytest.raises(Exception):
        NormalizationSpec(NormalizationKind.LINEAR_CLAMP, 5.0, 5.0)


@pytest.mark.parametrize("kinds", [(), (NodeKind.TASK,), (NodeKind.TASK, NodeKind.DATA_OBJECT)],
                         ids=["empty", "one", "one-flow-node"])
def test_density_of_at_most_one_flow_node_is_zero(kinds):
    # with n * (n - 1) = 0 possible flows the ratio is undefined, and density reads 0
    nodes = tuple(Node(f"n{i}", kind) for i, kind in enumerate(kinds))
    edges = (Edge("f", "n0", "n1", EdgeKind.SEQUENCE),) if len(nodes) == 2 else ()
    assert EXTRACTORS["density"](ProcessModelGraph(nodes, edges)) == 0.0
