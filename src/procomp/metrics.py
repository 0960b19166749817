"""Model-derived quality metrics and raw-value normalization.

Counting rules for the built-in extractors:

* node/edge counts cover flow nodes (events, tasks, sub-processes,
  gateways, generic nodes) and sequence flows; pools, lanes and data
  objects have their own extractors.
* degree is in-degree plus out-degree over sequence flows.
* the connector degree averages over gateway nodes only.
* nesting depth is the deepest sub-process containment (top level = 0).
* the unlabeled ratio covers tasks and sub-processes, the elements
  modeling conventions expect to be labeled.
* block-structuredness reduces the sequence-flow graph of the flow nodes
  with three rules until none fires: (a) contract a node with one incoming
  and one outgoing flow that is not a self-loop; (b) merge parallel flows
  between two gateways of the same kind; (c) drop the back flow of a
  structured loop, a same-kind join whose only outgoing flow enters a
  split that has no other incoming flow. A model scores 1.0 when no
  gateway with two or more outgoing flows remains, else 0.0.
* the gateway mismatch sums |splits - joins| per gateway kind.
* density is sequence flows over n*(n-1) possible flow-node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bpmn import GATEWAY_KINDS, NodeKind, ProcessModelGraph
from .errors import ExtractionError
from .ett import (
    EvaluationTheoryTree,
    MetricSource,
    NormalizationKind,
    NormalizationSpec,
    Polarity,
)


@dataclass(frozen=True)
class RawMetricValue:
    metric_id: str
    value: float


def _degrees(graph: ProcessModelGraph) -> dict[str, tuple[int, int]]:
    degrees = {n.id: [0, 0] for n in graph.flow_nodes()}
    for edge in graph.sequence_edges():
        if edge.source in degrees:
            degrees[edge.source][1] += 1
        if edge.target in degrees:
            degrees[edge.target][0] += 1
    return {node_id: (ind, out) for node_id, (ind, out) in degrees.items()}


def _count_kind(graph: ProcessModelGraph, *kinds: NodeKind) -> float:
    return float(sum(1 for n in graph.nodes if n.kind in kinds))


def node_count(graph: ProcessModelGraph) -> float:
    return float(len(graph.flow_nodes()))


def edge_count(graph: ProcessModelGraph) -> float:
    return float(len(graph.sequence_edges()))


def gateway_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, *GATEWAY_KINDS)


def or_gateway_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.GATEWAY_OR)


def start_event_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.START_EVENT)


def end_event_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.END_EVENT)


def max_degree(graph: ProcessModelGraph) -> float:
    degrees = _degrees(graph)
    if not degrees:
        return 0.0
    return float(max(ind + out for ind, out in degrees.values()))


def average_connector_degree(graph: ProcessModelGraph) -> float:
    degrees = _degrees(graph)
    gateway_ids = [n.id for n in graph.nodes if n.kind in GATEWAY_KINDS]
    if not gateway_ids:
        return 0.0
    return sum(sum(degrees[g]) for g in gateway_ids) / len(gateway_ids)


def nesting_depth(graph: ProcessModelGraph) -> float:
    parents = {n.id: n.parent for n in graph.nodes}
    deepest = 0
    for node in graph.flow_nodes():
        depth = 0
        parent = node.parent
        while parent is not None:
            depth += 1
            parent = parents.get(parent)
        deepest = max(deepest, depth)
    return float(deepest)


def unlabeled_ratio(graph: ProcessModelGraph) -> float:
    activities = [n for n in graph.nodes if n.kind in (NodeKind.TASK, NodeKind.SUB_PROCESS)]
    if not activities:
        return 0.0
    return sum(1 for n in activities if not n.label) / len(activities)


def subprocess_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.SUB_PROCESS)


def data_object_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.DATA_OBJECT)


def lane_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.LANE)


def pool_count(graph: ProcessModelGraph) -> float:
    return _count_kind(graph, NodeKind.POOL)


def distinct_kind_count(graph: ProcessModelGraph) -> float:
    return float(len({n.kind for n in graph.flow_nodes()}))


def gateway_mismatch_count(graph: ProcessModelGraph) -> float:
    degrees = _degrees(graph)
    mismatch = 0
    for kind in GATEWAY_KINDS:
        splits = joins = 0
        for node in graph.nodes:
            if node.kind is not kind:
                continue
            ind, out = degrees[node.id]
            if out >= 2:
                splits += 1
            if ind >= 2:
                joins += 1
        mismatch += abs(splits - joins)
    return float(mismatch)


def density(graph: ProcessModelGraph) -> float:
    n = len(graph.flow_nodes())
    if n <= 1:
        return 0.0
    return len(graph.sequence_edges()) / (n * (n - 1))


def block_structuredness(graph: ProcessModelGraph) -> float:
    """1.0 when the sequence-flow graph reduces to one without splits, else 0.0.

    The graph has the flow nodes as vertices and the sequence flows between
    them as edges (parallel flows kept). Three local rules are applied until
    none fires:

    (a) sequence: a node with exactly one incoming and one outgoing flow is
        contracted into a flow from its predecessor to its successor, unless
        that flow is a self-loop;
    (b) block: parallel flows from a gateway to a distinct gateway of the
        same kind are merged into one;
    (c) loop: when a join ``j`` (in-degree >= 2) has its only outgoing flow
        to a same-kind split ``s`` (out-degree >= 2), and ``j -> s`` is the
        only flow into ``s``, one back flow ``s -> j`` is dropped.

    The model is block-structured iff no gateway with out-degree >= 2
    remains. Every rule removes a node or a flow and rules are rechecked
    only where degrees changed, so the reduction is linear in the graph.
    """
    nodes = graph.flow_nodes()
    index = {n.id: i for i, n in enumerate(nodes)}
    kinds = [n.kind if n.kind in GATEWAY_KINDS else None for n in nodes]
    size = len(nodes)
    succ: list[dict[int, int]] = [{} for _ in range(size)]  # target -> parallel flows
    pred: list[dict[int, int]] = [{} for _ in range(size)]  # source -> parallel flows
    indeg = [0] * size
    outdeg = [0] * size
    worklist = list(range(size))

    def add_flow(u: int, w: int) -> None:
        succ[u][w] = succ[u].get(w, 0) + 1
        pred[w][u] = pred[w].get(u, 0) + 1
        outdeg[u] += 1
        indeg[w] += 1
        if succ[u][w] >= 2 and u != w and kinds[u] is not None and kinds[u] is kinds[w]:
            drop_flow(u, w)  # rule (b)

    def drop_flow(u: int, w: int) -> None:
        succ[u][w] -= 1
        if not succ[u][w]:
            del succ[u][w]
        pred[w][u] -= 1
        if not pred[w][u]:
            del pred[w][u]
        outdeg[u] -= 1
        indeg[w] -= 1
        worklist.extend((u, w))

    def loop_back(j: int, s: int) -> bool:
        # callers pass j -> s as j's only outgoing or s's only incoming flow
        return (kinds[j] is not None and kinds[j] is kinds[s]
                and indeg[j] >= 2 and outdeg[j] == 1
                and indeg[s] == 1 and outdeg[s] >= 2 and j in succ[s])

    for edge in graph.sequence_edges():
        if edge.source in index and edge.target in index:
            add_flow(index[edge.source], index[edge.target])

    while worklist:
        v = worklist.pop()  # a contracted node has no flows left, so no rule fires on it
        if indeg[v] == 1 and outdeg[v] == 1:
            u, w = next(iter(pred[v])), next(iter(succ[v]))
            if u != v:  # rule (a)
                drop_flow(u, v)
                drop_flow(v, w)
                add_flow(u, w)
            continue
        if outdeg[v] == 1 and loop_back(v, next(iter(succ[v]))):
            drop_flow(next(iter(succ[v])), v)  # rule (c), v as the join
        elif indeg[v] == 1 and loop_back(next(iter(pred[v])), v):
            drop_flow(v, next(iter(pred[v])))  # rule (c), v as the split

    if any(kinds[v] is not None and outdeg[v] >= 2 for v in range(size)):
        return 0.0
    return 1.0


EXTRACTORS: dict[str, Callable[[ProcessModelGraph], float]] = {
    "node-count": node_count,
    "edge-count": edge_count,
    "gateway-count": gateway_count,
    "or-gateway-count": or_gateway_count,
    "start-event-count": start_event_count,
    "end-event-count": end_event_count,
    "max-degree": max_degree,
    "average-connector-degree": average_connector_degree,
    "nesting-depth": nesting_depth,
    "unlabeled-ratio": unlabeled_ratio,
    "block-structuredness": block_structuredness,
    "subprocess-count": subprocess_count,
    "data-object-count": data_object_count,
    "lane-count": lane_count,
    "pool-count": pool_count,
    "distinct-kind-count": distinct_kind_count,
    "gateway-mismatch-count": gateway_mismatch_count,
    "density": density,
}


def extract_metrics(graph: ProcessModelGraph, tree: EvaluationTheoryTree) -> list[RawMetricValue]:
    """One raw value per model-derived metric in the tree.

    Metrics resolve to extractors through their binding key; any metric
    without a matching extractor makes the whole extraction fail. Each
    binding key is extracted once, however many metrics share it.
    """
    results: list[RawMetricValue] = []
    missing: list[str] = []
    values: dict[str, float] = {}
    for metric in tree.all_metrics():
        if metric.source is not MetricSource.MODEL_DERIVED:
            continue
        extractor = EXTRACTORS.get(metric.binding_key)
        if extractor is None:
            missing.append(metric.id)
            continue
        if metric.binding_key not in values:
            values[metric.binding_key] = extractor(graph)
        results.append(RawMetricValue(metric_id=metric.id, value=values[metric.binding_key]))
    if missing:
        raise ExtractionError(missing)
    return results


def normalize_metric(value: float, spec: NormalizationSpec, polarity: Polarity) -> float:
    """Map a raw value into [1, 10]; low-is-better polarity reflects it."""
    if spec.kind is NormalizationKind.BOOLEAN:
        score = 10.0 if value else 1.0
    elif spec.kind is NormalizationKind.IDENTITY:
        score = min(max(value, 1.0), 10.0)
    else:
        clamped = min(max(value, spec.lo), spec.hi)
        fraction = (clamped - spec.lo) / (spec.hi - spec.lo)
        if spec.kind is NormalizationKind.LINEAR_CLAMP:
            score = 1.0 + 9.0 * fraction
        else:
            score = 10.0 - 9.0 * fraction
    if polarity is Polarity.LOWER_IS_BETTER:
        score = 11.0 - score
    return score
