"""Model-derived quality metrics and raw-value normalization.

Every extractor is ``fn(graph) -> float`` and reads what it shares with
the others (flow nodes, gateways, sequence flows, degrees and node-kind
counts) from ``graph.index``, a ``GraphIndex`` built once per graph on
first use, so running all 18 costs one pass over the nodes and one over
the edges plus each extractor's own work.

Counting rules for the built-in extractors:

* node/edge counts cover flow nodes (events, tasks, sub-processes,
  gateways, generic nodes) and sequence flows; pools, lanes and data
  objects have their own extractors. Artifacts (text annotations and
  groups) are not flow nodes, and no extractor counts them.
* degree is in-degree plus out-degree over sequence flows; a flow counts
  at each end that is a flow node.
* the connector degree averages over gateway nodes only.
* nesting depth is the deepest sub-process containment (top level = 0). A
  cycle of parents, which only a graph built in code can hold, raises
  ModelParseError.
* the unlabeled ratio covers tasks and sub-processes, the elements
  modeling conventions expect to be labeled.
* block-structuredness reduces the sequence-flow graph of the flow nodes
  with three rules until none fires: (a) contract a node with one incoming
  and one outgoing flow that is not a self-loop; (b) merge parallel flows
  between two gateways of the same kind; (c) drop the back flow of a
  structured loop, a same-kind join whose only outgoing flow enters a
  split that has no other incoming flow. A model scores 1.0 when no
  gateway with two or more outgoing flows remains, else 0.0. Rule (a) runs
  first on whole chains of such nodes, each walked once, so only the nodes
  that start, end, split or merge the flow are kept as the reduction's own.
* the gateway mismatch sums |splits - joins| per gateway kind.
* density is sequence flows over n*(n-1) possible flow-node pairs.
"""

from __future__ import annotations

from operator import add
from typing import Callable

from .bpmn import ACTIVITY_KINDS, FLOW_NODE_KINDS, GATEWAY_KINDS, NodeKind, ProcessModelGraph
from .errors import ModelParseError, ScoringError
from .ett import (
    EvaluationTheoryTree,
    MetricSource,
    NormalizationKind,
    NormalizationSpec,
    Polarity,
    scoring_violations,
)


def _kind_count(kind: NodeKind) -> Callable[[ProcessModelGraph], float]:
    """The extractor that counts the nodes of one kind."""

    def count(graph: ProcessModelGraph) -> float:
        return float(graph.index.kind_counts.get(kind, 0))

    return count


def node_count(graph: ProcessModelGraph) -> float:
    return float(len(graph.index.flow_nodes))


def edge_count(graph: ProcessModelGraph) -> float:
    return float(graph.index.sequence_count)


def gateway_count(graph: ProcessModelGraph) -> float:
    return float(len(graph.index.gateways))


def max_degree(graph: ProcessModelGraph) -> float:
    index = graph.index
    return float(max(map(add, index.in_degree, index.out_degree), default=0))


def average_connector_degree(graph: ProcessModelGraph) -> float:
    index = graph.index
    if not index.gateways:
        return 0.0
    total = sum(index.in_degree[i] + index.out_degree[i] for i in index.gateways)
    return total / len(index.gateways)


def nesting_depth(graph: ProcessModelGraph) -> float:
    parents = {n.id: n.parent for n in graph.nodes}
    depths: dict[str | None, int | None] = {None: 0}  # how deep the content of each parent id sits
    for parent in {n.parent for n in graph.index.flow_nodes}:
        chain = []
        while parent not in depths:  # climb only to the first parent already measured
            depths[parent] = None  # being measured: met again only on a cycle
            chain.append(parent)
            parent = parents.get(parent)
        if depths[parent] is None:
            raise ModelParseError("sub-process parents form a cycle", context=parent)
        for child in reversed(chain):
            depths[child] = depths[parent] + 1
            parent = child
    return float(max(depths.values()))  # an ancestor sits less deep than its descendants


def unlabeled_ratio(graph: ProcessModelGraph) -> float:
    activities = [n for n in graph.index.flow_nodes if n.kind in ACTIVITY_KINDS]
    if not activities:
        return 0.0
    return sum(1 for n in activities if not n.label) / len(activities)


def distinct_kind_count(graph: ProcessModelGraph) -> float:
    return float(sum(1 for kind in graph.index.kind_counts if kind in FLOW_NODE_KINDS))


def gateway_mismatch_count(graph: ProcessModelGraph) -> float:
    index = graph.index
    balance = dict.fromkeys(GATEWAY_KINDS, 0)  # splits - joins per kind
    for i in index.gateways:
        balance[index.flow_nodes[i].kind] += (index.out_degree[i] >= 2) - (index.in_degree[i] >= 2)
    return float(sum(abs(b) for b in balance.values()))


def density(graph: ProcessModelGraph) -> float:
    index = graph.index
    n = len(index.flow_nodes)
    if n <= 1:
        return 0.0
    return index.sequence_count / (n * (n - 1))


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

    Only a gateway is a split or a join: rules (b) and (c) and the final
    check look at gateways alone. So a task with two outgoing flows into an
    exclusive join scores 1.0, though BPMN reads such flows as a parallel
    split, while an exclusive split closed by a task with two incoming flows
    scores 0.0. Rule (c) takes a join and a split of any one kind, parallel
    included, so a parallel join and split in a loop score 1.0. These follow
    from the rules; no definition of block structure has confirmed them yet.

    Rule (a) is applied first to every chain: a run of nodes that each have
    one incoming and one outgoing flow, and no self-loop. No other rule
    touches such a node, so the chain is walked from the node before it to
    the node after it and one flow stands in its place (the series step of
    an RPST decomposition). Each chain node is walked once, and only the
    nodes left get adjacency of their own. A cycle made only of chain nodes
    is never entered: it holds no split.
    """
    index = graph.index
    nodes, sources, targets = index.flow_nodes, index.flow_sources, index.flow_targets
    size = len(nodes)
    indeg = [0] * size
    outdeg = [0] * size
    after = [0] * size  # the target of each node's last flow: the next node on a chain
    for u, w in zip(sources, targets):
        outdeg[u] += 1
        indeg[w] += 1
        after[u] = w
    kinds: dict[int, NodeKind | None] = {}  # the nodes kept, which are on no chain
    for v in range(size):
        if indeg[v] != 1 or outdeg[v] != 1 or after[v] == v:
            kind = nodes[v].kind
            kinds[v] = kind if kind in GATEWAY_KINDS else None
            indeg[v] = outdeg[v] = 0  # counted again as the contracted flows are added
    succ: dict[int, dict[int, int]] = {v: {} for v in kinds}  # target -> parallel flows
    pred: dict[int, dict[int, int]] = {v: {} for v in kinds}  # source -> parallel flows
    worklist = list(kinds)

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

    for u, w in zip(sources, targets):
        if u in kinds:
            while w not in kinds:  # rule (a) on a whole chain at once
                w = after[w]
            add_flow(u, w)

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

    if any(kind is not None and outdeg[v] >= 2 for v, kind in kinds.items()):
        return 0.0
    return 1.0


EXTRACTORS: dict[str, Callable[[ProcessModelGraph], float]] = {
    "node-count": node_count,
    "edge-count": edge_count,
    "gateway-count": gateway_count,
    "or-gateway-count": _kind_count(NodeKind.GATEWAY_OR),
    "start-event-count": _kind_count(NodeKind.START_EVENT),
    "end-event-count": _kind_count(NodeKind.END_EVENT),
    "max-degree": max_degree,
    "average-connector-degree": average_connector_degree,
    "nesting-depth": nesting_depth,
    "unlabeled-ratio": unlabeled_ratio,
    "block-structuredness": block_structuredness,
    "subprocess-count": _kind_count(NodeKind.SUB_PROCESS),
    "data-object-count": _kind_count(NodeKind.DATA_OBJECT),
    "lane-count": _kind_count(NodeKind.LANE),
    "pool-count": _kind_count(NodeKind.POOL),
    "distinct-kind-count": distinct_kind_count,
    "gateway-mismatch-count": gateway_mismatch_count,
    "density": density,
}


def extract_metrics(graph: ProcessModelGraph, tree: EvaluationTheoryTree) -> dict[str, float]:
    """The raw value of every model-derived metric in the tree, by metric id.

    Metrics resolve to extractors through their binding key. A metric
    without a matching extractor raises the ScoringError that compile_plan
    raises for it: the message of the tree's first unknown-extractor
    finding. Each binding key is extracted once, however many metrics
    share it.
    """
    values: dict[str, float] = {}
    raw: dict[str, float] = {}
    for metric in tree.all_metrics():
        if metric.source is MetricSource.MODEL_DERIVED:
            key = metric.binding_key
            if key not in values:
                if key not in EXTRACTORS:
                    raise ScoringError(next(f.message for f in scoring_violations(tree)
                                            if f.code == "unknown-extractor"))
                values[key] = EXTRACTORS[key](graph)
            raw[metric.id] = values[key]
    return raw


def normalize_metric(value: float, spec: NormalizationSpec, polarity: Polarity) -> float:
    """Map a raw value into [1, 10]; low-is-better polarity reflects it."""
    if spec.kind is NormalizationKind.BOOLEAN:
        score = 10.0 if value else 1.0
    elif spec.kind is NormalizationKind.IDENTITY:
        score = min(max(value, 1.0), 10.0)
    else:
        clamped = min(max(value, spec.lo), spec.hi)
        fraction = (clamped - spec.lo) / (spec.hi - spec.lo)
        score = 1.0 + 9.0 * fraction
    if polarity is Polarity.LOWER_IS_BETTER:
        score = 11.0 - score
    return score
