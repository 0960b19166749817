"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written as plain loops over the raw graph
fields / input numbers, sharing no code with the implementations under
test. The exceptions are the references at the end, which keep a former
implementation to check a restructured one against: they share the
arithmetic, which must stay the same to the last bit, or the tag tables
of the BPMN parser, and not the structure under test.
"""

from __future__ import annotations

import json
import math

_FLOW_KINDS = {
    "start-event", "end-event", "intermediate-event", "task", "sub-process",
    "gateway-xor", "gateway-and", "gateway-or", "generic",
}
_GATEWAY_KINDS = {"gateway-xor", "gateway-and", "gateway-or"}


def naive_counts(graph) -> dict[str, float]:
    """Recount every count-style metric with dumb loops."""
    flow = [n for n in graph.nodes if n.kind.value in _FLOW_KINDS]
    seq = [e for e in graph.edges if e.kind.value == "sequence"]

    indeg = {n.id: 0 for n in flow}
    outdeg = {n.id: 0 for n in flow}
    for edge in seq:
        if edge.source in outdeg:
            outdeg[edge.source] = outdeg[edge.source] + 1
        if edge.target in indeg:
            indeg[edge.target] = indeg[edge.target] + 1

    gateways = [n for n in flow if n.kind.value in _GATEWAY_KINDS]
    activities = [n for n in graph.nodes if n.kind.value in ("task", "sub-process")]

    mismatch = 0
    for kind in sorted(_GATEWAY_KINDS):
        splits = sum(1 for g in gateways if g.kind.value == kind and outdeg[g.id] >= 2)
        joins = sum(1 for g in gateways if g.kind.value == kind and indeg[g.id] >= 2)
        if splits >= joins:
            mismatch += splits - joins
        else:
            mismatch += joins - splits

    parent_of = {n.id: n.parent for n in graph.nodes}
    max_depth = 0
    for node in flow:
        depth = 0
        current = node.parent
        while current is not None:
            depth += 1
            current = parent_of.get(current)
        if depth > max_depth:
            max_depth = depth

    n_flow = len(flow)
    return {
        "node-count": float(n_flow),
        "edge-count": float(len(seq)),
        "gateway-count": float(len(gateways)),
        "or-gateway-count": float(sum(1 for n in flow if n.kind.value == "gateway-or")),
        "start-event-count": float(sum(1 for n in flow if n.kind.value == "start-event")),
        "end-event-count": float(sum(1 for n in flow if n.kind.value == "end-event")),
        "max-degree": float(max((indeg[n.id] + outdeg[n.id] for n in flow), default=0)),
        "average-connector-degree": (
            sum(indeg[g.id] + outdeg[g.id] for g in gateways) / len(gateways)
            if gateways else 0.0
        ),
        "nesting-depth": float(max_depth),
        "unlabeled-ratio": (
            sum(1 for n in activities if not n.label) / len(activities)
            if activities else 0.0
        ),
        "subprocess-count": float(sum(1 for n in flow if n.kind.value == "sub-process")),
        "data-object-count": float(sum(1 for n in graph.nodes if n.kind.value == "data-object")),
        "lane-count": float(sum(1 for n in graph.nodes if n.kind.value == "lane")),
        "pool-count": float(sum(1 for n in graph.nodes if n.kind.value == "pool")),
        "distinct-kind-count": float(len({n.kind.value for n in flow})),
        "gateway-mismatch-count": float(mismatch),
        "density": (len(seq) / (n_flow * (n_flow - 1))) if n_flow > 1 else 0.0,
    }


def brute_force_weighted_mean(placements, weights) -> float:
    """Literal evaluation of the weighted arithmetic mean."""
    numerator = 0.0
    denominator = 0.0
    for k in range(len(placements)):
        numerator += weights[k] * placements[k]
        denominator += weights[k]
    return numerator / denominator


def brute_force_ordering(dataset, weights) -> list[tuple[str, float]]:
    """Score every item with the weighted mean over one fraction per rank,
    zeros included, and sort (score desc, id asc)."""
    scored = []
    for item in dataset.items:
        dense = [0.0] * len(weights)
        for rank, fraction in dataset.placements[item]:
            dense[rank - 1] = fraction
        scored.append((item, brute_force_weighted_mean(dense, weights)))
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def normalized_weighted_sum(values, weights) -> float:
    """Spreadsheet-style recomputation of the weight-normalized sum."""
    total_weight = 0.0
    total = 0.0
    for value, weight in zip(values, weights):
        total += value * weight
        total_weight += weight
    return total / total_weight


def constrained_least_squares_weight(rows) -> float:
    """Closed-form fit of s_b = w*s_m + (1-w)*s_r over (s_m, s_r, s_b) rows."""
    numerator = sum((sb - sr) * (sm - sr) for sm, sr, sb in rows)
    denominator = sum((sm - sr) ** 2 for sm, sr, sb in rows)
    return numerator / denominator


def naive_block_structuredness(graph, rng=None) -> float:
    """Reduce the flow graph by rescanning every node for a rule on each step.

    The rules: contract a node with one incoming and one outgoing flow (not
    a self-loop); drop one of two parallel flows between distinct gateways
    of the same kind; drop a back flow s -> j when gateway j has two or more
    incoming flows and its only outgoing flow enters a same-kind gateway s,
    s has no other incoming flow and two or more outgoing ones. The model
    scores 1.0 when no gateway is left with two or more outgoing flows.

    Without ``rng`` the first rule found fires; with it a random one does,
    which checks that the result does not depend on the order of reduction.
    """
    kind = {n.id: n.kind.value for n in graph.nodes if n.kind.value in _FLOW_KINDS}
    flows = [
        (e.source, e.target) for e in graph.edges
        if e.kind.value == "sequence" and e.source in kind and e.target in kind
    ]
    remaining = list(kind)

    def incoming(node):
        return [f for f in flows if f[1] == node]

    def outgoing(node):
        return [f for f in flows if f[0] == node]

    while True:
        options = []
        for node in remaining:
            ins, outs = incoming(node), outgoing(node)
            if len(ins) == 1 and len(outs) == 1 and ins[0][0] != node:
                options.append(("sequence", node))
            if kind[node] not in _GATEWAY_KINDS:
                continue
            for flow in outs:
                if (flow[1] != node and kind[flow[1]] == kind[node]
                        and flows.count(flow) >= 2):
                    options.append(("drop", flow))
            if len(ins) >= 2 and len(outs) == 1:
                split = outs[0][1]
                if (kind[split] == kind[node] and len(incoming(split)) == 1
                        and len(outgoing(split)) >= 2 and (split, node) in flows):
                    options.append(("drop", (split, node)))
        if not options:
            break
        rule, target = options[0] if rng is None else rng.choice(options)
        if rule == "sequence":
            (before, _), (_, after) = incoming(target)[0], outgoing(target)[0]
            flows.remove((before, target))
            flows.remove((target, after))
            flows.append((before, after))
            remaining.remove(target)
        else:
            flows.remove(target)

    for node in remaining:
        if kind[node] in _GATEWAY_KINDS and len(outgoing(node)) >= 2:
            return 0.0
    return 1.0


# ---------------------------------------------------------------------------
# Former implementations, kept as references


def per_model_evaluation(graph, tree, registry, modeler_responses, reader_responses,
                         modeler_schema, reader_schema, *, noise_threshold=4.0,
                         language=None, model_id="model"):
    """Score one model by normalizing and aggregating every metric of the
    tree, with the registry values of ``language`` (``bpmn.LANGUAGE`` if
    None) computed afresh, as
    ``ScoringPlan.evaluate`` did before ``compile_plan`` pre-scored the
    config-only parts. Config errors are left to ``compile_plan``."""
    from procomp import replace
    from procomp.bpmn import LANGUAGE
    from procomp.errors import ConfigError
    from procomp.ett import MetricSource, Perspective, ensure_weighted
    from procomp.languages import control_flow_percentage, normalize_complexity
    from procomp.metrics import extract_metrics, normalize_metric
    from procomp.questionnaire import score_responses
    from procomp.scoring import (ComprehensionEvaluation, CriterionResult, MetricResult,
                                 aggregate_criterion, combined_score, detect_noise,
                                 perspective_score)

    tree = ensure_weighted(tree)
    questionnaire_scores = score_responses(modeler_schema, modeler_responses)
    reader_scores = [score_responses(reader_schema, r) for r in reader_responses]
    questionnaire_scores.update({key: math.fsum(s[key] for s in reader_scores) / len(reader_scores)
                                 for key in reader_scores[0]})

    raw_values = extract_metrics(graph, tree)
    language = language or LANGUAGE
    by_name = {d.name: d for d in registry}
    if language not in by_name:
        raise ConfigError(f"language {language!r} not registered (known: {', '.join(sorted(by_name))})")
    registry_values = {
        "complexity": normalize_complexity(registry)[language],
        "control-flow-pattern-support": control_flow_percentage(by_name[language]),
    }
    criteria_results = []
    for criterion in tree.criteria:
        metric_results = []
        for metric in criterion.metrics:
            if metric.source is MetricSource.MODEL_DERIVED:
                raw = raw_values[metric.id]
            elif metric.source is MetricSource.LANGUAGE_REGISTRY:
                raw = registry_values[metric.binding_key]
            else:
                raw = None
            score = (questionnaire_scores[metric.id] if raw is None
                     else normalize_metric(raw, metric.normalization, metric.polarity))
            metric_results.append(MetricResult(id=metric.id, name=metric.name, source=metric.source,
                                               score=score, weight=metric.weight, raw=raw))
        q_c = aggregate_criterion([m.score for m in metric_results],
                                  [m.weight for m in metric_results])
        criteria_results.append(CriterionResult(
            id=criterion.id, name=criterion.name, perspective=criterion.perspective, score=q_c,
            weight=criterion.weight, metrics=tuple(metric_results)))

    def perspective(which):
        group = [c for c in criteria_results if c.perspective is which]
        return perspective_score([c.score for c in group], [c.weight for c in group])

    s_m, s_r = perspective(Perspective.MODELER), perspective(Perspective.READER)
    w_m, w_r = tree.interaction_weights
    evaluation = ComprehensionEvaluation(
        model_id=model_id, criteria=tuple(criteria_results), s_m=s_m, s_r=s_r,
        s_b=combined_score(s_m, s_r, w_m, w_r), w_m=w_m, w_r=w_r, noise_threshold=noise_threshold)
    return replace(evaluation, flags=tuple(detect_noise(evaluation.criteria, noise_threshold)))


def evaluation_document(evaluation) -> dict:
    """The JSON export as a document, in its key order."""
    return {
        "version": "1",
        "model": evaluation.model_id,
        "scores": {
            "modeler": evaluation.s_m,
            "reader": evaluation.s_r,
            "combined": evaluation.s_b,
        },
        "interaction_weights": {"modeler": evaluation.w_m, "reader": evaluation.w_r},
        "noise_threshold": evaluation.noise_threshold,
        "criteria": [
            {
                "id": c.id,
                "name": c.name,
                "perspective": c.perspective.value,
                "weight": c.weight,
                "score": c.score,
                "metrics": [
                    {
                        "id": m.id,
                        "name": m.name,
                        "source": m.source.value,
                        "raw": m.raw,
                        "score": m.score,
                        "weight": m.weight,
                    }
                    for m in c.metrics
                ],
            }
            for c in evaluation.criteria
        ],
        "noise_flags": [
            {
                "kind": f.kind,
                "id": f.id,
                "name": f.name,
                "score": f.score,
                "threshold": f.threshold,
                "perspective": f.perspective.value,
                "criterion": f.criterion_id,
            }
            for f in evaluation.flags
        ],
    }


def json_export(evaluation) -> str:
    """The JSON export as the stdlib encoder writes it."""
    return json.dumps(evaluation_document(evaluation), indent=2) + "\n"


def tree_parse_model(document):
    """Parse a BPMN document by building its whole ``ElementTree`` and
    walking it, as ``parse_model`` did before it read expat events."""
    import xml.etree.ElementTree as ElementTree

    from procomp.bpmn import (_NODE_TAGS, _SKIP_TAGS, ACTIVITY_KINDS, Edge, EdgeKind, Node,
                              NodeKind, ProcessModelGraph)
    from procomp.errors import ModelParseError

    try:
        root = ElementTree.fromstring(document)
    except ElementTree.ParseError as exc:
        raise ModelParseError(f"malformed XML: {exc}") from exc

    def local(element):
        return element.tag.rsplit("}", 1)[-1]

    processes = [e for e in root.iter() if local(e) == "process"]
    collaborations = [e for e in root.iter() if local(e) == "collaboration"]
    if not processes:
        raise ModelParseError("document contains no process element")

    nodes, edges, warnings, node_ids = [], [], [], set()
    edge_seq = 0

    def add_node(node_id, kind, label, parent):
        if node_id in node_ids:
            raise ModelParseError("duplicate node id", context=node_id)
        node_ids.add(node_id)
        nodes.append(Node(id=node_id, kind=kind, label=label, parent=parent))

    def add_edge(edge_id, source, target, kind):
        nonlocal edge_seq
        if edge_id is None:
            edge_seq += 1
            edge_id = f"_edge{edge_seq}"
        edges.append(Edge(id=edge_id, source=source, target=target, kind=kind))

    def child_text(element, local_name):
        for child in element:
            if local(child) == local_name:
                return (child.text or "").strip()
        return None

    def lacks_refs(element, what):
        return ModelParseError(f"{what} lacks sourceRef/targetRef",
                               context=element.get("id") or "<no id>")

    for collaboration in collaborations:
        for child in collaboration:
            if local(child) == "participant" and child.get("id"):
                add_node(child.get("id"), NodeKind.POOL, (child.get("name") or "").strip(), None)
            elif local(child) == "messageFlow":
                source, target = child.get("sourceRef"), child.get("targetRef")
                if not source or not target:
                    raise lacks_refs(child, "messageFlow")
                add_edge(child.get("id"), source, target, EdgeKind.MESSAGE)

    for process in processes:
        stack = [(iter(process), None)]
        while stack:
            children, parent = stack[-1]
            element = next(children, None)
            if element is None:
                stack.pop()
                continue
            name = local(element)
            if name in _SKIP_TAGS:
                continue
            if name == "laneSet":
                for lane in element:
                    if local(lane) == "lane" and lane.get("id"):
                        add_node(lane.get("id"), NodeKind.LANE,
                                 (lane.get("name") or "").strip(), parent)
                continue
            if name == "sequenceFlow":
                source, target = element.get("sourceRef"), element.get("targetRef")
                if not source or not target:
                    raise lacks_refs(element, "sequenceFlow")
                add_edge(element.get("id"), source, target, EdgeKind.SEQUENCE)
                continue
            if name == "association":
                source, target = element.get("sourceRef"), element.get("targetRef")
                if source and target:
                    add_edge(element.get("id"), source, target, EdgeKind.DATA)
                continue
            node_id = element.get("id")
            if node_id is None:
                continue
            label = (element.get("name") or "").strip()
            kind = _NODE_TAGS.get(name)
            if kind is None:
                add_node(node_id, NodeKind.GENERIC, label, parent)
                warnings.append(f"unknown construct <{name}> kept as generic node ({node_id})")
                continue
            add_node(node_id, kind, label, parent)
            if kind in ACTIVITY_KINDS:
                for child in element:
                    if local(child) == "dataInputAssociation":
                        source = child_text(child, "sourceRef")
                        if source:
                            add_edge(child.get("id"), source, node_id, EdgeKind.DATA)
                    elif local(child) == "dataOutputAssociation":
                        target = child_text(child, "targetRef")
                        if target:
                            add_edge(child.get("id"), node_id, target, EdgeKind.DATA)
                if kind is NodeKind.SUB_PROCESS:
                    stack.append((iter(element), node_id))

    for edge in edges:
        for endpoint in (edge.source, edge.target):
            if endpoint not in node_ids:
                raise ModelParseError(f"flow references missing node {endpoint!r}",
                                      context=f"{edge.kind.value} flow {edge.id}")
    return ProcessModelGraph(nodes=tuple(nodes), edges=tuple(edges), warnings=tuple(warnings))
