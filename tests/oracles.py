"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written as plain loops over the raw graph
fields / input numbers, sharing no code with the implementations under
test.
"""

from __future__ import annotations

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
    """Score every item with the weighted mean and sort (score desc, id asc)."""
    scored = []
    for item in dataset.items:
        scored.append((item, brute_force_weighted_mean(dataset.placements[item], weights)))
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
