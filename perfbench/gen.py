"""Seeded BPMN model and questionnaire-response generator for the benchmark.

Stdlib only; shares no code with ``src/procomp``. Every model is built as
an explicit graph first and written as BPMN 2.0 XML second, so the raw
structural values each extractor should report are known by construction
(``expected`` in the manifest), including block-structuredness: 1.0 for
models built only from same-kind split/join blocks, structured loops and
sub-processes, 0.0 for models with an injected unstructured fragment.

Three workloads:

* ``large-structured``: two models of about 2,300 flow nodes. The skeleton
  (block templates, nesting, sizes) is fixed so that the work the program
  does is the same for every seed; the seed picks gateway kinds, task
  types, labels, data associations and lane membership.
* ``batch-small``: 200 random models of 40-60 flow nodes.
* ``unstructured``: 32 seeded mid-size models with mixed-kind blocks and
  loops, three in four holding an inclusive split closed by an exclusive
  join, plus four fixed (seed-independent) ladders holding the known
  block-structuredness counter-example: an exclusive split closed by a
  parallel join, followed by downstream exclusive joins.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from xml.sax.saxutils import quoteattr

FLOW_CATEGORIES = (
    "start-event", "end-event", "intermediate-event", "task",
    "sub-process", "gateway-xor", "gateway-and", "gateway-or",
)
GATEWAY_CATEGORIES = ("gateway-xor", "gateway-and", "gateway-or")
GATEWAY_TAGS = {
    "gateway-xor": "exclusiveGateway",
    "gateway-and": "parallelGateway",
    "gateway-or": "inclusiveGateway",
}
TASK_TAGS = (
    "task", "userTask", "serviceTask", "scriptTask", "manualTask",
    "sendTask", "receiveTask", "businessRuleTask", "callActivity",
)
VERBS = ("Check", "Register", "Approve", "Review", "Ship", "Archive", "Notify",
         "Calculate", "Prepare", "Validate", "Book", "Collect", "Assign", "Send")
NOUNS = ("order", "invoice", "claim", "request", "payment", "contract",
         "shipment", "report", "customer data", "offer", "complaint", "ticket")

# Workload make-up; README.md repeats these numbers.
LARGE_MODELS = 2
LARGE_SEGMENTS = 195
BATCH_MODELS = 200
BATCH_READERS = 8
BATCH_NODE_RANGE = (40, 60)
UNSTRUCTURED_SEEDED = 32
UNSTRUCTURED_SEGMENTS = 24
UNSTRUCTURED_READERS = 2
FAULT_DIAMONDS = 20
FAULT_POSITIONS = (5, 8, 11, 14)


class ModelBuilder:
    """An explicit process graph that knows its own structural metrics."""

    def __init__(self, rng: random.Random, name: str, unlabeled_share: float):
        self.rng = rng
        self.name = name
        self.unlabeled_share = unlabeled_share
        self.counter = 0
        # id -> category, BPMN tag, label, parent sub-process, container, data links
        self.nodes: dict[str, dict] = {}
        self.flows: list[tuple[str, str, str, str]] = []  # id, source, target, container
        self.containers: dict[str, list[tuple[str, str]]] = {}  # container -> [(kind, id)]
        self.processes: list[str] = []
        self.lanes: dict[str, list[tuple[str, str]]] = {}  # process -> [(lane id, name)]
        self.pools: list[tuple[str, str, str | None]] = []  # id, name, process ref
        self.message_flows: list[tuple[str, str, str]] = []
        self.structured = True

    # -- elements ---------------------------------------------------------

    def _id(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _label(self) -> str:
        return f"{self.rng.choice(VERBS)} {self.rng.choice(NOUNS)}"

    def process(self, lanes: int) -> str:
        pid = self._id("Process_")
        self.processes.append(pid)
        self.containers[pid] = []
        self.lanes[pid] = [(self._id("Lane_"), f"Role {i + 1}") for i in range(lanes)]
        self.pools.append((self._id("Participant_"), f"Organisation {len(self.pools) + 1}", pid))
        return pid

    def node(self, category: str, container: str, *, tag: str) -> str:
        prefix = {"start-event": "Start_", "end-event": "End_", "task": "Activity_",
                  "sub-process": "Sub_", "intermediate-event": "Event_"}.get(category, "Gateway_")
        nid = self._id(prefix)
        labeled = category not in ("task", "sub-process") or self.rng.random() >= self.unlabeled_share
        parent = container if container in self.nodes else None
        self.nodes[nid] = {
            "category": category,
            "tag": tag,
            "label": self._label() if labeled else "",
            "parent": parent,
            "container": container,
            "inputs": [],
            "outputs": [],
        }
        self.containers[container].append(("node", nid))
        if category == "sub-process":
            self.containers[nid] = []
        return nid

    def flow(self, source: str, target: str) -> None:
        container = self.nodes[source]["container"]
        fid = self._id("Flow_")
        self.flows.append((fid, source, target, container))
        self.containers[container].append(("flow", fid))

    def data_object(self, process: str, store: bool = False) -> str:
        did = self._id("DataStore_" if store else "DataObject_")
        self.nodes[did] = {"category": "data-object",
                           "tag": "dataStoreReference" if store else "dataObjectReference",
                           "label": self._label(), "parent": None, "container": process,
                           "inputs": [], "outputs": []}
        self.containers[process].append(("node", did))
        return did

    def tasks_in(self, process: str) -> list[str]:
        """Activities whose nearest enclosing process is ``process``."""
        out = []
        for nid, node in self.nodes.items():
            if node["category"] not in ("task", "sub-process"):
                continue
            container = node["container"]
            while container in self.nodes:
                container = self.nodes[container]["container"]
            if container == process:
                out.append(nid)
        return out

    # -- blocks: each returns (entry, exit) ---------------------------------

    def task(self, c: str) -> tuple[str, str]:
        t = self.node("task", c, tag=self.rng.choice(TASK_TAGS))
        return t, t

    def event(self, c: str) -> tuple[str, str]:
        e = self.node("intermediate-event", c, tag=self.rng.choice(
            ("intermediateCatchEvent", "intermediateThrowEvent")))
        return e, e

    def seq(self, c: str, parts) -> tuple[str, str]:
        entry = exit_ = None
        for part in parts:
            e, x = part(c)
            if entry is None:
                entry = e
            else:
                self.flow(exit_, e)
            exit_ = x
        return entry, exit_

    def block(self, c: str, kind: str, branches, join_kind: str | None = None) -> tuple[str, str]:
        split = self.node(kind, c, tag=GATEWAY_TAGS[kind])
        ends = []
        for branch in branches:
            e, x = branch(c)
            self.flow(split, e)
            ends.append(x)
        join_kind = join_kind or kind
        join = self.node(join_kind, c, tag=GATEWAY_TAGS[join_kind])
        for x in ends:
            self.flow(x, join)
        return split, join

    def loop(self, c: str, body) -> tuple[str, str]:
        entry = self.node("gateway-xor", c, tag="exclusiveGateway")
        e, x = body(c)
        exit_ = self.node("gateway-xor", c, tag="exclusiveGateway")
        self.flow(entry, e)
        self.flow(x, exit_)
        self.flow(exit_, entry)
        return entry, exit_

    def subprocess(self, c: str, body) -> tuple[str, str]:
        tag = "transaction" if self.rng.random() < 0.2 else "subProcess"
        sp = self.node("sub-process", c, tag=tag)
        start = self.node("start-event", sp, tag="startEvent")
        e, x = body(sp)
        end = self.node("end-event", sp, tag="endEvent")
        self.flow(start, e)
        self.flow(x, end)
        return sp, sp

    def main_flow(self, process: str, body) -> None:
        start = self.node("start-event", process, tag="startEvent")
        e, x = body(process)
        end = self.node("end-event", process, tag="endEvent")
        self.flow(start, e)
        self.flow(x, end)

    # -- decorations --------------------------------------------------------

    def attach_data(self, process: str, objects: int, associations: int) -> None:
        dobjs = [self.data_object(process, store=(i % 4 == 3)) for i in range(objects)]
        activities = [t for t in self.tasks_in(process) if self.nodes[t]["category"] == "task"]
        for i in range(associations):
            task = self.rng.choice(activities)
            side = "inputs" if i % 2 == 0 else "outputs"
            self.nodes[task][side].append(dobjs[i % len(dobjs)])

    def partner_pool(self, messages: int) -> None:
        pid = self._id("Participant_")
        self.pools.append((pid, "External partner", None))
        activities = [t for t in self.tasks_in(self.processes[0])
                      if self.nodes[t]["category"] == "task"]
        for i in range(messages):
            task = self.rng.choice(activities)
            pair = (task, pid) if i % 2 == 0 else (pid, task)
            self.message_flows.append((self._id("MessageFlow_"), *pair))

    # -- outputs ------------------------------------------------------------

    def expected(self) -> dict[str, float]:
        """Raw values of every extractor, from the construction records."""
        flow_ids = [n for n, d in self.nodes.items() if d["category"] in FLOW_CATEGORIES]
        indeg = {n: 0 for n in flow_ids}
        outdeg = {n: 0 for n in flow_ids}
        for _, source, target, _ in self.flows:
            outdeg[source] += 1
            indeg[target] += 1

        def count(*cats):
            return float(sum(1 for d in self.nodes.values() if d["category"] in cats))

        def depth(nid):
            d, parent = 0, self.nodes[nid]["parent"]
            while parent is not None:
                d, parent = d + 1, self.nodes[parent]["parent"]
            return d

        gateways = [n for n in flow_ids if self.nodes[n]["category"] in GATEWAY_CATEGORIES]
        activities = [d for d in self.nodes.values() if d["category"] in ("task", "sub-process")]
        mismatch = 0
        for kind in GATEWAY_CATEGORIES:
            same = [n for n in gateways if self.nodes[n]["category"] == kind]
            mismatch += abs(sum(1 for n in same if outdeg[n] >= 2)
                            - sum(1 for n in same if indeg[n] >= 2))
        n, e = len(flow_ids), len(self.flows)
        return {
            "node-count": float(n),
            "edge-count": float(e),
            "gateway-count": count(*GATEWAY_CATEGORIES),
            "or-gateway-count": count("gateway-or"),
            "start-event-count": count("start-event"),
            "end-event-count": count("end-event"),
            "max-degree": float(max((indeg[x] + outdeg[x] for x in flow_ids), default=0)),
            "average-connector-degree": (
                sum(indeg[g] + outdeg[g] for g in gateways) / len(gateways) if gateways else 0.0),
            "nesting-depth": float(max((depth(x) for x in flow_ids), default=0)),
            "unlabeled-ratio": (
                sum(1 for d in activities if not d["label"]) / len(activities)
                if activities else 0.0),
            "block-structuredness": 1.0 if self.structured else 0.0,
            "subprocess-count": count("sub-process"),
            "data-object-count": count("data-object"),
            "lane-count": float(sum(len(v) for v in self.lanes.values())),
            "pool-count": float(len(self.pools)),
            "distinct-kind-count": float(len({self.nodes[x]["category"] for x in flow_ids})),
            "gateway-mismatch-count": float(mismatch),
            "density": e / (n * (n - 1)) if n > 1 else 0.0,
        }

    def flow_node_count(self) -> int:
        return sum(1 for d in self.nodes.values() if d["category"] in FLOW_CATEGORIES)

    def to_xml(self) -> str:
        incoming: dict[str, list[str]] = {}
        outgoing: dict[str, list[str]] = {}
        flows_by_id = {}
        for fid, source, target, _ in self.flows:
            outgoing.setdefault(source, []).append(fid)
            incoming.setdefault(target, []).append(fid)
            flows_by_id[fid] = (source, target)
        out = ['<?xml version="1.0" encoding="UTF-8"?>',
               '<bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL" '
               f'id="Definitions_{self.name}" targetNamespace="http://example.org/bench">',
               '  <bpmn:collaboration id="Collaboration_1">']
        for pid, name, ref in self.pools:
            ref_attr = f' processRef="{ref}"' if ref else ""
            out.append(f'    <bpmn:participant id="{pid}" name={quoteattr(name)}{ref_attr}/>')
        for mid, source, target in self.message_flows:
            out.append(f'    <bpmn:messageFlow id="{mid}" sourceRef="{source}" targetRef="{target}"/>')
        out.append('  </bpmn:collaboration>')

        def emit(container: str, indent: str) -> None:
            for kind, eid in self.containers[container]:
                if kind == "flow":
                    source, target = flows_by_id[eid]
                    if self.nodes[source]["category"] == "gateway-xor" and len(outgoing[source]) > 1:
                        out.append(f'{indent}<bpmn:sequenceFlow id="{eid}" sourceRef="{source}" '
                                   f'targetRef="{target}"><bpmn:conditionExpression>'
                                   f'${{ok}}</bpmn:conditionExpression></bpmn:sequenceFlow>')
                    else:
                        out.append(f'{indent}<bpmn:sequenceFlow id="{eid}" sourceRef="{source}" '
                                   f'targetRef="{target}"/>')
                    continue
                node = self.nodes[eid]
                name = f" name={quoteattr(node['label'])}" if node["label"] else ""
                tag = f"bpmn:{node['tag']}"
                children = [f'{indent}  <bpmn:incoming>{f}</bpmn:incoming>'
                            for f in incoming.get(eid, ())]
                children += [f'{indent}  <bpmn:outgoing>{f}</bpmn:outgoing>'
                             for f in outgoing.get(eid, ())]
                for i, source in enumerate(node["inputs"]):
                    children.append(f'{indent}  <bpmn:dataInputAssociation id="{eid}_in{i}">'
                                    f'<bpmn:sourceRef>{source}</bpmn:sourceRef>'
                                    f'</bpmn:dataInputAssociation>')
                for i, target in enumerate(node["outputs"]):
                    children.append(f'{indent}  <bpmn:dataOutputAssociation id="{eid}_out{i}">'
                                    f'<bpmn:targetRef>{target}</bpmn:targetRef>'
                                    f'</bpmn:dataOutputAssociation>')
                if node["category"] == "sub-process":
                    out.append(f'{indent}<{tag} id="{eid}"{name}>')
                    out.extend(children)
                    emit(eid, indent + "  ")
                    out.append(f'{indent}</{tag}>')
                elif children:
                    out.append(f'{indent}<{tag} id="{eid}"{name}>')
                    out.extend(children)
                    out.append(f'{indent}</{tag}>')
                else:
                    out.append(f'{indent}<{tag} id="{eid}"{name}/>')

        for pid in self.processes:
            out.append(f'  <bpmn:process id="{pid}" isExecutable="false">')
            if self.lanes[pid]:
                members = [eid for kind, eid in self.containers[pid] if kind == "node"]
                out.append(f'    <bpmn:laneSet id="LaneSet_{pid}">')
                for i, (lid, lname) in enumerate(self.lanes[pid]):
                    refs = "".join(f"<bpmn:flowNodeRef>{m}</bpmn:flowNodeRef>"
                                   for m in members[i::len(self.lanes[pid])])
                    out.append(f'      <bpmn:lane id="{lid}" name={quoteattr(lname)}>{refs}</bpmn:lane>')
                out.append('    </bpmn:laneSet>')
            emit(pid, "    ")
            out.append('  </bpmn:process>')
        out.append('</bpmn:definitions>')
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Workload shapes


def _kind(rng: random.Random, kinds=GATEWAY_CATEGORIES) -> str:
    return rng.choice(kinds)


def _large_segment(b: ModelBuilder, index: int):
    """Fixed-size composite blocks; the seed only picks gateway kinds."""
    k = _kind(b.rng)
    k2 = _kind(b.rng)
    t = b.task
    shape = index % 4
    if shape == 0:
        return lambda c: b.block(c, k, [
            lambda c: b.seq(c, [t, t]),
            lambda c: b.seq(c, [t, lambda c: b.block(c, k2, [t, t]), t]),
            lambda c: b.loop(c, lambda c: b.seq(c, [t, t])),
        ])
    if shape == 1:
        return lambda c: b.subprocess(c, lambda c: b.seq(c, [
            t, lambda c: b.block(c, k, [lambda c: b.seq(c, [t, t]), t]), t]))
    if shape == 2:
        return lambda c: b.loop(c, lambda c: b.seq(c, [
            t, lambda c: b.block(c, k, [t, t, t]), t]))
    return lambda c: b.seq(c, [
        b.event, t,
        lambda c: b.block(c, k, [
            lambda c: b.seq(c, [t, lambda c: b.subprocess(c, lambda c: b.subprocess(
                c, lambda c: b.seq(c, [t, t])))]),
            t,
        ]),
    ])


def large_model(rng: random.Random, name: str) -> ModelBuilder:
    b = ModelBuilder(rng, name, unlabeled_share=0.05)
    main = b.process(lanes=4)
    segments = [_large_segment(b, i) for i in range(LARGE_SEGMENTS)]
    b.main_flow(main, lambda c: b.seq(c, segments))
    partner = b.process(lanes=2)
    b.main_flow(partner, lambda c: b.seq(c, [
        b.task, lambda c: b.block(c, "gateway-and", [b.task, b.task]), b.task]))
    b.attach_data(main, objects=12, associations=40)
    b.partner_pool(messages=6)
    return b


def _random_block(b: ModelBuilder, budget: int, depth: int, kinds=GATEWAY_CATEGORIES):
    """A random structured block of roughly ``budget`` flow nodes."""
    rng = b.rng
    if budget <= 3 or depth >= 4:
        parts = [b.event if rng.random() < 0.1 else b.task for _ in range(max(1, budget))]
        return lambda c: b.seq(c, parts)
    shape = rng.choices(("seq", "block", "loop", "sub"), weights=(3, 4, 1, 1))[0]
    if shape == "seq":
        first = rng.randint(1, budget - 1)
        return lambda c: b.seq(c, [_random_block(b, first, depth + 1, kinds),
                                   _random_block(b, budget - first, depth + 1, kinds)])
    if shape == "loop":
        return lambda c: b.loop(c, _random_block(b, budget - 2, depth + 1, kinds))
    if shape == "sub":
        return lambda c: b.subprocess(c, _random_block(b, budget - 3, depth + 1, kinds))
    width = rng.randint(2, 3)
    share = max(1, (budget - 2) // width)
    kind = _kind(rng, kinds)
    return lambda c: b.block(c, kind, [_random_block(b, share, depth + 1, kinds)
                                       for _ in range(width)])


def small_model(rng: random.Random, name: str) -> ModelBuilder:
    lo, hi = BATCH_NODE_RANGE
    while True:
        b = ModelBuilder(rng, name, unlabeled_share=0.15)
        main = b.process(lanes=rng.randint(0, 3))
        body = _random_block(b, rng.randint(lo - 4, hi - 6), 0)
        b.main_flow(main, body)
        if rng.random() < 0.5:
            b.attach_data(main, objects=rng.randint(1, 3), associations=rng.randint(1, 4))
        if rng.random() < 0.3:
            b.partner_pool(messages=rng.randint(1, 2))
        if lo <= b.flow_node_count() <= hi:
            return b


def unstructured_model(rng: random.Random, name: str, inject: bool) -> ModelBuilder:
    """Mixed exclusive/parallel blocks and loops, with no inclusive joins.

    When ``inject`` is set, one segment a quarter of the way in is an
    inclusive split closed by an exclusive join. Since the model holds no
    inclusive join at all, that split has no same-kind partner and the
    model is not block-structured.
    """
    b = ModelBuilder(rng, name, unlabeled_share=0.2)
    main = b.process(lanes=rng.randint(1, 4))
    kinds = ("gateway-xor", "gateway-and")
    segments = [_random_block(b, 12, 1, kinds) for _ in range(UNSTRUCTURED_SEGMENTS)]
    if inject:
        width = rng.randint(2, 3)
        segments[UNSTRUCTURED_SEGMENTS // 4] = lambda c: b.block(
            c, "gateway-or", [b.task] * width, join_kind="gateway-xor")
        b.structured = False
    b.main_flow(main, lambda c: b.seq(c, segments))
    b.attach_data(main, objects=3, associations=6)
    return b


def fault_ladder(position: int) -> ModelBuilder:
    """The known counter-example; independent of the seed.

    A ladder of exclusive diamonds where diamond ``position`` is an
    exclusive split closed by a parallel join. Later diamonds contribute
    exclusive joins that every branch of that split reaches, which today's
    block-structuredness check accepts as the split's partner.
    """
    b = ModelBuilder(random.Random(position), f"fault-ladder-{position:02d}", unlabeled_share=0.0)
    main = b.process(lanes=0)
    diamonds = []
    for i in range(1, FAULT_DIAMONDS + 1):
        join = "gateway-and" if i == position else "gateway-xor"
        diamonds.append(lambda c, join=join: b.block(
            c, "gateway-xor", [b.task, b.task], join_kind=join))
    b.main_flow(main, lambda c: b.seq(c, diamonds))
    b.structured = False
    return b


def minimal_model() -> ModelBuilder:
    """Start, one task, end: the fixed input of every ``setup_s`` call."""
    b = ModelBuilder(random.Random(0), "minimal", unlabeled_share=0.0)
    main = b.process(lanes=0)
    b.main_flow(main, b.task)
    return b


# ---------------------------------------------------------------------------
# Responses and the manifest


def answers_for(schema: dict, rng: random.Random) -> dict:
    answers = {}
    for question in schema["questions"]:
        if question["kind"] == "true-false":
            answers[question["id"]] = rng.random() < 0.6
        else:
            answers[question["id"]] = rng.randint(1, question["levels"])
    return answers


def _response_document(schema: dict, respondent: str, rng: random.Random) -> dict:
    return {"version": "1", "respondent": respondent,
            "schema_version": schema["version"], "answers": answers_for(schema, rng)}


WORKLOADS = {
    "large-structured": {"format": "json", "jobs": 1, "readers": 1},
    "batch-small": {"format": "json", "jobs": 2, "readers": BATCH_READERS},
    "unstructured": {"format": "csv", "jobs": 1, "readers": UNSTRUCTURED_READERS},
}


def build_models(workload: str, seed: int) -> list[tuple[ModelBuilder, bool]]:
    """(model, counts-as-known-fault) pairs, in scoring order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "large-structured":
        return [(large_model(random.Random(rng.random()), f"large-{i:02d}"), False)
                for i in range(LARGE_MODELS)]
    if workload == "batch-small":
        return [(small_model(random.Random(rng.random()), f"small-{i:03d}"), False)
                for i in range(BATCH_MODELS)]
    if workload == "unstructured":
        models = [(unstructured_model(random.Random(rng.random()), f"mixed-{i:02d}",
                                      inject=(i % 4 != 3)), False)
                  for i in range(UNSTRUCTURED_SEEDED)]
        faults = [(fault_ladder(p), True) for p in FAULT_POSITIONS]
        # interleave the fixed ladders so every pass meets them at the same spots
        step = len(models) // len(faults)
        for i, fault in enumerate(faults):
            models.insert(i * (step + 1) + step, fault)
        return models
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, out_dir: Path, config_dir: Path) -> dict:
    """Write one workload's inputs under ``out_dir``; return its manifest."""
    spec = WORKLOADS[workload]
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"responses:{workload}:{seed}")
    modeler_schema = json.loads((config_dir / "questionnaire_modeler.json").read_text())
    reader_schema = json.loads((config_dir / "questionnaire_reader.json").read_text())
    modeler = _response_document(modeler_schema, "modeler-1", rng)
    readers = [_response_document(reader_schema, f"reader-{i + 1}", rng)
               for i in range(spec["readers"])]
    response_paths = []
    for i, doc in enumerate([modeler] + readers):
        path = out_dir / ("modeler.json" if i == 0 else f"reader-{i}.json")
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        response_paths.append(str(path))

    entries = []
    for model, fault in build_models(workload, seed) + [(minimal_model(), False)]:
        path = models_dir / f"{model.name}.bpmn"
        xml = model.to_xml()
        path.write_text(xml, encoding="utf-8")
        entries.append({"name": model.name, "path": str(path), "bytes": len(xml.encode()),
                        "known_fault": fault, "expected": model.expected()})
    return {
        "workload": workload,
        "seed": seed,
        "format": spec["format"],
        "jobs": spec["jobs"],
        "models": entries[:-1],
        "minimal": entries[-1],
        "modeler_responses": response_paths[0],
        "reader_responses": response_paths[1:],
        "modeler_answers": modeler["answers"],
        "reader_answers": [r["answers"] for r in readers],
    }
