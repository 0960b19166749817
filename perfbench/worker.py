"""In-process timing of the library path, untraced and traced.

Run by ``run.py`` in a child interpreter whose ``PYTHONPATH`` holds the
checkout's ``src``:

    python3 perfbench/worker.py JOB.json RESULT.json

``JOB.json`` names the models, the response files, the report format and
the mode. Config and responses are loaded once; a round then sends every
model through ``parse_model_file`` -> ``evaluate_model`` -> ``export``.

* ``serve``: one untraced round per ``round`` line on standard input, so
  that the caller can interleave rounds with its own timed invocations;
  ``end`` writes the result.
* ``trace``: untraced and traced rounds alternate until the job's time
  budget is spent. Traced rounds record spans around the public calls of
  every module on the ``score`` path, from outside: the names
  ``procomp.pipeline`` looks up at call time and the entries of
  ``procomp.metrics.EXTRACTORS`` are swapped for timing wrappers in this
  process only. Spans stay in memory and are summarised per round. The
  time a wrapper adds to one call is measured on an empty function.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

import procomp
from procomp import metrics, pipeline
from procomp.bpmn import parse_model_file
from procomp.defaults import (
    builtin_language_registry,
    default_ett,
    default_modeler_schema,
    default_reader_schema,
)
from procomp.questionnaire import load_responses_file
from procomp.report import export

# names procomp.pipeline looks up while evaluating, with their span names
PIPELINE_CALLS = {
    "ensure_weighted": "ett.ensure_weighted",
    "validate_schema": "questionnaire.validate_schema",
    "extract_metrics": "metrics.extract",
    "language_metric_values": "languages.registry_values",
    "score_responses": "questionnaire.score_responses",
    "detect_noise": "scoring.detect_noise",
}
REPEATS = 5
WRAPPER_CALLS = 20000


class Tracer:
    """Spans as [name, parent index, start, end], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end

        return traced

    def summary(self) -> dict:
        """Totals and counts by span name, evaluate's self time, and the
        extractor calls made under each ``metrics.extract`` span."""
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        children: dict[int, float] = {}
        extract_calls: dict[int, list[str]] = {}
        for name, parent, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            counts[name] = counts.get(name, 0) + 1
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
                if self.spans[parent][0] == "metrics.extract":
                    extract_calls.setdefault(parent, []).append(name)
        self_time = sum(end - start - children.get(i, 0.0)
                        for i, (name, _, start, end) in enumerate(self.spans)
                        if name == "pipeline.evaluate")
        return {"totals": totals, "counts": counts, "pipeline_self_s": self_time,
                "extractor_calls": [len(v) for v in extract_calls.values()],
                "distinct_bindings": [len(set(v)) for v in extract_calls.values()]}


class Session:
    """Loaded config and responses, and the calls a round makes."""

    def __init__(self, job: dict):
        self.job = job
        self.models = job["models"]
        self.fmt = job["format"]
        self.other = "csv" if self.fmt == "json" else "json"
        self.config = (default_ett(), default_modeler_schema(), default_reader_schema(),
                       builtin_language_registry())
        self.modeler = load_responses_file(job["modeler_responses"])
        self.readers = [load_responses_file(p) for p in job["reader_responses"]]
        self.times: dict[str, list[list[float]]] = {"untraced": [], "traced": []}
        self.digests: dict[str, set[str]] = {"untraced": set(), "traced": set()}
        self.outputs: dict[str, str] = {}
        self.spans: list[dict] = []
        self.flow_nodes = 0

    def round(self, tracer: Tracer | None = None, extra: bool = False) -> None:
        """One pass over all models. Only parse, evaluate and the workload's
        export are inside a model's time. The first round of each kind, and
        every round with ``extra``, also export the other format."""
        label = "untraced" if tracer is None else "traced"
        extra = extra or not self.times[label]
        calls = {"parse": parse_model_file, "evaluate": pipeline.evaluate_model,
                 "json": export, "csv": export}
        saved = {}
        if tracer is not None:
            saved = {name: getattr(pipeline, name) for name in PIPELINE_CALLS
                     if hasattr(pipeline, name)}
            saved_extractors = dict(metrics.EXTRACTORS)
            for name, fn in saved.items():
                setattr(pipeline, name, tracer.wrap(PIPELINE_CALLS[name], fn))
            for key, fn in saved_extractors.items():
                metrics.EXTRACTORS[key] = tracer.wrap(f"metrics.{key}", fn)
            calls = {"parse": tracer.wrap("bpmn.parse", parse_model_file),
                     "evaluate": tracer.wrap("pipeline.evaluate", pipeline.evaluate_model),
                     "json": tracer.wrap("report.export_json", export),
                     "csv": tracer.wrap("report.export_csv", export)}
        tree, modeler_schema, reader_schema, registry = self.config
        times, bodies, flow_nodes = [], {self.fmt: [], self.other: []}, 0
        try:
            for entry in self.models:
                start = time.perf_counter()
                graph = calls["parse"](entry["path"])
                evaluation = calls["evaluate"](graph, tree, registry, self.modeler, self.readers,
                                               modeler_schema, reader_schema,
                                               model_id=entry["name"])
                bodies[self.fmt].append(calls[self.fmt](evaluation, self.fmt).body)
                times.append(time.perf_counter() - start)
                if extra:
                    bodies[self.other].append(calls[self.other](evaluation, self.other).body)
                flow_nodes += len(graph.flow_nodes())
        finally:
            for name, fn in saved.items():
                setattr(pipeline, name, fn)
            if tracer is not None:
                metrics.EXTRACTORS.update(saved_extractors)
        self.times[label].append(times)
        self.digests[label].add(hashlib.sha256("\n".join(bodies[self.fmt]).encode()).hexdigest())
        for f, b in bodies.items():
            if b:
                self.outputs.setdefault(f"{label}.{f}", "\n".join(b))
        self.flow_nodes = flow_nodes
        if tracer is not None:
            self.spans.append(tracer.summary())

    def result(self) -> dict:
        out_dir = Path(self.job["outputs"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for key, text in self.outputs.items():
            (out_dir / key).write_text(text, encoding="utf-8")
        return {
            "model_ms": {label: [[t * 1000.0 for t in r] for r in rounds]
                         for label, rounds in self.times.items()},
            "distinct_outputs": {label: len(d) for label, d in self.digests.items()},
            "outputs": sorted(self.outputs),
            "flow_nodes": self.flow_nodes,
            "spans": self.spans,
        }


def _fastest(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def _wrapper_call_s() -> float:
    """Time a span wrapper adds to one call, measured on an empty function."""

    def noop(value):
        return value

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(WRAPPER_CALLS):
            fn(None)
        return (time.perf_counter() - start) / WRAPPER_CALLS

    bare = min(per_call(noop) for _ in range(REPEATS))
    wrapped = min(per_call(Tracer().wrap("noop", noop)) for _ in range(REPEATS))
    return max(wrapped - bare, 0.0)


def trace(session: Session) -> dict:
    job = session.job
    deadline = time.perf_counter() + float(job["seconds"])
    while True:
        session.round(extra=True)
        session.round(Tracer(), extra=True)
        if time.perf_counter() >= deadline:
            break
    result = session.result()
    result["defaults_load_s"] = _fastest(lambda: (
        default_ett(), default_modeler_schema(), default_reader_schema(),
        builtin_language_registry()))
    result["load_responses_s"] = _fastest(lambda: [
        load_responses_file(p) for p in [job["modeler_responses"], *job["reader_responses"]]])
    largest = max(session.models, key=lambda e: e["bytes"])
    graph = parse_model_file(largest["path"])
    tracemalloc.start()
    metrics.EXTRACTORS["block-structuredness"](graph)
    result["block_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result["bytes"] = sum(e["bytes"] for e in session.models)
    result["wrapper_call_s"] = _wrapper_call_s()
    return result


def serve(session: Session) -> dict:
    for line in sys.stdin:
        command = line.strip()
        if command == "end":
            break
        if command != "round":
            raise ValueError(f"unknown command {command!r}")
        session.round()
        sys.stdout.write("ok\n")
        sys.stdout.flush()
    return session.result()


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    if src not in Path(procomp.__file__).resolve().parents:
        print(f"procomp imported from {procomp.__file__}, not from {src}", file=sys.stderr)
        return 2
    session = Session(job)
    result = trace(session) if job["mode"] == "trace" else serve(session)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
