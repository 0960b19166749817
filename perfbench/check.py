"""Independent checker for ``procomp score`` output.

Stdlib only; shares no code with ``src/procomp``. It reads the evaluation
tree, questionnaire and language-descriptor documents that ``procomp init``
writes, and recomputes every value of an evaluation with plain arithmetic:

* raw structural values come from the generator's by-construction
  expectations;
* a model-derived metric's score is its raw value normalized by the
  metric's document entry (linear or inverse clamp onto [1, 10], boolean
  10/1, identity clamped), reflected as 11 - s for lower-is-better;
* language metrics use the registry: complexity 10 - 0.9 * c / max(c) with
  c the Euclidean norm of the three counts, and the supported share of the
  control-flow catalog;
* questionnaire metrics: true/false scores 10/1, a Likert level l of L maps
  to 1 + 9 (l - 1) / (L - 1), reversed questions score 11 - s, a metric is
  the mean of its questions, and reader scores are averaged over readers;
* rank weights w_k = 10^((n - k) log10(d) / (n - 1)) within each sibling
  group (d for a singleton group);
* criterion and perspective scores are weighted means, S_b the convex
  combination of S_m and S_r, and the noise list every criterion and
  metric below the threshold in ascending (score, id) order.

Multi-model output is read as it is written today (concatenated JSON
documents; CSV blocks each with its own header and no model column) and in
the forms a later fix may choose (a JSON array, JSON Lines, one CSV with a
``model`` column).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

TOL = 1e-9
QUESTIONNAIRE_SOURCES = ("modeler-questionnaire", "reader-questionnaire")
BLOCK_KEY = "block-structuredness"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Expected evaluation


class Reference:
    """Config documents plus answers: everything but the model's raw values."""

    def __init__(self, config_dir: Path, modeler_answers: dict, reader_answers: list[dict],
                 language: str = "BPMN 2.0", threshold: float = 4.0):
        config_dir = Path(config_dir)
        self.tree = json.loads((config_dir / "ett.json").read_text(encoding="utf-8"))
        schemas = {
            "modeler": json.loads((config_dir / "questionnaire_modeler.json").read_text(encoding="utf-8")),
            "reader": json.loads((config_dir / "questionnaire_reader.json").read_text(encoding="utf-8")),
        }
        descriptors = [json.loads(p.read_text(encoding="utf-8"))
                       for p in sorted((config_dir / "languages").glob("*.json"))]
        self.threshold = threshold
        self.questionnaire = dict(_questionnaire_scores(schemas["modeler"], modeler_answers))
        per_reader = [_questionnaire_scores(schemas["reader"], a) for a in reader_answers]
        for key in per_reader[0]:
            self.questionnaire[key] = sum(r[key] for r in per_reader) / len(per_reader)
        self.registry = _registry_values(descriptors, language)
        d = float(self.tree.get("survey_d", 10.0))
        iw = self.tree.get("interaction_weights", {"modeler": 0.156, "reader": 0.844})
        self.w_m, self.w_r = float(iw["modeler"]), float(iw["reader"])
        # criteria in (perspective, rank) order, each with its rank weight and
        # its metrics' rank weights
        self.criteria = []
        for perspective in ("modeler", "reader"):
            group = [c for c in self.tree["criteria"] if c["perspective"] == perspective]
            for criterion in group:
                metrics = [dict(m, _weight=_rank_weight(m, len(criterion["metrics"]), d))
                           for m in criterion["metrics"]]
                self.criteria.append({
                    "id": criterion["id"], "name": criterion.get("name", criterion["id"]),
                    "perspective": perspective,
                    "weight": _rank_weight(criterion, len(group), d),
                    "metrics": metrics,
                })

    def evaluate(self, raw_by_binding: dict[str, float]) -> dict:
        """The full evaluation for a model with these extractor values."""
        criteria = []
        for criterion in self.criteria:
            metrics = []
            for m in criterion["metrics"]:
                source = m["source"]
                binding = m.get("binding", m["id"])
                if source in QUESTIONNAIRE_SOURCES:
                    raw, score = None, self.questionnaire[m["id"]]
                else:
                    raw = (self.registry if source == "language-registry" else raw_by_binding)[binding]
                    score = _normalize(raw, m.get("normalization"), m.get("polarity"))
                metrics.append({"id": m["id"], "name": m.get("name", m["id"]), "source": source,
                                "binding": binding, "raw": raw, "score": score,
                                "weight": m["_weight"]})
            score = _weighted_mean([x["score"] for x in metrics], [x["weight"] for x in metrics])
            criteria.append({"id": criterion["id"], "name": criterion["name"],
                             "perspective": criterion["perspective"], "weight": criterion["weight"],
                             "score": score, "metrics": metrics})
        s = {}
        for perspective in ("modeler", "reader"):
            group = [c for c in criteria if c["perspective"] == perspective]
            s[perspective] = _weighted_mean([c["score"] for c in group], [c["weight"] for c in group])
        s_b = self.w_m * s["modeler"] + self.w_r * s["reader"]
        s_b = min(max(s_b, min(s.values())), max(s.values()))
        flags = []
        for c in criteria:
            if c["score"] < self.threshold:
                flags.append({"kind": "criterion", "id": c["id"], "score": c["score"],
                              "perspective": c["perspective"], "criterion": c["id"]})
            for m in c["metrics"]:
                if m["score"] < self.threshold:
                    flags.append({"kind": "metric", "id": m["id"], "score": m["score"],
                                  "perspective": c["perspective"], "criterion": c["id"]})
        flags.sort(key=lambda f: (f["score"], f["id"]))
        return {"s_m": s["modeler"], "s_r": s["reader"], "s_b": s_b,
                "criteria": criteria, "flags": flags, "threshold": self.threshold}

    def model_bindings(self) -> dict[str, str]:
        """Metric id -> extractor key, for every model-derived metric."""
        return {m["id"]: m.get("binding", m["id"]) for c in self.criteria
                for m in c["metrics"] if m["source"] == "model-derived"}


def _rank_weight(entry: dict, n: int, d: float) -> float:
    if entry.get("weight") is not None:
        return float(entry["weight"])
    k = entry["rank"]
    if n == 1:
        return d
    return 10.0 ** ((n - k) * (math.log10(d) / (n - 1)))


def _normalize(value: float, norm: dict | None, polarity: str | None) -> float:
    kind = (norm or {}).get("kind", "identity")
    if kind == "boolean":
        score = 10.0 if value else 1.0
    elif kind == "identity":
        score = min(max(value, 1.0), 10.0)
    else:
        lo, hi = norm["lo"], norm["hi"]
        fraction = (min(max(value, lo), hi) - lo) / (hi - lo)
        score = 1.0 + 9.0 * fraction if kind == "linear-clamp" else 10.0 - 9.0 * fraction
    if polarity == "lower-is-better":
        score = 11.0 - score
    return score


def _weighted_mean(scores: list[float], weights: list[float]) -> float:
    mean = sum(w * s for w, s in zip(weights, scores)) / sum(weights)
    return min(max(mean, min(scores)), max(scores))


def _questionnaire_scores(schema: dict, answers: dict) -> dict[str, float]:
    per_metric: dict[str, list[float]] = {}
    for q in schema["questions"]:
        answer = answers[q["id"]]
        if q["kind"] == "true-false":
            score = 10.0 if answer else 1.0
        else:
            score = 1.0 + 9.0 * (answer - 1) / (q["levels"] - 1)
        if q.get("polarity", "positive") == "reversed":
            score = 11.0 - score
        per_metric.setdefault(q["metric"], []).append(score)
    return {metric: sum(v) / len(v) for metric, v in per_metric.items()}


def _registry_values(descriptors: list[dict], language: str) -> dict[str, float]:
    norms = {d["name"]: math.sqrt(d["elements"] ** 2 + d["characteristics"] ** 2
                                  + d["relations"] ** 2) for d in descriptors}
    mine = next(d for d in descriptors if d["name"] == language)
    supported = sum(1.0 for p in mine.get("patterns", [])
                    if p["type"] == "control-flow" and p["support"] in ("full", "partial"))
    return {
        "complexity": 10.0 - 0.9 * (norms[language] / max(norms.values())),
        "control-flow-pattern-support": supported / mine["pattern_catalog"]["control-flow"],
    }


# ---------------------------------------------------------------------------
# Reading output


def split_output(text: str, fmt: str, names: list[str]) -> list[tuple[str, object]]:
    """(model name, parsed document or CSV rows) per model, in model order."""
    if fmt == "json":
        decoder = json.JSONDecoder()
        docs, i = [], 0
        while True:
            while i < len(text) and text[i].isspace():
                i += 1
            if i >= len(text):
                break
            obj, i = decoder.raw_decode(text, i)
            docs.extend(obj if isinstance(obj, list) else [obj])
        return [(doc.get("model"), doc) for doc in docs]
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        return []
    header = rows[0]
    if "model" in header:
        col = header.index("model")
        grouped: dict[str, list[dict]] = {}
        for row in rows[1:]:
            grouped.setdefault(row[col], []).append(dict(zip(header, row)))
        return list(grouped.items())
    blocks: list[list[dict]] = []
    for row in rows:
        if row == header:
            blocks.append([])
        else:
            blocks[-1].append(dict(zip(header, row)))
    return list(zip(names, blocks))


def _reported_raws(ids: dict[str, str], fmt: str, doc) -> dict[str, float]:
    """The program's raw value per binding, from one model's output."""
    raws: dict[str, float] = {}
    if fmt == "json":
        for c in doc["criteria"]:
            for m in c["metrics"]:
                if m["id"] in ids:
                    raws.setdefault(ids[m["id"]], m["raw"])
    else:
        for row in doc:
            if row["metric"] in ids:
                raws.setdefault(ids[row["metric"]], float(row["raw"]))
    return raws


def _compare(expected: dict, fmt: str, doc, model: str) -> list[str]:
    problems: list[str] = []

    def num(label: str, got, want) -> None:
        if want is None or got is None:
            if got is not want:
                problems.append(f"{label}: got {got!r}, want {want!r}")
        elif not isinstance(got, (int, float)) or isinstance(got, bool) or not _close(got, want):
            problems.append(f"{label}: got {got!r}, want {want!r}")

    want_metrics = {m["id"]: (c, m) for c in expected["criteria"] for m in c["metrics"]}
    if fmt == "json":
        if doc.get("model") != model:
            problems.append(f"model id {doc.get('model')!r}")
        num("S_m", doc["scores"]["modeler"], expected["s_m"])
        num("S_r", doc["scores"]["reader"], expected["s_r"])
        num("S_b", doc["scores"]["combined"], expected["s_b"])
        got_criteria = {c["id"]: c for c in doc["criteria"]}
        if set(got_criteria) != {c["id"] for c in expected["criteria"]}:
            problems.append("criterion ids differ")
        got_metrics = {}
        for c in expected["criteria"]:
            got = got_criteria.get(c["id"])
            if got is None:
                continue
            num(f"{c['id']}.score", got["score"], c["score"])
            num(f"{c['id']}.weight", got["weight"], c["weight"])
            if got["perspective"] != c["perspective"]:
                problems.append(f"{c['id']}.perspective {got['perspective']!r}")
            got_metrics.update({m["id"]: (got["id"], m) for m in got["metrics"]})
        if set(got_metrics) != set(want_metrics):
            problems.append("metric ids differ")
        for mid, (crit, m) in got_metrics.items():
            if mid not in want_metrics:
                continue
            wc, wm = want_metrics[mid]
            if crit != wc["id"] or m["source"] != wm["source"]:
                problems.append(f"{mid}: placed under {crit!r} with source {m['source']!r}")
            num(f"{mid}.raw", m["raw"], wm["raw"])
            num(f"{mid}.score", m["score"], wm["score"])
            num(f"{mid}.weight", m["weight"], wm["weight"])
        got_flags = doc["noise_flags"]
        want_flags = expected["flags"]
        if [(f["kind"], f["id"]) for f in got_flags] != [(f["kind"], f["id"]) for f in want_flags]:
            problems.append("noise list differs: got "
                            + ", ".join(f["id"] for f in got_flags) + "; want "
                            + ", ".join(f["id"] for f in want_flags))
        else:
            for g, w in zip(got_flags, want_flags):
                num(f"noise {w['id']}.score", g["score"], w["score"])
                if (g["perspective"], g["criterion"]) != (w["perspective"], w["criterion"]):
                    problems.append(f"noise {w['id']}: path {g['perspective']}/{g['criterion']}")
                num(f"noise {w['id']}.threshold", g["threshold"], expected["threshold"])
        scores = [f["score"] for f in got_flags]
        if scores != sorted(scores):
            problems.append("noise list not in ascending order")
    else:
        got_rows = {row["metric"]: row for row in doc}
        if set(got_rows) != set(want_metrics):
            problems.append("metric ids differ")
        for mid, row in got_rows.items():
            if mid not in want_metrics:
                continue
            wc, wm = want_metrics[mid]
            if (row["criterion"], row["perspective"]) != (wc["id"], wc["perspective"]):
                problems.append(f"{mid}: placed under {row['perspective']}/{row['criterion']}")
            raw = None if row["raw"] == "" else float(row["raw"])
            num(f"{mid}.raw", raw, wm["raw"])
            num(f"{mid}.score", float(row["normalized"]), wm["score"])
            num(f"{mid}.weight", float(row["weight"]), wm["weight"])
    return problems


def check_model(ref: Reference, entry: dict, fmt: str, doc) -> tuple[str, list[str]]:
    """Verdict for one model's output: "ok", "known-fault" or "wrong".

    The raw structural values are compared with the by-construction ones.
    Every score is recomputed from the raw values the program reported, so
    a raw-value fault does not hide an arithmetic one. A model flagged as
    holding the known block-structuredness fault counts as "known-fault"
    when its only deviation is that value.
    """
    expected = entry["expected"]
    bindings = ref.model_bindings()
    reported = _reported_raws(bindings, fmt, doc)
    raw_problems = [f"raw {key}: got {reported.get(key)!r}, want {value!r}"
                    for key, value in expected.items()
                    if key in reported and not _close(reported[key], value)]
    missing = set(bindings.values()) - set(reported)
    recomputed = ref.evaluate({**expected, **reported})
    problems = raw_problems + [f"raw {k}: missing" for k in sorted(missing)]
    problems += _compare(recomputed, fmt, doc, entry["name"])
    if not problems:
        return "ok", []
    only_block = (not missing and not problems[len(raw_problems):]
                  and [p.split(":")[0] for p in raw_problems] == [f"raw {BLOCK_KEY}"]
                  and reported[BLOCK_KEY] == 1.0 and expected[BLOCK_KEY] == 0.0)
    if entry["known_fault"] and only_block:
        return "known-fault", problems
    return "wrong", problems


def check_output(ref: Reference, entries: list[dict], fmt: str, text: str) -> list[tuple[str, str, list[str]]]:
    """(model, verdict, problems) for every model of one invocation."""
    names = [e["name"] for e in entries]
    try:
        parts = split_output(text, fmt, names)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        return [(n, "wrong", [f"unreadable output: {exc!r}"]) for n in names]
    by_name = {name: doc for name, doc in parts}
    if len(parts) != len(entries) or set(by_name) != set(names):
        got = [name for name, _ in parts]
        return [(n, "wrong", [f"output holds models {got[:5]}... not {names[:5]}..."])
                for n in names]
    results = []
    for entry in entries:
        try:
            verdict, problems = check_model(ref, entry, fmt, by_name[entry["name"]])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            verdict, problems = "wrong", [f"malformed output: {exc!r}"]
        results.append((entry["name"], verdict, problems))
    return results


def self_test(ref: Reference, entries: list[dict], fmt: str, text: str) -> list[str]:
    """Tamper with a correct output and confirm that each change is caught.

    Returns the alterations that went unnoticed (an empty list passes).
    """
    names = [e["name"] for e in entries]
    parts = split_output(text, fmt, names)
    index = next((i for i, e in enumerate(entries)
                  if check_model(ref, e, fmt, parts[i][1])[0] == "ok"), None)
    if index is None:  # nothing passed, so there is nothing to tamper with
        return []
    entry, (_, doc) = entries[index], parts[index]
    missed = []

    def caught(mutated) -> bool:
        return check_model(ref, entry, fmt, mutated)[0] == "wrong"

    if fmt == "json":
        def mutate(change):
            copy = json.loads(json.dumps(doc))
            change(copy)
            return copy

        def first_raw(d):
            m = next(m for c in d["criteria"] for m in c["metrics"] if m["raw"] is not None
                     and m["source"] == "model-derived")
            m["raw"] += 1.0

        def first_score(d):
            m = d["criteria"][0]["metrics"][0]
            m["score"] = m["score"] + 0.01 if m["score"] < 9.0 else m["score"] - 0.01

        def combined(d):
            d["scores"]["combined"] += 0.001

        def noise(d):
            if d["noise_flags"]:
                d["noise_flags"][0]["score"] += 0.001
            else:
                d["noise_flags"].append({"kind": "metric", "id": "m-info-method",
                                         "name": "x", "score": 1.0, "threshold": 4.0,
                                         "perspective": "modeler", "criterion": "m-information"})

        cases = {"raw": first_raw, "score": first_score, "S_b": combined, "noise": noise}
        for label, change in cases.items():
            if not caught(mutate(change)):
                missed.append(label)
    else:
        def mutate_row(column, delta):
            rows = [dict(r) for r in doc]
            row = next(r for r in rows if r["raw"] != "") if column == "raw" else rows[0]
            row[column] = repr(float(row[column]) + delta)
            return rows

        for label, rows in {"raw": mutate_row("raw", 1.0),
                            "score": mutate_row("normalized", 0.01)}.items():
            if not caught(rows):
                missed.append(label)
    return missed
