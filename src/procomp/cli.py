"""Command-line interface wiring the library end to end."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import defaults
from .bpmn import parse_model_file
from .errors import (
    ConfigError,
    ExtractionError,
    ModelParseError,
    ProcompError,
    ResponseError,
    ScoringError,
)
from .documents import read_json_object
from .ett import build_ett, load_ett_file, serialize_ett, validate_ett
from .languages import (
    complexity_score,
    load_descriptor_file,
    normalize_complexity,
    pattern_score,
)
from .metrics import EXTRACTORS
from .pipeline import ScoringPlan, compile_plan
from .questionnaire import (
    QuestionKind,
    QuestionnaireSchema,
    ResponseSet,
    load_responses_file,
    load_schema_file,
    serialize_responses,
)
from .ranking import (
    MethodKind,
    RankMethod,
    compare_methods,
    load_survey_csv,
    rank_items,
)
from .report import ReportFormat, batch_entry, export, frame_batch

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2

CONFIG_DIR_ENV = "PROCOMP_CONFIG_DIR"


def _config_file(path: str | None, name: str) -> Path | None:
    """``path`` if given, else ``name`` in the config directory if it exists."""
    if path:
        return Path(path)
    config = os.environ.get(CONFIG_DIR_ENV)
    found = Path(config) / name if config else None
    return found if found and found.exists() else None


def _resolve_schema(path: str | None, perspective: str) -> QuestionnaireSchema:
    found = _config_file(path, f"questionnaire_{perspective}.json")
    if found:
        return load_schema_file(found)
    if perspective == "modeler":
        return defaults.default_modeler_schema()
    return defaults.default_reader_schema()


def _resolve_registry(paths: list[str] | None):
    if not paths:
        found = _config_file(None, "languages")
        paths = sorted(found.glob("*.json")) if found and found.is_dir() else []
    return tuple(load_descriptor_file(p) for p in paths) or defaults.builtin_language_registry()


def _parse_weights(value: str) -> tuple[float, float]:
    try:
        w_m, w_r = (float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must look like '0.156,0.844', got {value!r}"
        ) from None
    if not (math.isfinite(w_m) and math.isfinite(w_r)):
        raise argparse.ArgumentTypeError(f"weights must be finite numbers, got {value!r}")
    return (w_m, w_r)


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _emit(pieces: list[str], output: str | None) -> None:
    """Write the pieces one after another, so that no joined copy is made."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _score_entry(plan: ScoringPlan, fmt: str, model_path: str) -> str:
    """One model's entry in a multi-model report."""
    graph = parse_model_file(model_path)
    return batch_entry(plan.evaluate(graph, model_id=Path(model_path).stem), fmt)


# the plan and the report format, set in each worker process by the pool's initializer
_worker_state: tuple[ScoringPlan, str] | None = None


def _init_worker(plan: ScoringPlan, fmt: str) -> None:
    global _worker_state
    _worker_state = (plan, fmt)


def _worker_entry(model_path: str) -> str:
    return _score_entry(*_worker_state, model_path)


def _cmd_score(args) -> int:
    ett_path = _config_file(args.ett, "ett.json")
    tree = load_ett_file(ett_path) if ett_path else defaults.default_ett()
    modeler_schema = _resolve_schema(args.schema_modeler, "modeler")
    reader_schema = _resolve_schema(args.schema_reader, "reader")
    registry = _resolve_registry(args.languages)
    modeler_responses = load_responses_file(args.modeler_responses)
    reader_responses = [load_responses_file(p) for p in args.reader_responses]
    plan = compile_plan(
        tree,
        registry,
        modeler_responses,
        reader_responses,
        modeler_schema,
        reader_schema,
        noise_threshold=args.threshold,
        interaction_weights=args.weights,
        language=args.language,
    )
    models: list[str] = args.model

    if len(models) == 1:
        graph = parse_model_file(models[0])
        evaluation = plan.evaluate(graph, model_id=Path(models[0]).stem)
        _emit([export(evaluation, args.format).body], args.output)
        return EXIT_OK
    workers = min(args.jobs, len(models), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that scoring one model imports no pool machinery
        from concurrent.futures import ProcessPoolExecutor

        # the platform's default start method: the plan pickles for spawn and forkserver
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(plan, args.format)) as pool:
            chunksize = -(-len(models) // (4 * workers))
            parts = list(pool.map(_worker_entry, models, chunksize=chunksize))
    else:
        parts = [_score_entry(plan, args.format, m) for m in models]
    _emit(frame_batch(parts, args.format), args.output)
    return EXIT_OK


def _cmd_ett_validate(args) -> int:
    ett_path = _config_file(args.ett, "ett.json")
    # built without load_ett's invariant checks, so that every violation is reported
    tree = build_ett(read_json_object(ett_path)) if ett_path else defaults.default_ett()
    report = validate_ett(tree)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_survey_rank(args) -> int:
    dataset = load_survey_csv(args.dataset, respondent_count=args.respondents)
    if args.compare:
        lines = []
        for row in compare_methods(dataset):
            ordering = " > ".join(row.ordering)
            lines.append(f"{row.method:<22} {row.growth:<12} {ordering}")
        _emit(["\n".join(lines) + "\n"], args.output)
        return EXIT_OK
    kind = MethodKind(args.method)
    param = {MethodKind.DNLOG: args.d, MethodKind.RANK_EXPONENT: args.p}.get(kind)
    method = RankMethod(kind, param)
    lines = [f"rank  score       item   (method: {method.label})"]
    for position, (item, score) in enumerate(rank_items(dataset, method), start=1):
        lines.append(f"{position:>4}  {score:.6f}  {item}")
    _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def _cmd_language_compare(args) -> int:
    registry = _resolve_registry(args.languages)
    normalized = normalize_complexity(registry, full_range=args.full_range)
    lines = [f"{'language':<24} {'norm':>8} {'score':>6} {'patterns':>8}  support per type"]
    for descriptor in sorted(registry, key=lambda d: d.name):
        total, percentages = pattern_score(descriptor, partial_weight=args.partial_weight)
        shares = "  ".join(
            f"{ptype.value}={share:.0%}" for ptype, share in sorted(
                percentages.items(), key=lambda kv: kv[0].value
            )
        )
        lines.append(
            f"{descriptor.name:<24} {complexity_score(descriptor):>8.2f} "
            f"{normalized[descriptor.name]:>6.2f} {total:>8g}  {shares}"
        )
    _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def _cmd_model_inspect(args) -> int:
    graph = parse_model_file(args.model)
    if args.format == "json":
        document = {
            "language": graph.language,
            "nodes": [
                {"id": n.id, "kind": n.kind.value, "label": n.label, "parent": n.parent}
                for n in graph.nodes
            ],
            "edges": [
                {"id": e.id, "source": e.source, "target": e.target, "kind": e.kind.value}
                for e in graph.edges
            ],
            "warnings": list(graph.warnings),
            "metrics": {key: fn(graph) for key, fn in sorted(EXTRACTORS.items())},
        }
        _emit([json.dumps(document, indent=2) + "\n"], args.output)
        return EXIT_OK
    lines = [f"model: {args.model} ({graph.language})", "", "nodes:"]
    for node in graph.nodes:
        label = f"  {node.label!r}" if node.label else ""
        nested = f"  (in {node.parent})" if node.parent else ""
        lines.append(f"  {node.id:<16} {node.kind.value}{label}{nested}")
    lines.append("edges:")
    for edge in graph.edges:
        lines.append(f"  {edge.id:<16} {edge.source} -> {edge.target}  [{edge.kind.value}]")
    if graph.warnings:
        lines.append("warnings:")
        lines.extend(f"  {w}" for w in graph.warnings)
    lines.append("metrics:")
    for key, fn in sorted(EXTRACTORS.items()):
        lines.append(f"  {key:<26} {fn(graph):g}")
    _emit(["\n".join(lines) + "\n"], args.output)
    return EXIT_OK


def _cmd_questionnaire_fill(args) -> int:
    if args.schema in ("modeler", "reader"):
        schema = _resolve_schema(None, args.schema)
    else:
        schema = load_schema_file(args.schema)
    answers: dict[str, bool | int] = {}
    print(f"{schema.perspective.value} questionnaire, {len(schema.questions)} questions")
    for index, question in enumerate(schema.questions, start=1):
        if question.kind is QuestionKind.TRUE_FALSE:
            prompt = f"[{index}/{len(schema.questions)}] {question.text} (y/n): "
        else:
            prompt = (
                f"[{index}/{len(schema.questions)}] {question.text} "
                f"(1-{question.levels}): "
            )
        sys.stdout.write(prompt)
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            raise ProcompError(f"input ended before question {question.id}")
        value = line.strip().lower()
        if question.kind is QuestionKind.TRUE_FALSE:
            if value in ("y", "yes", "true", "1"):
                answers[question.id] = True
            elif value in ("n", "no", "false", "0"):
                answers[question.id] = False
            else:
                raise ProcompError(f"expected y/n for {question.id}, got {value!r}")
        else:
            try:
                level = int(value)
            except ValueError:
                raise ProcompError(f"expected an integer for {question.id}, got {value!r}") from None
            if not 1 <= level <= question.levels:
                raise ProcompError(
                    f"level {level} outside [1, {question.levels}] for {question.id}"
                )
            answers[question.id] = level
    responses = ResponseSet(
        respondent=args.respondent,
        schema_version=schema.version,
        answers=answers,
    )
    Path(args.output).write_text(
        json.dumps(serialize_responses(responses), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_init(args) -> int:
    target = Path(args.directory)
    files: dict[Path, dict] = {
        target / "ett.json": serialize_ett(defaults.default_ett()),
        target / "questionnaire_modeler.json": defaults.modeler_questionnaire_document(),
        target / "questionnaire_reader.json": defaults.reader_questionnaire_document(),
    }
    for slug, document in defaults.default_language_documents().items():
        files[target / "languages" / f"{slug}.json"] = document
    existing = [str(path) for path in files if path.exists()]
    if existing and not args.force:
        raise ProcompError(
            "refusing to overwrite existing files (use --force): " + ", ".join(existing)
        )
    for path, document in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procomp",
        description="Score the comprehensibility of business process models.",
        epilog="exit codes: 0 success, 1 validation failure, 2 input error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="run the full scoring pipeline on a model")
    score.add_argument("--model", action="append", required=True,
                       help="BPMN model file (repeat to score several)")
    score.add_argument("--modeler-responses", required=True,
                       help="modeler questionnaire response file")
    score.add_argument("--reader-responses", nargs="+", required=True,
                       help="reader questionnaire response file(s)")
    score.add_argument("--ett", help="evaluation tree config (default: built-in)")
    score.add_argument("--schema-modeler", help="modeler questionnaire schema file")
    score.add_argument("--schema-reader", help="reader questionnaire schema file")
    score.add_argument("--languages", nargs="+", help="language descriptor file(s)")
    score.add_argument("--language", help="override the model's language name")
    score.add_argument("--format", default="text",
                       choices=[f.value for f in ReportFormat])
    score.add_argument("--output", help="write the report here instead of stdout")
    score.add_argument("--threshold", type=float, default=4.0,
                       help="noise threshold (default 4.0)")
    score.add_argument("--weights", type=_parse_weights,
                       help="override interaction weights, e.g. 0.156,0.844")
    score.add_argument("--jobs", type=_positive_int, default=1,
                       help="score several models in up to this many worker processes "
                            "(capped by the model count and the CPUs)")
    score.set_defaults(handler=_cmd_score)

    ett = sub.add_parser("ett", help="evaluation tree utilities")
    ett_sub = ett.add_subparsers(dest="ett_command", required=True)
    ett_validate = ett_sub.add_parser("validate", help="check a tree config")
    ett_validate.add_argument("--ett", help="tree config file (default: built-in)")
    ett_validate.set_defaults(handler=_cmd_ett_validate)

    survey = sub.add_parser("survey", help="survey analysis utilities")
    survey_sub = survey.add_subparsers(dest="survey_command", required=True)
    survey_rank = survey_sub.add_parser("rank", help="rank items from placement data")
    survey_rank.add_argument("dataset", help="CSV with columns item, rank, fraction")
    survey_rank.add_argument("--method", default="dnlog",
                             choices=[k.value for k in MethodKind])
    survey_rank.add_argument("--d", type=float, default=10.0,
                             help="top weight for dnlog (default 10)")
    survey_rank.add_argument("--p", type=float, default=2.0,
                             help="power for rank-exponent (default 2)")
    survey_rank.add_argument("--respondents", type=int, default=1)
    survey_rank.add_argument("--compare", action="store_true",
                             help="tabulate all five weighting methods")
    survey_rank.add_argument("--output")
    survey_rank.set_defaults(handler=_cmd_survey_rank)

    language = sub.add_parser("language", help="modeling language utilities")
    language_sub = language.add_subparsers(dest="language_command", required=True)
    language_compare = language_sub.add_parser("compare", help="compare registered languages")
    language_compare.add_argument("--languages", nargs="+",
                                  help="descriptor file(s) (default: built-in registry)")
    language_compare.add_argument("--partial-weight", type=float, default=1.0)
    language_compare.add_argument("--full-range", action="store_true",
                                  help="spread scores over all of [1, 10]")
    language_compare.add_argument("--output")
    language_compare.set_defaults(handler=_cmd_language_compare)

    model = sub.add_parser("model", help="process model utilities")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    model_inspect = model_sub.add_parser("inspect", help="dump a parsed model and its metrics")
    model_inspect.add_argument("model", help="BPMN model file")
    model_inspect.add_argument("--format", default="text", choices=["text", "json"])
    model_inspect.add_argument("--output")
    model_inspect.set_defaults(handler=_cmd_model_inspect)

    questionnaire = sub.add_parser("questionnaire", help="questionnaire utilities")
    questionnaire_sub = questionnaire.add_subparsers(dest="questionnaire_command", required=True)
    fill = questionnaire_sub.add_parser("fill", help="answer a questionnaire interactively")
    fill.add_argument("--schema", required=True,
                      help="'modeler', 'reader', or a schema file path")
    fill.add_argument("--respondent", required=True, help="respondent id")
    fill.add_argument("--output", required=True, help="response file to write")
    fill.set_defaults(handler=_cmd_questionnaire_fill)

    init = sub.add_parser("init", help="write the default config files")
    init.add_argument("directory", nargs="?", default=".",
                      help="target directory (default: current)")
    init.add_argument("--force", action="store_true", help="overwrite existing files")
    init.set_defaults(handler=_cmd_init)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ResponseError, ScoringError, ExtractionError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report:
            for issue in report:
                print(f"  {issue.code}: {issue.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, ModelParseError, ProcompError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
