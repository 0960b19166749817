"""Command-line interface wiring the library end to end.

Run as the program (``main()`` with no ``argv``: the ``procomp`` console
script or ``python -m procomp.cli``), ``main`` first calls ``gc.freeze()``:
what the imports built lives until exit anyway, so the collections at
exit, and those in ``--jobs`` workers forked later, need not walk it.
``main(argv)`` never freezes, so a library caller or a test keeps its
collector as it was. Either way ``main`` builds the parser of the invoked
command alone; the top-level help, and the errors of the top-level
parser, come from the full ``build_parser()``.

``score`` with several ``--model``s writes what ``procomp.batch.score_batch``
yields, which runs the ``--jobs`` worker processes; that module is imported
only then, so scoring one model loads no process machinery.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import Iterable

from . import defaults
from .bpmn import LANGUAGE, model_id, parse_model_file
from .errors import ProcompError, ResponseError, ScoringError
from .documents import read_document
from .ett import DEFAULT_INTERACTION_WEIGHTS, build_ett, load_ett_file, validate_ett
from .languages import (
    LanguageDescriptor,
    complexity_score,
    load_descriptor_file,
    normalize_complexity,
    pattern_score,
)
from .metrics import EXTRACTORS
from .pipeline import compile_plan
from .questionnaire import (
    QuestionKind,
    ResponseSet,
    level_out_of_range,
    load_responses_file,
    load_schema_file,
    serialize_responses,
)
from .ranking import (
    DEFAULT_D,
    DEFAULT_P,
    MethodKind,
    RankMethod,
    compare_methods,
    load_survey_csv,
    rank_items,
)
from .records import replace
from .report import ReportFormat, export
from .scoring import DEFAULT_NOISE_THRESHOLD

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command that Ctrl-C stopped

CONFIG_DIR_ENV = "PROCOMP_CONFIG_DIR"
_WEIGHTS_EXAMPLE = ",".join(map(str, DEFAULT_INTERACTION_WEIGHTS))  # as --weights takes them


def _load_registry(source: list[str] | Path) -> tuple[LanguageDescriptor, ...]:
    """The descriptor files listed, or those in a directory; the built-in registry if none."""
    paths = sorted(source.glob("*.json")) if isinstance(source, Path) else source
    return tuple(load_descriptor_file(p) for p in paths) or defaults.builtin_language_registry()


# each config document: its name in the config directory and in what init
# writes, its reader, and its built-in default
_CONFIG = {
    "ett": ("ett.json", load_ett_file, defaults.default_ett),
    "modeler": ("questionnaire_modeler.json", load_schema_file, defaults.default_modeler_schema),
    "reader": ("questionnaire_reader.json", load_schema_file, defaults.default_reader_schema),
    "registry": ("languages", _load_registry, defaults.builtin_language_registry),
}


def _config(document: str, path=None, load=None):
    """The config ``document``: ``load``, or else its reader, of ``path`` if
    given, else of its file in the config directory if it exists there,
    else its built-in default."""
    name, read, default = _CONFIG[document]
    if not path:
        directory = os.environ.get(CONFIG_DIR_ENV)
        path = Path(directory) / name if directory else None
        if not (path and path.exists()):
            return default()
    return (load or read)(path)


def _finite_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    return number


def _parse_weights(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"weights must look like '{_WEIGHTS_EXAMPLE}', got {value!r}"
        )
    return tuple(_finite_float(part) for part in parts)


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the ``output`` file, or to standard output."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_batch(pieces: Iterable[str], output: str | None) -> None:
    """Write a multi-model report as ``pieces`` yields it, so that a failure
    part-way leaves the destination as it was.

    The pieces go to an anonymous spool file in the system temp directory,
    which is copied to the ``output`` file, or to standard output, once the
    report is complete.
    """
    # imported here, like procomp.batch, so that scoring one model imports neither
    import shutil
    import tempfile

    # newline="": the spool gives back exactly the text written to it
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        spool.writelines(pieces)
        spool.seek(0)
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                shutil.copyfileobj(spool, fh)
        else:
            shutil.copyfileobj(spool, sys.stdout)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _check_model_ids(models: list[str]) -> None:
    """Refuse two models with one id, which a batch report could not tell apart."""
    model_paths: dict[str, str] = {}  # model id -> the path it comes from
    for model in models:
        key = model_id(model)
        if key in model_paths:
            raise ProcompError(f"models {model_paths[key]} and {model} have one model id, "
                               f"{key!r}: give each model its own file name")
        model_paths[key] = model


def _cmd_score(args) -> int:
    models: list[str] = args.model
    _check_model_ids(models)
    tree = _config("ett", args.ett)
    if args.weights is not None:
        tree = replace(tree, interaction_weights=args.weights)
    modeler_schema = _config("modeler", args.schema_modeler)
    reader_schema = _config("reader", args.schema_reader)
    registry = _config("registry", args.languages)
    modeler_responses = load_responses_file(args.modeler_responses)
    reader_responses = [load_responses_file(p) for p in args.reader_responses]
    plan = compile_plan(tree, registry, modeler_responses, reader_responses, modeler_schema, reader_schema,
                        noise_threshold=args.threshold, language=args.language)

    if len(models) == 1:
        graph = parse_model_file(models[0])
        evaluation = plan.evaluate(graph, model_id=model_id(models[0]))
        _emit(export(evaluation, args.format).body, args.output)
        return EXIT_OK
    from .batch import score_batch  # imported here, so that scoring one model loads no worker code

    # closing stops the workers, whatever ends the batch
    with closing(score_batch(plan, models, args.format, args.jobs)) as pieces:
        _write_batch(pieces, args.output)
    return EXIT_OK


def _cmd_ett_validate(args) -> int:
    # built without load_ett's invariant checks, so that every violation is reported
    tree = _config("ett", args.ett, load=lambda path: read_document(path, build_ett))
    findings = validate_ett(tree)
    print("\n".join(f"{f.severity}: [{f.code}] {f.path}: {f.message}" for f in findings)
          or "tree is valid")
    return EXIT_VALIDATION if any(f.severity == "error" for f in findings) else EXIT_OK


def _cmd_survey_rank(args) -> int:
    dataset = load_survey_csv(args.dataset)
    if args.compare:
        lines = []
        for row in compare_methods(dataset):
            ordering = " > ".join(row.ordering)
            lines.append(f"{row.method:<22} {row.growth:<12} {ordering}")
        _emit("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    kind = MethodKind(args.method)
    param = {MethodKind.DNLOG: args.d, MethodKind.RANK_EXPONENT: args.p}.get(kind)
    method = RankMethod(kind, param)
    lines = [f"rank  score       item   (method: {method.label})"]
    for position, (item, score) in enumerate(rank_items(dataset, method), start=1):
        lines.append(f"{position:>4}  {score:.6f}  {item}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_language_compare(args) -> int:
    registry = _config("registry", args.languages)
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
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_model_inspect(args) -> int:
    graph = parse_model_file(args.model)
    if args.format == "json":
        document = {
            "language": LANGUAGE,
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
        _emit(json.dumps(document, indent=2) + "\n", args.output)
        return EXIT_OK
    lines = [f"model: {args.model} ({LANGUAGE})", "", "nodes:"]
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
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_questionnaire_fill(args) -> int:
    schema = (_config(args.schema) if args.schema in ("modeler", "reader")
              else load_schema_file(args.schema))
    answers: dict[str, bool | int] = {}
    print(f"{schema.perspective.value} questionnaire, {len(schema.questions)} questions")
    for index, question in enumerate(schema.questions, start=1):
        scale = "y/n" if question.kind is QuestionKind.TRUE_FALSE else f"1-{question.levels}"
        sys.stdout.write(f"[{index}/{len(schema.questions)}] {question.text} ({scale}): ")
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
            if problem := level_out_of_range(question, level):
                raise ProcompError(f"{problem} for {question.id}")
            answers[question.id] = level
    responses = ResponseSet(respondent=args.respondent, schema_version=schema.version, answers=answers)
    Path(args.output).write_text(
        json.dumps(serialize_responses(responses), indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_init(args) -> int:
    target = Path(args.directory)
    files: dict[Path, dict] = {
        target / _CONFIG["ett"][0]: defaults.default_ett_document(),
        target / _CONFIG["modeler"][0]: defaults.modeler_questionnaire_document(),
        target / _CONFIG["reader"][0]: defaults.reader_questionnaire_document(),
    }
    for slug, document in defaults.default_language_documents().items():
        files[target / _CONFIG["registry"][0] / f"{slug}.json"] = document
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


def _add_score(sub) -> None:
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
    score.add_argument("--language", help=f"language to score the model in (default: {LANGUAGE})")
    score.add_argument("--format", default="text",
                       choices=[f.value for f in ReportFormat])
    score.add_argument("--output", help="write the report here instead of stdout")
    score.add_argument("--threshold", type=_finite_float, default=DEFAULT_NOISE_THRESHOLD,
                       help=f"noise threshold (default {DEFAULT_NOISE_THRESHOLD})")
    score.add_argument("--weights", type=_parse_weights,
                       help=f"override interaction weights, e.g. {_WEIGHTS_EXAMPLE}")
    score.add_argument("--jobs", type=_positive_int, default=1,
                       help="score several models in up to this many worker processes "
                            "(capped by the model count and the CPUs)")
    score.set_defaults(handler=_cmd_score)


def _add_ett(sub) -> None:
    ett = sub.add_parser("ett", help="evaluation tree utilities")
    ett_sub = ett.add_subparsers(dest="ett_command", required=True)
    ett_validate = ett_sub.add_parser("validate", help="check a tree config")
    ett_validate.add_argument("--ett", help="tree config file (default: built-in)")
    ett_validate.set_defaults(handler=_cmd_ett_validate)


def _add_survey(sub) -> None:
    survey = sub.add_parser("survey", help="survey analysis utilities")
    survey_sub = survey.add_subparsers(dest="survey_command", required=True)
    survey_rank = survey_sub.add_parser("rank", help="rank items from placement data")
    survey_rank.add_argument("dataset", help="CSV with columns item, rank, fraction")
    survey_rank.add_argument("--method", default="dnlog",
                             choices=[k.value for k in MethodKind])
    # no default: RankMethod supplies the method's own
    survey_rank.add_argument("--d", type=_finite_float,
                             help=f"top weight for dnlog (default {DEFAULT_D:g})")
    survey_rank.add_argument("--p", type=_finite_float,
                             help=f"power for rank-exponent (default {DEFAULT_P:g})")
    survey_rank.add_argument("--compare", action="store_true",
                             help="tabulate all five weighting methods")
    survey_rank.add_argument("--output")
    survey_rank.set_defaults(handler=_cmd_survey_rank)


def _add_language(sub) -> None:
    language = sub.add_parser("language", help="modeling language utilities")
    language_sub = language.add_subparsers(dest="language_command", required=True)
    language_compare = language_sub.add_parser("compare", help="compare registered languages")
    language_compare.add_argument("--languages", nargs="+",
                                  help="descriptor file(s) (default: built-in registry)")
    language_compare.add_argument("--partial-weight", type=_finite_float, default=1.0,
                                  help="what a partially supported pattern counts, in [0, 1] "
                                       "(default 1); changes this table only")
    language_compare.add_argument("--full-range", action="store_true",
                                  help="spread scores over all of [1, 10]")
    language_compare.add_argument("--output")
    language_compare.set_defaults(handler=_cmd_language_compare)


def _add_model(sub) -> None:
    model = sub.add_parser("model", help="process model utilities")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    model_inspect = model_sub.add_parser("inspect", help="dump a parsed model and its metrics")
    model_inspect.add_argument("model", help="BPMN model file")
    model_inspect.add_argument("--format", default="text", choices=["text", "json"])
    model_inspect.add_argument("--output")
    model_inspect.set_defaults(handler=_cmd_model_inspect)


def _add_questionnaire(sub) -> None:
    questionnaire = sub.add_parser("questionnaire", help="questionnaire utilities")
    questionnaire_sub = questionnaire.add_subparsers(dest="questionnaire_command", required=True)
    fill = questionnaire_sub.add_parser("fill", help="answer a questionnaire interactively")
    fill.add_argument("--schema", required=True,
                      help="'modeler', 'reader', or a schema file path")
    fill.add_argument("--respondent", required=True, help="respondent id")
    fill.add_argument("--output", required=True, help="response file to write")
    fill.set_defaults(handler=_cmd_questionnaire_fill)


def _add_init(sub) -> None:
    init = sub.add_parser("init", help="write the default config files")
    init.add_argument("directory", nargs="?", default=".",
                      help="target directory (default: current)")
    init.add_argument("--force", action="store_true", help="overwrite existing files")
    init.set_defaults(handler=_cmd_init)


# each command's branch of the parser, in the order the top-level help lists them
_COMMANDS = {"score": _add_score, "ett": _add_ett, "survey": _add_survey, "language": _add_language,
             "model": _add_model, "questionnaire": _add_questionnaire, "init": _add_init}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` of that one alone.

    The parser of one command parses that command's arguments as the full
    one does, with the same help and errors, but its own usage line and
    top-level help list only that command."""
    parser = argparse.ArgumentParser(
        prog="procomp",
        description="Score the comprehensibility of business process models.",
        epilog="exit codes: 0 success, 1 validation failure, 2 input error, 130 interrupted",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command in ``argv``; with None, run as the program on
    ``sys.argv`` and freeze the collector first."""
    if argv is None:
        gc.freeze()  # the imports live until exit: later collections need not walk them
        argv = sys.argv[1:]
    # the top-level parser's own help and errors (no command, an unknown one,
    # unrecognized arguments) come from the full parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, unrecognized = build_parser(command).parse_known_args(argv)
    if unrecognized:
        build_parser().parse_args(argv)  # exits with the full parser's usage and error
    try:
        return args.handler(args)
    except (ResponseError, ScoringError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        for finding in getattr(exc, "report", ()):
            path = f" ({finding.path})" if finding.path else ""
            print(f"  {finding.code}{path}: {finding.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ProcompError, ValueError, OSError) as exc:  # config and model errors among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
