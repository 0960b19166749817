"""What `main()` makes of hostile config documents and survey CSVs.

A seeded fuzz runs ``main()`` on edited copies of each default document
and of a survey CSV: every run must end in exit 0, 1 or 2, with no
traceback, and an exit-2 message must name the edited file. Each defect
that typed reading mends is pinned as a case of its own.
"""

from __future__ import annotations

import copy
import json
import random
import shutil

import pytest

from procomp.cli import main
from procomp.defaults import default_modeler_schema, default_reader_schema

from conftest import FIXTURES, write_response_file

SEQUENCE = FIXTURES / "sequence.bpmn"


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def config(tmp_path, capsys):
    """The default config files and one response file per perspective."""
    assert run(capsys, "init", tmp_path / "config")[0] == 0
    directory = tmp_path / "config"
    write_response_file(directory / "modeler.json", default_modeler_schema(), "m-1", 1)
    write_response_file(directory / "reader.json", default_reader_schema(), "r-1", 2)
    return directory


SURVEY_CSV = ("item,rank,fraction\n"
              "information,1,0.62\ninformation,2,0.25\ninformation,3,0.13\n"
              "errors,1,0.25\nerrors,2,0.5\nerrors,3,0.25\n"
              "person,1,0.13\nperson,2,0.25\nperson,3,0.62\n")

# each document: the option that gives it to `score`, and the other command that reads it
DOCUMENTS = {
    "ett.json": ("--ett", ["ett", "validate", "--ett"]),
    "questionnaire_modeler.json": ("--schema-modeler", None),
    "questionnaire_reader.json": ("--schema-reader", None),
    "languages/bpmn.json": ("--languages", ["language", "compare", "--languages"]),
    "modeler.json": ("--modeler-responses", None),
    "reader.json": ("--reader-responses", None),
}
SWAPS = (None, True, False, 0, -3, 2.5, "", "x", [], ["x"], {}, {"a": 1})
HUGE = (1e308, -1e308, 2 ** 63, 10 ** 300)


def score_argv(config, option: str | None = None, path=None):
    given = {"--modeler-responses": config / "modeler.json",
             "--reader-responses": config / "reader.json"}
    if option:
        given[option] = path
    argv = ["score", "--model", SEQUENCE, "--format", "csv"]
    for flag, value in given.items():
        argv += [flag, value]
    return argv


def slots(value, keys=()):
    """The keys that lead to every value inside a JSON value, at any depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield (*keys, key)
        yield from slots(child, (*keys, key))


def edit(document, slots_of_original: list[tuple], rng: random.Random) -> str:
    """Delete one value of ``document``, swap it for a value of another type
    or for a huge number; what was done, for a failure message."""
    while True:  # a slot of the original that an earlier edit has not removed
        *keys, key = rng.choice(slots_of_original)
        container = document
        try:
            for step in keys:
                container = container[step]
            container[key]
        except (KeyError, IndexError, TypeError):
            continue
        break
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in (*keys, key)).lstrip(".")
    move = rng.randrange(3)
    if move == 0:
        del container[key]
        return f"del {path}"
    if move == 1:
        value = copy.deepcopy(rng.choice([v for v in SWAPS if type(v) is not type(container[key])]))
    else:
        value = rng.choice(HUGE)
    container[key] = value
    return f"{path} = {value!r}"


def check_run(capsys, argv, path, what):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2), (what, code, err)
    assert "Traceback" not in err, (what, err)
    if code == 2:
        assert err.startswith(f"error: {path}: "), (what, err)
    return code


def test_edited_documents_end_in_a_documented_exit_code(capsys, config, tmp_path):
    rng = random.Random(16)
    outcomes: dict[str, set[int]] = {}
    for name, (option, other) in DOCUMENTS.items():
        original = (config / name).read_text(encoding="utf-8")
        keys = list(slots(json.loads(original)))
        path = tmp_path / name.replace("/", "-")
        for run_index in range(200):
            document = json.loads(original)
            what = "; ".join(edit(document, keys, rng) for _ in range(rng.randint(1, 2)))
            path.write_text(json.dumps(document), encoding="utf-8")
            argv = score_argv(config, option, path)
            if other and run_index % 2:
                argv = [*other, path]
            outcomes.setdefault(name, set()).add(check_run(capsys, argv, path, f"{name}: {what}"))
    # the edits reach every exit code, and each document fails in some run
    assert set().union(*outcomes.values()) == {0, 1, 2}, outcomes
    assert all(2 in codes for codes in outcomes.values()), outcomes


CSV_TOKENS = ("", "x", "nan", "-inf", "-1", "0", "1e308", "1000000", "2.5", "-0.0", '"', "a,b")


def test_edited_survey_csv_ends_in_a_documented_exit_code(capsys, tmp_path):
    rng = random.Random(17)
    original = [line.split(",") for line in SURVEY_CSV.splitlines()]
    path = tmp_path / "survey.csv"
    codes = set()
    for _ in range(200):
        rows = copy.deepcopy(original)
        for _ in range(rng.randint(1, 2)):
            row = rng.randrange(len(rows))
            move = rng.randrange(4)
            if move == 0:
                del rows[row]
            elif move == 1:
                rows.insert(rng.randrange(len(rows) + 1), list(rows[row]))
            elif rows[row]:
                rows[row][rng.randrange(len(rows[row]))] = rng.choice(CSV_TOKENS)
        path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        argv = ["survey", "rank", path, *rng.choice(([], ["--compare"], ["--method", "dcg"]))]
        codes.add(check_run(capsys, argv, path, rows))
    assert codes == {0, 2}


# ---------------------------------------------------------------------------
# Each defect the reader and its satellites mend, as a case of its own


def _edited(config, tmp_path, name, change):
    document = json.loads((config / name).read_text(encoding="utf-8"))
    change(document)
    path = tmp_path / name.replace("/", "-")
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def change(document):
        for key in keys:
            document = document[key]
        document[last] = value
    return change


PINNED = {
    # once TypeError: unhashable type, in `score`
    "question-metric-object": ("questionnaire_modeler.json", _set("questions", 0, "metric", {"a": 1}),
                               "questions[0].metric: expected a string, got {'a': 1}"),
    # once TypeError at the join of the "not registered" message
    "descriptor-name-int": ("languages/bpmn.json", _set("name", 7), "name: expected a string, got 7"),
    # once TypeError: unhashable type, in `ett validate` and `score`
    # (criteria[3].metrics[2] is the first model-derived metric)
    "binding-object": ("ett.json", _set("criteria", 3, "metrics", 2, "binding", {"a": 1}),
                       "criteria[3].metrics[2].binding: expected a string, got {'a': 1}"),
    "binding-list": ("ett.json", _set("criteria", 3, "metrics", 2, "binding", ["x"]),
                     "criteria[3].metrics[2].binding: expected a string, got ['x']"),
    # once accepted: turned into a string, or kept as it was
    "respondent-object": ("modeler.json", _set("respondent", {"a": 1}),
                          "respondent: expected a string, got {'a': 1}"),
    "response-schema-version-int": ("reader.json", _set("schema_version", 1),
                                    "schema_version: expected a string, got 1"),
    "description-int": ("ett.json", _set("criteria", 0, "metrics", 0, "description", 5),
                        "criteria[0].metrics[0].description: expected a string, got 5"),
    "tree-version-object": ("ett.json", _set("version", {"a": 1}),
                            "version: expected a string, got {'a': 1}"),
    "schema-version-object": ("questionnaire_reader.json", _set("version", {"a": 1}),
                              "version: expected a string, got {'a': 1}"),
    "catalog-size-float": ("languages/bpmn.json", _set("pattern_catalog", "data", 40.5),
                           "pattern_catalog.data: expected an integer, got 40.5"),
    "descriptor-count-string": ("languages/bpmn.json", _set("elements", "41"),
                                "elements: expected a finite number, got '41'"),
    # once OverflowError at complexity_score's square, in `score` and `language compare`
    "descriptor-count-overflow": ("languages/bpmn.json", _set("elements", 1e308),
                                  "descriptor counts for 'BPMN 2.0' must be >= 0 and below 1e+150"),
}


@pytest.mark.parametrize("case", PINNED)
def test_a_bad_field_exits_2_naming_its_file_and_path(capsys, config, tmp_path, case):
    name, change, message = PINNED[case]
    path = _edited(config, tmp_path, name, change)
    option, other = DOCUMENTS[name]
    for argv in [score_argv(config, option, path)] + ([[*other, path]] if other else []):
        assert run(capsys, *argv) == (2, "", f"error: {path}: {message}\n"), argv


def test_an_unknown_xml_encoding_exits_2(capsys, config, tmp_path):
    model = tmp_path / "model.bpmn"
    model.write_bytes(b'<?xml version="1.0" encoding="nosuch"?>\n' + SEQUENCE.read_bytes())
    argv = score_argv(config)
    argv[argv.index("--model") + 1] = model
    for argv in (["model", "inspect", model], argv):
        assert run(capsys, *argv) == (2, "", "error: malformed XML: unknown encoding: nosuch\n")


@pytest.mark.parametrize("row, message", [
    ("person,3,nan", "line 10: fraction must be a finite number, got 'nan'"),
    # once [0.0] * 10**6 for every item, and exit 0
    (f"person,{10 ** 6},0.62", f"line 10: rank {10 ** 6} of item 'person' is outside [1, 9], "
                            "the number of data rows"),
    # once a traceback (_csv.Error)
    ("p" * 200_000 + ",3,0.62", "line 10: malformed CSV: field larger than field limit (131072)"),
], ids=["nan-fraction", "rank-above-rows", "field-over-limit"])
def test_a_bad_survey_row_exits_2_naming_its_line(capsys, tmp_path, row, message):
    path = tmp_path / "survey.csv"
    path.write_text(SURVEY_CSV.rsplit("\n", 2)[0] + f"\n{row}\n", encoding="utf-8")
    assert run(capsys, "survey", "rank", path) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("rows, message", [
    # once the last row silently won: 0.5 + 0.5 passed the sum check, and exit 0
    ("a,1,0.5\na,1,0.5\na,2,0.5", "line 3: item 'a' is placed at rank 1 again, first at line 2"),
    ("a,1,1.0\nb,2,1.0\na,1,0.0", "line 4: item 'a' is placed at rank 1 again, first at line 2"),
], ids=["same-fraction", "later-zero"])
def test_a_repeated_survey_row_exits_2_naming_both_lines(capsys, tmp_path, rows, message):
    path = tmp_path / "survey.csv"
    path.write_text(f"item,rank,fraction\n{rows}\n", encoding="utf-8")
    assert run(capsys, "survey", "rank", path) == (2, "", f"error: {path}: {message}\n")


def test_a_complete_survey_table_is_never_refused(capsys, tmp_path):
    # one item with one row per rank: the highest rank equals the row count
    path = tmp_path / "survey.csv"
    path.write_text("item,rank,fraction\n" + "".join(f"a,{k},{0.25}\n" for k in range(1, 5)))
    assert run(capsys, "survey", "rank", path)[0] == 0


def test_two_models_with_one_id_exit_2_before_any_model_is_parsed(capsys, config, tmp_path):
    first, second = tmp_path / "d1" / "a.bpmn", tmp_path / "d2" / "a.bpmn"
    for path in (first, second):
        path.parent.mkdir()
        shutil.copyfile(SEQUENCE, path)
    argv = score_argv(config) + ["--model", first, "--model", second]
    argv[1:3] = []  # no other model
    message = (f"error: models {first} and {second} have one model id, 'a': "
               "give each model its own file name\n")
    assert run(capsys, *argv) == (2, "", message)
    second.write_text("<definitions")  # unparsable, and still not parsed
    assert run(capsys, *argv, "--jobs", "2") == (2, "", message)
