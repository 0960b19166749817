import csv
import io
import json

import pytest

from procomp.cli import main
from procomp.questionnaire import load_responses_file
from procomp.report import export, parse_evaluation

from conftest import FIXTURES, make_answers, nested_subprocess_document
from oracles import brute_force_ordering, normalized_weighted_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def score_args(bundle, *extra):
    return [
        "score",
        "--model", str(bundle["model"]),
        "--modeler-responses", str(bundle["modeler"]),
        "--reader-responses", *[str(p) for p in bundle["readers"]],
        *extra,
    ]


def test_score_prints_summary(capsys, response_bundle):
    code, out, err = run(capsys, *score_args(response_bundle))
    assert code == 0, err
    assert "Modeler score  (S_m):" in out
    assert "Reader score   (S_r):" in out
    assert "Combined score (S_b):" in out


def test_score_json_matches_scoring_oracle(capsys, response_bundle):
    code, out, _ = run(capsys, *score_args(response_bundle, "--format", "json"))
    assert code == 0
    evaluation = parse_evaluation(out)
    # recompute every aggregate from the exported metric scores
    for criterion in evaluation.criteria:
        expected = normalized_weighted_sum(
            [m.score for m in criterion.metrics],
            [m.weight for m in criterion.metrics],
        )
        assert criterion.score == pytest.approx(expected, abs=1e-9)
    for perspective, total in (("modeler", evaluation.s_m), ("reader", evaluation.s_r)):
        group = [c for c in evaluation.criteria if c.perspective.value == perspective]
        expected = normalized_weighted_sum(
            [c.score for c in group], [c.weight for c in group])
        assert total == pytest.approx(expected, abs=1e-9)
    expected_combined = evaluation.w_m * evaluation.s_m + evaluation.w_r * evaluation.s_r
    assert evaluation.s_b == pytest.approx(expected_combined, abs=1e-9)


def test_score_without_reader_responses_exits_2(capsys, response_bundle):
    with pytest.raises(SystemExit) as exc:
        main([
            "score",
            "--model", str(response_bundle["model"]),
            "--modeler-responses", str(response_bundle["modeler"]),
        ])
    assert exc.value.code == 2


def test_score_missing_model_file_exits_2(capsys, response_bundle, tmp_path):
    bundle = dict(response_bundle, model=tmp_path / "absent.bpmn")
    code, _, err = run(capsys, *score_args(bundle))
    assert code == 2
    assert "error" in err.lower()


def test_score_incomplete_responses_exit_1(capsys, response_bundle, tmp_path):
    crippled = tmp_path / "partial.json"
    document = json.loads(response_bundle["modeler"].read_text())
    document["answers"].popitem()
    crippled.write_text(json.dumps(document))
    bundle = dict(response_bundle, modeler=crippled)
    code, _, err = run(capsys, *score_args(bundle))
    assert code == 1
    assert "validation failure" in err


def test_score_is_deterministic_and_idempotent(capsys, response_bundle, tmp_path):
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    code_a, _, _ = run(capsys, *score_args(response_bundle, "--output", str(out_a)))
    code_b, _, _ = run(capsys, *score_args(response_bundle, "--output", str(out_b)))
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_score_multiple_models_with_jobs(capsys, response_bundle):
    argv = score_args(response_bundle, "--jobs", "2")
    argv[argv.index("--model") + 1:argv.index("--model") + 2] = [
        str(response_bundle["model"])]
    argv.insert(1, "--model")
    argv.insert(2, str(FIXTURES / "sequence.bpmn"))
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.count("Comprehension summary") == 2
    assert out.index("sequence") < out.index("order_fulfillment")


def multi_model_args(bundle, fmt):
    return score_args(bundle, "--model", str(FIXTURES / "sequence.bpmn"), "--format", fmt)


def test_score_multiple_models_json_is_one_array(capsys, response_bundle):
    code, out, err = run(capsys, *multi_model_args(response_bundle, "json"))
    assert code == 0, err
    documents = json.loads(out)
    assert [d["model"] for d in documents] == ["order_fulfillment", "sequence"]
    assert out == json.dumps(documents, indent=2) + "\n"
    for document in documents:
        body = json.dumps(document, indent=2) + "\n"
        assert export(parse_evaluation(body), "json").body == body


def test_score_multiple_models_csv_has_one_header(capsys, response_bundle):
    code, out, err = run(capsys, *multi_model_args(response_bundle, "csv"))
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["model", "metric", "criterion", "perspective", "raw", "normalized", "weight"]
    assert [row[0] for row in rows[1:]] == ["order_fulfillment"] * 96 + ["sequence"] * 96
    code, single, _ = run(capsys, *score_args(response_bundle, "--format", "csv"))
    assert [row[1:] for row in rows[1:97]] == list(csv.reader(io.StringIO(single)))[1:]


def test_weights_override(capsys, response_bundle):
    code, out, _ = run(capsys, *score_args(
        response_bundle, "--weights", "0.5,0.5", "--format", "json"))
    assert code == 0
    evaluation = parse_evaluation(out)
    assert evaluation.w_m == 0.5


def test_malformed_weights_flag_exits_2(response_bundle):
    with pytest.raises(SystemExit) as exc:
        main(score_args(response_bundle, "--weights", "half-and-half"))
    assert exc.value.code == 2


@pytest.mark.parametrize("weights", ["nan,0.5", "inf,0.5", "0.5,-inf"])
def test_non_finite_weights_flag_exits_2(response_bundle, weights):
    with pytest.raises(SystemExit) as exc:
        main(score_args(response_bundle, "--weights", weights))
    assert exc.value.code == 2


def test_score_csv_through_cli(capsys, response_bundle):
    code, out, _ = run(capsys, *score_args(response_bundle, "--format", "csv"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("metric,criterion,perspective")
    assert len(lines) == 1 + 96


# ---------------------------------------------------------------------------
# Several models in worker processes (--jobs)

FIXTURE_MODELS = [FIXTURES / f"{name}.bpmn"
                  for name in ("sequence", "xor_loop", "and_parallel", "order_fulfillment")]


def batch_args(bundle, models, *extra):
    argv = ["score"]
    for model in models:
        argv += ["--model", str(model)]
    return argv + ["--modeler-responses", str(bundle["modeler"]),
                   "--reader-responses", *[str(p) for p in bundle["readers"]], *extra]


def run_at_jobs(capsys, argv):
    """``run`` at ``--jobs 1`` and at ``--jobs 2``."""
    return [run(capsys, *argv, "--jobs", jobs) for jobs in ("1", "2")]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_jobs_2_output_matches_jobs_1(capsys, response_bundle, fmt):
    serial, pooled = run_at_jobs(capsys, batch_args(response_bundle, FIXTURE_MODELS,
                                                    "--format", fmt))
    assert serial[0] == 0, serial[2]
    assert pooled == serial


def test_jobs_beyond_models_and_cpus_matches_jobs_1(capsys, response_bundle, tmp_path):
    # the pool is capped at the 3 models, so at most 3 processes start
    outputs = []
    for jobs in ("1", "64"):
        output = tmp_path / f"jobs-{jobs}.json"
        code, _, err = run(capsys, *batch_args(response_bundle, FIXTURE_MODELS[:3], "--format",
                                               "json", "--jobs", jobs, "--output", str(output)))
        assert code == 0, err
        outputs.append(output.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_below_one_exits_2(response_bundle, jobs):
    with pytest.raises(SystemExit) as exc:
        main(score_args(response_bundle, "--jobs", jobs))
    assert exc.value.code == 2


def test_malformed_model_mid_batch_fails_alike_at_any_jobs(capsys, response_bundle, tmp_path):
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    models = [FIXTURE_MODELS[0], broken, *FIXTURE_MODELS[1:]]
    serial, pooled = run_at_jobs(capsys, batch_args(response_bundle, models, "--format", "json"))
    assert serial[0] == 2 and serial[1] == ""
    assert serial[2].startswith("error: ")
    assert pooled == serial


def test_unextractable_metric_fails_alike_at_any_jobs(capsys, response_bundle, tmp_path):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    for criterion in document["criteria"]:
        for metric in criterion["metrics"]:
            if metric["id"] == "m-err-or-routing":
                metric["binding"] = "no-such-extractor"
    tree = tmp_path / "ett.json"
    tree.write_text(json.dumps(document))
    serial, pooled = run_at_jobs(capsys, batch_args(response_bundle, FIXTURE_MODELS[:2],
                                                    "--ett", str(tree)))
    assert serial == (1, "", "validation failure: unextractable metric(s): m-err-or-routing\n")
    assert pooled == serial


def test_config_errors_come_before_any_model_is_parsed(capsys, response_bundle, tmp_path):
    crippled = tmp_path / "partial.json"
    document = json.loads(response_bundle["modeler"].read_text())
    document["answers"].popitem()
    crippled.write_text(json.dumps(document))
    bundle = dict(response_bundle, modeler=crippled)
    models = [FIXTURE_MODELS[0], tmp_path / "absent.bpmn"]
    for code, _, err in run_at_jobs(capsys, batch_args(bundle, models)):
        assert code == 1
        assert err.startswith("validation failure: response set 'm-1'")


def test_score_compiles_the_config_once(capsys, response_bundle, monkeypatch):
    from procomp import pipeline
    calls = []
    score_responses = pipeline.score_responses
    monkeypatch.setattr(pipeline, "score_responses",
                        lambda *a: calls.append(a) or score_responses(*a))
    code, _, err = run(capsys, *batch_args(response_bundle, FIXTURE_MODELS[:3], "--jobs", "1"))
    assert code == 0, err
    assert len(calls) == 1 + len(response_bundle["readers"])


# ---------------------------------------------------------------------------
# Other subcommands


def test_ett_validate_default_is_clean(capsys):
    code, out, _ = run(capsys, "ett", "validate")
    assert code == 0
    assert "valid" in out


def test_ett_validate_bad_tree_exits_1(capsys, tmp_path):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    document["interaction_weights"] = {"modeler": 0.9, "reader": 0.9}
    path = tmp_path / "ett.json"
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "ett", "validate", "--ett", str(path))
    assert code == 1
    assert "interaction-weights-sum" in out


def test_ett_validate_lists_every_structural_violation(capsys, tmp_path):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    metrics = document["criteria"][0]["metrics"]
    metrics[1]["rank"] = 1
    metrics[2]["weight"] = -1.0
    path = tmp_path / "ett.json"
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "ett", "validate", "--ett", str(path))
    assert code == 1
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert len(errors) == 2
    assert "[rank-permutation]" in errors[0]
    assert "[nonpositive-weight]" in errors[1]


def _hostile_tree(change):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    change(document)
    return document


HOSTILE_DOCUMENTS = {
    "criterion-int": ("ett", _hostile_tree(lambda d: d["criteria"].__setitem__(0, 7))),
    "metric-int": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"].__setitem__(0, 7))),
    "weight-string": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"][0].update(weight="x"))),
    "lo-string": ("ett", _hostile_tree(lambda d: d["criteria"][0]["metrics"][1].update(
        normalization={"kind": "linear-clamp", "lo": "a", "hi": 1.0}))),
    "metrics-null": ("ett", _hostile_tree(lambda d: d["criteria"][0].update(metrics=None))),
    "survey-d-null": ("ett", _hostile_tree(lambda d: d.update(survey_d=None))),
    "survey-d-nan": ("ett", _hostile_tree(lambda d: d.update(survey_d=float("nan")))),
    "metric-id-list": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"][0].update(id=["m"]))),
    "criterion-rank-bool": ("ett", _hostile_tree(lambda d: d["criteria"][0].update(rank=True))),
    "metric-weight-bool": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"][0].update(weight=True))),
    "interaction-weights-nan-string": ("ett", _hostile_tree(
        lambda d: d.update(interaction_weights={"modeler": "nan", "reader": 0.5}))),
    "interaction-weights-bool": ("ett", _hostile_tree(
        lambda d: d.update(interaction_weights={"modeler": True, "reader": False}))),
    "tree-list": ("ett", []),
    "descriptor-list": ("languages", []),
    "descriptor-string": ("languages", "x"),
    "descriptor-catalog-list": ("languages", {
        "name": "x", "elements": 1, "characteristics": 1, "relations": 1,
        "pattern_catalog": [20]}),
    "descriptor-infinite-count": ("languages", {
        "name": "x", "elements": float("inf"), "characteristics": 1, "relations": 1}),
    "descriptor-nan-string-count": ("languages", {
        "name": "x", "elements": "nan", "characteristics": 1, "relations": 1}),
}


@pytest.mark.parametrize("name", HOSTILE_DOCUMENTS)
def test_hostile_config_documents_exit_2(capsys, tmp_path, response_bundle, name):
    kind, document = HOSTILE_DOCUMENTS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    if kind == "ett":
        commands = [["ett", "validate", "--ett", str(path)],
                    score_args(response_bundle, "--ett", str(path))]
    else:
        commands = [["language", "compare", "--languages", str(path)],
                    score_args(response_bundle, "--languages", str(path))]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_survey_rank_matches_brute_force(capsys, tmp_path):
    from procomp.ranking import dnlog_weight, load_survey_csv
    path = tmp_path / "survey.csv"
    path.write_text(
        "item,rank,fraction\n"
        "information,1,0.62\ninformation,2,0.25\ninformation,3,0.13\n"
        "errors,1,0.25\nerrors,2,0.5\nerrors,3,0.25\n"
        "person,1,0.13\nperson,2,0.25\nperson,3,0.62\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "survey", "rank", str(path))
    assert code == 0
    dataset = load_survey_csv(path)
    weights = [dnlog_weight(3, k, 10.0) for k in (1, 2, 3)]
    expected = [item for item, _ in brute_force_ordering(dataset, weights)]
    listed = [line.split()[-1] for line in out.strip().splitlines()[1:]]
    assert listed == expected


def test_survey_compare_lists_five_methods(capsys, tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text(
        "item,rank,fraction\na,1,0.8\na,2,0.2\nb,1,0.2\nb,2,0.8\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "survey", "rank", str(path), "--compare")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert any("exponential" in line for line in lines)
    assert any("linear-like" in line for line in lines)


def test_language_compare(capsys):
    code, out, _ = run(capsys, "language", "compare")
    assert code == 0
    assert "BPMN 2.0" in out
    assert "9.10" in out  # most complex language pins the scale


def test_model_inspect_text(capsys):
    code, out, _ = run(capsys, "model", "inspect", str(FIXTURES / "xor_loop.bpmn"))
    assert code == 0
    assert "gateway-xor" in out
    assert "node-count" in out


def test_model_inspect_json(capsys):
    code, out, _ = run(capsys, "model", "inspect",
                       str(FIXTURES / "sequence.bpmn"), "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["metrics"]["node-count"] == 3.0
    assert len(document["nodes"]) == 3


def test_model_inspect_deeply_nested_sub_processes(capsys, tmp_path):
    model = tmp_path / "deep.bpmn"
    model.write_text(nested_subprocess_document(1100), encoding="utf-8")
    code, out, err = run(capsys, "model", "inspect", str(model), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["metrics"]["nesting-depth"] == 1100.0


def test_init_writes_files_and_refuses_overwrite(capsys, tmp_path):
    target = tmp_path / "config"
    code, out, _ = run(capsys, "init", str(target))
    assert code == 0
    assert (target / "ett.json").exists()
    assert (target / "questionnaire_modeler.json").exists()
    assert (target / "questionnaire_reader.json").exists()
    assert (target / "languages" / "bpmn.json").exists()

    code, _, err = run(capsys, "init", str(target))
    assert code == 2
    assert "refusing to overwrite" in err

    code, _, _ = run(capsys, "init", str(target), "--force")
    assert code == 0


def test_env_config_dir_used_for_defaults(capsys, tmp_path, monkeypatch, response_bundle):
    target = tmp_path / "config"
    assert main(["init", str(target)]) == 0
    capsys.readouterr()
    # make the configured tree detectably different: zero out survey_d
    document = json.loads((target / "ett.json").read_text())
    document["survey_d"] = 0.5
    (target / "ett.json").write_text(json.dumps(document))
    monkeypatch.setenv("PROCOMP_CONFIG_DIR", str(target))
    code, _, err = run(capsys, *score_args(response_bundle))
    assert code != 0  # d <= 1 cannot weight the tree, proving the env config was read
    monkeypatch.delenv("PROCOMP_CONFIG_DIR")
    code, _, _ = run(capsys, *score_args(response_bundle))
    assert code == 0


def test_questionnaire_fill_roundtrip(capsys, tmp_path, monkeypatch, reader_schema):
    answers = make_answers(reader_schema, 3)
    lines = []
    for question in reader_schema.questions:
        value = answers[question.id]
        lines.append(("y" if value else "n") if isinstance(value, bool) else str(value))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    output = tmp_path / "responses.json"
    code, out, _ = run(capsys, "questionnaire", "fill",
                       "--schema", "reader", "--respondent", "r-77",
                       "--output", str(output))
    assert code == 0
    written = load_responses_file(output)
    assert written.respondent == "r-77"
    assert written.answers == answers


def test_questionnaire_fill_bad_input_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("maybe\n"))
    code, _, err = run(capsys, "questionnaire", "fill",
                       "--schema", "reader", "--respondent", "r",
                       "--output", str(tmp_path / "r.json"))
    assert code == 2
    assert "expected" in err
