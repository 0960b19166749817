import io
import json

import pytest

from procomp.cli import main
from procomp.questionnaire import load_responses_file
from procomp.report import parse_evaluation

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


def test_score_csv_through_cli(capsys, response_bundle):
    code, out, _ = run(capsys, *score_args(response_bundle, "--format", "csv"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("metric,criterion,perspective")
    assert len(lines) == 1 + 96


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
