import argparse
import csv
import io
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from procomp import cli
from procomp.cli import main
from procomp.questionnaire import load_responses_file
from procomp.report import batch_entry, export, frame_batch, parse_evaluation

from conftest import FIXTURES, make_answers, nested_subprocess_document, pinned_ett_document
from oracles import brute_force_ordering, normalized_weighted_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    # whether the batch succeeded or failed, no worker process is left running
    assert multiprocessing.active_children() == []
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
def test_non_finite_weights_flag_exits_2(capsys, response_bundle, weights):
    with pytest.raises(SystemExit) as exc:
        main(score_args(response_bundle, "--weights", weights))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --weights: expected a finite number, got '" in captured.err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "four"])
def test_non_finite_threshold_flag_exits_2(capsys, response_bundle, threshold):
    # the "=" form hands "-inf" to the flag instead of reading it as an option
    with pytest.raises(SystemExit) as exc:
        main(score_args(response_bundle, "--format", "json", f"--threshold={threshold}"))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text", "markdown"])
def test_jobs_2_output_matches_jobs_1(capsys, response_bundle, fmt):
    serial, pooled = run_at_jobs(capsys, batch_args(response_bundle, FIXTURE_MODELS,
                                                    "--format", fmt))
    assert serial[0] == 0, serial[2]
    assert pooled == serial
    evaluations = [parse_evaluation(run(capsys, *batch_args(response_bundle, [model],
                                                            "--format", "json"))[1])
                   for model in FIXTURE_MODELS]
    assert serial[1] == "".join(frame_batch([batch_entry(e, fmt) for e in evaluations], fmt))


def _broken_batch(tmp_path):
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    return [FIXTURE_MODELS[0], broken, *FIXTURE_MODELS[1:]]


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_failed_batch_leaves_the_output_as_it_was(capsys, response_bundle, tmp_path, existing):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    output = out_dir / "report.json"
    if existing:
        output.write_bytes(b"an earlier report\n")
    argv = batch_args(response_bundle, _broken_batch(tmp_path), "--format", "json",
                      "--output", str(output))
    for code, out, err in run_at_jobs(capsys, argv):
        assert (code, out) == (2, "") and err.startswith("error: "), err
        # no temporary file is left beside it either
        assert list(out_dir.iterdir()) == ([output] if existing else [])
        if existing:
            assert output.read_bytes() == b"an earlier report\n"


def test_batch_output_is_written_through_a_symlink_in_place(capsys, response_bundle, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target, link = out_dir / "target.json", out_dir / "link.json"
    target.touch()
    target.chmod(0o640)
    link.symlink_to(target)
    inode = target.stat().st_ino
    argv = batch_args(response_bundle, FIXTURE_MODELS[:2], "--format", "json")
    code, expected, err = run(capsys, *argv)
    assert code == 0, err
    for jobs in ("1", "2"):
        target.write_text(f"an earlier report at --jobs {jobs}\n")
        assert run(capsys, *argv, "--jobs", jobs, "--output", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == expected
        # the same file, rewritten as a single-model report is, not a new one renamed onto it
        assert (target.stat().st_ino, stat.S_IMODE(target.stat().st_mode)) == (inode, 0o640)
    assert sorted(p.name for p in out_dir.iterdir()) == ["link.json", "target.json"]


def test_read_only_batch_output_fails_as_a_single_model_does(capsys, response_bundle, tmp_path):
    output = tmp_path / "out" / "report.json"
    output.parent.mkdir()
    output.write_bytes(b"an earlier report\n")
    output.chmod(0o444)
    single = run(capsys, *score_args(response_bundle, "--output", str(output)))
    if single[0] == 0:  # a user who may write any file, such as root
        output.chmod(0o644)
        output.write_bytes(b"an earlier report\n")
        output.chmod(0o444)
    else:
        assert single[1:] == ("", f"error: [Errno 13] Permission denied: '{output}'\n")
    argv = batch_args(response_bundle, FIXTURE_MODELS[:2], "--output", str(output))
    for code, out, err in run_at_jobs(capsys, argv):
        assert (code == 0, err) == (single[0] == 0, single[2])
        if code:
            assert out == "" and output.read_bytes() == b"an earlier report\n"
        assert stat.S_IMODE(output.stat().st_mode) == 0o444
    assert list(output.parent.iterdir()) == [output]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_batch_output_to_a_fifo_is_written_once_complete(capsys, response_bundle, tmp_path):
    fifo = tmp_path / "out" / "fifo"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    argv = batch_args(response_bundle, FIXTURE_MODELS[:2], "--format", "csv", "--jobs", "2")
    code, expected, err = run(capsys, *argv)
    assert code == 0, err
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(capsys, *argv, "--output", str(fifo))[0] == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert received == [expected]
    assert list(fifo.parent.iterdir()) == [fifo]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the workers must inherit the counting _score_entry")
def test_pooled_entries_bound_what_waits_in_the_main_process(monkeypatch):
    # each entry is larger than a pipe's buffer, so a worker that runs ahead blocks in
    # send with at most one entry scored and not yet received
    fork = multiprocessing.get_context("fork")
    scored = fork.Value("i", 0)

    def counting(plan, fmt, model):
        with scored.get_lock():
            scored.value += 1
        return model + "x" * (1 << 20)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: fork)
    monkeypatch.setattr(cli, "_score_entry", counting)
    models = [f"m{i}" for i in range(100)]
    entries, waiting = [], []
    for entry in cli._piped_entries(None, "json", models, 2):
        entries.append(entry[:-(1 << 20)])
        waiting.append(scored.value - len(entries))
    assert entries == models
    assert max(waiting) <= 2
    assert multiprocessing.active_children() == []


def test_batch_output_in_a_missing_directory_is_reported_by_its_name(capsys, response_bundle,
                                                                     tmp_path):
    output = tmp_path / "absent" / "report.json"
    argv = batch_args(response_bundle, FIXTURE_MODELS[:2], "--output", str(output))
    for result in run_at_jobs(capsys, argv):
        assert result == (2, "", f"error: [Errno 2] No such file or directory: '{output}'\n")


def test_batch_memory_does_not_grow_with_the_batch(capsys, response_bundle, tmp_path):
    # each entry holds tens of KB: a batch that kept them all would grow by about 1 MB
    copies = [tmp_path / f"copy-{i}.bpmn" for i in range(40)]
    for copy in copies:
        copy.write_bytes(FIXTURE_MODELS[3].read_bytes())

    def peak(count: int, jobs: str) -> int:
        argv = batch_args(response_bundle, copies[:count], "--format", "json", "--jobs", jobs,
                          "--output", str(tmp_path / "report.json"))
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        return traced

    # at --jobs 2 the main process reads the entries from the workers' pipes, and
    # the pipes' buffers, not its own memory, hold what the workers run ahead
    for jobs in ("1", "2"):
        peak(2, jobs)  # first-use imports and caches
        few, many = peak(4, jobs), peak(40, jobs)
        assert many - few < 256 * 1024, (jobs, few, many)


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


def test_the_first_broken_model_in_order_is_reported_at_any_jobs(capsys, response_bundle,
                                                                  tmp_path):
    first, second = tmp_path / "first.bpmn", tmp_path / "second.bpmn"
    first.write_text("<definitions", encoding="utf-8")
    second.write_text("<definitions><process></definitions>", encoding="utf-8")
    expected = run(capsys, *batch_args(response_bundle, [first]))
    assert expected[0] == 2 and run(capsys, *batch_args(response_bundle, [second]))[2] != expected[2]
    sequence, xor_loop, _, order_fulfillment = FIXTURE_MODELS
    # at --jobs 2 the two land in different workers; in the second batch the worker
    # of `second` is likely to reach it first, behind a smaller model
    for models in ([sequence, first, second, xor_loop], [order_fulfillment, sequence, first, second]):
        for result in run_at_jobs(capsys, batch_args(response_bundle, models, "--format", "json")):
            assert result == expected


# run in a fresh interpreter whose workers are forked: `dead-worker` has the worker that
# scores the model named `copy-9` exit with code 3; `killed` has the main process print
# its workers' ids and SIGKILL itself once the first entry has arrived
WORKER_PROBE = """\
import multiprocessing, os, signal, sys
multiprocessing.set_start_method("fork")
from procomp import cli
case, argv = sys.argv[1], sys.argv[2:]
score_entry, piped_entries = cli._score_entry, cli._piped_entries
def dying(plan, fmt, model):
    if os.path.basename(model) == "copy-9.bpmn":
        os._exit(3)
    return score_entry(plan, fmt, model)
def killed(*args):
    entries = piped_entries(*args)
    yield next(entries)
    print(*[p.pid for p in multiprocessing.active_children()], flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
if case == "dead-worker":
    cli._score_entry = dying
if case == "killed":
    cli._piped_entries = killed
code = cli.main(argv)
print(code, len(multiprocessing.active_children()))
"""

needs_forked_workers = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or (os.cpu_count() or 1) < 2,
    reason="needs the fork start method and two CPUs, so that --jobs 2 starts two workers")


def worker_probe(case, bundle, tmp_path, *extra):
    """The probe's argv, for ``case``, over 20 copies of a fixture at --jobs 2."""
    copies = [tmp_path / f"copy-{i}.bpmn" for i in range(20)]
    for copy in copies:
        copy.write_bytes(FIXTURE_MODELS[3].read_bytes())
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PROCOMP_CONFIG_DIR", None)
    argv = [sys.executable, "-c", WORKER_PROBE, case,
            *batch_args(bundle, [*copies, *extra], "--format", "json", "--jobs", "2",
                        "--output", str(tmp_path / "report.json"))]
    return argv, env


@needs_forked_workers
@pytest.mark.parametrize("case", ["success", "model-error", "dead-worker"])
def test_no_worker_outlives_score(response_bundle, tmp_path, case):
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    argv, env = worker_probe(case, response_bundle, tmp_path,
                             *([broken] if case == "model-error" else []))
    # the captured pipes reach end-of-file only once every worker, which holds them too, has ended
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, check=False)
    assert result.returncode == 0, result.stderr
    expected = {
        "success": "",
        "model-error": "error: malformed XML: unclosed token: line 1, column 0\n",
        "dead-worker": f"error: {tmp_path / 'copy-9.bpmn'}: the worker process scoring it "
                       f"ended with exit code 3\n",
    }[case]
    assert (result.stdout, result.stderr) == (f"{0 if case == 'success' else 2} 0\n", expected)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat_line[stat_line.rindex(")") + 2] != "Z"


@needs_forked_workers
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="finds the workers through /proc")
def test_workers_end_on_their_own_when_score_is_killed(response_bundle, tmp_path):
    argv, env = worker_probe("killed", response_bundle, tmp_path)
    probe = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    workers = []
    try:
        workers = [int(pid) for pid in probe.stdout.readline().split()]
        assert len(workers) == 2
        # with their pipes' last read end gone, the workers get EPIPE and end within seconds
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
        _, err = probe.communicate(timeout=10)
        assert probe.returncode == -signal.SIGKILL
        assert err == "", err  # no traceback from a worker either
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
        probe.kill()
        probe.wait(timeout=10)


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
    assert serial == (1, "", "validation failure: metric 'm-err-or-routing' binds to unknown "
                             "extractor 'no-such-extractor'\n")
    assert pooled == serial


def _rebound_tree(tmp_path, source, binding):
    """The default tree with its first metric of ``source`` bound to ``binding``."""
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    metric = next(m for c in document["criteria"] for m in c["metrics"] if m["source"] == source)
    metric["binding"] = binding
    path = tmp_path / "ett.json"
    path.write_text(json.dumps(document))
    return path, metric["id"]


@pytest.mark.parametrize("source, code, message", [
    ("model-derived", 1, "validation failure: metric '{}' binds to unknown extractor "
                         "'no-such-binding'\n"),
    ("language-registry", 1, "validation failure: metric '{}' binds to unknown registry value "
                             "'no-such-binding' (known: complexity, control-flow-pattern-support)\n"),
], ids=["extractor", "registry"])
def test_unknown_binding_is_reported_before_any_model_is_parsed(capsys, response_bundle, tmp_path,
                                                                source, code, message):
    tree, metric_id = _rebound_tree(tmp_path, source, "no-such-binding")
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    for models in ([broken], [broken, FIXTURE_MODELS[0]]):
        for result in run_at_jobs(capsys, batch_args(response_bundle, models, "--ett", str(tree))):
            assert result == (code, "", message.format(metric_id))


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


def test_uncovered_questionnaire_metric_is_reported_before_any_model_is_parsed(
        capsys, response_bundle, tmp_path):
    # a modeler questionnaire metric under a reader criterion, which no modeler question covers
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    criterion = next(c for c in document["criteria"] if c["perspective"] == "reader")
    criterion["metrics"].append({"id": "x-modeler-view", "source": "modeler-questionnaire",
                                 "rank": len(criterion["metrics"]) + 1})
    tree = tmp_path / "ett.json"
    tree.write_text(json.dumps(document))
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    models = [broken, FIXTURE_MODELS[0]]
    for code, out, err in run_at_jobs(capsys, batch_args(response_bundle, models, "--ett", str(tree))):
        assert (code, out) == (1, "")
        assert err.startswith("validation failure: modeler questionnaire does not fit the tree")
        assert "uncovered-metric: no question covers metric 'x-modeler-view'" in err


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "derived"])
def test_empty_criterion_is_reported_before_any_model_is_parsed(capsys, response_bundle, tmp_path,
                                                               pinned):
    # pinned: no weighting pass meets the criterion; derived: it is rejected before weighting
    from procomp.defaults import default_ett_document
    document = pinned_ett_document() if pinned else default_ett_document()
    next(c for c in document["criteria"] if c["id"] == "r-representation")["metrics"] = []
    tree = tmp_path / "ett.json"
    tree.write_text(json.dumps(document))
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    models = [broken, FIXTURE_MODELS[0]]
    for result in run_at_jobs(capsys, batch_args(response_bundle, models, "--ett", str(tree))):
        assert result == (1, "", "validation failure: criterion unscored: "
                                 "'r-representation' holds no metrics\n")


@pytest.mark.parametrize("source", ["ett", "flag"])
def test_interaction_weights_not_summing_to_1_are_reported_before_any_model_is_parsed(
        capsys, response_bundle, tmp_path, source):
    from procomp.defaults import default_ett_document
    if source == "ett":
        document = default_ett_document()
        document["interaction_weights"] = {"modeler": 0.9, "reader": 0.9}
        tree = tmp_path / "ett.json"
        tree.write_text(json.dumps(document))
        extra = ["--ett", str(tree)]
    else:
        extra = ["--weights", "0.9,0.9"]
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    for models in ([broken, FIXTURE_MODELS[0]], [FIXTURE_MODELS[0], broken]):
        for result in run_at_jobs(capsys, batch_args(response_bundle, models, *extra)):
            assert result == (1, "", "validation failure: interaction weights must sum to 1, "
                                     "got 0.9 + 0.9\n")


@pytest.mark.parametrize("case", ["no-control-flow-catalog", "unregistered"])
def test_the_scoring_language_is_checked_before_any_model_is_parsed(capsys, response_bundle,
                                                                    tmp_path, case):
    if case == "no-control-flow-catalog":
        from procomp.defaults import default_language_documents
        bpmn = default_language_documents()["bpmn"]
        bpmn["patterns"] = [p for p in bpmn["patterns"] if p["type"] != "control-flow"]
        del bpmn["pattern_catalog"]["control-flow"]
        descriptor = tmp_path / "nocf.json"
        descriptor.write_text(json.dumps(bpmn))
        extra = ["--languages", str(descriptor)]
        message = "error: descriptor 'BPMN 2.0' has no control-flow pattern catalog\n"
    else:
        extra = ["--language", "Nope"]
        message = ("error: language 'Nope' not registered "
                   "(known: BPMN 2.0, EPC, UML Activity Diagram)\n")
    broken = tmp_path / "broken.bpmn"
    broken.write_text("<definitions", encoding="utf-8")
    for models in ([broken], [broken, FIXTURE_MODELS[0]]):
        for result in run_at_jobs(capsys, batch_args(response_bundle, models, *extra)):
            assert result == (2, "", message)


def test_weights_flag_replaces_the_tree_interaction_weights(capsys, response_bundle, tmp_path):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    document["interaction_weights"] = {"modeler": 0.9, "reader": 0.9}
    tree = tmp_path / "ett.json"
    tree.write_text(json.dumps(document))
    code, out, err = run(capsys, *score_args(response_bundle, "--ett", str(tree),
                                             "--weights", "0.5,0.5", "--format", "json"))
    assert code == 0, err
    evaluation = parse_evaluation(out)
    assert (evaluation.w_m, evaluation.w_r) == (0.5, 0.5)


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


@pytest.mark.parametrize("weights, code", [
    ((1 + 5e-10, 0.0), 0), ((0.0, 1 + 5e-10), 0), ((0.9, 0.9), 1), ((-0.1, 1.1), 1),
])
def test_ett_validate_and_score_agree_on_interaction_weights(capsys, tmp_path, response_bundle,
                                                              weights, code):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    document["interaction_weights"] = dict(zip(("modeler", "reader"), weights))
    path = tmp_path / "ett.json"
    path.write_text(json.dumps(document))
    validated = run(capsys, "ett", "validate", "--ett", str(path))
    scored = run(capsys, *score_args(response_bundle, "--ett", str(path)))
    assert (validated[0], scored[0]) == (code, code), (validated, scored)


def _rebind(document, metric_id, binding):
    next(m for c in document["criteria"] for m in c["metrics"] if m["id"] == metric_id)["binding"] = binding


AGREEMENT_EDITS = {
    "perspective-incomplete": lambda d: d.update(
        criteria=[c for c in d["criteria"] if c["perspective"] != "reader"]),
    "empty-criterion": lambda d: next(
        c for c in d["criteria"] if c["id"] == "r-representation").update(metrics=[]),
    "unknown-extractor": lambda d: _rebind(d, "m-err-or-routing", "no-such-binding"),
    "unknown-registry-value": lambda d: _rebind(d, "m-lang-complexity", "no-such-binding"),
    "survey-d-range": lambda d: d.update(survey_d=0.5),
}


@pytest.mark.parametrize("code, message", [
    ("perspective-incomplete", "perspective incomplete: no reader criteria"),
    ("empty-criterion", "criterion unscored: 'r-representation' holds no metrics"),
    ("unknown-extractor", "metric 'm-err-or-routing' binds to unknown extractor 'no-such-binding'"),
    ("unknown-registry-value", "metric 'm-lang-complexity' binds to unknown registry value "
                               "'no-such-binding' (known: complexity, control-flow-pattern-support)"),
    ("survey-d-range", "survey_d must be > 1, got 0.5"),
], ids=["no-reader-criteria", "empty-criterion", "unknown-extractor", "unknown-registry-value",
        "survey-d-below-1"])
def test_ett_validate_and_score_agree_on_an_incomplete_tree(capsys, tmp_path, response_bundle,
                                                            code, message):
    from procomp.defaults import default_ett_document
    document = default_ett_document()
    AGREEMENT_EDITS[code](document)
    path = tmp_path / "ett.json"
    path.write_text(json.dumps(document))
    validated, out, _ = run(capsys, "ett", "validate", "--ett", str(path))
    assert validated == 1 and f"[{code}]" in out and message in out, out
    assert run(capsys, *score_args(response_bundle, "--ett", str(path))) == (
        1, "", f"validation failure: {message}\n")


def test_survey_d_below_1_is_no_error_when_every_weight_is_pinned(capsys, tmp_path,
                                                                 response_bundle):
    # survey_d only derives absent weights, so a fully pinned tree never uses it
    document = pinned_ett_document()
    path = tmp_path / "ett.json"
    path.write_text(json.dumps(document))
    expected = run(capsys, *score_args(response_bundle, "--ett", str(path)))
    document["survey_d"] = 0.5
    path.write_text(json.dumps(document))
    assert run(capsys, "ett", "validate", "--ett", str(path)) == (0, "tree is valid\n", "")
    assert run(capsys, *score_args(response_bundle, "--ett", str(path))) == expected
    assert expected[0] == 0


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


# json.dumps writes no float that overflows, so this string stands for 1e400 in the text
OVERFLOW = "<1e400>"


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
    "lo-hi-strings": ("ett", _hostile_tree(lambda d: d["criteria"][0]["metrics"][1].update(
        normalization={"kind": "linear-clamp", "lo": "0", "hi": "1"}))),
    "metrics-null": ("ett", _hostile_tree(lambda d: d["criteria"][0].update(metrics=None))),
    "survey-d-null": ("ett", _hostile_tree(lambda d: d.update(survey_d=None))),
    "survey-d-nan": ("ett", _hostile_tree(lambda d: d.update(survey_d=float("nan")))),
    "survey-d-string-inf": ("ett", _hostile_tree(lambda d: d.update(survey_d="inf"))),
    "metric-id-list": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"][0].update(id=["m"]))),
    "metric-name-int": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"][0].update(name=7))),
    "criterion-name-list": ("ett", _hostile_tree(lambda d: d["criteria"][0].update(name=["c"]))),
    "criterion-rank-bool": ("ett", _hostile_tree(lambda d: d["criteria"][0].update(rank=True))),
    "metric-weight-bool": ("ett", _hostile_tree(
        lambda d: d["criteria"][0]["metrics"][0].update(weight=True))),
    "interaction-weights-nan-string": ("ett", _hostile_tree(
        lambda d: d.update(interaction_weights={"modeler": "nan", "reader": 0.5}))),
    "interaction-weights-bool": ("ett", _hostile_tree(
        lambda d: d.update(interaction_weights={"modeler": True, "reader": False}))),
    "survey-d-overflow": ("ett", _hostile_tree(lambda d: d.update(survey_d=OVERFLOW))),
    "survey-d-overflow-int": ("ett", _hostile_tree(lambda d: d.update(survey_d=10 ** 400))),
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
    "descriptor-overflow-count": ("languages", {
        "name": "x", "elements": OVERFLOW, "characteristics": 1, "relations": 1}),
}

# where a number that is not a finite int or float is reported
HOSTILE_NUMBER_PATHS = {
    "lo-string": "criteria[0].metrics[1].normalization.lo",
    "lo-hi-strings": "criteria[0].metrics[1].normalization.lo",
    "survey-d-string-inf": "survey_d",
}


@pytest.mark.parametrize("name", HOSTILE_DOCUMENTS)
def test_hostile_config_documents_exit_2(capsys, tmp_path, response_bundle, name):
    kind, document = HOSTILE_DOCUMENTS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document).replace(f'"{OVERFLOW}"', "1e400"))
    if kind == "ett":
        commands = [["ett", "validate", "--ett", str(path)],
                    score_args(response_bundle, "--ett", str(path))]
    else:
        commands = [["language", "compare", "--languages", str(path)],
                    score_args(response_bundle, "--languages", str(path))]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err
        if "overflow" in name:
            assert err.startswith(f"error: {path}: malformed JSON document: number ")
        if name in HOSTILE_NUMBER_PATHS:
            assert err.startswith(f"error: {path}: {HOSTILE_NUMBER_PATHS[name]}: "
                                  "expected a finite number")


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


def test_survey_rank_of_a_header_only_table_exits_2(capsys, tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("item,rank,fraction\n", encoding="utf-8")
    assert run(capsys, "survey", "rank", str(path)) == (
        2, "", f"error: {path}: survey CSV contains no data rows\n")


def test_survey_compare_output(capsys, tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("item,rank,fraction\na,1,0.5\na,2,0.3\na,3,0.2\nb,1,0.2\nb,2,0.5\nb,3,0.3\n"
                    "c,1,0.3\nc,2,0.2\nc,3,0.5\nd,1,0.34\nd,2,0.33\nd,3,0.33\n", encoding="utf-8")
    assert run(capsys, "survey", "rank", str(path), "--compare") == (0, (
        "rank-sum               linear-like  a > d > b > c\n"
        "reciprocal-rank        polynomial   a > d > c > b\n"
        "rank-exponent(p=2)     polynomial   a > d > b > c\n"
        "dcg                    polynomial   a > d > c > b\n"
        "dnlog(d=10)            exponential  a > d > c > b\n"), "")


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


def run_to_exit(capsys, *argv):
    """``run``, where argparse's exit counts as the exit code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("flags", [
    ["--d", "nan"], ["--d", "inf"], ["--d", "-inf"], ["--d", "1"],
    ["--method", "rank-exponent", "--p", "nan"], ["--method", "rank-exponent", "--p", "inf"],
    ["--method", "rank-exponent", "--p", "0"],
])
def test_survey_rank_bad_method_parameter_exits_2(capsys, tmp_path, flags):
    path = tmp_path / "survey.csv"
    path.write_text("item,rank,fraction\na,1,0.8\na,2,0.2\nb,1,0.2\nb,2,0.8\n", encoding="utf-8")
    code, out, _ = run_to_exit(capsys, "survey", "rank", str(path), *flags)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("weight", ["nan", "inf", "-5", "1.5", "half"])
def test_language_compare_partial_weight_outside_unit_interval_exits_2(capsys, weight):
    code, out, _ = run_to_exit(capsys, "language", "compare", f"--partial-weight={weight}")
    assert (code, out) == (2, "")


def test_language_compare_partial_weight_outside_unit_interval_names_it(capsys):
    assert run(capsys, "language", "compare", "--partial-weight=1.5") == (
        2, "", "error: partial weight must lie in [0, 1], got 1.5\n")


def test_language_compare_output(capsys):
    assert run(capsys, "language", "compare") == (0, (
        "language                     norm  score patterns  support per type\n"
        "BPMN 2.0                    44.96   9.10       37  control-flow=90%  data=35%  resource=12%\n"
        "EPC                         15.17   9.70       11  control-flow=45%  data=5%  resource=0%\n"
        "UML Activity Diagram        25.02   9.50       24  control-flow=70%  data=20%  resource=5%\n"
    ), "")


def test_language_compare(capsys):
    code, out, _ = run(capsys, "language", "compare")
    assert code == 0
    assert "BPMN 2.0" in out
    assert "9.10" in out  # most complex language pins the scale


@pytest.mark.parametrize("command", ["language-compare", "score"])
def test_two_descriptors_with_one_name_exit_2(capsys, tmp_path, response_bundle, command):
    from procomp.defaults import default_language_documents
    bpmn = default_language_documents()["bpmn"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(bpmn))
    paths[1].write_text(json.dumps(dict(bpmn, elements=bpmn["elements"] * 4)))
    languages = ["--languages", *map(str, paths)]
    argv = (["language", "compare", *languages] if command == "language-compare"
            else score_args(response_bundle, *languages))
    assert run(capsys, *argv) == (2, "", "error: duplicate language name 'BPMN 2.0' "
                                         "in the registry\n")


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


def test_init_files_load_back_to_the_defaults(capsys, tmp_path):
    from operator import attrgetter

    from procomp import defaults
    from procomp.ett import load_ett_file
    from procomp.languages import load_descriptor_file
    from procomp.questionnaire import load_schema_file
    assert run(capsys, "init", str(tmp_path))[0] == 0
    assert load_ett_file(tmp_path / "ett.json") == defaults.default_ett()
    assert load_schema_file(tmp_path / "questionnaire_modeler.json") == \
        defaults.default_modeler_schema()
    assert load_schema_file(tmp_path / "questionnaire_reader.json") == \
        defaults.default_reader_schema()
    registry = [load_descriptor_file(p) for p in (tmp_path / "languages").glob("*.json")]
    by_name = attrgetter("name")
    assert sorted(registry, key=by_name) == sorted(defaults.builtin_language_registry(), key=by_name)


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


def test_questionnaire_fill_prompts(capsys, tmp_path, monkeypatch):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"version": "1", "perspective": "reader", "questions": [
        {"id": "q1", "text": "Is it clear?", "kind": "true-false", "metric": "r-x"},
        {"id": "q2", "text": "How clear is it?", "kind": "likert", "levels": 7, "metric": "r-x"},
    ]}), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("y\n3\n"))
    output = tmp_path / "responses.json"
    assert run(capsys, "questionnaire", "fill", "--schema", str(schema), "--respondent", "r",
               "--output", str(output)) == (0, (
        "reader questionnaire, 2 questions\n"
        "[1/2] Is it clear? (y/n): [2/2] How clear is it? (1-7): "
        f"wrote {output}\n"), "")
    assert load_responses_file(output).answers == {"q1": True, "q2": 3}


def test_questionnaire_fill_bad_input_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("maybe\n"))
    code, _, err = run(capsys, "questionnaire", "fill",
                       "--schema", "reader", "--respondent", "r",
                       "--output", str(tmp_path / "r.json"))
    assert code == 2
    assert "expected" in err


def _fill_schema(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"version": "1", "perspective": "reader", "questions": [
        {"id": "q1", "text": "Is it clear?", "kind": "true-false", "metric": "r-x"},
        {"id": "q2", "text": "How clear is it?", "kind": "likert", "levels": 5, "metric": "r-x"},
    ]}), encoding="utf-8")
    return schema


def test_questionnaire_fill_takes_n_for_false(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("n\n5\n"))
    output = tmp_path / "responses.json"
    code, _, err = run(capsys, "questionnaire", "fill", "--schema", str(_fill_schema(tmp_path)),
                       "--respondent", "r", "--output", str(output))
    assert (code, err) == (0, "")
    assert load_responses_file(output).answers == {"q1": False, "q2": 5}


@pytest.mark.parametrize("answers, message", [
    ("perhaps\n", "error: expected y/n for q1, got 'perhaps'\n"),
    ("y\n", "error: input ended before question q2\n"),
    ("", "error: input ended before question q1\n"),
    ("y\n6\n", "error: level 6 outside [1, 5] for q2\n"),
    ("y\n0\n", "error: level 0 outside [1, 5] for q2\n"),
], ids=["bad-y/n", "ends-early", "empty", "above-range", "below-range"])
def test_questionnaire_fill_errors_exit_2_and_write_nothing(capsys, tmp_path, monkeypatch,
                                                            answers, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(answers))
    output = tmp_path / "responses.json"
    code, _, err = run(capsys, "questionnaire", "fill", "--schema", str(_fill_schema(tmp_path)),
                       "--respondent", "r", "--output", str(output))
    assert (code, err) == (2, message)
    assert not output.exists()


def test_model_inspect_text_lists_the_parser_warnings(capsys, tmp_path):
    model = tmp_path / "generic.bpmn"
    model.write_text('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">'
                     '<process id="p"><startEvent id="s"/><complexGateway id="cg"/>'
                     '<sequenceFlow id="f" sourceRef="s" targetRef="cg"/></process></definitions>',
                     encoding="utf-8")
    code, out, err = run(capsys, "model", "inspect", str(model))
    assert (code, err) == (0, "")
    assert ("edges:\n"
            "  f                s -> cg  [sequence]\n"
            "warnings:\n"
            "  unknown construct <complexGateway> kept as generic node (cg)\n"
            "metrics:\n") in out


def test_a_question_on_an_unknown_metric_fails_score(capsys, tmp_path, response_bundle):
    from procomp.defaults import modeler_questionnaire_document
    document = modeler_questionnaire_document()
    document["questions"][0]["metric"] = "m-nosuch"
    schema = tmp_path / "questionnaire_modeler.json"
    schema.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, *score_args(response_bundle, "--schema-modeler", str(schema)))
    assert (code, out) == (1, "")
    assert err.startswith("validation failure: modeler questionnaire does not fit the tree")
    assert "  unknown-metric: question targets unknown metric 'm-nosuch'\n" in err


def test_a_true_false_question_with_levels_exits_2_naming_its_file(capsys, tmp_path,
                                                                   response_bundle):
    from procomp.defaults import modeler_questionnaire_document
    document = modeler_questionnaire_document()
    index, question = next((i, q) for i, q in enumerate(document["questions"])
                           if q["kind"] == "true-false")
    question["levels"] = 5
    schema = tmp_path / "questionnaire_modeler.json"
    schema.write_text(json.dumps(document), encoding="utf-8")
    assert run(capsys, *score_args(response_bundle, "--schema-modeler", str(schema))) == (
        2, "", f"error: {schema}: question {question['id']!r}: true/false takes no levels\n")


@pytest.mark.parametrize("name, flag", [
    ("ett.json", "--ett"),
    ("questionnaire_modeler.json", "--schema-modeler"),
    ("questionnaire_reader.json", "--schema-reader"),
    ("languages/bpmn.json", "--languages"),
])
def test_each_config_document_is_found_in_the_config_dir_and_its_flag_wins(
        capsys, tmp_path, monkeypatch, response_bundle, name, flag):
    config, other = tmp_path / "config", tmp_path / "other"
    for target in (config, other):
        assert main(["init", str(target)]) == 0
    capsys.readouterr()
    (config / name).write_text("{", encoding="utf-8")
    monkeypatch.setenv("PROCOMP_CONFIG_DIR", str(config))
    code, out, err = run(capsys, *score_args(response_bundle))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config / name}: malformed JSON document")
    code, out, err = run(capsys, *score_args(response_bundle, flag, str(other / name)))
    assert (code, err) == (0, "")
    assert "Modeler score  (S_m):" in out


def command_paths(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Every command path of ``parser``, nested subcommands included: () first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from command_paths(subparser, (*path, name))


def exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


SCORE_REQUIRED = ["--model", "m.bpmn", "--modeler-responses", "m.json", "--reader-responses", "r.json"]


@pytest.mark.parametrize("argv", [
    *([*path, "--help"] for path in command_paths(cli.build_parser())),
    [], ["bogus"], ["ett"], ["ett", "bogus"],
    ["score", "--modeler-responses", "m.json", "--reader-responses", "r.json"],
    ["score", "--bogus"], ["score", *SCORE_REQUIRED, "--bogus"], ["score", "extra", *SCORE_REQUIRED],
    ["score", *SCORE_REQUIRED, "--jobs", "0"], ["init", ".", "--bogus"],
], ids=" ".join)
def test_help_and_parse_errors_match_the_full_parser(capsys, argv):
    # main builds the invoked command's parser alone; what it prints and exits with must
    # not tell, so every help, usage and error text is compared with the full parser's
    expected = exit_of(capsys, cli.build_parser().parse_args, argv)
    assert exit_of(capsys, main, argv) == expected
    assert expected[0] == (0 if "--help" in argv else 2)
