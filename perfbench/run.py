#!/usr/bin/env python3
"""Benchmark for ``procomp score``: end-to-end and per-module metrics.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload large-structured --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

A run generates the workload's BPMN models and response files from the
seed and writes the default config with ``procomp init`` (the checker reads
those documents). With ``--trace 0`` it then repeats, for ``--seconds``,
rounds of: one ``procomp score`` over all models and three over one minimal
model, each in a fresh interpreter (``score_s``, ``setup_s``,
``peak_rss_mib``), and one pass of parse -> evaluate -> export over all
models in a warm process (``model_ms_p50``). Every timing is the fastest of
the run's samples (see README.md for why). With ``--trace 1`` it runs the
traced pass of ``worker.py`` instead and reports the per-module metrics.

Every output is checked by ``check.py`` against by-construction raw values
and an independent recomputation of every score, and a checker self-test
runs on each run's output. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` is the number of models in one pass over the workload and
``failed`` the number of them that hit the known block-structuredness
fault; every counted pass (full ``score`` invocations, warm and traced
rounds) must reach the same verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

ENTRY = "import sys; from procomp.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import procomp.cli; "
                "print(time.perf_counter() - t)")
SETUP_CALLS_PER_ROUND = 3
IMPORT_REPEATS = 5
RUN_DEADLINE_S = 170     # a run is abandoned after this long

EXTRACTOR_KEYS = (
    "node-count", "edge-count", "gateway-count", "or-gateway-count",
    "start-event-count", "end-event-count", "max-degree",
    "average-connector-degree", "nesting-depth", "unlabeled-ratio",
    "block-structuredness", "subprocess-count", "data-object-count",
    "lane-count", "pool-count", "distinct-kind-count",
    "gateway-mismatch-count", "density",
)
END_TO_END = {"score_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "model_ms_p50": "ms"}
# span name -> metric name, for spans reported as per-pass totals
SPAN_TOTALS = {
    "bpmn.parse": "bpmn.parse_s",
    "metrics.extract": "metrics.extract_s",
    **{f"metrics.{k}": f"metrics.{k}_s" for k in EXTRACTOR_KEYS},
    "ett.ensure_weighted": "ett.ensure_weighted_s",
    "questionnaire.validate_schema": "questionnaire.validate_schema_s",
    "questionnaire.score_responses": "questionnaire.score_responses_s",
    "languages.registry_values": "languages.registry_values_s",
    "scoring.detect_noise": "scoring.detect_noise_s",
    "pipeline.evaluate": "pipeline.evaluate_s",
    "report.export_json": "report.export_json_s",
    "report.export_csv": "report.export_csv_s",
}
PER_LAYER = {
    "defaults.load_s": "s",
    "questionnaire.load_responses_s": "s",
    "cli.import_s": "s",
    "bpmn.parse_mb_per_s": "MB/s",
    "bpmn.flow_nodes": "count",
    **{metric: "s" for metric in SPAN_TOTALS.values()},
    "metrics.extractor_calls": "count",
    "metrics.distinct_binding_ratio": "ratio",
    "metrics.block-structuredness_peak_mib": "MiB",
    "questionnaire.score_responses_calls": "count",
    "pipeline.self_s": "s",
    "trace.model_ms_p50": "ms",
    "trace.untraced_model_ms_p50": "ms",
    "trace.wrapper_call_us": "us",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The program could not be run; no result is printed."""


class _Deadline(Exception):
    pass


def _env() -> dict:
    """Children import the checkout's ``src``, may cache its bytecode as an
    installed package has it, and use the default config (the one the
    checker reads), whatever the caller's environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("PYTHONDONTWRITEBYTECODE", "PROCOMP_CONFIG_DIR"):
        env.pop(name, None)
    return env


class Children:
    """Every process a run starts, so that all of them can be stopped.

    Timed invocations go through ``launcher.py``, started before this
    process grows, so that their peak memory is their own.
    """

    def __init__(self, work: Path):
        self.work = work
        self.live: list[subprocess.Popen] = []
        self.launcher = self.start([str(HERE / "launcher.py")], stderr=subprocess.DEVNULL)

    def start(self, argv: list[str], stderr) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=stderr, env=_env(), text=True)
        self.live.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen) -> int:
        proc.stdin.close()
        code = proc.wait()
        proc.stdout.close()
        self.live.remove(proc)
        return code

    def cli(self, args: list[str]) -> dict:
        """Run ``procomp ARGS`` to completion through the launcher; return
        its wall time, CPU time and peak memory. Raises if it fails."""
        stderr = self.work / "stderr.txt"
        request = {"argv": [sys.executable, "-c", ENTRY, *args], "env": _env(),
                   "stderr": str(stderr)}
        try:
            self.launcher.stdin.write(json.dumps(request) + "\n")
            self.launcher.stdin.flush()
        except BrokenPipeError:
            raise BenchError("launcher ended early") from None
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError("launcher ended early")
        result = json.loads(line)
        if result["code"] != 0:
            detail = stderr.read_text(encoding="utf-8", errors="replace").strip()[-2000:]
            raise BenchError(f"procomp {args[0]} exited with {result['code']}: {detail}")
        return result

    def stop(self) -> None:
        for proc in self.live:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream and not stream.closed:
                    try:
                        stream.close()
                    except BrokenPipeError:
                        pass
        self.live.clear()


class Tally:
    """Verdicts per distinct output. ``attempted`` and ``failed`` count the
    models of one pass over the workload, so they depend only on the seed;
    every counted pass of a run must reach the same verdicts."""

    def __init__(self, ref: check.Reference):
        self.ref = ref
        self.cache: dict[str, list] = {}
        self.verdicts: list[tuple[str, str]] | None = None
        self.wrong: list[str] = []

    def verify(self, text: str, entries: list[dict], fmt: str, counted: bool = False) -> None:
        """Check one invocation's output; ``counted`` marks a pass over all
        of the workload's models."""
        key = hashlib.sha256(f"{fmt}\0{text}".encode()).hexdigest()
        if key not in self.cache:
            self.cache[key] = check.check_output(self.ref, entries, fmt, text)
            for name, verdict, problems in self.cache[key]:
                if verdict == "wrong":
                    self.wrong.append(f"{name}: " + "; ".join(problems[:4]))
        if not counted:
            return
        verdicts = [(name, verdict) for name, verdict, _ in self.cache[key]]
        if self.verdicts is None:
            self.verdicts = verdicts
        elif verdicts != self.verdicts:
            self.wrong.append("two passes over the same models reached different verdicts")

    @property
    def attempted(self) -> int:
        return len(self.verdicts or ())

    @property
    def failed(self) -> int:
        return sum(1 for _, verdict in self.verdicts or () if verdict == "known-fault")

    def self_test(self, text: str, entries: list[dict], fmt: str) -> None:
        missed = check.self_test(self.ref, entries, fmt, text)
        if missed:
            self.wrong.append(f"checker self-test ({fmt}) missed altered {', '.join(missed)}")


def prepare(name: str, seed: int, children: Children) -> tuple[dict, check.Reference]:
    work = children.work
    children.cli(["init", str(work / "config")])
    manifest = gen.generate(name, seed, work / "inputs", work / "config")
    ref = check.Reference(work / "config", manifest["modeler_answers"], manifest["reader_answers"])
    return manifest, ref


def score_argv(manifest: dict, entries: list[dict], output: Path) -> list[str]:
    argv = ["score"]
    for entry in entries:
        argv += ["--model", entry["path"]]
    argv += ["--modeler-responses", manifest["modeler_responses"],
             "--reader-responses", *manifest["reader_responses"],
             "--format", manifest["format"], "--jobs", str(manifest["jobs"]),
             "--output", str(output)]
    return argv


def _job(manifest: dict, work: Path, mode: str, seconds: float) -> tuple[Path, Path, Path]:
    outputs = work / f"{mode}-outputs"
    job = {
        "src": str(SRC), "mode": mode, "seconds": seconds, "format": manifest["format"],
        "models": [{k: e[k] for k in ("name", "path", "bytes")} for e in manifest["models"]],
        "modeler_responses": manifest["modeler_responses"],
        "reader_responses": manifest["reader_responses"],
        "outputs": str(outputs),
    }
    job_path = work / f"{mode}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    return job_path, work / f"{mode}-result.json", outputs


def run_worker(children: Children, manifest: dict, mode: str, seconds: float = 0.0,
               between_rounds=None) -> dict:
    """Run ``worker.py``. In ``serve`` mode ``between_rounds()`` is called
    before each round and returns False to end the session."""
    work = children.work
    job, result_path, outputs = _job(manifest, work, mode, seconds)
    stderr_path = work / f"{mode}-stderr.txt"
    with open(stderr_path, "wb") as stderr:
        proc = children.start([str(HERE / "worker.py"), str(job), str(result_path)], stderr)
    try:
        while between_rounds is not None and between_rounds():
            proc.stdin.write("round\n")
            proc.stdin.flush()
            if proc.stdout.readline().strip() != "ok":
                break
        if between_rounds is not None:
            proc.stdin.write("end\n")
    except BrokenPipeError:
        pass
    if children.finish(proc) != 0:
        detail = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-2000:]
        raise BenchError(f"worker ({mode}) failed: {detail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["texts"] = {key: (outputs / key).read_text(encoding="utf-8")
                       for key in result["outputs"]}
    return result


def verify_worker(tally: Tally, manifest: dict, result: dict) -> None:
    fmt = manifest["format"]
    other = "csv" if fmt == "json" else "json"
    for label, rounds in result["model_ms"].items():
        if not rounds:
            continue
        if result["distinct_outputs"][label] != 1:
            tally.wrong.append(f"{label} rounds gave {result['distinct_outputs'][label]} "
                               "different outputs for the same inputs")
        tally.verify(result["texts"][f"{label}.{fmt}"], manifest["models"], fmt, counted=True)
        tally.verify(result["texts"][f"{label}.{other}"], manifest["models"], other)


def model_p50(rounds: list[list[float]]) -> float:
    """Median over models of each model's fastest round."""
    return statistics.median(min(times) for times in zip(*rounds))


def measure_end_to_end(children: Children, manifest: dict, ref: check.Reference, seconds: float):
    """Rounds of one full invocation, a few minimal ones and one warm pass,
    interleaved so that every metric samples the whole run."""
    tally = Tally(ref)
    fmt = manifest["format"]
    full_out, setup_out = children.work / "score.out", children.work / "setup.out"
    full = score_argv(manifest, manifest["models"], full_out)
    setup = score_argv(manifest, [manifest["minimal"]], setup_out)
    children.cli(setup)  # untimed: compiles the program's bytecode cache
    full_runs, setup_runs = [], []
    start = time.perf_counter()

    def cli_round() -> bool:
        if full_runs and time.perf_counter() - start >= seconds:
            return False
        full_runs.append(children.cli(full))
        tally.verify(full_out.read_text(encoding="utf-8"), manifest["models"], fmt, counted=True)
        for _ in range(SETUP_CALLS_PER_ROUND):
            setup_runs.append(children.cli(setup))
            tally.verify(setup_out.read_text(encoding="utf-8"), [manifest["minimal"]], fmt)
        return True

    worker = run_worker(children, manifest, "serve", between_rounds=cli_round)
    verify_worker(tally, manifest, worker)
    tally.self_test(worker["texts"][f"untraced.{fmt}"], manifest["models"], fmt)
    if fmt != "json":
        tally.self_test(worker["texts"]["untraced.json"], manifest["models"], "json")
    metrics = {
        "score_s": min(r["wall_s"] for r in full_runs),
        "setup_s": min(r["wall_s"] for r in setup_runs),
        "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in full_runs) / 1024.0,
        "model_ms_p50": model_p50(worker["model_ms"]["untraced"]),
    }
    notes = {
        "rounds (score, setup, warm)":
            f"{len(full_runs)}, {len(setup_runs)}, {len(worker['model_ms']['untraced'])}",
        "median score_s (reference only)": round(statistics.median(r["wall_s"] for r in full_runs), 4),
        "CPU s of the fastest score invocation (reference only)":
            round(min(full_runs, key=lambda r: r["wall_s"])["cpu_s"], 4),
    }
    return tally, metrics, notes


def measure_traced(children: Children, manifest: dict, ref: check.Reference, seconds: float):
    tally = Tally(ref)
    imports = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                               capture_output=True, text=True, timeout=60, check=False)
        if probe.returncode != 0:
            raise BenchError(f"import probe failed: {probe.stderr.strip()[-2000:]}")
        imports.append(float(probe.stdout.strip()))
    worker = run_worker(children, manifest, "trace", seconds)
    verify_worker(tally, manifest, worker)
    tally.self_test(worker["texts"]["traced.json"], manifest["models"], "json")
    rounds = worker["spans"]

    def fastest(span: str) -> float:
        return min(r["totals"].get(span, 0.0) for r in rounds)

    for span, metric in SPAN_TOTALS.items():
        if not any(span in r["totals"] for r in rounds):
            tally.wrong.append(f"span {span} never fired in a traced round, so {metric} "
                               "would read 0: the call it wraps has left the score path")

    calls = [c for r in rounds for c in r["extractor_calls"]]
    distinct = [d / c for r in rounds for d, c in zip(r["distinct_bindings"], r["extractor_calls"])]
    traced_p50 = model_p50(worker["model_ms"]["traced"])
    untraced_p50 = model_p50(worker["model_ms"]["untraced"])
    # spans inside a model's time: all but the export of the other format
    spans = statistics.median(sum(r["counts"].values()) for r in rounds) - len(manifest["models"])
    untraced_round_ms = sum(min(times) for times in zip(*worker["model_ms"]["untraced"]))
    metrics = {
        "defaults.load_s": worker["defaults_load_s"],
        "questionnaire.load_responses_s": worker["load_responses_s"],
        "cli.import_s": min(imports),
        "bpmn.parse_mb_per_s": worker["bytes"] / fastest("bpmn.parse") / 1e6,
        "bpmn.flow_nodes": worker["flow_nodes"],
        **{metric: fastest(span) for span, metric in SPAN_TOTALS.items()},
        "metrics.extractor_calls": statistics.median(calls) if calls else 0,
        "metrics.distinct_binding_ratio": statistics.median(distinct) if distinct else 0.0,
        "metrics.block-structuredness_peak_mib": worker["block_peak_bytes"] / 2 ** 20,
        "questionnaire.score_responses_calls": rounds[0]["counts"].get(
            "questionnaire.score_responses", 0),
        "pipeline.self_s": min(r["pipeline_self_s"] for r in rounds),
        "trace.model_ms_p50": traced_p50,
        "trace.untraced_model_ms_p50": untraced_p50,
        "trace.wrapper_call_us": worker["wrapper_call_s"] * 1e6,
        "trace.overhead_pct": worker["wrapper_call_s"] * 1e3 * spans / untraced_round_ms * 100.0,
    }
    notes = {"rounds (untraced, traced)": f"{len(worker['model_ms']['untraced'])}, {len(rounds)}"}
    return tally, metrics, notes


class _Scratch:
    """A work directory under perfbench/.work and the children of one run;
    both are gone when the block ends, however it ends."""

    def __init__(self, label: str):
        if not (SRC / "procomp" / "cli.py").is_file():
            raise BenchError(f"no program to benchmark: {SRC / 'procomp'} is missing")
        self.work = WORK / f"{label}-{os.getpid()}"

    def __enter__(self) -> Children:
        self.work.mkdir(parents=True)
        self.children = Children(self.work)
        return self.children

    def __exit__(self, *exc) -> None:
        self.children.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def run(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One workload run: the result object and human-readable lines."""
    with _Scratch(f"{name}-{seed}-{trace}") as children:
        manifest, ref = prepare(name, seed, children)
        measure = measure_traced if trace else measure_end_to_end
        tally, metrics, notes = measure(children, manifest, ref, seconds)
    if not tally.attempted:
        raise BenchError("no pass over the workload's models was checked")
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    faults = sum(1 for e in manifest["models"] if e["known_fault"])
    lines = [f"workload {name}  seed {seed}  trace {trace}: attempted {tally.attempted} "
             f"models per pass, failed {tally.failed} "
             f"({faults} hold the known block-structuredness fault)"]
    lines += [f"  {k}: {v}" for k, v in notes.items()]
    lines += [f"  {k:<42} {metrics[k]:>14.6g} {unit}" for k, unit in units.items()]
    lines += [f"  WRONG {w}" for w in tally.wrong[:20]]
    return result, lines


def jobs_reference(seed: int, pairs: int = 5) -> str:
    """Wall and CPU time of batch-small at --jobs 1 against --jobs 2."""
    with _Scratch(f"jobs-{seed}") as children:
        manifest, _ = prepare("batch-small", seed, children)
        runs: dict[int, list[dict]] = {1: [], 2: []}
        for i in range(pairs):
            for jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
                argv = score_argv(dict(manifest, jobs=jobs), manifest["models"],
                                  children.work / "out")
                runs[jobs].append(children.cli(argv))
    return "\n".join(
        f"batch-small --jobs {j}: fastest score {min(r['wall_s'] for r in runs[j]):.3f} s, "
        f"median {statistics.median(r['wall_s'] for r in runs[j]):.3f} s wall, "
        f"median {statistics.median(r['cpu_s'] for r in runs[j]):.3f} s CPU ({pairs} runs)"
        for j in (1, 2))


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, then the --jobs reference."""
    summary = {}
    for name in gen.WORKLOADS:
        for trace in (0, 1):
            result, lines = run(name, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            summary[f"{name}/trace{trace}"] = result
    print(jobs_reference(seed), flush=True)
    print(json.dumps(summary))
    return 0


def _timeout(signum, frame):
    raise _Deadline(f"run exceeded {RUN_DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(RUN_DEADLINE_S)
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
        signal.alarm(0)
    except (BenchError, _Deadline, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
