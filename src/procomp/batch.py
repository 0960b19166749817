"""Scoring a batch of models against one plan: the report ``score`` writes
for several ``--model``s, as one library call.

``score_batch`` scores in this process, the empty batch included, or, when
``jobs``, the models and the CPUs allow more than one, in worker processes
started with the platform's default method, each with one one-way pipe:
worker ``k`` sends the entries of the models at ``k, k + N, ...``, and the
main process reads them back in ``--model`` order. The main process starts
no thread, so a forked worker inherits no lock that another thread held.
The workers ignore SIGINT, so Ctrl-C stops the main process alone, which
stops them and exits 130.
"""

from __future__ import annotations

import os
from contextlib import closing, contextmanager, suppress
from typing import Iterator

from .bpmn import model_id, parse_model_file
from .errors import ProcompError
from .pipeline import ScoringPlan
from .report import ReportFormat, batch_entry, frame_batch, report_format


def score_batch(plan: ScoringPlan, models: list[str], fmt: ReportFormat | str, jobs: int) -> Iterator[str]:
    """The pieces of the multi-model report of ``models`` in format ``fmt``,
    in ``models`` order, which ``"".join`` makes the report ``score`` writes.

    An unknown ``fmt`` raises ``ProcompError`` before any model is read. The
    models are scored in this process when ``min(jobs, len(models), usable
    CPUs)`` is at most 1, and otherwise in that many worker processes. The
    first model in order that fails raises its error. Closing the iterator,
    or its failing, stops the workers.
    """
    fmt = report_format(fmt)
    workers = min(jobs, len(models), _usable_cpus())
    if workers <= 1:
        entries = (_score_entry(plan, fmt, m) for m in models)
    else:
        entries = _piped_entries(plan, fmt, models, workers)
    with closing(entries):  # stops the workers, whatever ends the batch
        yield from frame_batch(entries, fmt)


def _score_entry(plan: ScoringPlan, fmt: ReportFormat, model_path: str) -> str:
    """One model's entry in a multi-model report."""
    graph = parse_model_file(model_path)
    return batch_entry(plan.evaluate(graph, model_id=model_id(model_path)), fmt)


def _score_share(plan: ScoringPlan, fmt: ReportFormat, models: list[str], sender, inherited) -> None:
    """A worker process: send each of ``models``' entries down ``sender``, or
    the error that stopped it. ``inherited`` are the read ends a forked worker
    holds of the main process's pipes, its own among them; once they are
    closed, a send fails with ``EPIPE`` when the main process stops reading,
    killed or not, and the worker ends."""
    import signal

    # fork and spawn children start with SIGINT ignored; a forkserver child has its handler restored
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for receiver in inherited:
        receiver.close()
    with suppress(BrokenPipeError):  # the main process failed, or is gone
        for model in models:
            try:
                sender.send(_score_entry(plan, fmt, model))
            except Exception as exc:  # the main process raises it in its turn
                sender.send(exc)
                break


@contextmanager
def _sigint_ignored():
    """SIGINT ignored while the block starts workers, which inherit that.
    Python sets handlers in the main thread alone; elsewhere the block runs
    as it is."""
    import signal

    try:
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def _usable_cpus() -> int:
    """The CPUs this process may run on, which its affinity can make fewer
    than the machine has."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _piped_entries(plan: ScoringPlan, fmt: ReportFormat, models: list[str], workers: int) -> Iterator[str]:
    """Each model's entry, in order: worker ``k`` scores the models at ``k,
    k + workers, ...`` and sends them down a pipe of its own, whose buffer
    bounds how far it runs ahead of the main process."""
    # imported here, so that scoring one model imports no process machinery
    import multiprocessing

    # the platform's default start method: the plan pickles for spawn and forkserver
    context = multiprocessing.get_context()
    receivers, processes = [], []
    try:
        with _sigint_ignored():
            for k in range(workers):
                receiver, sender = context.Pipe(duplex=False)
                receivers.append(receiver)
                inherited = tuple(receivers) if context.get_start_method() == "fork" else ()
                process = context.Process(target=_score_share,
                                          args=(plan, fmt, models[k::workers], sender, inherited))
                process.start()
                processes.append(process)
                sender.close()  # the worker holds the last write end: if it dies, recv sees EOF
        for index, model in enumerate(models):
            try:
                entry = receivers[index % workers].recv()
            except EOFError:  # the worker ended without sending it
                processes[index % workers].join()
                entry = ProcompError(f"{model}: the worker process scoring it ended with exit "
                                     f"code {processes[index % workers].exitcode}")
            if isinstance(entry, Exception):
                raise entry
            yield entry
    finally:
        for receiver, process in zip(receivers, processes):
            receiver.close()
            process.terminate()  # one that is done has exited; what a failure left is stopped
            process.join()
