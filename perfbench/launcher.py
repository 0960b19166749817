"""Spawns and times the benchmark's timed child processes.

A child's peak resident memory as Linux reports it (``ru_maxrss``) never
falls below the resident size of the process that spawned it, because the
count carries over through ``exec``. ``run.py`` grows while it checks
outputs, so it starts this small process first and has it spawn every
timed child. Protocol, one JSON object per line:

    stdin:  {"argv": [...], "env": {...}, "stderr": "path"}
    stdout: {"wall_s": ..., "cpu_s": ..., "maxrss_kib": ..., "code": ...}

Wall time runs from just before the spawn to the return of ``wait4``.
"""

import json
import os
import signal
import sys
import time

_child = None


def _stop(signum, frame):
    """On SIGTERM, end the running child before exiting."""
    if _child is not None:
        try:
            os.kill(_child, signal.SIGKILL)
            os.waitpid(_child, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    sys.exit(1)


def main() -> int:
    global _child
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        job = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, job["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        _child = os.posix_spawn(job["argv"][0], job["argv"], job["env"], file_actions=actions)
        _, status, usage = os.wait4(_child, 0)
        wall = time.perf_counter() - start
        _child = None
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status),
        }) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
