"""Starts the benchmark's timed processes from a small interpreter.

Linux charges a child the resident memory of the process it was forked from
until the child execs, so a child started by run.py, which holds numpy,
tlwaves and the check references, would report run.py's RSS as its own
peak.  This process imports nothing heavy and starts the children instead.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "stderr"}, and
one JSON reply per line on stdout, {"code", "start", "end", "cpu", "maxrss_kb"}.
start and end are time.perf_counter() readings (CLOCK_MONOTONIC, so
comparable with run.py's); cpu is the user+sys delta of
RUSAGE_CHILDREN; maxrss_kb is the child's own peak from wait4.  It exits at
the end of its input; on SIGTERM it kills and reaps the running child first.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import time


def run(argv: list, cwd: str, stderr_path: str) -> dict:
    with open(stderr_path, "wb") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"code": proc.returncode, "start": start, "end": end, "cpu": cpu, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run(), which kills the child
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["cwd"], request["stderr"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
