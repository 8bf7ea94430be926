"""Starts, times and reaps the benchmark's children, one at a time.

    python -S bench/launch.py    (driven by bench/run.py over stdin/stdout)

Reads one JSON request per line and answers each with one JSON line:

    {"probe": true}  ->  {"probe_s": seconds of the speed probe}
    {"argv": [...], "cwd": dir, "stdout": file, "stderr": file, "timeout": s}
                     ->  {"wall_s", "rc", "rss_kib", "cpu_s"} of that child

It runs in its own small interpreter because the peak RSS the kernel
reports for a child includes the peak of the process that spawned it;
spawned from the benchmark's main process, which holds numpy and every
record, the children would all read that larger figure. Children write to
files rather than pipes so that os.wait4 can reap them and return their
resource usage.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

# The speed probe: a fresh interpreter that imports numpy and exits. It
# uses none of abcc's code, and it tracks the machine's speed for abcc's
# commands better than an in-process loop does (measured: the spread of
# probe-scaled command times was about half).
PROBE = [sys.executable, "-c", "import numpy"]


def probe() -> float:
    start = time.perf_counter()
    proc = subprocess.Popen(PROBE, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, _ = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"speed probe {PROBE} exited {proc.returncode}")
    return wall


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "rss_kib": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"probe_s": probe()} if request.get("probe") else run(request)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
