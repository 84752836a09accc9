"""Small process launcher: reads one JSON request per line, runs it, replies with its usage.

A child's ``ru_maxrss`` includes the high-water mark of the process it was
forked from, so children are started from this lean process rather than
from the benchmark, which holds the generated inputs in memory.

Request: {"argv": [...], "env": {...}, "cwd": "...", "stderr": "path", "timeout": seconds}
Reply:   {"code": int, "wall_s": float, "cpu_s": float, "rss_mb": float}
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
