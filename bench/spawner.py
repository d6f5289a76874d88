"""Start benchmark commands on behalf of run.py and report their usage.

Reads one JSON request per line on stdin:
    {"argv": [...], "cwd": DIR, "env": {...}, "timeout": SECONDS,
     "stdout": PATH, "stderr": PATH}
runs the command to completion and writes one JSON line back:
    {"wall": s, "cpu": s, "maxrss_kb": n, "code": n, "timed_out": bool}

A child's ru_maxrss starts from the peak RSS of the process it was forked
from, so run.py starts this small process before it loads qkneser and
builds its reference graphs; children forked from here report their own
peak instead of the runner's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "code": proc.returncode,
            "timed_out": fired.is_set()}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
