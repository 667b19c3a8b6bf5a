"""Spawns run.py's timed child processes from a process that stays small.

    python3 perfbench/launch.py   (run.py starts it; one JSON request a line)

Linux carries the spawning process's high-water RSS into a child at exec, so
the peak RSS that wait4 reports for a child is at least its parent's. run.py
imports numpy and shepwm to check answers; children spawned from here report
their own peak. Each request {"argv", "cwd", "env", "cpus"} gets one reply
line {"wall", "cpu", "rss_kb", "rc"}, with stdout and stderr of the child in
cwd/stdout.txt and cwd/stderr.txt. The child runs on the CPUs listed in
"cpus". The process exits at end of input.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        cwd = req["cwd"]
        os.sched_setaffinity(0, req["cpus"])  # inherited by the child
        with open(os.path.join(cwd, "stdout.txt"), "wb") as fo, \
                open(os.path.join(cwd, "stderr.txt"), "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=cwd, env=req["env"],
                                    stdout=fo, stderr=fe)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_kb": ru.ru_maxrss, "rc": proc.returncode}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
