"""Spawns the request processes of run.py and reports what ``os.wait4`` says
of each.

On Linux the max RSS that ``wait4`` reports for a child counts the memory
the child had before its ``exec``, and that memory is a copy (fork) or a
share (vfork) of its parent's address space.  run.py holds the expected
answers of a run, about 200 MB, so a request spawned from it would report
at least that much.  run.py therefore starts this small process before it
computes anything and spawns every ``vdc`` process through it: the floor
under a request's max RSS is this launcher's own peak, which it reports in
every reply.

Protocol, one JSON object per line: requests on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``; replies on stdout,
``{"rc", "wall_ms", "cpu_ms", "rss_mb", "launcher_rss_mb"}``.  The child
runs in the launcher's working directory with the launcher's environment,
and its stdout and stderr go to the named files, so the launcher never
holds a response.  It exits at the end of stdin.
"""

import json
import os
import resource
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def own_peak_mb() -> float:
    """Peak RSS of this process's address space since its ``exec``, the
    floor it puts under a child's max RSS.  ``getrusage`` would also count
    the run.py memory this process had before its own ``exec``."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        argv = req["argv"]
        files = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], WRITE, 0o644),
                 (os.POSIX_SPAWN_OPEN, 2, req["stderr"], WRITE, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "rc": os.waitstatus_to_exitcode(status),
            "wall_ms": wall * 1000,
            "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1000,
            "rss_mb": usage.ru_maxrss / 1024,
            "launcher_rss_mb": own_peak_mb(),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
