"""Start one measured child and report its own resource use.

    python3 -I -S perfbench/launch.py FD TIMEOUT_S PROGRAM [ARG ...]

Runs PROGRAM with this process's stdin, stdout, stderr and environment,
reaps it with os.wait4 and writes one line to file descriptor FD: exit
status, wall seconds, user + sys seconds, the child's ru_maxrss in KiB and
this launcher's own peak resident set (VmHWM) in KiB when it started the
child.  A child still running after TIMEOUT_S is killed.

Linux carries the peak resident set of the address space a process execs
from into its ru_maxrss.  ``run.py`` starts this launcher, which loads only
built-in modules (``-S`` skips ``site``), so a child's ru_maxrss has the
launcher's small footprint as its floor instead of that of ``run.py``.
"""

import os
import signal
import sys
import time


def own_peak_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    fd, timeout, argv = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    os.set_inheritable(fd, False)
    floor = own_peak_kib()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    os.write(fd, ("%d %r %r %d %d\n" % (
        os.waitstatus_to_exitcode(status), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss, floor)).encode())


if __name__ == "__main__":
    main()
