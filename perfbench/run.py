"""Benchmark of the hardsquares CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload index --seed 1 --seconds 30 --trace 0

Every command runs in a fresh interpreter with ``PYTHONPATH=<checkout>/src``,
one at a time, as a CLI user runs it, so the module caches are cold in each.
``launch.py`` starts each child and reports its time and rusage.  Each
command's exit status and stdout digest are checked against
``expected.json``.

``--trace 0`` repeats the workload's command list while the time budget
lasts, with a cold import of ``hardsquares.cli`` (set-up) timed before each
command.  Times are scaled to a reference host speed by a calibration unit
run around each command, and each command reports its median over the
passes.  ``--trace 1`` runs the list once untraced and once under
``tracer.py`` and reports per-layer figures.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records what
was measured (module path, source digest, Python version, CPU count, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
LAUNCHER = HERE / "launch.py"

COMMAND_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0
LAUNCHER_GRACE_S = 10.0
# A measured command's peak RSS must exceed the launcher's own by this
# much, or it could be the launcher's footprint rather than the program's.
RSS_MARGIN_MB = 1.0
# A fixed child process that calibrate() times, a small mix of the kinds
# of work the program does (big-integer products, sums over compatible-row
# lists, least rotations of tuples) and no hardsquares code.  It takes
# REFERENCE_CALIBRATION_S when the host runs at its reference speed.
CALIBRATION = """
a = [3 ** (i % 50) - i for i in range(60)]
for _ in range(12):
    a = [sum(a[j] * a[i - j] for j in range(i + 1)) % 10 ** 40 for i in range(60)]
rows = [r for r in range(1 << 12) if not r & (r >> 1)]
compat = [[i for i, x in enumerate(rows) if not x & y] for y in rows[:120]]
v = [1] * len(rows)
for _ in range(20):
    v = [sum(v[i] for i in c) % 1000003 for c in compat] + v[120:]
seqs = [tuple((i * 7 + j * 3) % 11 for j in range(10)) for i in range(1500)]
least = [min(s[k:] + s[:k] for k in range(len(s))) for s in seqs]
"""
REFERENCE_CALIBRATION_S = 0.1

PROBE = ("import time; t = time.perf_counter(); import hardsquares.cli; "
         "t = time.perf_counter() - t; import hardsquares, json; "
         "print(json.dumps({'import_s': t, 'file': hardsquares.__file__}))")


@dataclass
class Outcome:
    """One finished child: exit status (None if killed), output, resource use.

    ``floor_mb`` is the launcher's own peak resident set, the least
    ``rss_mb`` can read.
    """

    code: Optional[int]
    out: bytes
    wall: float
    cpu: float
    rss_mb: float
    floor_mb: float
    err: bytes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(ROOT / ".bench_build" / "pycache"),
    })
    for var in ("PYTHONSTARTUP", "PYTHONHOME", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


def spawn(argv: List[str], timeout: float) -> Outcome:
    """Run one child to completion through launch.py, which reports its use.

    A child past its timeout is killed by the launcher; a launcher that
    outlives that by LAUNCHER_GRACE_S is killed with its process group.
    """
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCHER), str(report_w),
             repr(timeout), *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(report_w,), start_new_session=True)
    finally:
        os.close(report_w)
    try:
        out, err = proc.communicate(timeout=timeout + LAUNCHER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        with os.fdopen(report_r, "rb") as report:
            fields = report.read().split()
    if proc.returncode != 0 or len(fields) != 5:
        raise RuntimeError("the launcher failed: "
                           + err.decode(errors="replace")[-300:])
    code, wall, cpu = int(fields[0]), float(fields[1]), float(fields[2])
    return Outcome(None if code < 0 else code, out, wall, cpu,
                   int(fields[3]) / 1024.0, int(fields[4]) / 1024.0, err)


def command_argv(cmd: workloads.Command) -> List[str]:
    kind, argv = cmd
    if kind == "cli":
        return [sys.executable, "-m", "hardsquares.cli", *argv]
    return [sys.executable, str(HERE / "sweep.py"), *argv]


class Checker:
    """Compares each command's exit status and stdout digest to the record."""

    def __init__(self) -> None:
        self.expected = json.loads(EXPECTED.read_text())
        self.attempted = 0
        self.failed = 0

    def check(self, template: workloads.Command, code: Optional[int],
              digest: str, detail: str = "") -> bool:
        want = self.expected[workloads.label(template)]
        ok = code == want["exit"] and digest == want["sha256"]
        self.attempted += 1
        if not ok:
            self.failed += 1
            why = (f"exit {code}, want {want['exit']}" if code != want["exit"]
                   else "stdout differs from expected.json")
            print(f"mismatch: {workloads.label(template)}: {why} {detail}".rstrip(),
                  file=sys.stderr)
        return ok


def timeout_left(deadline: float) -> float:
    return max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.perf_counter()))


def run_command(template: workloads.Command, seed: int, checker: Checker,
                deadline: float) -> Outcome:
    """One command in a fresh interpreter, its output checked."""
    res = spawn(command_argv(workloads.with_seed(template, seed)),
                timeout_left(deadline))
    ok = checker.check(template, res.code, hashlib.sha256(res.out).hexdigest(),
                       res.err.decode(errors="replace")[-300:])
    if ok and res.rss_mb < res.floor_mb + RSS_MARGIN_MB:
        raise RuntimeError(
            f"{workloads.label(template)}: peak RSS {res.rss_mb:.1f} MB is within "
            f"{RSS_MARGIN_MB} MB of the launcher's own {res.floor_mb:.1f} MB")
    return res


def calibrate(deadline: float) -> float:
    """Wall time of a fixed child process: the host's current speed."""
    res = spawn([sys.executable, "-c", CALIBRATION], timeout_left(deadline))
    if res.code != 0:
        raise RuntimeError("the calibration child failed: "
                           + res.err.decode(errors="replace")[-300:])
    return res.wall


def setup_probe(deadline: float) -> Tuple[float, str]:
    """One cold import of hardsquares.cli: (seconds, module file)."""
    res = spawn([sys.executable, "-c", PROBE], timeout_left(deadline))
    if res.code != 0:
        raise RuntimeError("importing hardsquares.cli failed: "
                           + res.err.decode(errors="replace")[-300:])
    probe = json.loads(res.out)
    return probe["import_s"], checked_module(probe["file"])


def checked_module(file: str) -> str:
    """hardsquares.__file__ of a child, which must lie in the checkout."""
    if not Path(file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hardsquares imported from outside {SRC}: {file}")
    return file


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; do not pick up an enclosing repository
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def measure(cmds, seed: int, seconds: float, checker: Checker) -> Tuple[dict, dict]:
    """Repeat the command list while the budget lasts.

    Each command follows a set-up probe, and the calibration child runs
    between commands.  The times of a probe and its command are scaled by
    REFERENCE_CALIBRATION_S over the mean of the two calibrations around
    them; each command reports the median of its scaled times over the
    passes.
    """
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    module = setup_probe(deadline)[1]  # also compiles the bytecode cache
    cal = calibrate(deadline)
    setup: List[float] = []
    walls: List[List[float]] = [[] for _ in cmds]
    cpus: List[List[float]] = [[] for _ in cmds]
    raw: List[List[float]] = []
    rss = floor = 0.0
    pass_s: List[float] = []
    while not pass_s or (time.perf_counter() - start
                         + statistics.mean(pass_s) <= seconds):
        t0 = time.perf_counter()
        raw.append([])
        for i, template in enumerate(cmds):
            import_s = setup_probe(deadline)[0]
            res = run_command(template, seed, checker, deadline)
            before, cal = cal, calibrate(deadline)
            scale = REFERENCE_CALIBRATION_S / ((before + cal) / 2)
            setup.append(import_s * scale)
            walls[i].append(res.wall * scale)
            cpus[i].append(res.cpu * scale)
            raw[-1].append(res.wall)
            rss = max(rss, res.rss_mb)
            floor = max(floor, res.floor_mb)
        pass_s.append(time.perf_counter() - t0)
    wall = [statistics.median(w) for w in walls]
    metrics = {
        "wall_s": (sum(wall), "s"),
        "slowest_cmd_s": (max(wall), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ops_ok_frac": ((checker.attempted - checker.failed) / checker.attempted,
                        "fraction"),
    }
    info = {"module": module, "raw_wall_s": raw, "launcher_rss_mb": floor}
    return metrics, info


def measure_traced(cmds, seed: int, checker: Checker) -> Tuple[dict, dict]:
    import tracer

    deadline = time.perf_counter() + RUN_DEADLINE_S
    plain_wall = sum(run_command(t, seed, checker, deadline).wall for t in cmds)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    stdout_bytes = 0
    traced_wall = 0.0
    module = None
    for template in cmds:
        kind, argv = workloads.with_seed(template, seed)
        res = spawn([sys.executable, str(HERE / "tracer.py"), kind, *argv],
                    timeout_left(deadline))
        traced_wall += res.wall
        if res.code != 0:
            checker.check(template, None, "", res.err.decode(errors="replace")[-300:])
            continue
        summary = json.loads(res.out)
        module = checked_module(summary["module"])
        checker.check(template, summary["exit"], summary["sha256"])
        if kind == "cli":
            stdout_bytes += summary["stdout_bytes"]
        for src, dst in ((summary["calls"], calls), (summary["self_s"], self_s),
                         (summary["counters"], counters)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value
    metrics = {}
    for name, unit in tracer.layer_metrics():
        func, _, what = name.rpartition(".")
        if name == "cli.stdout_bytes":
            value = stdout_bytes
        elif name == "trace.overhead_s":
            value = traced_wall - plain_wall
        elif name.startswith("layer."):
            layer = func.split(".")[1]
            value = sum(v for f, v in self_s.items()
                        if f.split(".")[0] == layer)
        elif what == "calls":
            value = calls.get(func, 0)
        elif what == "self_s":
            value = self_s.get(func, 0.0)
        else:
            value = counters.get(name, 0)
        metrics[name] = (value, unit)
    return metrics, {"module": module, "untraced_wall_s": plain_wall,
                     "traced_wall_s": traced_wall}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hardsquares" / "cli.py").is_file():
        print(f"error: no hardsquares sources under {SRC}", file=sys.stderr)
        return 2
    checker = Checker()
    cmds = workloads.commands(args.workload, args.seed)
    try:
        if args.trace:
            metrics, info = measure_traced(cmds, args.seed, checker)
        else:
            metrics, info = measure(cmds, args.seed, args.seconds, checker)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "order": [workloads.label(c) for c in cmds],
        "source_sha256": source_digest(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    print(json.dumps(info))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
