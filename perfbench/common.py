"""Shared helpers: paths, child interpreters, /proc readings, statistics.

Nothing here imports ``repro``.  The benchmark's own process stays a
plain client of the program (it drives the CLI, the HTTP service and
the library through child interpreters), so its cost never lands in
the numbers it measures.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
#: Scratch space inside the checkout (listed in the root .gitignore).
SCRATCH = ROOT / ".perfbench"

PYTHON = sys.executable
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The program could not be driven (missing source, crashed child)."""


def require_source() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")


def child_env() -> Dict[str, str]:
    """Environment for every child interpreter: the checkout's source only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def scratch_dir(tag: str) -> pathlib.Path:
    path = SCRATCH / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_child(
    argv: Sequence[str], *, timeout: float, stdin: Optional[str] = None
) -> Tuple[float, int, str, str, float]:
    """Run one child to completion.

    Returns ``(wall_s, returncode, stdout, stderr, maxrss_mb)``.  The
    child is reaped with ``wait4`` so the peak RSS is that child's own
    ``ru_maxrss``, and the wall time ends the moment it exits.  Output
    goes through files in the scratch directory, never through pipes a
    blocked reader could deadlock on.
    """
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=SCRATCH) as fin, tempfile.TemporaryFile(
        "w+", dir=SCRATCH
    ) as fout, tempfile.TemporaryFile("w+", dir=SCRATCH) as ferr:
        if stdin is not None:
            fin.write(stdin)
            fin.seek(0)
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            stdin=fin,
            stdout=fout,
            stderr=ferr,
            env=child_env(),
            cwd=str(ROOT),
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall >= timeout:
            raise BenchError(f"child timed out after {timeout:.0f} s: {argv}")
        fout.seek(0)
        ferr.seek(0)
        return wall, proc.returncode, fout.read(), ferr.read(), usage.ru_maxrss / 1024.0


def spawn_wall(argv: Sequence[str], *, timeout: float) -> float:
    """Wall time from spawn to a clean exit (set-up probes)."""
    wall, code, _, err, _ = run_child(argv, timeout=timeout)
    if code != 0:
        raise BenchError(f"{argv} exited {code}: {err.strip()[-400:]}")
    return wall


def worker(args: Sequence[str], *, timeout: float, stdin: Optional[str] = None):
    """Run ``perfbench/worker.py`` in a fresh interpreter.

    Returns its JSON answer and the worker's peak RSS in MB.
    """
    argv = [PYTHON, str(HERE / "worker.py"), *args]
    _, code, out, err, rss = run_child(argv, timeout=timeout, stdin=stdin)
    if code != 0:
        raise BenchError(f"worker {args[0]} exited {code}: {err.strip()[-800:]}")
    return json.loads(out.strip().splitlines()[-1]), rss


# ----------------------------------------------------------------------
# /proc readings for a live child (Linux)
# ----------------------------------------------------------------------


def proc_hwm_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has consumed."""
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    # fields[11], fields[12] are utime, stime (stat fields 14 and 15)
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100].

    Nearest rank, not interpolation, so a failed request entered as
    ``inf`` counts as missing the latency instead of poisoning it.
    """
    data = sorted(values)
    if not data:
        raise BenchError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return data[rank - 1]


def supported_tail(count: int, wanted: float) -> float:
    """The wanted percentile, or the highest one with 10 samples beyond it."""
    if count <= 10:
        return 50.0
    return min(wanted, 100.0 * (1.0 - 10.0 / count))


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and relative spreads of a run-to-run sample."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(med) if med else 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / scale,
        "range_frac": (max(values) - min(values)) / scale,
    }


def host_probe() -> float:
    """Seconds a plain Python loop of 10^6 additions takes (median of 5).

    Printed before and after a ``--steady`` set, so a set taken while
    the host changed speed can be told from a change in the program.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(result: Dict[str, object]) -> None:
    """The machine-readable result: always the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)


def table(title: str, rows: List[Tuple[str, float, str]]) -> None:
    """Human-readable metric table (printed before the JSON line)."""
    print(f"== {title}")
    width = max(len(name) for name, _, _ in rows) if rows else 0
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
