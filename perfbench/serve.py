"""The two service workloads: ``repro serve`` in its own process, loaded from here.

Schedule of one run (all phases on one server, after set-up):

1. set-up: the server is spawned ``SETUP_REPEATS`` times, each time
   timed from spawn to the first 200 from ``/healthz`` (import,
   ``fit_bank``, bind); the last one stays up.  The server runs on its
   own cores, apart from this process;
2. open loop at the workload's ``lo`` rate, then at its ``hi`` rate,
   each for ``OPEN_SHARE`` of ``--seconds``;
3. closed loop: ``passes`` passes of a fixed request count on
   ``CONNECTIONS`` keep-alive connections; the peak is the median over
   passes of answers per second of wall time, so a pass the host slowed
   down does not move it;
4. the server's ``VmHWM`` and CPU time are read, then it is stopped
   with SIGINT (what an operator's Ctrl-C sends) and its exit status
   and "Task was destroyed but it is pending!" lines are recorded.

Every 200 answer is then compared with an in-process ``EmulatorService``
(fresh interpreter, no cache) on the same query.  The traced run's
transport probe takes the same path with one server and the ``lo``
phase only, and reads the server's ``/v1/metrics`` before the stop.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

import loadgen
import traffic
from common import (
    PYTHON,
    ROOT,
    BenchError,
    child_env,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    supported_tail,
    worker,
)

HOST = "127.0.0.1"
#: One connection per core, as the load generator's ceiling.
CONNECTIONS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
OPEN_SHARE = 0.25
SHUTDOWN_WARNING = "Task was destroyed but it is pending!"
#: The cores this process may use, read once before any pinning.
CORES = sorted(os.sched_getaffinity(0))

#: Rates sized on a 2-core machine so that ``hi`` sits near half the
#: closed-loop peak; ``tail`` is the percentile reported beside p50.
SCHEDULES = {
    "serve-surface": {"lo": 500.0, "hi": 3500.0, "tail": 99.0, "passes": 10, "closed_requests": 3000},
    "serve-exact": {"lo": 40.0, "hi": 90.0, "tail": 90.0, "passes": 10, "closed_requests": 180},
}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _pin_apart(server_pid: int) -> None:
    """Keep the load generator and the server on different cores.

    Otherwise the scheduler now and then stacks both on one core and a
    whole run reads at half speed.  The core set is the one this process
    started with (``CORES``), not its current mask, which the first call
    narrows.  With a single core there is nothing to separate.
    """
    if len(CORES) >= 2:
        os.sched_setaffinity(server_pid, CORES[1:])
        os.sched_setaffinity(0, CORES[:1])


class Server:
    """One ``repro serve`` child with a fresh cache directory."""

    def __init__(self, scratch, tag: str):
        self.port = _free_port()
        self.stderr_path = scratch / f"server-{tag}.stderr"
        self._stderr = open(self.stderr_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [PYTHON, "-m", "repro", "serve", "--host", HOST, "--port", str(self.port),
             "--cache-dir", str(scratch / f"cache-{tag}")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._stderr,
            env=child_env(), cwd=str(ROOT),
        )
        try:
            _pin_apart(self.proc.pid)
            ready = loadgen.wait_healthy(
                HOST, self.port, start + 120.0, lambda: self.proc.poll() is None
            )
        except OSError as exc:  # includes the refusals and the timeout
            self.stop()
            raise BenchError(f"server failed to start: {exc}; {self.stderr_tail()}") from None
        self.setup_s = ready - start

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text()[-600:]

    def stop(self) -> Tuple[Optional[int], int]:
        """SIGINT, then wait; returns (exit status or None if killed, warnings)."""
        status: Optional[int] = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            status = self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()
        warnings = self.stderr_path.read_text().count(SHUTDOWN_WARNING)
        return status, warnings


def _latencies(records: List[loadgen.Record]) -> List[float]:
    """Latency from due time; a failed request counts as never answered."""
    return [r.latency_ms if r.status == 200 else float("inf") for r in records]


def _phase(label: str, records, lags, tail: float) -> Dict[str, tuple]:
    lat = _latencies(records)
    q = supported_tail(len(lat), tail)
    return {
        f"p50_ms.{label}": (percentile(lat, 50.0), "ms"),
        f"p{q:g}_ms.{label}": (percentile(lat, q), "ms"),
        f"client.queue_wait_ms.{label}": (percentile([r.queue_wait_ms for r in records], q), "ms"),
        f"client.gen_lag_ms.{label}": (percentile(lags, q), "ms"),
        f"requests.{label}": (len(records), "count"),
    }


def _decoded(rec: loadgen.Record) -> Optional[dict]:
    """The JSON object of a 200 answer, or None for anything else."""
    if rec.status != 200:
        return None
    try:
        answer = json.loads(rec.body)
    except ValueError:
        return None
    return answer if isinstance(answer, dict) else None


def check_answers(workload: str, sent: List[Tuple[dict, loadgen.Record]]) -> Tuple[int, List[str]]:
    """Compare every 200 answer with the in-process service; returns (failed, problems)."""
    failed, problems = 0, []
    answered = []
    for req, rec in sent:
        answer = _decoded(rec)
        if answer is None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"HTTP {rec.status} for {traffic.key(req)[:160]}")
            continue
        answered.append((req, answer))
    unique = {traffic.key(req): req for req, _ in answered}
    order = list(unique)
    reference, _ = worker(["oracle"], timeout=170.0, stdin=json.dumps([unique[k] for k in order]))
    want = dict(zip(order, reference["answers"]))
    for req, got in answered:
        ref = want[traffic.key(req)]
        source = got.get("source")
        try:
            values = traffic.answer_values(req, got)
        except (KeyError, TypeError):
            values = []
        source_ok = source == ref["source"] and (
            (source == "surface") == (workload == "serve-surface")
        )
        if not (source_ok and traffic.matches(values, ref["values"], exact=source == "surface")):
            failed += 1
            if len(problems) < 10:
                problems.append(
                    f"wrong answer for {traffic.key(req)[:160]}: got {source} "
                    f"{values[:3]}, want {ref['source']} {ref['values'][:3]}"
                )
    return failed, problems


def run_serve(workload: str, seed: int, seconds: float, scratch, traced: bool = False) -> Dict[str, object]:
    """One run of a service workload; every 200 answer is checked.

    ``traced`` is the traced run's transport probe: one server, the
    ``lo`` phase only, and the server's own handler p50 read from
    ``/v1/metrics`` before it stops.
    """
    plan = SCHEDULES[workload]
    setups = []
    for i in range(0 if traced else SETUP_REPEATS - 1):
        server = Server(scratch, f"setup{i}")
        setups.append(server.setup_s)
        server.stop()
    server = Server(scratch, "load")
    setups.append(server.setup_s)
    try:
        described = loadgen.get_json(HOST, server.port, "/v1/surfaces")
        history: List[dict] = []

        def requests(count: int, tag: str) -> List[dict]:
            if workload == "serve-surface":
                return traffic.surface_requests(seed, described, count, tag)
            return traffic.exact_requests(seed, described, count, tag, history)

        sent: List[Tuple[dict, loadgen.Record]] = []
        report: Dict[str, tuple] = {}
        cpu_before = proc_cpu_s(server.proc.pid)
        for label in ("lo",) if traced else ("lo", "hi"):
            rate = plan[label]
            reqs = requests(int(rate * seconds * OPEN_SHARE), label)
            records, lags = loadgen.open_loop(
                HOST, server.port, [traffic.payload(r) for r in reqs], rate, CONNECTIONS
            )
            sent += zip(reqs, records)
            report.update(_phase(label, records, lags, plan["tail"]))
            points = [rec for req, rec in zip(reqs, records) if req["endpoint"] == "point"]
            report[f"point_p50_ms.{label}"] = (percentile(_latencies(points), 50.0), "ms")
        rates = []
        for i in range(0 if traced else plan["passes"]):
            reqs = requests(plan["closed_requests"], f"closed{i}")
            records, wall = loadgen.closed_loop(
                HOST, server.port, [traffic.payload(r) for r in reqs], CONNECTIONS
            )
            sent += zip(reqs, records)
            rates.append(sum(r.status == 200 for r in records) / wall)
        cpu_ms = (proc_cpu_s(server.proc.pid) - cpu_before) * 1e3
        rss = proc_hwm_mb(server.proc.pid)
        if traced:
            hist = loadgen.get_json(HOST, server.port, "/v1/metrics")["metrics"]["histograms"]
            report["service.http.handler_ms"] = (hist["service.http.point.latency_ms"]["p50"], "ms")
    finally:
        status, warnings = server.stop()
    answers = [a for a in (_decoded(rec) for _, rec in sent) if a is not None]
    report.update({
        "setup_s": (median(setups), "s"),
        "server_rss_mb": (rss, "MB"),
        "server_cpu_ms_per_req": (cpu_ms / len(sent), "ms"),
        "service.errors": (len(sent) - len(answers), "count"),
        "service.surface_share": (
            sum(a.get("source") == "surface" for a in answers) / max(1, len(answers)), "ratio"),
        "service.exit_status": (-1 if status is None else status, "code"),
        "service.shutdown_warnings": (warnings, "count"),
    })
    metrics = {}
    if not traced:
        report.update({
            "peak_rps": (median(rates), "req/s"),
            "peak_rps.min": (min(rates), "req/s"),
            "peak_rps.max": (max(rates), "req/s"),
        })
        metrics = {"setup_s": report["setup_s"][0], "ops_per_s": report["peak_rps"][0], "rss_mb": rss}
    failed, problems = check_answers(workload, sent)
    return {
        "attempted": len(sent),
        "failed": failed,
        "problems": problems,
        "report": report,
        "metrics": metrics,
    }
