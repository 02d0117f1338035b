"""The two batch workloads and the import split.

``reproduce``: cold ``repro run-all --json --jobs 1`` of all 16
experiments, each pass in a fresh cache directory, repeated for
``--seconds`` (at least ``MIN_PASSES`` times).  The seed only permutes
the order the ids are passed in; the answers must not depend on it.

``replay``: one worker interpreter writes, replays and evaluates the
seeded bursty trace in cycles for ``--seconds`` (see ``worker.py``).
"""

from __future__ import annotations

import json
import re
from statistics import median
from typing import Dict, List

from common import PYTHON, BenchError, run_child, spawn_wall, worker
from worker import EXPERIMENT_IDS, seeded_order

SETUP_REPEATS = 5
MIN_PASSES = 3
MAX_PASSES = 8


def import_seconds(module: str) -> float:
    """Spawn to exit of a fresh interpreter that only imports ``module``."""
    return spawn_wall([PYTHON, "-c", f"import {module}"], timeout=120.0)


def run_reproduce(seed: int, seconds: float, scratch) -> Dict[str, object]:
    setups = [import_seconds("repro.cli") for _ in range(SETUP_REPEATS)]
    ids = seeded_order(seed)
    passes: List[Dict[str, float]] = []
    problems: List[str] = []
    failed = 0
    while len(passes) < MIN_PASSES or (
        sum(p["wall_s"] for p in passes) < seconds and len(passes) < MAX_PASSES
    ):
        cache = scratch / f"cache-{len(passes)}"
        wall, code, out, err, rss = run_child(
            [PYTHON, "-m", "repro", "run-all", *ids, "--json", "--jobs", "1",
             "--cache-dir", str(cache)],
            timeout=150.0,
        )
        if code != 0:
            raise BenchError(f"run-all exited {code}: {err.strip()[-800:]}")
        report = json.loads(out)
        outcomes = report["result"]
        bad = [o["id"] for o in outcomes if not (o["ok"] and o["status"] == "computed")]
        if len(outcomes) != len(EXPERIMENT_IDS) or bad:
            failed += max(len(bad), len(EXPERIMENT_IDS) - len(outcomes))
            problems.append(f"pass {len(passes)}: not computed cold: {bad}, counts {report['_meta']['counts']}")
        passes.append({"wall_s": wall, "rss_mb": rss, "dir": str(cache)})
    checked, _ = worker(["check-reproduce", *(p["dir"] for p in passes)], timeout=120.0)
    problems += checked["failures"]
    failed += len(checked["failures"])
    rss = median([p["rss_mb"] for p in passes])
    report = {
        "setup_s": (median(setups), "s"),
        "cold_run_all_s": (median([p["wall_s"] for p in passes]), "s"),
        "cold_run_all_s.min": (min(p["wall_s"] for p in passes), "s"),
        "cold_run_all_s.max": (max(p["wall_s"] for p in passes), "s"),
        "run_all_rss_mb": (rss, "MB"),
        "passes": (len(passes), "count"),
    }
    return {
        "attempted": len(passes) * len(EXPERIMENT_IDS),
        "failed": failed,
        "problems": problems,
        "report": report,
        "metrics": {
            "setup_s": report["setup_s"][0],
            "ops_per_s": median([len(EXPERIMENT_IDS) / p["wall_s"] for p in passes]),
            "rss_mb": rss,
        },
    }


def run_replay(seed: int, seconds: float, scratch) -> Dict[str, object]:
    setups = [import_seconds("repro.traces") for _ in range(SETUP_REPEATS)]
    result, rss = worker(["replay", str(seed), str(seconds), str(scratch)], timeout=170.0)
    cycles = result["cycles"]

    def rate(step: str) -> tuple:
        return median([c["flows"] / c[step] for c in cycles]), "flows/s"

    report = {
        "setup_s": (median(setups), "s"),
        "write_flows_per_s": rate("write_s"),
        "replay_flows_per_s": rate("replay_s"),
        "stream_flows_per_s": rate("stream_s"),
        "evaluate_ms": (median([c["evaluate_s"] for c in cycles]) * 1e3, "ms"),
        "rss_peak_mb": (rss, "MB"),
        "flows": (cycles[0]["flows"], "count"),
        "cycles": (len(cycles), "count"),
    }
    cycle_rates = [
        c["flows"] / (c["write_s"] + c["replay_s"] + c["stream_s"] + c["evaluate_s"])
        for c in cycles
    ]
    cycle_rate = median(cycle_rates)
    report["cycle_flows_per_s.min"] = (min(cycle_rates), "flows/s")
    report["cycle_flows_per_s.max"] = (max(cycle_rates), "flows/s")
    return {
        "attempted": 4 * len(cycles),
        "failed": len(result["failures"]),
        "problems": result["failures"],
        "report": report,
        "metrics": {"setup_s": report["setup_s"][0], "ops_per_s": cycle_rate, "rss_mb": rss},
    }


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_split(module: str = "repro.cli", repeats: int = 3) -> Dict[str, float]:
    """``-X importtime`` of ``module``: its cumulative time and the self
    time of each big package inside it, medians over fresh interpreters."""
    runs: List[Dict[str, float]] = []
    for _ in range(repeats):
        _, code, _, err, _ = run_child(
            [PYTHON, "-X", "importtime", "-c", f"import {module}"], timeout=120.0
        )
        if code != 0:
            raise BenchError(f"importing {module} failed: {err.strip()[-400:]}")
        run = {"import.total_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0,
               "import.repro_s": 0.0}
        for self_us, cumulative_us, name in _IMPORT_LINE.findall(err):
            package = f"import.{name.split('.')[0]}_s"
            if package in run and package != "import.total_s":
                run[package] += int(self_us) / 1e6
            if name == module:
                run["import.total_s"] = int(cumulative_us) / 1e6
        runs.append(run)
    return {name: median([r[name] for r in runs]) for name in runs[0]}
