"""The repository's benchmark: reproduce, serve and replay, timed from outside.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve-surface --seed 1 --trace 1
    python3 perfbench/run.py --workload replay --steady 5 --seed 100

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` is the separate traced run that reports the
per-layer split (and writes a Chrome trace plus a hotspot table under
``.perfbench/traces/``).  ``--steady K`` runs the workload K times with
seeds ``seed .. seed+K-1`` in fresh processes and prints each metric's
median, quartiles and spread, with a host probe (a plain Python loop)
timed before and after the set.  The last line of standard output is
always one JSON object; everything before it is for people.

Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import common
from common import PYTHON, SCRATCH, BenchError, emit, metric, run_child, spread, table
from worker import EXPERIMENT_IDS

WORKLOADS = ("reproduce", "serve-surface", "serve-exact", "replay")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "rss_mb": "MB"}

#: Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.repro_s": "s",
    **{f"exp.{i}_s": "s" for i in EXPERIMENT_IDS},
    "runner.cache.load_ms": "ms",
    "runner.cache.store_ms": "ms",
    "runner.cache.hit_ratio": "ratio",
    "runner.cache.lookups": "count",
    "runner.cache.bytes_written": "B",
    "models.exact_point_ms.delta": "ms",
    "models.exact_point_ms.Delta": "ms",
    "models.exact_point_ms.gamma": "ms",
    "models.exact_point_ms.kbar": "ms",
    "meanfield.first_ms": "ms",
    "meanfield.memo_ms": "ms",
    "emulator.fit_bank_s": "s",
    "emulator.eval_scalar_us": "us",
    "emulator.evaluate64_us": "us",
    "service.point_surface_us": "us",
    "service.batch_surface_us": "us",
    "service.point_exact_hit_ms": "ms",
    "service.point_exact_miss_ms": "ms",
    "service.http.handler_ms": "ms",
    "service.transport_us": "us",
    "service.server_cpu_ms_per_req": "ms",
    "client.queue_wait_ms": "ms",
    "client.gen_lag_ms": "ms",
    "service.surface_share": "ratio",
    "service.errors": "count",
    "service.shutdown_warnings": "count",
    "traces.generate_s": "s",
    "traces.write_s": "s",
    "traces.bytes_per_flow": "B/flow",
    "traces.read_s": "s",
    "traces.sweep_s": "s",
    "traces.evaluate_s": "s",
    "traces.max_pending": "count",
    "traces.rss_delta_mb": "MB",
    "obs.trace_overhead_frac": "ratio",
}


def untraced(workload: str, seed: int, seconds: float, scratch) -> dict:
    if workload == "reproduce":
        from jobs import run_reproduce
        outcome = run_reproduce(seed, seconds, scratch)
    elif workload == "replay":
        from jobs import run_replay
        outcome = run_replay(seed, seconds, scratch)
    else:
        from serve import run_serve
        outcome = run_serve(workload, seed, seconds, scratch)
    table(f"{workload} (seed {seed})",
          [(k, v, unit) for k, (v, unit) in sorted(outcome["report"].items())])
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem}")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: metric(v, END_TO_END[k]) for k, v in outcome["metrics"].items()},
    }


def traced(workload: str, seed: int, seconds: float, scratch) -> dict:
    from jobs import import_split
    from serve import run_serve

    values = import_split()
    layers, _ = common.worker(["layers", workload, str(seed), str(scratch)], timeout=170.0)
    values.update(layers["metrics"])
    overhead = layers["overhead"]
    if workload == "reproduce":
        twin, _ = common.worker(["experiments", str(seed)], timeout=120.0)
        overhead["untraced_s"] = twin["wall_s"]
    values["obs.trace_overhead_frac"] = (
        overhead["traced_s"] - overhead["untraced_s"]) / overhead["untraced_s"]
    # transport: the surface mix over HTTP at its lo rate, answers checked
    http = run_serve("serve-surface", seed, seconds, scratch, traced=True)
    report = http["report"]
    values.update({
        "service.http.handler_ms": report["service.http.handler_ms"][0],
        "service.transport_us": report["point_p50_ms.lo"][0] * 1e3 - values["service.point_surface_us"],
        "service.server_cpu_ms_per_req": report["server_cpu_ms_per_req"][0],
        "client.queue_wait_ms": report["client.queue_wait_ms.lo"][0],
        "client.gen_lag_ms": report["client.gen_lag_ms.lo"][0],
        "service.surface_share": report["service.surface_share"][0],
        "service.errors": report["service.errors"][0],
        "service.shutdown_warnings": report["service.shutdown_warnings"][0],
    })
    failures = list(layers["failures"]) + http["problems"]
    failed = len(layers["failures"]) + http["failed"]
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise BenchError(f"traced run produced no value for {missing}")

    out = SCRATCH / "traces"
    out.mkdir(parents=True, exist_ok=True)
    chrome = out / f"{workload}-seed{seed}.chrome.json"
    shutil.copyfile(scratch / "chrome-trace.json", chrome)
    hotspots = (scratch / "hotspots.txt").read_text()
    (out / f"{workload}-seed{seed}.hotspots.txt").write_text(hotspots)
    table(f"{workload} per-layer (seed {seed})",
          [(k, values[k], PER_LAYER[k]) for k in PER_LAYER])
    print(f"== hotspots (chrome trace: {chrome.relative_to(common.ROOT)})")
    print(hotspots, end="")
    for problem in failures:
        print(f"  FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": layers["attempted"] + http["attempted"],
        "failed": failed,
        "metrics": {k: metric(values[k], PER_LAYER[k]) for k in PER_LAYER},
    }


def steady(args) -> dict:
    """Run the workload ``--steady`` times in fresh processes; report spreads."""
    samples = {}
    failed = attempted = 0
    correct = True
    probe_before = common.host_probe()
    for i in range(args.steady):
        argv = [PYTHON, __file__, "--workload", args.workload, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        _, code, out, err, _ = run_child(argv, timeout=900.0)
        if code != 0:
            raise BenchError(f"run {i} exited {code}: {err.strip()[-800:]}")
        result = json.loads(out.strip().splitlines()[-1])
        correct &= result["correct"]
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{args.steady} seed {args.seed + i}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in sorted(result["metrics"].items())), flush=True)
    probe_after = common.host_probe()
    print(f"== steadiness of {args.workload}: {args.steady} runs, seeds "
          f"{args.seed}..{args.seed + args.steady - 1}, --seconds {args.seconds}; "
          f"host probe {probe_before:.4f} s before, {probe_after:.4f} s after")
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}")
    report = {}
    for name, values in sorted(samples.items()):
        s = spread(values)
        report[name] = s
        print(f"  {name:<34} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['iqr_frac']:>8.3f} {s['range_frac']:>9.3f}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "workload": args.workload, "spread": report,
            "host_probe_s": [probe_before, probe_after]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run (repetitions stop after it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run K times with consecutive seeds and report spreads")
    args = parser.parse_args(argv)
    scratch = None
    try:
        common.require_source()
        if args.steady:
            emit(steady(args))
            return 0
        # byte-compile first, so no measured import pays for it
        subprocess.run([PYTHON, "-m", "compileall", "-q", str(common.SRC)],
                       check=True, stdout=subprocess.DEVNULL, env=common.child_env())
        scratch = common.scratch_dir(f"{args.workload}-{args.seed}")
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, scratch)
        else:
            result = untraced(args.workload, args.seed, args.seconds, scratch)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
