"""In-library work, run in a fresh interpreter with the checkout's ``src``.

Subcommands (each prints one JSON object as its last stdout line):

``oracle``
    Answers a JSON list of service queries (stdin) with an in-process
    ``EmulatorService`` and no cache: the reference the HTTP answers
    must equal.
``check-reproduce DIR...``
    Reads every experiment back from each cold ``run-all`` cache
    directory and checks the paper's checkpoints and S1's simulation.
``replay SEED SECONDS DIR``
    The ``replay`` workload's timed cycles.
``experiments SEED``
    The 16 experiments once, untraced (the twin that
    ``obs.trace_overhead_frac`` on ``reproduce`` compares against).
``layers WORKLOAD SEED DIR``
    The traced per-layer run: ``repro.obs`` spans from this file around
    calls into each module's public functions; writes a Chrome trace and
    the hotspot table into DIR.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import statistics
import sys
import time
from typing import Dict, List

#: The replay workload: one seeded bursty (two-state MMPP) stream,
#: ~1.1M flows, evaluated at a capacity 1% above the mean rate, where
#: the reservation threshold binds.
REPLAY_SHAPE = "bursty"
REPLAY_RATE = 2200.0
REPLAY_HORIZON = 500.0
REPLAY_WARMUP = 50.0
REPLAY_WINDOWS = 16
REPLAY_CAPACITY = 2222.0
REPLAY_MIN_CYCLES = 5
REPLAY_MAX_CYCLES = 10

EXPERIMENT_IDS = (
    "F1", "F2", "F3", "F4", "T1", "T2", "T3", "T4", "T5",
    "C1", "S5.1", "S5.2", "S1", "TR1", "TR2", "TR3",
)


def seeded_order(seed: int) -> List[str]:
    """The experiment ids in a seed-chosen order (results must not care)."""
    ids = list(EXPERIMENT_IDS)
    random.Random(f"{seed}/experiments").shuffle(ids)
    return ids


def _done(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# correctness references
# ----------------------------------------------------------------------


def _answer(svc, req: dict) -> dict:
    kwargs = {k: req[k] for k in ("kbar", "engine") if k in req}
    call = svc.point if req["endpoint"] == "point" else svc.batch
    return call(req["quantity"], req["load"], req["utility"], req["x"], **kwargs)


def cmd_oracle() -> None:
    from repro.emulator import fit_bank
    from repro.service import EmulatorService

    queries = json.loads(sys.stdin.read())
    svc = EmulatorService(bank=fit_bank(), cache=None)
    answers = []
    for req in queries:
        ans = _answer(svc, req)
        values = [ans["value"]] if req["endpoint"] == "point" else ans["values"]
        answers.append({"values": values, "source": ans["source"]})
    _done({"answers": answers})


def _experiment_failures(exp_id: str, result) -> List[str]:
    """Paper checkpoints must match; S1's simulated gap must sit in its CI."""
    failures = []
    if exp_id.startswith("T") and not exp_id.startswith("TR"):
        for row in result:
            if not row.matches:
                failures.append(f"{row.exp_id}: measured {row.measured!r}, paper {row.paper_value}")
    if exp_id == "S1":
        sim, analytic, ci = (float(result[k]) for k in ("sim_gap", "analytic_gap", "sim_gap_ci"))
        if not abs(sim - analytic) <= ci:
            failures.append(f"S1: sim_gap {sim!r} vs analytic_gap {analytic!r} beyond CI {ci!r}")
    return failures


def cmd_check_reproduce(dirs: List[str]) -> None:
    from repro.experiments import registry
    from repro.experiments.params import DEFAULT_CONFIG
    from repro.runner import ResultCache, decode_result

    failures, checked = [], 0
    for root in dirs:
        cache = ResultCache(root)
        for exp_id in EXPERIMENT_IDS:
            entry = cache.load(registry.get(exp_id), DEFAULT_CONFIG)
            checked += 1
            if entry is None:
                failures.append(f"{root}: {exp_id} has no stored result")
                continue
            result = decode_result(entry["result_kind"], entry["result"])
            failures += _experiment_failures(exp_id, result)
    _done({"checked": checked, "failures": failures})


# ----------------------------------------------------------------------
# replay workload
# ----------------------------------------------------------------------


def _summary_text(result) -> str:
    return json.dumps(result.summary(), sort_keys=True)


def cmd_replay(seed: int, seconds: float, scratch: str) -> None:
    from repro.traces import default_workload, open_trace, sweep_occupancy, write_trace_npz
    from repro.utility import AdaptiveUtility

    workload = default_workload(REPLAY_SHAPE, REPLAY_RATE)
    utility = AdaptiveUtility()
    sweep = dict(windows=REPLAY_WINDOWS, warmup=REPLAY_WARMUP)
    cycles, failures = [], []
    start = time.perf_counter()
    while len(cycles) < REPLAY_MIN_CYCLES or (
        time.perf_counter() - start < seconds and len(cycles) < REPLAY_MAX_CYCLES
    ):
        path = pathlib.Path(scratch) / f"trace-{len(cycles)}"
        t0 = time.perf_counter()
        write_trace_npz(workload.stream(REPLAY_HORIZON, seed=seed), path)
        t1 = time.perf_counter()
        from_disk = sweep_occupancy(open_trace(path), **sweep)
        t2 = time.perf_counter()
        from_gen = sweep_occupancy(workload.stream(REPLAY_HORIZON, seed=seed), **sweep)
        t3 = time.perf_counter()
        verdict = from_disk.evaluate(utility, REPLAY_CAPACITY)
        t4 = time.perf_counter()
        written = json.loads((path / "index.json").read_text())["flows"]
        if _summary_text(verdict) != _summary_text(from_gen.evaluate(utility, REPLAY_CAPACITY)):
            failures.append(f"cycle {len(cycles)}: disk and generator summaries differ")
        if not written == from_disk.flows == from_gen.flows:
            failures.append(
                f"cycle {len(cycles)}: flows written {written}, read {from_disk.flows}, "
                f"streamed {from_gen.flows}"
            )
        shutil.rmtree(path)
        cycles.append({
            "flows": written, "write_s": t1 - t0, "replay_s": t2 - t1,
            "stream_s": t3 - t2, "evaluate_s": t4 - t3,
        })
    _done({"cycles": cycles, "failures": failures})


# ----------------------------------------------------------------------
# traced per-layer run
# ----------------------------------------------------------------------


def _run_experiments(seed: int, obs=None) -> Dict[str, float]:
    from repro.experiments import registry
    from repro.experiments.params import DEFAULT_CONFIG

    failures = []
    start = time.perf_counter()
    for exp_id in seeded_order(seed):
        exp = registry.get(exp_id)
        if obs is None:
            result = exp.run(DEFAULT_CONFIG)
        else:
            with obs.span(f"exp.{exp_id}"):
                result = exp.run(DEFAULT_CONFIG)
        failures += _experiment_failures(exp_id, result)
    return {"wall_s": time.perf_counter() - start, "failures": failures}


def cmd_experiments(seed: int) -> None:
    _done(_run_experiments(seed))


class _Layers:
    """Span bookkeeping: per-name durations out of the recorded forest."""

    def __init__(self, obs):
        self.obs = obs
        self.attempted = 0
        self.failures: List[str] = []

    def durations(self, name: str) -> List[float]:
        out = []

        def visit(span):
            if span.name == name:
                out.append(span.duration)
            for child in span.children:
                visit(child)

        for root in self.obs.trace_roots():
            visit(root)
        return out

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise RuntimeError(f"no {name!r} spans were recorded")
        return statistics.median(values)

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def _status_mb(field: str) -> float:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def _traces_layer(obs, layers: _Layers, seed: int, scratch: pathlib.Path) -> Dict[str, float]:
    """The replay steps one at a time, each off a fresh stream of the same seed.

    Nothing holds the whole trace: write and sweep consume the generator
    as the ``replay`` workload does, so ``traces.write_s`` and
    ``traces.sweep_s`` include generation (``traces.generate_s`` is that
    share alone) and ``traces.rss_delta_mb`` is the streaming path's own
    peak over the resident set it started from (Linux: the peak is reset
    through ``/proc/self/clear_refs``).
    """
    from repro.traces import default_workload, open_trace, sweep_occupancy, write_trace_npz
    from repro.utility import AdaptiveUtility

    workload = default_workload(REPLAY_SHAPE, REPLAY_RATE)

    def stream():
        return workload.stream(REPLAY_HORIZON, seed=seed)

    pathlib.Path("/proc/self/clear_refs").write_text("5")
    rss_before = _status_mb("VmHWM")
    flows = 0
    with obs.span("traces.generate"):
        for chunk in stream():
            flows += len(chunk)
    path = scratch / "trace"
    with obs.span("traces.write"):
        write_trace_npz(stream(), path)
    size = sum(f.stat().st_size for f in path.iterdir())
    read = 0
    with obs.span("traces.read"):
        for chunk in open_trace(path):
            read += len(chunk)
    # not "traces.sweep": the program records a span of that name itself
    with obs.span("traces.sweep_occupancy"):
        occ = sweep_occupancy(stream(), windows=REPLAY_WINDOWS, warmup=REPLAY_WARMUP)
    with obs.span("traces.evaluate"):
        occ.evaluate(AdaptiveUtility(), REPLAY_CAPACITY)
    rss_delta = _status_mb("VmHWM") - rss_before
    shutil.rmtree(path)
    layers.attempted += 5
    if not flows == read == occ.flows:
        layers.failures.append(f"traces: generated {flows}, read {read}, swept {occ.flows}")
    return {
        "traces.generate_s": layers.total("traces.generate"),
        "traces.write_s": layers.total("traces.write"),
        "traces.bytes_per_flow": size / flows,
        "traces.read_s": layers.total("traces.read"),
        "traces.sweep_s": layers.total("traces.sweep_occupancy"),
        "traces.evaluate_s": layers.total("traces.evaluate"),
        "traces.max_pending": float(occ.max_pending),
        "traces.rss_delta_mb": rss_delta,
    }


def _service_layers(obs, layers: _Layers, seed: int, scratch: pathlib.Path) -> Dict[str, float]:
    import numpy as np

    import traffic
    from repro.emulator import fit_bank
    from repro.runner import ResultCache
    from repro.service import EmulatorService

    class TimedCache(ResultCache):
        """The result cache with a span around each public call."""

        lookups = hits = 0

        def load(self, exp, config):
            with obs.span("runner.cache.load"):
                entry = super().load(exp, config)
            self.lookups += 1
            self.hits += entry is not None
            return entry

        def store(self, exp, config, result):
            with obs.span("runner.cache.store"):
                return super().store(exp, config, result)

    out: Dict[str, float] = {}
    with obs.span("emulator.fit_bank"):
        bank = fit_bank()
    out["emulator.fit_bank_s"] = layers.total("emulator.fit_bank")
    svc = EmulatorService(bank=bank, cache=None)
    described = svc.describe()
    surface_reqs = traffic.surface_requests(seed, described, 4000, "layers")
    points = [r for r in surface_reqs if r["endpoint"] == "point"]
    batches = [r for r in surface_reqs if r["endpoint"] == "batch"]

    # emulator kernels: too fast for a span per call, so one span per loop
    with obs.span("emulator.eval_scalar"):
        for r in points:
            bank.lookup(r["quantity"], r["load"], r["utility"]).eval_scalar(r["x"])
    out["emulator.eval_scalar_us"] = layers.total("emulator.eval_scalar") / len(points) * 1e6
    grids = [(bank.lookup(r["quantity"], r["load"], r["utility"]), np.asarray(r["x"])) for r in batches]
    with obs.span("emulator.evaluate64"):
        for surface, xs in grids:
            surface.evaluate(xs)
    out["emulator.evaluate64_us"] = layers.total("emulator.evaluate64") / len(grids) * 1e6

    # service core on the surface mix: one span per call
    surface_sources = []
    for r in points:
        with obs.span("service.point.surface"):
            surface_sources.append(_answer(svc, r)["source"])
    for r in batches:
        with obs.span("service.batch.surface"):
            surface_sources.append(_answer(svc, r)["source"])
    out["service.point_surface_us"] = layers.median("service.point.surface") * 1e6
    out["service.batch_surface_us"] = layers.median("service.batch.surface") * 1e6
    layers.attempted += len(surface_sources)
    if surface_sources.count("surface") != len(surface_sources):
        layers.failures.append("service: an in-domain query left the surfaces")

    # exact models, no cache: first occurrences of each kind of miss
    history: List[dict] = []
    exact_reqs = traffic.exact_requests(seed, described, 600, "layers", history)
    fresh = [r for r in history if r["endpoint"] == "point" and "engine" not in r]
    for r in fresh:
        kind = "kbar" if "kbar" in r else r["quantity"]
        with obs.span(f"models.exact.{kind}"):
            _answer(svc, {**r, "endpoint": "batch", "x": [r["x"]]})
    for kind in ("delta", "Delta", "gamma", "kbar"):
        out[f"models.exact_point_ms.{kind}"] = layers.median(f"models.exact.{kind}") * 1e3
    layers.attempted += len(fresh)

    # mean-field engine: first solve per (load, kbar) against memo reads
    mf_svc = EmulatorService(bank=bank, cache=None)
    seen = set()
    for r in exact_reqs:
        if r.get("engine") != "meanfield":
            continue
        name = "meanfield.memo" if r["kbar"] in seen else "meanfield.first"
        seen.add(r["kbar"])
        with obs.span(name):
            _answer(mf_svc, r)
        layers.attempted += 1
    out["meanfield.first_ms"] = layers.median("meanfield.first") * 1e3
    out["meanfield.memo_ms"] = layers.median("meanfield.memo") * 1e3

    # the exact ladder through the result cache, in request order
    cache_dir = scratch / "cache"
    cache = TimedCache(cache_dir)
    cached = EmulatorService(bank=bank, cache=cache)
    for r in exact_reqs:
        if "engine" in r or r["endpoint"] != "point":
            continue
        hits = cache.hits
        with obs.span("service.point.exact") as span:
            _answer(cached, r)
        span.annotate(hit=cache.hits > hits)
        layers.attempted += 1
    by_outcome: Dict[bool, List[float]] = {True: [], False: []}
    for root in obs.trace_roots():
        if root.name == "service.point.exact":
            by_outcome[bool(root.labels.get("hit"))].append(root.duration)
    out["service.point_exact_hit_ms"] = statistics.median(by_outcome[True]) * 1e3
    out["service.point_exact_miss_ms"] = statistics.median(by_outcome[False]) * 1e3
    out["runner.cache.load_ms"] = layers.median("runner.cache.load") * 1e3
    out["runner.cache.store_ms"] = layers.median("runner.cache.store") * 1e3
    out["runner.cache.hit_ratio"] = cache.hits / cache.lookups
    out["runner.cache.lookups"] = float(cache.lookups)
    out["runner.cache.bytes_written"] = float(
        sum(f.stat().st_size for f in cache_dir.rglob("*") if f.is_file())
    )
    return out


def _overhead(obs, workload: str, seed: int) -> Dict[str, float]:
    """Untraced then traced wall of the workload's own operation, in-process.

    ``reproduce`` is not handled here: its traced experiments run first
    in the layers process and the untraced twin runs in a fresh one.
    """
    import traffic
    from repro.emulator import fit_bank
    from repro.service import EmulatorService

    if workload == "replay":
        from repro.traces import default_workload, sweep_occupancy

        shape = default_workload(REPLAY_SHAPE, REPLAY_RATE)

        def op():
            with obs.span("overhead.sweep"):
                sweep_occupancy(shape.stream(REPLAY_HORIZON, seed=seed),
                                windows=REPLAY_WINDOWS, warmup=REPLAY_WARMUP)
    else:
        svc = EmulatorService(bank=fit_bank(), cache=None)
        described = svc.describe()
        if workload == "serve-surface":
            reqs = traffic.surface_requests(seed, described, 4000, "overhead")
        else:
            reqs = traffic.exact_requests(seed, described, 200, "overhead", [])

        def op():
            for r in reqs:
                with obs.span("overhead.request"):
                    _answer(svc, r)

        obs.disable()
        op()  # warm the models' memoised tables before either timing
    walls = {}
    for name, traced in (("untraced_s", False), ("traced_s", True)):
        obs.enable() if traced else obs.disable()
        start = time.perf_counter()
        op()
        walls[name] = time.perf_counter() - start
    obs.enable()
    return walls


def cmd_layers(workload: str, seed: int, scratch: str) -> None:
    from repro import obs
    from repro.obs import traceview

    out_dir = pathlib.Path(scratch)
    obs.reset()
    obs.enable()
    layers = _Layers(obs)
    start = time.perf_counter()
    # the experiments first, so they start from the same fresh state as
    # their untraced twin in ``cmd_experiments``
    experiments = _run_experiments(seed, obs)
    metrics = {f"exp.{exp_id}_s": layers.total(f"exp.{exp_id}") for exp_id in EXPERIMENT_IDS}
    metrics.update(_traces_layer(obs, layers, seed, out_dir))
    layers.attempted += len(EXPERIMENT_IDS)
    layers.failures += experiments["failures"]
    metrics.update(_service_layers(obs, layers, seed, out_dir))
    if workload == "reproduce":
        overhead = {"traced_s": experiments["wall_s"]}
    else:
        overhead = _overhead(obs, workload, seed)
    wall = time.perf_counter() - start
    roots = obs.trace_roots()
    (out_dir / "chrome-trace.json").write_text(json.dumps(traceview.chrome_trace(roots)))
    report = traceview.hotspots(roots, wall_seconds=wall)
    (out_dir / "hotspots.txt").write_text(traceview.render_hotspots(report, top=30) + "\n")
    obs.disable()
    _done({
        "metrics": metrics,
        "overhead": overhead,
        "attempted": layers.attempted,
        "failures": layers.failures,
    })


def main(argv: List[str]) -> None:
    command, args = argv[0], argv[1:]
    if command == "oracle":
        cmd_oracle()
    elif command == "check-reproduce":
        cmd_check_reproduce(args)
    elif command == "replay":
        cmd_replay(int(args[0]), float(args[1]), args[2])
    elif command == "experiments":
        cmd_experiments(int(args[0]))
    elif command == "layers":
        cmd_layers(args[0], int(args[1]), args[2])
    else:
        raise SystemExit(f"unknown worker command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
