"""The exact fallback's long-lived engines.

One engine per (config without its axes, load, utility) answers every
query grid, shared by δ, Δ and γ; these tests hold it to the answers
of freshly built engines, to its memo bound and to its lock.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.emulator import DOMAINS, fit_bank
from repro.emulator import bank as bank_mod
from repro.models import VariableLoadModel, WelfareModel
from repro.runner.cache import ResultCache
from repro.service import EmulatorService

#: The tolerance the service's end-to-end oracle allows exact answers.
RTOL = 1e-12


@pytest.fixture(scope="module")
def bank():
    return fit_bank(quantities=("delta", "gamma"), loads=("poisson",))


@pytest.fixture()
def empty_memo():
    bank_mod._ENGINES.clear()
    yield bank_mod._ENGINES
    bank_mod._ENGINES.clear()


def _ask(service, query):
    quantity, load, utility, xs, kbar = query
    return service.batch(quantity, load, utility, xs, kbar=kbar)["values"]


def _fresh_answer(bank, query):
    bank_mod._ENGINES.clear()
    return _ask(EmulatorService(bank=bank, cache=None), query)


def _mixed_queries(seed):
    """δ/Δ/γ misses of every kind — rigid, beyond the domains, what-if k̄ —
    shuffled, with a third of them asked twice."""
    rng = random.Random(seed)
    c_hi, p_hi = DOMAINS["delta"][1], DOMAINS["gamma"][1]
    queries = []
    for _ in range(4):
        queries += [
            ("delta", "poisson", "rigid", [rng.uniform(20.0, 300.0)], None),
            ("Delta", "poisson", "rigid", [rng.uniform(60.0, 300.0)], None),
            ("gamma", "poisson", "rigid", [rng.uniform(1e-3, 0.3)], None),
            ("delta", "exponential", "adaptive", [rng.uniform(c_hi, 2.5 * c_hi)], None),
            ("Delta", "poisson", "adaptive", [rng.uniform(60.0, 400.0)], None),
            ("gamma", "poisson", "adaptive", [rng.uniform(p_hi, 1.25 * p_hi)], None),
            ("delta", "poisson", "adaptive", [rng.uniform(60.0, 400.0)], 115.0),
            ("Delta", "algebraic", "adaptive", [rng.uniform(60.0, 400.0)], 85.0),
        ]
    queries += queries[::3]
    rng.shuffle(queries)
    return queries


def test_long_lived_service_answers_as_fresh_engines_do(bank, empty_memo, tmp_path):
    service = EmulatorService(bank=bank, cache=ResultCache(tmp_path))
    queries = _mixed_queries(seed=15)
    served = [_ask(service, q) for q in queries]
    assert len(empty_memo) > 1  # engines were shared, not rebuilt
    for query, got in zip(queries, served):
        want = _fresh_answer(bank, query)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=str(query))


@pytest.mark.parametrize("quantity", ["delta", "Delta"])
def test_rigid_answers_do_not_depend_on_earlier_queries(
    bank, empty_memo, tmp_path, quantity
):
    # rigid V_B and V_R jump at integer C: a capacity one ulp below 57
    # must not be served the value cached for 57 (or the reverse)
    below = float(np.nextafter(57.0, 0.0))
    service = EmulatorService(bank=bank, cache=ResultCache(tmp_path))
    queries = [
        (quantity, "poisson", "rigid", xs, None)
        for xs in ([57.0], [below], [below, 57.0], [57.0], [below])
    ]
    served = [_ask(service, q) for q in queries]
    assert len(empty_memo) == 1  # all on one long-lived engine
    for query, got in zip(queries, served):
        want = _fresh_answer(bank, query)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0, err_msg=str(query))
    assert abs(served[0][0] - served[1][0]) > 1e-3  # the jump is really there


def test_memo_keeps_one_engine_per_load_utility_kbar(bank, empty_memo):
    service = EmulatorService(bank=bank, cache=None)
    obs.reset()
    obs.enable()
    try:
        for i in range(200):  # 200 distinct grids over two engines
            if i % 3 == 0:
                service.batch("delta", "poisson", "adaptive", [60.0 + i], kbar=115.0)
            elif i % 3 == 1:
                service.batch("delta", "poisson", "rigid", [20.0 + i * 1.37])
            else:
                service.batch("gamma", "poisson", "rigid", [1e-3 + i * 1e-3])
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    assert len(empty_memo) == 2
    assert counters["service.fallback.engine_builds"] == 2
    assert counters["service.fallback.engine_reuses"] == 198


def test_threads_sharing_one_engine_match_the_serial_answers(
    bank, empty_memo, monkeypatch
):
    # δ, Δ and γ on one (load, utility, k̄) share an engine whose caches
    # are not thread-safe: its lock must keep every thread out while
    # another is inside, and the answers equal to the serial ones
    inside, peak, guard = [0], [0], threading.Lock()

    def watched(cls, name):
        real = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            with guard:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                time.sleep(0.002)  # hand the GIL to any thread let in
                return real(self, *args, **kwargs)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(cls, name, wrapper)

    watched(VariableLoadModel, "performance_gap_batch")
    watched(VariableLoadModel, "bandwidth_gap_batch")
    watched(WelfareModel, "equalizing_ratio_batch")
    service = EmulatorService(bank=bank, cache=None)
    tasks = [
        ("delta", "poisson", "rigid", [150.5, 220.25], None),
        ("Delta", "poisson", "rigid", [120.5], None),
        ("gamma", "poisson", "rigid", [0.002, 0.05], None),
    ]
    serial = [_ask(service, t) for t in tasks]
    empty_memo.clear()
    start = threading.Barrier(4)
    answers, errors = {}, []

    def worker(w):
        try:
            start.wait()
            for i in range(len(tasks)):
                j = (w + i) % len(tasks)
                answers[(w, j)] = _ask(service, tasks[j])
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(empty_memo) == 1
    assert peak[0] == 1
    assert len(answers) == 4 * len(tasks)
    for (w, j), got in answers.items():
        np.testing.assert_allclose(got, serial[j], rtol=RTOL, atol=0.0)
