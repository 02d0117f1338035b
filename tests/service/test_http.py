"""The async HTTP surface end to end: real sockets, real clients.

A single background server (ephemeral port) is shared per module;
every test talks to it through :class:`ServiceClient` or a raw
request, including a concurrent burst that forces the cache-miss
fallback path under parallel load.
"""

from __future__ import annotations

import gc
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.emulator import DOMAINS, exact_scalar, fit_bank
from repro.experiments.params import DEFAULT_CONFIG
from repro.runner.cache import ResultCache
from repro.service import (
    BackgroundServer,
    EmulatorService,
    ServiceClient,
    ServiceClientError,
)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: From CPython 3.12.1, asyncio's Server.wait_closed() waits for every
#: open connection even after close(); this applies that rule on any
#: interpreter, so the shutdown order is checked whatever runs the tests
WAIT_CLOSED_3_12 = '''
import asyncio.base_events

async def wait_closed(self):
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter

asyncio.base_events.Server.wait_closed = wait_closed
'''
RUN_REPRO = "import runpy; runpy.run_module('repro', run_name='__main__', alter_sys=True)"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    bank = fit_bank(quantities=("delta", "gamma"), loads=("poisson",))
    cache = ResultCache(tmp_path_factory.mktemp("svc-cache"))
    service = EmulatorService(bank=bank, cache=cache)
    with BackgroundServer(service) as running:
        yield running


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServiceClient(host, port) as c:
        yield c


class TestEndpoints:
    def test_healthz(self, client):
        reply = client.health()
        assert reply["ok"] is True
        assert reply["surfaces"] == 2

    def test_surfaces_metadata(self, client):
        info = client.surfaces()
        keys = {s["quantity"] + "/" + s["load"] for s in info["surfaces"]}
        assert keys == {"delta/poisson", "gamma/poisson"}
        assert all("coefficients" not in s for s in info["surfaces"])

    def test_point_get_roundtrip(self, client):
        reply = client.request(
            "GET", "/v1/point?quantity=delta&load=poisson&utility=adaptive&x=120"
        )
        assert reply["source"] == "surface"
        exact = exact_scalar("delta", DEFAULT_CONFIG, "poisson", "adaptive", 120.0)
        assert abs(reply["value"] - exact) <= reply["certified_bound"]

    def test_point_post_roundtrip(self, client):
        reply = client.point("gamma", "poisson", "adaptive", 0.01)
        assert reply["source"] == "surface"
        assert 1.0 < reply["value"] < 2.8

    def test_batch_post_mixed_sources(self, client):
        hi = DOMAINS["delta"][1]
        reply = client.batch("delta", "poisson", "adaptive", [100.0, hi * 2.0])
        assert reply["source"] == "mixed"
        assert reply["sources"] == {"surface": 1, "exact": 1}

    def test_metrics_counts_requests(self, client):
        # metering is live only while obs is enabled (the `repro serve`
        # entry enables it; tests opt in explicitly)
        obs.reset()
        obs.enable()
        try:
            client.point("delta", "poisson", "adaptive", 100.0)
            metrics = client.metrics()
            counters = metrics["metrics"]["counters"]
            assert metrics["enabled"] is True
            assert counters.get("service.http.point.requests", 0) >= 1
            assert counters.get("service.points.surface", 0) >= 1
        finally:
            obs.disable()
            obs.reset()

    def test_keep_alive_reuses_one_connection(self, client):
        # several requests through the same client must not reconnect
        for x in (50.0, 100.0, 200.0):
            assert client.point("delta", "poisson", "adaptive", x)["value"] >= 0.0


class TestErrorMapping:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request("GET", "/v1/nope")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request("GET", "/v1/batch")
        assert exc.value.status == 405

    def test_bad_quantity_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point("theta", "poisson", "adaptive", 100.0)
        assert exc.value.status == 400

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request("POST", "/v1/point", {"quantity": "delta"})
        assert exc.value.status == 400

    def test_non_numeric_x_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.request(
                "GET", "/v1/point?quantity=delta&load=poisson&utility=adaptive&x=abc"
            )
        assert exc.value.status == 400

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1_0"])
    def test_bad_content_length_is_400_then_close(self, server, caplog, length):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(
                    b"POST /v1/point HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n{}"
                )
                reply = b""
                while True:  # the server closes after its answer
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            # one more round trip gives the server's loop time to log
            with ServiceClient(*server.address) as other:
                assert other.health()["ok"]
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply
        assert [r.getMessage() for r in caplog.records] == []


class TestConcurrency:
    def test_parallel_clients_hitting_the_fallback(self, server):
        # every worker sends a mix of surface hits and *uncached*
        # out-of-domain points, so the exact-fallback ladder runs under
        # real request concurrency
        host, port = server.address
        hi = DOMAINS["delta"][1]
        errors = []
        replies = []

        def worker(idx: int):
            try:
                with ServiceClient(host, port) as c:
                    for i in range(10):
                        x = 50.0 + 7.0 * ((idx * 10 + i) % 40)
                        replies.append(c.point("delta", "poisson", "adaptive", x))
                    burst = c.batch(
                        "delta", "poisson", "adaptive", [hi * 2.0, hi * 2.5]
                    )
                    assert burst["source"] == "exact"
                    replies.append(burst)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(replies) == 6 * 11
        exact = exact_scalar("delta", DEFAULT_CONFIG, "poisson", "adaptive", hi * 2.0)
        bursts = [r for r in replies if r.get("source") == "exact"]
        assert bursts and all(
            r["values"][0] == pytest.approx(exact, rel=1e-9) for r in bursts
        )


class TestMeanFieldEngineHint:
    def test_point_roundtrip_with_engine_hint(self, client):
        reply = client.point(
            "delta", "poisson", "adaptive", 110.0, engine="meanfield"
        )
        assert reply["source"] == "meanfield"
        exact = exact_scalar("delta", DEFAULT_CONFIG, "poisson", "adaptive", 110.0)
        assert reply["value"] == pytest.approx(exact, abs=2e-3)

    def test_batch_roundtrip_with_engine_hint(self, client):
        reply = client.batch(
            "delta", "poisson", "adaptive", [100.0, 120.0], engine="meanfield"
        )
        assert reply["source"] == "meanfield"
        assert reply["sources"]["meanfield"] == 2

    def test_engine_hint_via_query_string(self, client):
        reply = client.request(
            "GET",
            "/v1/point?quantity=delta&load=poisson&utility=adaptive"
            "&x=110&engine=meanfield",
        )
        assert reply["source"] == "meanfield"

    def test_out_of_envelope_refusal_maps_to_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point(
                "delta", "exponential", "adaptive", 110.0, engine="meanfield"
            )
        assert exc.value.status == 400
        assert "OutOfDomainError" in str(exc.value)

    def test_unknown_engine_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point("delta", "poisson", "adaptive", 110.0, engine="warp")
        assert exc.value.status == 400

    def test_non_delta_quantity_with_engine_is_400(self, client):
        with pytest.raises(ServiceClientError) as exc:
            client.point("gamma", "poisson", "adaptive", 110.0, engine="meanfield")
        assert exc.value.status == 400


def _idle_connections(address, n=3):
    """One connection that never sends anything, then ``n`` keep-alive
    connections left idle after one request.

    The silent one opens first: the server accepts in order, so once
    the later ones are answered it has been accepted too (a connection
    still in the accept queue at shutdown is not what is tested).
    """
    socks = [socket.create_connection(address, timeout=10.0)]
    for _ in range(n):
        sock = socket.create_connection(address, timeout=10.0)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        assert sock.recv(4096).startswith(b"HTTP/1.1 200")
        socks.append(sock)
    return socks


class TestShutdown:
    def test_background_exit_leaves_no_pending_task(self, caplog):
        service = EmulatorService(
            bank=fit_bank(quantities=("delta",), loads=("poisson",))
        )
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with BackgroundServer(service) as running:
                socks = _idle_connections(running.address)
            assert not running._thread.is_alive()
            gc.collect()  # a pending task is only reported when collected
            for sock in socks:
                sock.close()
        assert [r.getMessage() for r in caplog.records] == []

    def test_busy_handler_is_cancelled_after_the_grace(self, caplog, monkeypatch):
        import repro.service.http as http

        monkeypatch.setattr(http, "STOP_GRACE_S", 0.05)
        service = EmulatorService(
            bank=fit_bank(quantities=("delta",), loads=("poisson",))
        )
        started, release = threading.Event(), threading.Event()

        def stuck(*args, **kwargs):  # an exact query that never ends
            started.set()
            release.wait(30.0)
            return {}

        service.point = stuck
        sock = None
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                with BackgroundServer(service) as running:
                    sock = socket.create_connection(running.address, timeout=10.0)
                    sock.sendall(
                        b"GET /v1/point?x=100&engine=meanfield HTTP/1.1\r\n"
                        b"Host: test\r\n\r\n"
                    )
                    assert started.wait(10.0)
                    exit_started = time.monotonic()
                assert not running._thread.is_alive()
                assert time.monotonic() - exit_started < 5.0
                gc.collect()
        finally:
            release.set()
            if sock is not None:
                sock.close()
        messages = [r.getMessage() for r in caplog.records]
        assert not [m for m in messages if "Task was destroyed" in m]

    def test_busy_handler_answers_within_the_grace(self, caplog):
        service = EmulatorService(
            bank=fit_bank(quantities=("delta",), loads=("poisson",))
        )
        started = threading.Event()

        def slow(*args, **kwargs):
            started.set()
            time.sleep(0.5)
            return {"answered": True}

        service.point = slow
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with BackgroundServer(service) as running:
                sock = socket.create_connection(running.address, timeout=10.0)
                sock.sendall(
                    b"GET /v1/point?x=100&engine=meanfield HTTP/1.1\r\n"
                    b"Host: test\r\n\r\n"
                )
                assert started.wait(10.0)
                # a pipelined request lands while stop() drains the handler
                threading.Timer(
                    0.2, sock.sendall, [b"GET /healthz HTTP/1.1\r\n\r\n"]
                ).start()
            reply = sock.recv(4096)
            sock.close()
        assert reply.startswith(b"HTTP/1.1 200") and b'"answered": true' in reply
        assert [r.getMessage() for r in caplog.records] == []

    @pytest.mark.parametrize("wait_closed", ["native", "3.12"])
    def test_sigint_on_repro_serve_is_clean(self, tmp_path, wait_closed):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(
            os.environ,
            PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        if wait_closed == "native":
            launch = ["-m", "repro"]
        else:
            launch = ["-c", WAIT_CLOSED_3_12 + RUN_REPRO]
        proc = subprocess.Popen(
            [sys.executable, *launch, "serve", "--port", str(port),
             "--no-cache"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            cwd=str(tmp_path),
        )
        try:
            deadline = time.monotonic() + 120.0
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port), 1.0).close()
                    break
                except OSError:
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, "server never came up"
                    time.sleep(0.1)
            socks = _idle_connections(("127.0.0.1", port))
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30.0)
            for sock in socks:
                sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        text = stderr.decode()
        assert proc.returncode == 0, text
        assert "Task was destroyed but it is pending!" not in text
        assert "Traceback" not in text and "Exception in callback" not in text
