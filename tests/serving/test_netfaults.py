"""The hardened HTTP plane vs. misbehaving clients, and graceful drain.

The server's HTTP endpoint shares the event loop with the feed loop, so
these tests assert two things at once for every network fault (driven
by :mod:`repro.testing.netfaults`): the hostile client gets a bounded,
structured refusal, *and* the feed keeps flowing — no slow-loris, torn
request, oversized body, or mid-response disconnect ever stalls a
standing query.
"""

import asyncio
import json

from repro.serving.server import (
    DRAIN_EXIT_CODE,
    HttpLimits,
    QueryServer,
    StandingQueryEngine,
)
from repro.testing import netfaults

from tests.serving.conftest import (
    BATCH,
    EXAMPLE_TEXTS,
    make_instance,
    served_state,
    solo_state,
)

SELECTION = EXAMPLE_TEXTS["big_flows"]

#: tight limits so fault paths trip in test time, not wall-clock minutes
LIMITS = HttpLimits(
    read_timeout=0.4,
    write_timeout=0.4,
    max_body_bytes=4096,
    max_header_bytes=1024,
    max_connections=2,
)


def run(coro):
    return asyncio.run(coro)


async def request_raw(port, raw):
    """One well-formed request; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw.encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


def make_server(limits=LIMITS, **kwargs):
    engine = StandingQueryEngine(make_instance)
    return engine, QueryServer(engine, batch_size=BATCH, limits=limits, **kwargs)


class TestHostileClients:
    def test_slow_loris_is_cut_off_and_the_feed_completes(self, records):
        """A byte-at-a-time client is disconnected at the read deadline
        while ingest finishes the whole stream at full speed."""

        async def scenario():
            engine, server = make_server()
            sq = engine.register(SELECTION, name="q")
            _, port = await server.start_http()
            loris = asyncio.create_task(
                netfaults.slow_loris(port=port, host="127.0.0.1")
            )
            consumed = await server.ingest(records, close=True)
            verdict = await loris
            await server.stop_http()
            return sq, consumed, verdict, engine

        sq, consumed, verdict, engine = run(scenario())
        assert consumed == len(records)
        assert verdict in (408, None)  # refused or dropped, never served
        assert served_state(sq) == solo_state(SELECTION, records)
        assert engine.metrics.value(
            "serving_http_timeouts_total", phase="read"
        ) >= 1

    def test_disconnect_mid_response_never_stalls_the_server(self, records):
        """A client that reads a few bytes and sends RST leaves the
        handler aborted, the loop live, and the next request healthy."""

        async def scenario():
            engine, server = make_server()
            engine.register(SELECTION, name="q")
            _, port = await server.start_http()
            await server.ingest(records[:512], close=False)
            got = await netfaults.disconnect_mid_response(
                "127.0.0.1", port, path="/metrics", read_bytes=32
            )
            # The server is still fully alive afterwards.
            status, _, body = await request_raw(
                port, "GET /healthz HTTP/1.1\r\n\r\n"
            )
            await server.stop_http()
            return got, status, json.loads(body)

        got, status, health = run(scenario())
        assert got > 0
        assert status == 200
        assert health["consumed"] == 512

    def test_torn_request_is_answered_with_silence(self, records):
        async def scenario():
            engine, server = make_server()
            _, port = await server.start_http()
            back = await netfaults.torn_request("127.0.0.1", port)
            status, _, _ = await request_raw(
                port, "GET /healthz HTTP/1.1\r\n\r\n"
            )
            await server.stop_http()
            return back, status

        back, status = run(scenario())
        assert back == b""  # nothing to answer: no request ever existed
        assert status == 200

    def test_oversized_body_is_refused_before_it_is_read(self):
        async def scenario():
            engine, server = make_server()
            _, port = await server.start_http()
            verdict = await netfaults.oversized_body(
                "127.0.0.1", port, declared=1 << 30
            )
            await server.stop_http()
            return verdict

        assert run(scenario()) == 413

    def test_oversized_headers_are_refused(self):
        async def scenario():
            engine, server = make_server()
            _, port = await server.start_http()
            verdict = await netfaults.oversized_headers(
                "127.0.0.1", port, header_bytes=1 << 15
            )
            await server.stop_http()
            return verdict

        assert run(scenario()) in (431, None)

    def test_connection_flood_sheds_with_503(self):
        async def scenario():
            engine, server = make_server()
            _, port = await server.start_http()
            statuses = await netfaults.flood(
                "127.0.0.1", port, connections=4, hold=0.1
            )
            await server.stop_http()
            return statuses, engine

        statuses, engine = run(scenario())
        assert statuses[-1] == 503  # the probe, over the cap of 2
        assert engine.metrics.value("serving_http_overload_total") >= 1

    def test_cancelled_handler_aborts_the_connection_cleanly(self):
        """Stopping the server mid-request cancels the handler; the
        CancelledError path aborts the transport and re-raises instead
        of leaking a half-open connection or a traceback."""

        class FakeTransport:
            aborted = False

            def abort(self):
                self.aborted = True

        class FakeWriter:
            def __init__(self):
                self.transport = FakeTransport()

            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

            async def wait_closed(self):
                pass

        async def scenario():
            engine, server = make_server(
                limits=HttpLimits(read_timeout=30.0)
            )
            reader = asyncio.StreamReader()  # never fed: handler blocks
            writer = FakeWriter()
            task = asyncio.create_task(server._handle(reader, writer))
            await asyncio.sleep(0.05)
            task.cancel()
            try:
                await task
                cancelled = False
            except asyncio.CancelledError:
                cancelled = True
            return cancelled, writer.transport.aborted, server

        cancelled, aborted, server = run(scenario())
        assert cancelled  # the cancellation propagated
        assert aborted  # ...after the transport was torn down
        assert server._connections == 0  # and the slot was released


class TestStructuredErrors:
    def test_error_bodies_are_machine_readable(self, records):
        async def scenario():
            engine, server = make_server()
            _, port = await server.start_http()
            results = {}
            for label, raw in [
                ("no_route", "GET /nope HTTP/1.1\r\n\r\n"),
                ("unknown_query", "DELETE /queries/ghost HTTP/1.1\r\n\r\n"),
                ("bad_json", "POST /queries HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"),
                ("malformed_request_line", "BOGUS\r\n\r\n"),
                ("bad_content_length", "GET /healthz HTTP/1.1\r\nContent-Length: pony\r\n\r\n"),
            ]:
                status, _, body = await request_raw(port, raw)
                results[label] = (status, json.loads(body))
            await server.stop_http()
            return results

        results = run(scenario())
        expected_status = {
            "no_route": 404,
            "unknown_query": 404,
            "bad_json": 400,
            "malformed_request_line": 400,
            "bad_content_length": 400,
        }
        for label, (status, body) in results.items():
            assert status == expected_status[label], label
            assert body["error"]["status"] == status
            assert body["error"]["reason"] == label
            assert body["error"]["detail"]

    def test_metrics_content_type_is_prometheus_exposition(self, records):
        async def scenario():
            engine, server = make_server()
            engine.register(SELECTION, name="q")
            await server.ingest(records[:256], close=False)
            _, port = await server.start_http()
            status, headers, _ = await request_raw(
                port, "GET /metrics HTTP/1.1\r\n\r\n"
            )
            await server.stop_http()
            return status, headers

        status, headers = run(scenario())
        assert status == 200
        assert headers["content-type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )


class TestGracefulDrain:
    def test_post_drain_flips_readyz_stops_ingest_and_commits(
        self, tmp_path, records
    ):
        """``POST /drain`` mid-ingest: readiness flips to 503, the feed
        stops at a batch boundary, windows flush, the final commit lands
        — and a resume of the journal reads no input at all."""
        from repro.dsms.durability import ResultJournal
        from repro.serving.server import drive, resume_serving

        path = str(tmp_path / "serve.wal")

        async def scenario():
            engine = StandingQueryEngine(
                make_instance, journal=ResultJournal(path, fresh=True)
            )
            engine.register(SELECTION, name="q", qid="sqA")
            server = QueryServer(
                engine, batch_size=BATCH, commit_interval=2,
                pace=0.05, limits=LIMITS,
            )
            _, port = await server.start_http()
            ingest = asyncio.create_task(server.ingest(records, close=True))
            await asyncio.sleep(0.05)  # a few batches in

            status, _, _ = await request_raw(
                port, "GET /readyz HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            status, _, body = await request_raw(
                port, "POST /drain HTTP/1.1\r\n\r\n"
            )
            assert status == 202
            status, _, _ = await request_raw(
                port, "GET /readyz HTTP/1.1\r\n\r\n"
            )
            assert status == 503
            # Draining refuses new registrations with 503, not 4xx/5xx.
            payload = json.dumps({"query": SELECTION})
            status, _, _ = await request_raw(
                port,
                f"POST /queries HTTP/1.1\r\nContent-Length: {len(payload)}"
                f"\r\n\r\n{payload}",
            )
            assert status == 503
            consumed = await ingest
            # /healthz stays 200 after the drain — liveness ≠ readiness.
            status, _, _ = await request_raw(
                port, "GET /healthz HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            await server.stop_http()
            return engine, server, consumed

        engine, server, consumed = run(scenario())
        assert server.drained
        assert engine.closed
        assert consumed < len(records)  # it really stopped early
        assert consumed % BATCH == 0  # at a batch boundary
        assert engine.metrics.value(
            "serving_drains_total", reason="http"
        ) == 1

        def no_records():
            raise AssertionError("a drained serve must not re-read input")
            yield  # pragma: no cover

        resumed = resume_serving(StandingQueryEngine(make_instance), path, no_records())
        assert resumed.closed
        assert served_state(resumed.lookup("sqA")) == served_state(
            engine.lookup("sqA")
        )
        # And the drained prefix is exactly an honest short serve.
        oracle = StandingQueryEngine(make_instance)
        oracle.register(SELECTION, name="q", qid="sqA")
        drive(oracle, records[:consumed], batch_size=BATCH)
        assert served_state(engine.lookup("sqA")) == served_state(
            oracle.lookup("sqA")
        )

    def test_request_drain_is_idempotent(self, records):
        async def scenario():
            engine, server = make_server()
            server.request_drain("SIGTERM")
            server.request_drain("SIGTERM")
            consumed = await server.ingest(records, close=True)
            return engine, server, consumed

        engine, server, consumed = run(scenario())
        assert consumed == 0  # drain preceded the first batch
        assert server.drained
        assert engine.closed
        assert engine.metrics.value(
            "serving_drains_total", reason="SIGTERM"
        ) == 1

    def test_drain_exit_code_is_distinct(self):
        assert DRAIN_EXIT_CODE == 3

    def test_signal_handlers_refuse_off_main_thread(self):
        """Embedding guard: a worker thread running the loop must not
        try to own process signals (satellite: non-main-thread guard)."""
        import threading

        outcome = {}

        def worker():
            async def scenario():
                engine, server = make_server()
                outcome["installed"] = server.install_signal_handlers()

            asyncio.run(scenario())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert outcome["installed"] is False

    def test_signal_handlers_refuse_without_a_running_loop(self):
        engine, server = make_server()
        assert server.install_signal_handlers() is False

    def test_signal_handlers_install_on_the_main_thread_loop(self):
        async def scenario():
            engine, server = make_server()
            installed = server.install_signal_handlers()
            # Clean up so the test process keeps default dispositions.
            if installed:
                loop = asyncio.get_running_loop()
                import signal as _signal

                loop.remove_signal_handler(_signal.SIGTERM)
                loop.remove_signal_handler(_signal.SIGINT)
            return installed

        assert run(scenario()) is True
