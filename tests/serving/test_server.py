"""Engine registry semantics, quotas, metrics export, and the HTTP plane."""

import asyncio
import json

import pytest

from repro.errors import ExecutionError, QueryError
from repro.obs.export import render_prometheus
from repro.dsms.durability import ResultJournal
from repro.serving.journal import split_log
from repro.serving.server import (
    QueryServer,
    StandingQueryEngine,
    TenantQuota,
    drive,
    resume_serving,
)

from tests.serving.conftest import (
    BATCH,
    EXAMPLE_TEXTS,
    make_instance,
    served_state,
    solo_state,
)

SELECTION = "SELECT time, srcIP, destIP, len FROM TCP WHERE len > 1000"


class TestRegistry:
    def test_ids_are_assigned_in_order(self):
        engine = StandingQueryEngine(make_instance)
        a = engine.register(SELECTION, name="q")
        b = engine.register(SELECTION, name="q")
        assert (a.qid, b.qid) == ("sq1", "sq2")
        assert [sq.qid for sq in engine.queries()] == ["sq1", "sq2"]

    def test_duplicate_qid_is_refused(self):
        engine = StandingQueryEngine(make_instance)
        engine.register(SELECTION, name="q", qid="mine")
        with pytest.raises(ExecutionError, match="already in use"):
            engine.register(SELECTION, name="q", qid="mine")

    def test_unregister_twice_is_refused(self):
        engine = StandingQueryEngine(make_instance)
        sq = engine.register(SELECTION, name="q")
        engine.unregister(sq.qid)
        with pytest.raises(ExecutionError, match="already retired"):
            engine.unregister(sq.qid)

    def test_unknown_qid_is_refused(self):
        engine = StandingQueryEngine(make_instance)
        with pytest.raises(ExecutionError, match="unknown standing query"):
            engine.unregister("nope")

    def test_bad_query_never_joins_the_set(self):
        engine = StandingQueryEngine(make_instance)
        with pytest.raises(QueryError):
            engine.register("SELECT nope FROM Missing", name="q")
        assert engine.queries() == []

    def test_closed_engine_refuses_everything(self, records):
        engine = StandingQueryEngine(make_instance)
        engine.register(SELECTION, name="q")
        drive(engine, records[:256], batch_size=BATCH)
        assert engine.closed
        with pytest.raises(ExecutionError, match="closed"):
            engine.register(SELECTION, name="q")
        with pytest.raises(ExecutionError, match="closed"):
            engine.feed(records[:10])

    def test_retired_query_keeps_its_results(self, records):
        engine = StandingQueryEngine(make_instance)
        sq = engine.register(SELECTION, name="q")
        engine.feed(records[:256])
        engine.unregister(sq.qid)
        engine.feed(records[256:512])
        assert sq.unregistered_at == 256
        assert served_state(sq) == solo_state(SELECTION, records[:256])


class TestSharingDecisions:
    def test_identical_selections_group(self):
        engine = StandingQueryEngine(make_instance)
        a = engine.register(SELECTION, name="q")
        b = engine.register(SELECTION, name="q")
        c = engine.register(
            "SELECT time, srcIP, destIP, len FROM TCP WHERE len > 999", name="q"
        )
        assert a.signature == b.signature
        assert a.signature != c.signature
        assert len(engine.report()["shared_groups"]) == 2

    def test_describe_carries_the_reason(self):
        engine = StandingQueryEngine(make_instance)
        sq = engine.register(EXAMPLE_TEXTS["unsound_unshardable"], name="q")
        described = sq.describe()
        assert described["shared"] is False
        assert "stateful selection" in described["share_reason"]


class TestTenantQuotas:
    def test_over_budget_tenant_sheds_and_others_do_not(self, records):
        engine = StandingQueryEngine(
            make_instance,
            quotas={"starved": TenantQuota(cycles_per_record=500.0)},
        )
        starved = engine.register(SELECTION, name="q", tenant="starved")
        healthy = engine.register(SELECTION, name="q", tenant="healthy")
        drive(engine, records, batch_size=BATCH)
        shed = starved.instance.metrics.value(
            "stream_quota_shed_total", stream="TCP"
        )
        assert shed > 0
        assert healthy.instance.metrics.value(
            "stream_quota_shed_total", stream="TCP"
        ) == 0
        assert served_state(healthy) == solo_state(SELECTION, records)
        # Conservation on the quota'd instance: every offered record is
        # ingested or refused at the serving edge.
        m = starved.instance.metrics
        assert m.value("stream_records_total", stream="TCP") == len(records)
        assert len(records) == (
            m.total("stream_ingested_total") + shed
        )
        ledger = engine.report()["tenants"]["starved"]
        assert ledger["offered"] == len(records)
        assert ledger["spent_cycles"] <= 500.0 * len(records) + 850.0 * BATCH

    def test_bare_number_quota_is_accepted(self):
        engine = StandingQueryEngine(make_instance, quotas={"t": 1234})
        assert engine.quotas["t"] == TenantQuota(cycles_per_record=1234.0)

    def test_quota_charges_the_conservation_term(self, records):
        engine = StandingQueryEngine(
            make_instance, quotas={"t": TenantQuota(cycles_per_record=500.0)}
        )
        sq = engine.register(SELECTION, name="q", tenant="t")
        drive(engine, records, batch_size=BATCH)
        shed = sq.instance.metrics.value("stream_quota_shed_total", stream="TCP")
        assert shed > 0
        accounts = sq.instance.cost.accounts()
        assert accounts["TCP"] >= sq.instance.cost.book.quota_shed * shed


class TestMetricsExport:
    def test_export_stamps_serve_id_and_tenant(self, records):
        engine = StandingQueryEngine(make_instance)
        engine.register(SELECTION, name="q", tenant="acme")
        engine.register(EXAMPLE_TEXTS["reservoir"], name="q", tenant="beta")
        drive(engine, records[:512], batch_size=BATCH)
        combined = engine.export_metrics()
        labels = {
            frozenset(dict(series.labels).items())
            for series in combined.series()
        }
        flat = [dict(pairs) for pairs in labels]
        assert any(d.get("serve_id") == "sq1" and d.get("tenant") == "acme" for d in flat)
        assert any(d.get("serve_id") == "sq2" and d.get("tenant") == "beta" for d in flat)
        text = render_prometheus(combined)
        assert 'serve_id="sq1"' in text and 'tenant="acme"' in text
        assert "serving_records_total" in text

    def test_engine_series_track_the_registry(self, records):
        engine = StandingQueryEngine(make_instance)
        a = engine.register(SELECTION, name="q")
        engine.register(SELECTION, name="q")
        assert engine.metrics.value("serving_active_queries") == 2
        assert engine.metrics.value("serving_shared_groups") == 1
        engine.unregister(a.qid)
        assert engine.metrics.value("serving_active_queries") == 1
        drive(engine, records[:256], batch_size=BATCH)
        assert engine.metrics.value("serving_records_total") == 256


class TestCadenceIsChecked:
    """Batch size and commit cadence are validated where batches are cut
    and fed — not per driver (a zero batch size used to read nothing and
    report success; a zero interval silently committed every batch)."""

    @pytest.mark.parametrize(
        "options",
        [{"batch_size": 0}, {"batch_size": -5}, {"commit_interval": 0}],
        ids=["batch-0", "batch-negative", "interval-0"],
    )
    def test_drive_and_ingest_refuse(self, records, options):
        from repro.errors import StreamError

        engine = StandingQueryEngine(make_instance)
        engine.register(SELECTION, name="q")
        with pytest.raises(StreamError):
            drive(engine, records, **options)
        with pytest.raises(StreamError):
            asyncio.run(
                QueryServer(StandingQueryEngine(make_instance), **options).ingest(
                    records
                )
            )


class TestJournalFormat:
    def test_version_mismatch_is_refused(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        with ResultJournal(path, fresh=True) as journal:
            journal.append({"serving_version": 99, "kind": "commit"})
        with pytest.raises(ExecutionError, match="version 99"):
            resume_serving(StandingQueryEngine(make_instance), path, [])

    def journalled(self, path, records):
        engine = StandingQueryEngine(make_instance, journal=ResultJournal(path, fresh=True))
        engine.register(SELECTION, name="q", qid="sqA")
        engine.register(EXAMPLE_TEXTS["big_flows"], name="q", qid="sqB")
        drive(engine, records, batch_size=BATCH, commit_interval=2)
        return [e for e in ResultJournal.read(path) if e["kind"] in ("commit", "final")]

    def test_a_commit_carries_the_rows_each_query_appended(self, tmp_path, records):
        commits = self.journalled(str(tmp_path / "serve.wal"), records)
        assert len(commits) > 2
        for qid in ("sqA", "sqB"):
            held = 0
            for commit in commits:
                piece = commit["queries"][qid]["snapshot"]["queries"]["q"]["results"]
                assert piece.start == held
                held += len(piece.items)
            assert held == len(solo_state(
                SELECTION if qid == "sqA" else EXAMPLE_TEXTS["big_flows"], records
            )[0]) > 0

    def test_a_version_2_commit_is_refused_by_name(self, tmp_path, records):
        path = str(tmp_path / "serve.wal")
        self.journalled(path, records)
        entries = [
            {**e, "checkpoint_version": 2} if "checkpoint_version" in e else e
            for e in ResultJournal.read(path)
        ]
        with ResultJournal(path, fresh=True) as journal:
            for e in entries:
                journal.append(e)
        with pytest.raises(ExecutionError, match="checkpoint version 2 .* not supported"):
            resume_serving(StandingQueryEngine(make_instance), path, records)

    def test_resume_refuses_an_engine_that_is_not_fresh(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        holding = StandingQueryEngine(make_instance)
        holding.register(SELECTION, name="q")
        with pytest.raises(ExecutionError, match=r"already holds queries \['sq1'\]"):
            resume_serving(holding, path, [])
        journalled = StandingQueryEngine(
            make_instance, journal=ResultJournal(path, fresh=True)
        )
        with pytest.raises(ExecutionError, match="already writes the journal"):
            resume_serving(journalled, path, [])
        journalled.journal.close()

    def test_a_pre_envelope_journal_is_refused_by_its_version(self, tmp_path):
        """The serving journal's own version-1 entries, stamped
        ``serving_version: 1`` with no ``journal_version`` or ``mode``."""
        path = str(tmp_path / "serve.wal")
        with ResultJournal(path, fresh=True) as journal:
            journal.append({"serving_version": 1, "kind": "register", "qid": "sqA",
                            "name": "q", "text": SELECTION, "offset": 0})
        with pytest.raises(ExecutionError, match="version 1 .* not supported"):
            resume_serving(StandingQueryEngine(make_instance), path, [])

    def test_split_log_dedupes_resume_duplicates(self):
        entries = [
            {"kind": "register", "qid": "a", "offset": 0},
            {"kind": "commit", "consumed": 100},
            {"kind": "register", "qid": "b", "offset": 150},
            {"kind": "register", "qid": "b", "offset": 150},  # resume dup
            {"kind": "unregister", "qid": "a", "offset": 200},
        ]
        replayed, commit, pending = split_log(entries)
        assert [e["qid"] for e in replayed] == ["a"]
        assert commit["consumed"] == 100
        assert [(e["kind"], e["qid"]) for e in pending] == [
            ("register", "b"),
            ("unregister", "a"),
        ]

    def test_resume_without_any_commit_replays_from_scratch(
        self, tmp_path, records
    ):
        path = str(tmp_path / "serve.wal")
        engine = StandingQueryEngine(
            make_instance, journal=ResultJournal(path, fresh=True)
        )
        engine.register(SELECTION, name="q")
        # Crash before the first commit: only the register event is
        # durable.  Resume must replay the whole stream.
        engine.journal.close()
        resumed = resume_serving(
            StandingQueryEngine(make_instance), path, records, batch_size=BATCH
        )
        sq = resumed.lookup("sq1")
        assert served_state(sq) == solo_state(SELECTION, records)


class TestHttpPlane:
    def run_server(self, coro):
        return asyncio.run(coro)

    async def request(self, port, raw):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw.encode())
        await writer.drain()
        data = await reader.read()
        writer.close()
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split(b" ")[1])
        return status, body

    def test_control_plane_round_trip(self, records):
        async def scenario():
            engine = StandingQueryEngine(make_instance)
            server = QueryServer(engine, batch_size=BATCH)
            _, port = await server.start_http()

            body = json.dumps({"query": SELECTION, "tenant": "acme"})
            status, payload = await self.request(
                port,
                f"POST /queries HTTP/1.1\r\nContent-Length: {len(body)}"
                f"\r\n\r\n{body}",
            )
            assert status == 201
            registered = json.loads(payload)
            assert registered["shared"] is True
            qid = registered["id"]

            await server.ingest(records[:512], close=False)

            status, payload = await self.request(
                port, "GET /healthz HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            assert json.loads(payload)["consumed"] == 512

            status, payload = await self.request(
                port, "GET /metrics HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            text = payload.decode()
            assert 'tenant="acme"' in text
            assert "serving_records_total 512" in text

            status, payload = await self.request(
                port, f"GET /queries/{qid}/results?limit=5 HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            rows = json.loads(payload)
            assert len(rows["rows"]) == 5

            status, payload = await self.request(
                port, f"DELETE /queries/{qid} HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            assert json.loads(payload)["unregistered_at"] == 512

            status, _ = await self.request(port, "GET /nope HTTP/1.1\r\n\r\n")
            assert status == 404
            # Unknown standing-query ids are 404, not 400/500: the
            # route exists, the resource doesn't.
            status, payload = await self.request(
                port, "GET /queries/ghost/results HTTP/1.1\r\n\r\n"
            )
            assert status == 404
            assert json.loads(payload)["error"]["reason"] == "unknown_query"
            status, payload = await self.request(
                port, "DELETE /queries/ghost HTTP/1.1\r\n\r\n"
            )
            assert status == 404
            assert json.loads(payload)["error"]["reason"] == "unknown_query"

            await server.stop_http()
            return engine.lookup(qid)

        sq = self.run_server(scenario())
        assert served_state(sq) == solo_state(SELECTION, records[:512])

    def test_an_invalid_query_is_the_clients_error(self):
        """A text the lexer, the parser or the analyzer refuses — one
        nested past the parser's limit included — answers 400 and
        registers nothing; it used to be 500 (only ``PlanningError`` of
        the ``QueryError`` family was caught)."""
        too_deep = "(" * 150 + "len + 1" + ")" * 150
        texts = [
            ("SELECT time FROM TCP WHERE len ? 3", 400),
            ("SELEC x", 400),
            ("SELECT nope FROM TCP", 400),
            ("SELECT time FROM Missing", 400),
            (f"SELECT time FROM TCP WHERE {too_deep} > 3", 400),
            (SELECTION, 201),
        ]

        async def scenario():
            engine = StandingQueryEngine(make_instance)
            server = QueryServer(engine, batch_size=BATCH)
            _, port = await server.start_http()
            answers = []
            for text, _ in texts:
                body = json.dumps({"query": text})
                status, payload = await self.request(
                    port,
                    f"POST /queries HTTP/1.1\r\nContent-Length: {len(body)}"
                    f"\r\n\r\n{body}",
                )
                answers.append((status, json.loads(payload)))
            await server.stop_http()
            return engine, answers

        engine, answers = self.run_server(scenario())
        assert [status for status, _ in answers] == [want for _, want in texts]
        for status, payload in answers[:-1]:
            assert payload["error"]["reason"] == "rejected"
        assert "nests deeper than 64 levels" in answers[-2][1]["error"]["detail"]
        assert [sq.qid for sq in engine.queries()] == [answers[-1][1]["id"]]

    def test_a_malformed_request_is_the_clients_error(self, records):
        """A name no schema can carry, a field of the wrong JSON type and
        a negative ``limit`` answer 400 and register nothing; they used
        to be 500 (``SchemaError``, ``AttributeError``, ``TypeError``) and,
        for the limit, 200 with every row but the last."""
        bodies = [
            {"query": SELECTION, "name": "bad-name"},
            {"query": SELECTION, "name": 5},
            {"query": 7},
            {"query": SELECTION, "tenant": ["acme"]},
        ]

        async def scenario():
            engine = StandingQueryEngine(make_instance)
            server = QueryServer(engine, batch_size=BATCH)
            _, port = await server.start_http()
            answers = []
            for request in bodies:
                body = json.dumps(request)
                answers.append(await self.request(
                    port,
                    f"POST /queries HTTP/1.1\r\nContent-Length: {len(body)}"
                    f"\r\n\r\n{body}",
                ))
            registered = [sq.qid for sq in engine.queries()]
            body = json.dumps({"query": SELECTION})
            _, payload = await self.request(
                port,
                f"POST /queries HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n{body}",
            )
            qid = json.loads(payload)["id"]
            await server.ingest(records[:512], close=False)
            for limit in ("-1", "x", "3"):
                answers.append(await self.request(
                    port, f"GET /queries/{qid}/results?limit={limit} HTTP/1.1\r\n\r\n"
                ))
            await server.stop_http()
            return registered, answers

        registered, answers = self.run_server(scenario())
        assert registered == []
        assert [status for status, _ in answers] == [400] * 6 + [200]
        for _, payload in answers[:-1]:
            assert json.loads(payload)["error"]["reason"] == "rejected"
        assert len(json.loads(answers[-1][1])["rows"]) == 3

    def test_http_registration_lands_at_a_batch_boundary(self, records):
        """A query registered mid-ingest sees exactly the later records."""

        async def scenario():
            engine = StandingQueryEngine(make_instance)
            server = QueryServer(engine, batch_size=BATCH, pace=0.0)
            _, port = await server.start_http()
            first = asyncio.create_task(server.ingest(records[:512], close=False))
            await first
            body = json.dumps({"query": SELECTION})
            status, payload = await self.request(
                port,
                f"POST /queries HTTP/1.1\r\nContent-Length: {len(body)}"
                f"\r\n\r\n{body}",
            )
            assert status == 201
            assert json.loads(payload)["offset"] == 512
            await server.ingest(records[512:], close=True)
            await server.stop_http()
            return engine.lookup(json.loads(payload)["id"])

        sq = self.run_server(scenario())
        assert sq.registered_at == 512
        assert served_state(sq) == solo_state(SELECTION, records[512:])
