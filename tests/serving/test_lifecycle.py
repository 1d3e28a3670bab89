"""The serving lifecycle as one state machine, held to the oracle.

Rules: register, unregister, feed, quota, poison and drain, plus reading
results back.  Registrations go through the HTTP plane's request handler
with drawn payloads — a name or tenant that is not a string, a name no
output schema can carry — and so does a drawn, possibly negative,
``?limit=``.  After every step:

* each healthy query outside the quota'd tenant equals the oracle
  (``tests/_oracle.py``) over the slice it was subscribed for — the rows
  of its closed windows while it runs, all of them once it is retired;
* every served instance, poisoned and quota'd ones included, conserves
  the records offered to it, and a healthy one the tuples its operator
  took in (``tests/test_oracle.py::conserved``);
* the engine shares what lint's SA401 says it shares, whatever each
  query is called.

A malformed request is a 400 that registers nothing, and a feed never
raises: a poisoned query is its breaker's business, not the engine's.
"""

import json
from typing import Any, Dict, Optional, Set

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.analysis.legality import ExecTarget
from repro.analysis.linter import lint_query
from repro.serving.faults import BreakerConfig
from repro.serving.server import QueryServer, StandingQueryEngine, TenantQuota
from repro.streams.traces import TraceConfig, research_center_feed

from tests._oracle import Oracle
from tests.serving.conftest import EXAMPLE_TEXTS
from tests.serving.test_faults import (
    HEALTHY_AGGS,
    HEALTHY_SELECTIONS,
    POISON_DIRECT,
    POISON_SHARED,
    poison_factory,
)
from tests.test_oracle import conserved

#: ten seconds of the research feed; the poison fires from second 4 on
RECORDS = list(research_center_feed(TraceConfig(duration_seconds=10, rate_scale=0.01, seed=7)))
HEALTHY = [
    *HEALTHY_AGGS[:3], *HEALTHY_SELECTIONS[:3],
    EXAMPLE_TEXTS["reservoir"], EXAMPLE_TEXTS["top_talkers"], EXAMPLE_TEXTS["unsound_unshardable"],
]
#: a drawn registration field is well formed more often than not
NAMES = st.sampled_from(["q", "a", "top", "q", "a", "top", 5, ["x"], None, "bad-name"])
TENANTS = st.sampled_from(["default", "other", "default", ["t"], 7])


class ServingLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = StandingQueryEngine(
            poison_factory,
            quotas={"metered": TenantQuota(cycles_per_record=100.0)},
            breaker=BreakerConfig(failure_threshold=1, cooldown_batches=2),
        )
        self.server = QueryServer(self.engine)
        #: per query id: the oracle it is held to, or None (poisoned, quota'd)
        self.oracles: Dict[str, Optional[Oracle]] = {}
        self.poisoned: Set[str] = set()

    def request(self, method: str, path: str, body: Any = None) -> Any:
        status, _, payload = self.server._route(method, path, json.dumps(body).encode())
        return int(status.split()[0]), json.loads(payload)

    def post(self, text: str, name: Any, tenant: Any, healthy: bool) -> None:
        before = len(self.engine.queries())
        status, answer = self.request("POST", "/queries", {"query": text, "name": name, "tenant": tenant})
        if not (isinstance(name, str) and isinstance(tenant, str)) or name == "bad-name" or self.engine.closed:
            assert status in (400, 503), answer
            assert len(self.engine.queries()) == before
            return
        assert status == 201, answer
        sq = self.engine.lookup(answer["id"])
        linted = lint_query(text, sq.instance.registries, target=ExecTarget(serve=True))
        assert linted.plan.annotations["serving"]["signature"] == (sq.signature and sq.signature.describe())
        oracle = None
        if healthy and tenant != "metered":
            oracle = Oracle(poison_factory().registries)
            oracle.add(text, name)
        self.oracles[sq.qid] = oracle
        if not healthy:
            self.poisoned.add(sq.qid)

    @rule(text=st.sampled_from(HEALTHY), name=NAMES, tenant=TENANTS)
    def register(self, text: str, name: Any, tenant: Any) -> None:
        self.post(text, name, tenant, healthy=True)

    @rule(text=st.sampled_from(HEALTHY), name=NAMES)
    def quota(self, text: str, name: Any) -> None:
        self.post(text, name, "metered", healthy=True)

    @rule(text=st.sampled_from([POISON_SHARED, POISON_DIRECT]))
    def poison(self, text: str) -> None:
        self.post(text, "q", "default", healthy=False)

    @precondition(lambda self: not self.engine.closed and self.engine.consumed < len(RECORDS))
    @rule(size=st.integers(1, 256))
    def feed(self, size: int) -> None:
        batch = RECORDS[self.engine.consumed : self.engine.consumed + size]
        self.engine.feed(batch)
        for sq in self.engine.active_queries():
            if self.oracles[sq.qid] is not None:
                self.oracles[sq.qid].feed(batch)

    @precondition(lambda self: self.engine.active_queries() and not self.engine.closed)
    @rule(data=st.data())
    def unregister(self, data: Any) -> None:
        sq = data.draw(st.sampled_from(self.engine.active_queries()))
        assert self.request("DELETE", f"/queries/{sq.qid}")[0] == 200
        if self.oracles[sq.qid] is not None:
            self.oracles[sq.qid].finish()

    @precondition(lambda self: self.oracles)
    @rule(data=st.data(), limit=st.integers(-2, 3))
    def read(self, data: Any, limit: int) -> None:
        qid = data.draw(st.sampled_from(sorted(self.oracles)))
        status, answer = self.request("GET", f"/queries/{qid}/results?limit={limit}")
        assert status == (400 if limit < 0 else 200), answer
        if limit >= 0:
            rows = [list(r.values) for r in self.engine.lookup(qid).results[:limit]]
            assert answer["rows"] == json.loads(json.dumps(rows))

    @precondition(lambda self: not self.engine.closed)
    @rule()
    def drain(self) -> None:
        active = self.engine.active_queries()
        self.engine.drain()
        for sq in active:
            if self.oracles[sq.qid] is not None:
                self.oracles[sq.qid].finish()

    @invariant()
    def each_query_is_held_to_what_it_owes(self) -> None:
        for qid, oracle in self.oracles.items():
            sq = self.engine.lookup(qid)
            offered = (sq.unregistered_at if sq.unregistered_at is not None else self.engine.consumed) - sq.registered_at
            # a record whose WHERE raised is taken in and in no other term
            kinds = {} if qid in self.poisoned else {sq.name: sq.instance.query(sq.name).plan.kind}
            conserved(sq.instance, offered, kinds)
            if oracle is not None:
                assert [r.values for r in sq.results] == oracle.rows[sq.name], qid


#: a quarter of the profile's examples, each twenty steps long
ServingLifecycle.TestCase.settings = settings(
    max_examples=max(10, settings.default.max_examples // 4), stateful_step_count=20
)
TestServingLifecycle = ServingLifecycle.TestCase
