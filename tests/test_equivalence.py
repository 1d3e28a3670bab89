"""The sampling operator with nothing to sample away is an aggregation.

Both sides are read against the oracle (``tests/_oracle.py``): vacuous
sampling clauses — a cleaning phase that never triggers, a HAVING every
group passes — must leave the generic operator emitting exactly the
oracle's rows for the plain grouped query.  The dict reference that used
to check the aggregation operator is gone: ``tests/test_oracle.py``
holds every deployment to the oracle, and the oracle to hand-worked
rows.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms.operators import build_operator
from repro.dsms.parser.planner import compile_query
from repro.dsms.aggregates import default_aggregate_registry
from repro.dsms.functions import default_function_registry
from repro.dsms.parser.analyzer import Registries
from repro.dsms.stateful import StatefulLibrary
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA
from repro.core.superaggregates import default_superaggregate_registry

from tests._oracle import Oracle


def fresh_registries():
    return Registries(
        schemas={"TCP": TCP_SCHEMA},
        scalars=default_function_registry(),
        aggregates=default_aggregate_registry(),
        superaggregates=default_superaggregate_registry(),
        stateful=StatefulLibrary(),
    )


def packets(specs):
    """specs: (time, src, length) with monotone times enforced by sort."""
    ordered = sorted(specs, key=lambda s: s[0])
    return [
        Record(TCP_SCHEMA, (t, i + 1, s, 2, l, 1024, 80, 6))
        for i, (t, s, l) in enumerate(ordered)
    ]


stream_strategy = st.lists(
    st.tuples(
        st.integers(0, 50),      # time
        st.integers(1, 5),       # srcIP
        st.integers(40, 1500),   # len
    ),
    min_size=1,
    max_size=300,
)

QUERY = (
    "SELECT tb, srcIP, sum(len), count(*) FROM TCP"
    " GROUP BY time/7 as tb, srcIP"
)


class TestSamplingDegeneratesToAggregation:
    @given(stream_strategy)
    @settings(max_examples=40, deadline=None)
    def test_vacuous_sampling_equals_aggregation(self, specs):
        records = packets(specs)
        oracle = Oracle(fresh_registries())
        oracle.add(QUERY, "q")
        expected = oracle.run(records)["q"]

        # Never-triggering cleaning + always-true clauses.
        sampling_query = (
            QUERY
            + " SUPERGROUP tb"
            + " HAVING count(*) > 0"
            + " CLEANING WHEN count_distinct$(*) < 0"
            + " CLEANING BY count(*) > 0"
        )
        sampling_plan = compile_query(sampling_query, fresh_registries())
        assert sampling_plan.kind == "sampling"
        assert [tuple(r.values) for r in build_operator(sampling_plan).run(records)] == expected

    @given(stream_strategy)
    @settings(max_examples=30, deadline=None)
    def test_count_distinct_superagg_counts_groups(self, specs):
        records = packets(specs)
        query = (
            "SELECT tb, srcIP, count_distinct$(*) FROM TCP"
            " GROUP BY time/7 as tb, srcIP SUPERGROUP tb"
        )
        plan = compile_query(query, fresh_registries())
        rows = list(build_operator(plan).run(records))
        # Within each window, the output-time count_distinct$ equals the
        # number of surviving groups of that window.
        per_window = defaultdict(list)
        for row in rows:
            per_window[row["tb"]].append(row[2])
        for window, values in per_window.items():
            assert set(values) == {len(values)}
