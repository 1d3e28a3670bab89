"""A count gate on the hot loops' own bytecode.

Shared CI runners cannot gate records per second, but they can gate a
count that repeats exactly: the opcodes the hot functions of the perf
ledger's (``benchmarks/ledger``) workloads execute in their own frames
— ``process_many`` and ``_emit_window`` of the ``ss`` and ``hh`` nodes,
and ``serve_shared``'s ``scan`` of its eight group leaders, the
functions ``repro.dsms.node`` writes, known by their ``<gsql:…>`` file
names; for ``agg_shards`` the SPLIT (``ShardedGigascope._split``) and
the MERGE (every ``MergeOperator`` method) — per record, over the first
records of each ledger feed.  The ceilings were recorded on CPython 3.11
with 3 % headroom; another minor version compiles other bytecode, so it
is not gated.
"""

from __future__ import annotations

import sys
from types import CodeType, FunctionType

import pytest

from benchmarks.ledger.workloads import AggShards, HhBursty, ServeShared, SsSteady, make_trace
from repro.dsms.operators.merge import MergeOperator
from repro.dsms.sharded import ShardedGigascope

SEED = 20050614
RECORDS = 4000
#: opcodes per record measured on CPython 3.11.7, with 3 % headroom: ``ss`` and
#: ``hh`` read 341 and 279 before the nodes counted events, ``ss`` 228.7 and the
#: scan 139.4 before a record's column was read once, ``ss`` 225.7 before a group
#: key's bare columns were read after the WHERE, ``hh`` 172.2 before a reader
#: SFUN was called once per change, ``ss`` 221.0 and ``hh`` 162.5 before a group
#: was one list of cells, the scan 109.3 before it nested a member under one its
#: WHERE implies; ``agg_shards`` 36.0 (SPLIT 33.2, MERGE 2.8) while the MERGE
#: pushed and popped each row through a heap and each shard, not the SPLIT,
#: checked its batch for being one run (37.5 now: SPLIT 37.3, MERGE 0.2)
CEILINGS = {
    "ss_steady": 203.8 * 1.03,
    "hh_bursty": 149.6 * 1.03,
    "serve_shared": 65.4 * 1.03,
    "agg_shards": 37.5 * 1.03,
}
NODE = ("process_many", "_emit_window", "scan")


def _codes(functions) -> frozenset:
    """The code of ``functions`` and of every function nested in them."""
    todo, seen = [f.__code__ for f in functions], set()
    while todo:
        code = todo.pop()
        seen.add(code)
        todo += (c for c in code.co_consts if isinstance(c, CodeType))
    return frozenset(seen)


#: what ``agg_shards`` counts: its SPLIT and its MERGE
SPLIT_MERGE = _codes(
    [ShardedGigascope._split, *(f for f in vars(MergeOperator).values() if isinstance(f, FunctionType))]
)


def counted(workload, code) -> bool:
    if workload.name == "agg_shards":
        return code in SPLIT_MERGE
    return code.co_filename.startswith("<gsql:") and code.co_name in NODE


def opcodes_per_record(workload) -> float:
    driver, trace = workload.build(), make_trace(workload.feed, RECORDS, SEED)
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    def call(frame, event, arg):
        if counted(workload, frame.f_code):
            frame.f_trace_opcodes = True
            return opcode
        return None

    previous = sys.gettrace()  # a coverage or census tracer, put back after
    sys.settrace(call)
    try:
        workload.run(driver, iter(trace))
    finally:
        sys.settrace(previous)
    return count / RECORDS


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="no ceiling recorded for this Python")
@pytest.mark.parametrize(
    "workload", [SsSteady(), HhBursty(), ServeShared(), AggShards()], ids=lambda w: w.name
)
def test_a_node_stays_under_its_opcode_ceiling(workload):
    assert opcodes_per_record(workload) <= CEILINGS[workload.name]
