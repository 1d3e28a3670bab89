"""A count gate on the generated nodes' own bytecode.

Shared CI runners cannot gate records per second, but they can gate a
count that repeats exactly: the opcodes the generated functions of the
perf ledger's (``benchmarks/ledger``) workloads execute in their own
frames — ``process_many`` and ``_emit_window`` of the ``ss`` and ``hh``
nodes, and ``serve_shared``'s ``scan`` of its eight group leaders, the
functions ``repro.dsms.node`` writes, known by their ``<gsql:…>`` file
names — per record, over the first records of each ledger feed.  The
ceilings were recorded on CPython 3.11 with 3 % headroom; another minor
version compiles other bytecode, so it is not gated.
"""

from __future__ import annotations

import sys

import pytest

from benchmarks.ledger.workloads import HhBursty, ServeShared, SsSteady, make_trace

SEED = 20050614
RECORDS = 4000
#: opcodes per record measured on CPython 3.11.7, with 3 % headroom: ``ss`` and
#: ``hh`` read 341 and 279 before the nodes counted events, ``ss`` 228.7 and the
#: scan 139.4 before a record's column was read once, ``ss`` 225.7 before a group
#: key's bare columns were read after the WHERE, ``hh`` 172.2 before a reader
#: SFUN was called once per change, ``ss`` 221.0 and ``hh`` 162.5 before a group
#: was one list of cells, the scan 109.3 before it nested a member under one its
#: WHERE implies
CEILINGS = {"ss_steady": 203.8 * 1.03, "hh_bursty": 149.6 * 1.03, "serve_shared": 65.4 * 1.03}
NODE = ("process_many", "_emit_window", "scan")


def opcodes_per_record(workload) -> float:
    driver, trace = workload.build(), make_trace(workload.feed, RECORDS, SEED)
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith("<gsql:") and code.co_name in NODE:
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
@pytest.mark.parametrize("workload", [SsSteady(), HhBursty(), ServeShared()], ids=lambda w: w.name)
def test_a_node_stays_under_its_opcode_ceiling(workload):
    assert opcodes_per_record(workload) <= CEILINGS[workload.name]
