"""The generic plan-dataflow engine (``repro.analysis.dataflow``).

Covers the graph construction (phase chain mirrors the clauses a query
actually uses), the topological walk, and the fact-propagation engine
with a toy counting analysis — independent of the two real passes that
ride on it.
"""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import (
    DataflowAnalysis,
    PlanGraph,
    PlanNode,
    build_plan_graph,
    run_dataflow,
)
from repro.analysis.sampling_algebra import analyze_sampling
from repro.dsms.parser.planner import compile_query

FULL_QUERY = (
    "SELECT tb, srcIP, destIP, UMAX(sum(len), ssthreshold())\n"
    "FROM TCP\n"
    "WHERE ssample(len, 1000) = TRUE\n"
    "GROUP BY time/20 as tb, srcIP, destIP, uts\n"
    "HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE\n"
    "CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE\n"
    "CLEANING BY ssclean_with(sum(len)) = TRUE"
)


def graph_of(sql, registries, name="q"):
    return build_plan_graph(compile_query(sql, registries, query_name=name), name)


class TestBuildPlanGraph:
    def test_full_chain_has_every_phase(self, registries):
        graph = graph_of(FULL_QUERY, registries)
        kinds = [node.kind for node in graph.topological()]
        assert kinds == [
            "source",
            "where",
            "group",
            "aggregate",
            "cleaning",
            "having",
            "select",
            "output",
        ]

    def test_absent_clauses_are_skipped(self, registries):
        graph = graph_of("SELECT len FROM TCP WHERE len > 100", registries)
        kinds = [node.kind for node in graph.topological()]
        assert kinds == ["source", "where", "select", "output"]

    def test_chain_is_linear(self, registries):
        graph = graph_of(FULL_QUERY, registries)
        order = graph.topological()
        for earlier, later in zip(order, order[1:]):
            assert graph.successors(earlier.node_id) == [later]
            assert graph.predecessors(later.node_id) == [earlier]
        assert graph.sources() == [order[0]]

    def test_node_ids_carry_the_query_name(self, registries):
        graph = graph_of("SELECT len FROM TCP", registries, name="talkers")
        assert set(graph.nodes) == {
            "talkers.source",
            "talkers.select",
            "talkers.output",
        }

    def test_clause_exprs_attached(self, registries):
        graph = graph_of(FULL_QUERY, registries)
        where = graph.first_of_kind("where")
        assert [clause for clause, _ in where.exprs] == ["WHERE"]
        cleaning = graph.first_of_kind("cleaning")
        assert [clause for clause, _ in cleaning.exprs] == [
            "CLEANING WHEN",
            "CLEANING BY",
        ]

    def test_schemas_on_the_endpoints(self, registries):
        plan = compile_query("SELECT tb, sum(len) FROM TCP GROUP BY time/20 as tb",
                             registries, query_name="q")
        graph = build_plan_graph(plan)
        assert graph.node("q.source").schema is plan.analyzed.schema
        assert graph.node("q.output").schema is plan.output_schema

    def test_duplicate_node_rejected(self, registries):
        graph = graph_of("SELECT len FROM TCP", registries)
        with pytest.raises(ValueError, match="duplicate plan node"):
            graph.add_node(PlanNode("q.source", "source"))

    def test_cycle_detected(self, registries):
        graph = graph_of("SELECT len FROM TCP", registries)
        graph.add_edge(graph.node("q.output"), graph.node("q.source"))
        with pytest.raises(ValueError, match="cycle"):
            graph.topological()


class _Depth(DataflowAnalysis):
    """Toy pass: the fact is the number of phases crossed so far."""

    def boundary(self, node):
        return 0

    def transfer(self, node, fact):
        return fact + 1

    def join(self, facts):
        return max(facts)


class TestRunDataflow:
    def test_facts_propagate_along_every_edge(self, registries):
        graph = graph_of(FULL_QUERY, registries)
        result = run_dataflow(graph, _Depth())
        order = graph.topological()
        assert result.fact_out_of("q.source") == 0
        assert result.fact_out_of("q.output") == len(order) - 1
        assert len(result.edge_facts) == len(graph.edges)

    def test_fact_into_is_the_upstream_fact(self, registries):
        graph = graph_of("SELECT len FROM TCP WHERE len > 10", registries)
        result = run_dataflow(graph, _Depth())
        assert result.fact_into("q.source") is None
        assert result.fact_into("q.where") == 0
        assert result.fact_into("q.select") == 1

    def test_join_runs_at_fan_in(self, registries):
        graph = graph_of("SELECT len FROM TCP", registries)
        # Graft a second, deeper branch feeding the select node: the join
        # must combine both incoming facts (max depth wins in the toy
        # pass), so select sees depth 1 from the branch, not 0 from the
        # original source.
        extra = graph.add_node(PlanNode("q.source2", "source"))
        hop = graph.add_node(PlanNode("q.where2", "where"))
        graph.add_edge(extra, hop)
        graph.add_edge(hop, graph.node("q.select"))
        result = run_dataflow(graph, _Depth())
        assert result.fact_out_of("q.select") == 2

    def test_default_join_refuses_confluences(self, registries):
        graph = graph_of("SELECT len FROM TCP", registries)
        extra = graph.add_node(PlanNode("q.source2", "source"))
        graph.add_edge(extra, graph.node("q.select"))

        class NoJoin(DataflowAnalysis):
            def boundary(self, node):
                return 0

            def transfer(self, node, fact):
                return fact

        with pytest.raises(NotImplementedError, match="confluence"):
            run_dataflow(graph, NoJoin())


class TestCompileQueryAnnotate:
    def test_annotate_exports_sampling_facts(self, registries):
        plan = compile_query(FULL_QUERY, registries, query_name="q")
        analyze_sampling(plan)
        sampling = plan.annotations["sampling"]
        assert "q.where->q.group" in sampling["edges"]
        assert sampling["estimators"]

    def test_default_compile_stays_bare(self, registries):
        plan = compile_query(FULL_QUERY, registries, query_name="q")
        assert plan.annotations == {}
