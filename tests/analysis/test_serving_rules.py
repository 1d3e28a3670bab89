"""SA401: the serving-shareability lint mirrors the engine's decisions.

The rule's whole design is *one predicate, two callers*:
``repro.serving.sharing.share_signature`` decides sharing at runtime
(``StandingQueryEngine.register``) and at compile time (row SA401 of
``repro.analysis.legality.RULES``).
These tests pin the mirror: for every shipped example, the linter warns
exactly when the engine would serve the query on a private feed.
"""

import glob
import os

import pytest

from repro.analysis.execsafety import parse_target
from repro.analysis.linter import lint_source
from repro.serving.server import StandingQueryEngine

from tests.serving.conftest import make_instance

EXAMPLES = sorted(
    glob.glob(
        os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "queries", "*.gsql"
        )
    )
)

SERVE = parse_target("serve")
STATEFUL_SELECTION = "SELECT time, srcIP FROM TCP WHERE ssbasic(len, 25) = TRUE"


class TestGating:
    def test_no_target_no_rule(self):
        result = lint_source(STATEFUL_SELECTION)
        assert not any(d.rule == "SA401" for d in result.diagnostics)
        assert "serving" not in result.plan.annotations

    def test_target_without_serve_no_rule(self):
        result = lint_source(STATEFUL_SELECTION, target=parse_target("durable"))
        assert not any(d.rule == "SA401" for d in result.diagnostics)
        assert "serving" not in result.plan.annotations

    def test_serve_flag_parses_and_describes(self):
        target = parse_target("durable,serve")
        assert target.serve
        assert target.describe() == "durable,serve"
        assert target.to_json()["serve"] is True


class TestSA401:
    def test_stateful_selection_warns(self):
        result = lint_source(STATEFUL_SELECTION, target=SERVE)
        assert result.ok  # a warning, not an error: the server still serves it
        [diag] = [d for d in result.diagnostics if d.rule == "SA401"]
        assert "stateful selection" in diag.message
        assert "private" in diag.hint
        annotation = result.plan.annotations["serving"]
        assert annotation["shareable"] is False
        assert annotation["reason"] in diag.message

    def test_plain_selection_is_clean_and_annotated(self):
        result = lint_source(
            "SELECT time, srcIP FROM TCP WHERE len > 100", target=SERVE
        )
        assert result.clean
        annotation = result.plan.annotations["serving"]
        assert annotation["shareable"] is True
        assert "WHERE (len > 100)" in annotation["signature"]

    def test_pragma_suppresses_it(self):
        result = lint_source(
            STATEFUL_SELECTION + "\n-- lint: disable=SA401", target=SERVE
        )
        assert not any(d.rule == "SA401" for d in result.diagnostics)

    def test_sarif_knows_the_rule(self):
        from repro.analysis.sarif import render_report

        result = lint_source(STATEFUL_SELECTION, target=SERVE)
        report = render_report([result], "sarif")
        assert "SA401" in report


class TestMirrorsTheEngine:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
    )
    def test_lint_agrees_with_register(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lint_warns = any(
            d.rule == "SA401"
            for d in lint_source(text, target=SERVE).diagnostics
        )
        engine = StandingQueryEngine(make_instance)
        sq = engine.register(text, name="q")
        engine_refuses = sq.signature is None
        assert lint_warns == engine_refuses, (
            f"{os.path.basename(path)}: lint says"
            f" {'refuse' if lint_warns else 'share'}, engine says"
            f" {'refuse' if engine_refuses else 'share'}"
            f" ({sq.share_reason})"
        )

    def test_a_shedding_instance_is_private_to_both(self):
        # The whole decision is shared, not just its plan half: lint used
        # to print ``ok`` for a target the engine serves on a private feed.
        from repro.dsms.runtime import Gigascope
        from repro.streams.schema import TCP_SCHEMA

        def shedding():
            gs = Gigascope(shed_threshold=100)
            gs.register_stream(TCP_SCHEMA)
            return gs

        text = "SELECT time, srcIP FROM TCP WHERE len > 100"
        assert lint_source(text, target=SERVE).clean
        result = lint_source(text, target=parse_target("serve,shed=100"))
        [diag] = [d for d in result.diagnostics if d.rule == "SA401"]
        sq = StandingQueryEngine(shedding).register(text, name="q")
        assert sq.signature is None
        assert sq.share_reason == "overload shedding decisions are instance-local"
        assert sq.share_reason in diag.message
        assert result.plan.annotations["serving"]["reason"] == sq.share_reason
