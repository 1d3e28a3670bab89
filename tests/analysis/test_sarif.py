"""A SARIF report describes each rule by its catalogue title.

docs/LINT_RULES.md heads every rule it details ``### SAxxx — title``;
``repro.analysis.sarif.RULE_DESCRIPTIONS`` is what a SARIF viewer shows
for the rule, so the two read alike, rule by rule.
"""

import json
import re
from pathlib import Path

from repro.analysis.linter import lint_source
from repro.analysis.sarif import RULE_DESCRIPTIONS, render_report

CATALOGUE = Path(__file__).parents[2] / "docs" / "LINT_RULES.md"


def test_every_detailed_rule_has_its_heading_as_its_description():
    headings = re.findall(r"^### (SA\d{3}) — (.+?) \*\(\w+\)\*$", CATALOGUE.read_text(), re.M)
    assert len(headings) >= 19
    assert {rule: RULE_DESCRIPTIONS.get(rule) for rule, _ in headings} == dict(headings)


def test_a_report_names_the_rule_that_fired():
    result = lint_source("SELECT srcIP, count(*) FROM TCP GROUP BY srcIP")
    run = json.loads(render_report([result], "sarif"))["runs"][0]
    [rule] = run["tool"]["driver"]["rules"]
    assert (rule["id"], rule["shortDescription"]["text"]) == ("SA001", "unbounded group table")
    assert run["results"][0]["message"]["text"].startswith("group table is unbounded")
