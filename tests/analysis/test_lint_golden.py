"""Golden diagnostic reports over the shipped example corpus.

Every ``examples/queries/*.gsql`` is linted twice — default (serial)
and against the ``shards=4,durable`` deployment target — and the full
caret-rendered reports are pinned against checked-in goldens.  Rule
wording, spans, and hints are all part of the contract: regenerate with

    pytest tests/analysis/test_lint_golden.py --update-goldens

after an intentional change to a rule message or an example query.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.algorithms.bindings import HEAVY_HITTERS_QUERY
from repro.analysis.execsafety import parse_target
from repro.analysis.linter import lint_source

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples/queries").glob("*.gsql")
)

# Every flag and key of the grammar; shed=N is no refusal since SA303 retired.
TARGET_SPEC = "shards=4,durable,shed=100"


def lint_report(path: Path, registries) -> str:
    """The golden payload: default report + target report for one file."""
    text = path.read_text()
    sections = []
    for title, target in (
        ("default", None),
        (f"target {TARGET_SPEC}", parse_target(TARGET_SPEC)),
    ):
        result = lint_source(text, registries, path.name, target=target)
        body = result.render() if result.diagnostics else "clean"
        sections.append(f"== {title} ==\n{body}")
    return "\n".join(sections) + "\n"


def check_golden(request, name: str, payload: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if request.config.getoption("--update-goldens"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        pytest.skip(f"rewrote {name}")
    if not os.path.exists(path):
        pytest.fail(
            f"golden {name} missing; run pytest --update-goldens to create it"
        )
    with open(path, "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert payload == expected


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_diagnostics_match_golden(request, registries, path):
    check_golden(request, f"{path.stem}.lint", lint_report(path, registries))


def test_a_bucket_below_one_matches_golden(request, registries):
    # local_count refuses a width of 0 when it runs: lint says so first (SA012)
    text = HEAVY_HITTERS_QUERY.format(window=60, bucket=0)
    result = lint_source(text, registries, "heavy_hitters_bucket0.gsql")
    assert [diag.rule for diag in result.diagnostics] == ["SA012"]
    check_golden(request, "heavy_hitters_bucket0.lint", result.render() + "\n")


def test_corpus_is_covered():
    # A new example without a golden fails here, not silently.
    assert {p.stem for p in EXAMPLES} >= {
        "subset_sum",
        "reservoir",
        "heavy_hitters",
        "distinct_sample",
        "min_hash",
        "top_talkers",
        "unsound_biased_avg",
        "unsound_unshardable",
    }


def test_at_least_three_rules_per_new_family(request, registries):
    # The acceptance bar: >=3 SA2xx distinct rules fire somewhere on the
    # corpus, and every SA3xx rule a shipped SFUN pack can fail (SA301,
    # SA302; no shipped state opts out of checkpoints, so SA305 has its
    # fixture in test_execsafety), each with span info for caret rendering.
    sa2, sa3 = set(), set()
    target = parse_target(TARGET_SPEC)
    for path in EXAMPLES:
        text = path.read_text()
        for result in (
            lint_source(text, registries, path.name),
            lint_source(text, registries, path.name, target=target),
        ):
            for diag in result.diagnostics:
                if diag.span is None:
                    continue
                if diag.rule.startswith("SA2"):
                    sa2.add(diag.rule)
                if diag.rule.startswith("SA3"):
                    sa3.add(diag.rule)
    assert len(sa2) >= 3, sa2
    assert sa3 == {"SA301", "SA302"}, sa3
