#!/usr/bin/env bash
# Repository check gate: style (ruff), types (mypy), query lint over the
# shipped .gsql corpus, and the tier-1 pytest suite.
#
# ruff and mypy are optional (install with `pip install -e .[dev]`);
# when absent they are skipped with a notice so the gate still works in
# minimal containers.  Query lint and pytest always run.
#
# --chaos additionally runs the chaos suite (tests/chaos, marker
# `chaos`): real process kills plus durable resume, torn trace tails,
# stalled sources.  It is excluded from the default pytest run.
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

with_chaos=0
for arg in "$@"; do
    case "$arg" in
        --chaos) with_chaos=1 ;;
        *) echo "unknown option: $arg (supported: --chaos)" >&2; exit 2 ;;
    esac
done

failures=0

run() {
    echo "==> $*"
    if ! "$@"; then
        failures=$((failures + 1))
        echo "FAILED: $*" >&2
    fi
    echo
}

if command -v ruff >/dev/null 2>&1; then
    run ruff check src tests examples
else
    echo "==> ruff not installed; skipping style check (pip install -e .[dev])"
fi

if command -v mypy >/dev/null 2>&1; then
    run mypy src/repro/analysis
else
    echo "==> mypy not installed; skipping type check (pip install -e .[dev])"
fi

# One multi-file invocation so the whole corpus lands in one SARIF
# report (lint.sarif, uploaded by the CI workflow for code-scanning
# annotations).  Exit 1 = an example has lint *errors*; the deliberately
# unsound examples only warn under the default (serial) target.
echo "==> query lint over examples/queries/*.gsql (SARIF report: lint.sarif)"
if ! python -m repro.cli lint --format sarif --output lint.sarif examples/queries/*.gsql; then
    failures=$((failures + 1))
    echo "FAILED: query lint (see lint.sarif)" >&2
fi
echo

# Per-test wall-clock ceiling: the resilience tests exercise deadlock
# fixes, so a regression must fail loudly rather than hang the gate.
# Uses the pytest-timeout plugin when installed (pip install -e .[test]);
# otherwise tests/conftest.py enforces the same ceiling via SIGALRM.
pytest_args=()
if python -c "import pytest_timeout" >/dev/null 2>&1; then
    pytest_args+=(--timeout=120)
else
    echo "==> pytest-timeout not installed; relying on the conftest SIGALRM fallback"
fi

# Coverage is optional like ruff/mypy: when pytest-cov is installed (CI
# installs .[test]) enforce the floor and leave coverage.xml behind for
# the workflow to upload; in minimal containers just run the tests.
if python -c "import pytest_cov" >/dev/null 2>&1; then
    # Floor: measured - 2, ratcheted as the suite grows; lowering it
    # needs a written justification in the PR.  Measured here is the
    # line census (scripts/line_census.py, docs/UNREACHED.txt): 795 of
    # 11 945 executable lines unreached, 93.3% reached.  coverage.py
    # counts statements, not lines, and its own figure is not recorded
    # yet, so the floor sits 5 points under the census instead of 2.
    pytest_args+=(--cov=repro --cov-report=term --cov-report=xml --cov-fail-under=88)
else
    echo "==> pytest-cov not installed; skipping coverage floor (pip install -e .[test])"
fi

# (the guarded expansion keeps `set -u` happy when the array is empty)
run python -m pytest tests/ ${pytest_args[@]+"${pytest_args[@]}"}

if [ "$with_chaos" -eq 1 ]; then
    # A trailing -m overrides the `-m 'not chaos'` baked into addopts.
    # Coverage flags are reused when present, but the floor is a tier-1
    # property — don't let the chaos subset fail on it.
    chaos_args=()
    if python -c "import pytest_timeout" >/dev/null 2>&1; then
        chaos_args+=(--timeout=180)
    fi
    run python -m pytest tests/chaos ${chaos_args[@]+"${chaos_args[@]}"} -m chaos
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures check(s) failed" >&2
    exit 1
fi
echo "all checks passed"
