#!/usr/bin/env bash
# Pre-PR gate: run every check the repo can enforce, in order of cost.
#
#   ./scripts/check.sh            # lint + style + types + perfbench
#                                 # fingerprints and a traced run +
#                                 # tier-1 tests
#   ./scripts/check.sh --fast     # skip perfbench and pytest
#
# ruff and mypy are optional-dev dependencies (pyproject [dev]); when
# they are not installed the corresponding step is skipped with a
# notice rather than failing, so the gate also works in minimal
# containers.  repro.lint and pytest are always required.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.lint (determinism & simulation-correctness) =="
# Pin hash randomisation for the run-twice harness: the two runs must
# diverge only if the *code* is nondeterministic, never because the
# gate process drew a different hash seed than a rerun of the gate.
export PYTHONHASHSEED=0
python -m repro.lint src --determinism

echo "== repro.sanitize (runtime shadow-state invariants) =="
python -m repro.sanitize all

echo "== repro.modelcheck (bounded exhaustive exploration) =="
# The fast scenarios are exhaustive in under a second; the ghost
# scenario (~1 min) runs in CI's model-check step, not the local gate.
python -m repro.modelcheck smoke simultaneous

echo "== examples (every script runs to completion) =="
# The examples are documentation that executes; any non-zero exit
# fails the gate.  The whole set takes a few seconds.
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff not installed; skipping (pip install -e '.[dev]') =="
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (whole src/repro tree) =="
    mypy src/repro
else
    echo "== mypy not installed; skipping (pip install -e '.[dev]') =="
fi

if [[ "${1:-}" != "--fast" ]]; then
    echo "== perfbench fingerprints (every workload, seed 1998) =="
    # A run exits 1 when a repetition's fingerprint differs from
    # perfbench/references.json (the problem goes to stderr).  The
    # three runs take about 25 s.
    for workload in sap-churn sap-refresh alloc-sweep; do
        echo "-- $workload"
        python3 perfbench/run.py --workload "$workload" --seed 1998 \
            --seconds 1 --trace 0 > /dev/null
    done

    echo "== perfbench traced run (sap-refresh, seed 1998) =="
    # The traced run wraps program methods by name (owns, step,
    # visible_set, ...), so it fails when one is renamed or deleted, and
    # it exits 1 when the traced repetition's fingerprint differs from
    # the reference.  It takes about 5 s.
    python3 perfbench/run.py --workload sap-refresh --seed 1998 \
        --seconds 1 --trace 1 > /dev/null

    echo "== tier-1 pytest =="
    python -m pytest -x -q
fi

echo "== all checks passed =="
