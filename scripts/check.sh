#!/usr/bin/env bash
# Pre-PR gate: run every check the repo can enforce, in order of cost.
#
#   ./scripts/check.sh            # lint + style + types + tier-1 tests
#   ./scripts/check.sh --fast     # skip the pytest run
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

echo "== repro.obs (instrumented scenarios, OBS4xx self-checks) =="
# Fails on any OBS4xx issue (metric collisions, unclosed spans); the
# full metrics/bench artifacts are collected in CI's reports job.
python -m repro.obs kernel steady

echo "== repro.flow (whole-program RNG provenance) =="
# Interprocedural pass: every draw on an experiment or tool-CLI path
# must trace to a keyed stream or a seeded generator. Cached by a
# whole-tree digest, so an untouched tree re-checks in milliseconds.
python -m repro.flow src

echo "== repro.scenario (bounded smoke fuzz, SCN9xx invariants) =="
# 25 sampled workloads through the full sanitizer + monitor stack;
# found violations are the campaign's product (exit 0), only an
# SCN912 replay mismatch — broken determinism machinery — fails.
# Memoized in .repro-scenario-cache.json, so a warm gate re-checks
# in seconds.
python -m repro.scenario fuzz --runs 25 --seed 0x19980902

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
    echo "== tier-1 pytest =="
    python -m pytest -x -q
fi

echo "== all checks passed =="
