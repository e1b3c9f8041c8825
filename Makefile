PYTHON ?= python

# Keep in sync with .github/workflows/ci.yml and pyproject.toml.
RUFF_VERSION ?= 0.8.4

# Tier-1 test suite (the CI gate).  It holds every determinism, store,
# dynamics, workload, examples, report and serve check; there is no
# second test runner.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Coverage gate (CI `coverage` job): the tier-1 suite must cover at
# least 80% of src/repro.  Needs pytest-cov (CI installs it; locally:
# pip install pytest-cov).
coverage:
	@PYTHONPATH=src $(PYTHON) -c "import pytest_cov" 2>/dev/null || { \
		echo "pytest-cov not found — install with: pip install pytest-cov"; \
		exit 1; }
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro \
		--cov-report=term-missing:skip-covered --cov-fail-under=80

# Static checks; ruff configuration lives in pyproject.toml.  The docs
# link check (every relative link in README.md + docs/*.md must resolve,
# and every `make X` they name must be a target here) rides along — a
# moved file or a deleted target breaks lint, not the docs.
lint:
	@command -v ruff >/dev/null 2>&1 || { \
		echo "ruff not found — install with: pip install ruff==$(RUFF_VERSION)"; \
		exit 1; }
	ruff check .
	$(PYTHON) tools/check_doc_links.py

# Microbenchmarks + short sweep; exits 2 if the gated benchmark
# (test_small_platform_run) regresses >25% against BENCH_micro.json or
# is missing from the run or the baseline.  Not a CI gate: the CI
# `bench` job runs it non-gating.
bench:
	$(PYTHON) -m benchmarks.harness

# Refresh the checked-in perf baseline after an intentional change.
bench-baseline:
	$(PYTHON) -m benchmarks.harness --update-baseline

.PHONY: test lint coverage bench bench-baseline
