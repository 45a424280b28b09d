# Convenience targets for the Req-block reproduction.

PYTHON ?= python

.PHONY: install test coverage bench bench-full bench-check perfbench examples figures lint lint-ci typecheck clean

install:
	pip install -e .[dev]

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q

# Line-coverage gate (needs pytest-cov: pip install -e .[dev]).
coverage:
	$(PYTHON) -m pytest tests/ -q --cov=repro --cov-report=term-missing --cov-fail-under=75

# Static checks (needs ruff/mypy: pip install -e .[dev]).  Scope is
# src/repro — benchmarks and tests are exercised by the test jobs.
lint:
	ruff check src/repro
	ruff format --check src/repro

typecheck:
	mypy src/repro

# Workflow hygiene: the structural linter always runs (PyYAML only);
# actionlint runs too when it is on PATH (CI installs it, so a local
# pass of this target mirrors the CI lint job).
lint-ci:
	$(PYTHON) tools/lint_workflows.py
	@if command -v actionlint >/dev/null 2>&1; then \
		actionlint -color; \
	else \
		echo "actionlint not installed; structural lint only"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate the throughput baseline and gate it against the committed
# one (the same comparison the CI perf job runs; see CONTRIBUTING.md).
# The committed baseline is stashed first because a same-day run would
# otherwise overwrite it and compare the fresh result against itself.
bench-check:
	rm -rf .bench_baseline && mkdir .bench_baseline
	cp benchmarks/results/BENCH_*.json .bench_baseline/
	$(PYTHON) -m pytest benchmarks/test_baseline.py --benchmark-only -q
	$(PYTHON) tools/check_bench.py --baseline .bench_baseline \
		--fresh $$(ls -t benchmarks/results/BENCH_*.json | head -1)
	rm -rf .bench_baseline

# Layered benchmark (BENCHMARK.json): its self-test, then one untraced
# and one traced replay round per workload; each must reproduce the
# summaries and eviction digests pinned in perfbench/expected.json, and
# the traced round's layer-by-layer replay must reproduce its
# end-to-end summary (the CI perf job runs the same steps).
perfbench:
	$(PYTHON) -m pytest perfbench -q
	for w in write-gc read-hot shard-cache-only; do \
		for t in 0 1; do \
			last="$$($(PYTHON) perfbench/run.py --workload $$w --seconds 0 --trace $$t | tail -n 1)"; \
			echo "$$w trace $$t: $$last"; \
			case "$$last" in *'"correct": true'*) ;; *) exit 1 ;; esac; \
		done; \
	done

# Full paper-scale regeneration (hours of compute).
bench-full:
	REPRO_BENCH_SCALE=1.0 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

figures:
	for fig in table1 table2 fig2 fig3 fig7 fig8 fig9 fig10 fig11 fig12 fig13; do \
		$(PYTHON) -m repro.cli experiment $$fig; done

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
