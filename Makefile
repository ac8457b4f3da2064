PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-units lint-determinism lint-sarif test check rules invariants bench chaos sweep-smoke serve-smoke serve report-check

lint:
	$(PYTHON) -m repro.analysis lint

lint-units:
	$(PYTHON) -m repro.analysis lint --select REP2

lint-determinism:
	$(PYTHON) -m repro.analysis lint --select REP3

lint-sarif:
	$(PYTHON) -m repro.analysis lint --format sarif --output lint-results.sarif

rules:
	$(PYTHON) -m repro.analysis rules

invariants:
	$(PYTHON) -m repro.analysis invariants

test:
	REPRO_CHECK_INVARIANTS=1 $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m repro bench --min-speedup 1.0 --frame-min-speedup 1.5

chaos:
	$(PYTHON) -m repro chaos --jobs 2 --manifest CHAOS.manifest.json

# Freshness gate for EXPERIMENTS.md: regenerate the report from scratch
# (one process, no disk cache) into a temporary directory and require
# its body -- everything above the host-timing section and the
# "Generated in" footer -- to equal the committed one byte for byte.
report-check:
	@out=$$(mktemp -d) && \
	env -u REPRO_CACHE_DIR $(PYTHON) -m repro report --jobs 1 \
		--output $$out/EXPERIMENTS.md && \
	sed -e '/^## Host-phase timing/,$$d' -e '/^---$$/,$$d' \
		$$out/EXPERIMENTS.md > $$out/fresh.md && \
	sed -e '/^## Host-phase timing/,$$d' -e '/^---$$/,$$d' \
		EXPERIMENTS.md > $$out/committed.md && \
	diff -u $$out/committed.md $$out/fresh.md && \
	echo "report-check: EXPERIMENTS.md body is current"; \
	status=$$?; rm -rf $$out; exit $$status

# Tiny sampled sweep through both executor backends (serial and
# process-pool); fails unless they agree bit for bit and drop no points
# (writes BENCH_sweep.json).
sweep-smoke:
	$(PYTHON) -m repro.perf.sweep_smoke

# Boot the job server, run a cold and a warm job over HTTP, verify the
# manifest round-trip, cache warmth and LRU eviction (writes
# SERVE_stats.json).
serve-smoke:
	$(PYTHON) -m repro.perf.serve_smoke

# Long-running simulation service on the fast workload subset.
serve:
	$(PYTHON) -m repro serve --fast

check: lint test
