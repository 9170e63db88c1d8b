# Development entry points. Everything is plain pytest / python -m.

PYTHON ?= python

.PHONY: test bench-shapes trace-smoke fuzz examples all \
	metrics-smoke introspection-smoke cache-smoke parity

test:
	$(PYTHON) -m pytest tests/

# The paper's tables, worked examples and timing claims as shape
# assertions. Performance itself is measured by benchmarks/suite
# (python3 benchmarks/suite/run.py; docs/benchmarking.md).
bench-shapes:
	$(PYTHON) -m pytest benchmarks/test_paper_shapes.py

# The executor against the interpreter: every workload query and random
# plans, across batch sizes and forced join algorithms; parameterised plans
# against the literal text; the point-probe scan against the filter; every
# specialisation of the closure compiler against the tree-walker.
parity:
	$(PYTHON) -m pytest tests/engine/test_batch_parity.py tests/engine/test_batch.py \
		tests/algebra/test_plan_fuzz.py tests/core/test_param_parity.py \
		tests/engine/test_probe_parity.py tests/lang/test_compile_parity.py -q

# Start a metrics endpoint over a live service, scrape once, validate.
metrics-smoke:
	$(PYTHON) scripts/metrics_smoke.py

# Cache memory accounting end to end: warm every cache layer, check
# GET /caches and the cache_bytes families report nonzero bytes with
# entry identity, then re-run under a tiny byte budget and check budget
# evictions fire without changing any result (docs/observability.md).
cache-smoke:
	$(PYTHON) scripts/cache_smoke.py

# Live introspection end to end: scrape a slow query mid-flight via
# GET /queries, cancel it by id, and check the admit->cancel event trail
# (docs/observability.md).
introspection-smoke:
	$(PYTHON) scripts/introspection_smoke.py

trace-smoke:
	$(PYTHON) scripts/trace_smoke.py

fuzz:
	$(PYTHON) -m repro fuzz --n 1000

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done; echo "all examples ran"

all: test bench-shapes examples
