# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-check bench-update experiments reports \
	stability sweep goldens scenarios frontier serve-smoke clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI regression gate: re-measure HEAD vs the newest committed entry's
# recorded baseline commit and fail on a >20% ratio regression.
bench-check:
	$(PYTHON) scripts/update_bench.py --check

# Refresh the committed bench trajectory for a PR, e.g.:
#   make bench-update PR=7 BASELINE=<commit> BASELINE_PR=6
bench-update:
	$(PYTHON) scripts/update_bench.py --pr $(PR) \
		--baseline-commit $(BASELINE) --baseline-pr $(BASELINE_PR)

experiments:
	$(PYTHON) scripts/generate_experiments_md.py

stability:
	$(PYTHON) scripts/scale_stability.py

sweep:
	$(PYTHON) -m repro sweep --preset tiny --runs 4 --jobs 4

goldens:
	$(PYTHON) scripts/update_goldens.py

# Conservation gates (src/repro/gates.py): the full scenario pack,
# audited, with every verdict; the full-pack FP/FN frontier under its
# non-degeneracy check; and the kill -9 zero-loss chaos gate, which
# writes serve_smoke_report.json.
scenarios:
	PYTHONPATH=src $(PYTHON) -m repro gate scenario

frontier:
	PYTHONPATH=src $(PYTHON) -m repro gate frontier

serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro gate serve

reports: bench experiments

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis .cache
	find . -name __pycache__ -type d -exec rm -rf {} +
