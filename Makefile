PYTHON ?= python

.PHONY: test test-fast fuzz bench perf docs docs-check train-model

# tier-1 verification (pyproject.toml already pins pythonpath=src) — the
# full suite includes the seeded fuzz corpus (marked `slow`) — then the
# benchmark's own tests (tiny perfbench runs whose shims must still find
# the planning path's probe points), the fast fuzz sweep and the
# BENCH_*.json perf-trajectory guard
test:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest -q perfbench/tests
	$(PYTHON) scripts/validate_schedules.py
	$(PYTHON) scripts/check_functional.py
	$(MAKE) fuzz
	$(PYTHON) scripts/check_bench.py

# everything except `slow` tests (cluster-heavy corpus, example subprocesses)
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# the seeded fuzz corpus at a fast budget; failing schedules land in
# scripts/repros/ as replayable JSON (see docs/verify.md)
fuzz:
	$(PYTHON) scripts/fuzz_schedules.py --budget 40 --seed 0

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q -s

# Perf trajectory: refreshes BENCH_sim_speed.json + BENCH_pipeline.json
# + BENCH_moe.json + BENCH_planner.json + BENCH_learned.json.
perf:
	$(PYTHON) benchmarks/bench_sim_speed.py
	$(PYTHON) benchmarks/bench_pipeline.py
	$(PYTHON) benchmarks/bench_moe.py
	$(PYTHON) benchmarks/bench_planner.py
	$(PYTHON) benchmarks/bench_topology.py
	$(PYTHON) benchmarks/bench_learned.py
	$(PYTHON) benchmarks/bench_fusion.py

# Learned-cost-model training gate: fails if training is
# nondeterministic, the weights JSON doesn't round-trip byte-stably, or
# stale feature-schema weights are accepted.
train-model:
	$(PYTHON) scripts/train_cost_model.py --check

# Regenerate docs/primitives.md from the registry, then fail if the
# committed copy was stale (so CI catches un-regenerated docs).
docs:
	$(PYTHON) docs/gen_primitives.py --check || \
		{ $(PYTHON) docs/gen_primitives.py; \
		  echo "docs/primitives.md was stale and has been regenerated;" \
		       "review and commit it"; exit 1; }

docs-check:
	$(PYTHON) docs/gen_primitives.py --check
