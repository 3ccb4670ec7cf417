# Tier-1: the correctness gate every PR must keep green.
# Tier-2: perf trajectory, tracked in BENCH_*.json across PRs.

PYTHON ?= python

.PHONY: test test-faults cov lint typecheck check-plans bench bench-unified \
	bench-program bench-planner bench-resilience bench-mp bench-service \
	bench-reset clean-scratch serve perfbench-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Fault-injection soak: the seed x rate x workload stress matrix plus the
# kill-and-resume and property-based suites.  Its own CI job — heavier than
# the tier-1 gate and meant to run even when tier-1 is already green.
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_resilience_faults.py \
		tests/test_resilience_resume.py tests/test_resilience_properties.py

# Coverage gate (needs pytest-cov): fails under 85% line coverage of repro.
cov:
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=85

# Static checks: ruff (rule selection lives in ruff.toml) plus the
# charge-discipline AST lint (raw I/O confinement, wall-clock reads, charges
# inside retry loops, frozen-object mutation — see the tool's docstring).
lint:
	ruff check .
	$(PYTHON) tools/lint_charge_discipline.py

# Scoped strict typing for the compiler core and planner (mypy.ini).  Gated
# on mypy being importable so the target degrades gracefully on machines
# without it; CI installs mypy and runs it for real.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy --config-file mypy.ini src/repro/core src/repro/planner \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

# Static plan verification over the full differential matrix: every workload
# x strategy x P x slab granularity plus 1-3 statement HPF programs and a
# seeded fuzz sweep.  Asserts the symbolic charge ledger equals PlanCost on
# every plan and matches the executed machine counters where the executor
# follows plan granularity.
check-plans:
	PYTHONPATH=src $(PYTHON) tools/check_plans.py

# Measures the fixed EXECUTE-mode GAXPY sweep and appends to
# BENCH_fastpath.json (the stored baseline is kept; the run fails if any
# *charged* statistic drifts from it — the fast path may only change host
# time).  The script guards its own sys.path, so no install is needed.
bench:
	$(PYTHON) -m benchmarks.bench_fastpath --json BENCH_fastpath.json

# Proves the generic executor matches the PR-1 fast-path wall clock within
# 10% (and charges identical statistics) on the N=256 P=4 EXECUTE sweep.
bench-unified:
	$(PYTHON) -m benchmarks.bench_unified_lowering --json BENCH_unified.json

# Whole-program pipeline (t = a @ b; c = t + d): EXECUTE wall clock plus a
# drift check over the charged statistics, including the per-statement
# breakdown and the intermediate's charged-once LAF reuse.
bench-program:
	$(PYTHON) -m benchmarks.bench_program --json BENCH_program.json

# Plan optimizer: even-split vs cost-model-searched plans on a 3-statement
# chain under one node memory budget.  Fails unless the optimized plan beats
# the even split's charged I/O bytes, both plans verify against the oracle,
# ESTIMATE==EXECUTE counters hold, and no charged statistic drifts from the
# committed baseline (the search is deterministic).
bench-planner:
	$(PYTHON) -m benchmarks.bench_planner --json BENCH_planner.json

# Resilience: checksums-on wall overhead must stay under 5% of the
# checksums-off fastpath, injected faults must leave every charged statistic
# bit-identical, and the seeded fault schedule's resilience counters must
# reproduce the committed baseline exactly.
bench-resilience:
	$(PYTHON) -m benchmarks.bench_resilience --json BENCH_resilience.json

# Multi-process backend: the two-statement pipeline run with one OS process
# per rank must charge statistics bit-identical to the in-process simulator
# (per-statement breakdown included) and match the committed BENCH_mp.json
# baseline.  On machines with >= 4 CPUs the process-pool sweep must also be
# at least 2x faster than the thread pool.
bench-mp:
	$(PYTHON) -m benchmarks.bench_mp --json BENCH_mp.json

# Job service: 8 concurrent mixed-tenant jobs over HTTP must return records
# bit-identical (every charged field) to direct Session.run, match the
# committed BENCH_service.json baseline, and on machines with >= 4 CPUs the
# 4-worker service must be at least 2x faster than the serial loop.
bench-service:
	$(PYTHON) -m benchmarks.bench_service --json BENCH_service.json

# Benchmark smoke run: a short timed exec_chain run (it keeps going past the
# 5 s until it has the harness's minimum request count).  Exits non-zero on
# the benchmark's own output checks: every request verified against the NumPy
# oracle, EXECUTE charges equal to ESTIMATE, and the compile-cache guards.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload exec_chain --seed 1 --seconds 5 --trace 0

# Run the compile-and-run job server (HOST/PORT/WORKERS overridable):
#   make serve PORT=8642 WORKERS=4
HOST ?= 127.0.0.1
PORT ?= 8642
WORKERS ?= 2
serve:
	PYTHONPATH=src $(PYTHON) -m repro.service --host $(HOST) --port $(PORT) --workers $(WORKERS)

# Remove orphaned vm_* scratch directories (left by killed runs) from the
# default scratch dir.  --max-age-s 0 reaps everything not alive right now;
# sessions also do this automatically (age > 24h) at startup.
# (imported as a function rather than -m: the package __init__ already pulls
# in the reaper module, and runpy would warn about the double import)
clean-scratch:
	PYTHONPATH=src $(PYTHON) -c "from repro.resilience.reaper import main; raise SystemExit(main(['--max-age-s', '0']))"

# Re-record the baseline (after an intentional change to the benchmark
# configuration, never to paper over a perf regression).
bench-reset:
	$(PYTHON) -m benchmarks.bench_fastpath --json BENCH_fastpath.json --reset-baseline
