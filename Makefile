# Convenience targets; every recipe matches what CI runs.
#
#   make ci      - the exact step sequence of .github/workflows/ci.yml:
#                  lint -> unit -> differential -> fuzz -> fuzz-partitioned
#                  -> guards -> stress -> perf-smoke
#   make test    - tier-1 suite (unit + integration + property + differential)
#   make unit    - the unit/integration/property suites as CI runs them
#                  (differential + fuzz split out into their own steps)
#   make diff    - just the vectorized-vs-reference differential suite
#   make fuzz    - the random-query differential fuzzer, CI profile (pinned,
#                  derandomized, 220+ generated queries, each also run
#                  adaptive=True vs adaptive=False vs the reference oracle)
#   make fuzz-nightly - the randomized nightly profile (10x examples); pass
#                  SEED=... to reproduce a nightly CI failure, and
#                  PARTITIONS=4 for the nightly's partitioned-storage step
#   make fuzz-partitioned - the CI fuzz stream against partitioned +
#                  compressed storage (4 shards per table, zone-map and
#                  routing pruning live); partitioned scans run their shard
#                  residual filters through the batch compiler, so this is
#                  that path's differential coverage
#   make guards  - the engine/aggregation/expression-eval/pruning/
#                  late-materialization speedup guards
#   make stress  - the threaded serving layer under churn: the
#                  writers-vs-readers snapshot stress suite plus the
#                  1/4/16-client concurrent load driver (every served row
#                  differentially checked against the serial answer)
#   make perf-smoke - the wall-clock ledger's own tier-1 check (~12 s): all
#                  five workloads at smoke size, every declared metric
#                  emitted and finite, exact counters repeat
#   make perf    - a full wall-clock ledger reading (five workloads, untraced
#                  then traced) into BENCH_perf.json; compare two readings
#                  with `python benchmarks/perf/compare.py A.json B.json`.
#                  Not part of `ci`: wall-clock numbers are judged by the A/B
#                  protocol in benchmarks/perf/README.md, not by a CI gate
#   make bench   - paper-figure benchmarks plus the speedup guards
#   make bench-compare - the CI benchmark job: (re)runs the paper-figure
#                  suite at REPRO_BENCH_SCALE=0.3 into BENCH_pr.json when a
#                  *.py file under src/ or benchmarks/ or the baseline is
#                  newer than the report, then gates it against
#                  BENCH_baseline.json
#   make experiments - the estimator-strategy x workload matrix (Q-error
#                  distributions and re-plan counts per strategy, two runs);
#                  emits estimators.* info metrics into the trajectory
#                  report when REPRO_BENCH_REPORT is set
#   make pins    - regenerate the golden planner and re-optimization pins
#                  (tests/golden/*.json) from a clean export of PINS_COMMIT
#                  (default HEAD; e.g. `make pins PINS_COMMIT=HEAD~1` for the
#                  parent) with this tree's generators, and fail when they
#                  differ from the checked-in files.  PINS_DIR (default: a
#                  fresh temp dir) is where the export is unpacked
#   make ab      - the A/B protocol of benchmarks/perf/README.md for one
#                  workload: PAIRS (default 10) alternating pairs of single
#                  runs, PARENT (default HEAD~1, exported with git archive)
#                  against this tree, pair k at seed SEED + k; prints each
#                  end-to-end metric's medians, quartiles, wins and whether
#                  the gap exceeds the parent's IQR.  e.g.
#                  `make ab WORKLOAD=job_hot PARENT=HEAD~1 PAIRS=10 SEED=100`.
#                  LAYERS=a,b adds a traced run per side and the same table
#                  for those per-layer metrics; METRIC= picks the metric the
#                  per-pair progress line shows (default pass_wall_s).
#                  A set-up gain is read from the setup_s column, e.g.
#                  `make ab WORKLOAD=wide_scan PARENT=HEAD~1 PAIRS=10
#                  SEED=300 METRIC=setup_s
#                  LAYERS=stats.analyze_s,storage.compress_s`.
#                  Not part of `ci`
#   make lint    - ruff check (same invocation as the CI lint job)
#   make all     - everything

PYTHON ?= python
SEED ?= 0
PARTITIONS ?= 0
PINS_COMMIT ?= HEAD
WORKLOAD ?= job_hot
PARENT ?= HEAD~1
PAIRS ?= 10
LAYERS ?=
METRIC ?= pass_wall_s
export PYTHONPATH := src

.PHONY: ci test unit diff fuzz fuzz-nightly fuzz-partitioned guards stress perf-smoke perf ab bench bench-compare experiments pins lint all

# A recipe that fails leaves no target behind (a half-written BENCH_pr.json
# would otherwise pass for an up-to-date report).
.DELETE_ON_ERROR:

# Mirrors the CI workflow's step sequence exactly (lint job, then the test
# job's pytest steps, then the speedup guards, the serving stress and the
# ledger smoke).
ci: lint unit diff fuzz fuzz-partitioned guards stress perf-smoke

test:
	$(PYTHON) -m pytest -x -q tests

unit:
	$(PYTHON) -m pytest -x -q tests \
		--ignore=tests/test_executor_differential.py \
		--ignore=tests/test_executor_edge_cases.py \
		--ignore=tests/test_executor_index_join.py \
		--ignore=tests/test_executor_sort_group.py \
		--ignore=tests/property/test_sql_fuzz_differential.py

diff:
	$(PYTHON) -m pytest -x -q tests/test_executor_differential.py tests/test_executor_edge_cases.py tests/test_executor_index_join.py tests/test_executor_sort_group.py

fuzz:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -x -q tests/property/test_sql_fuzz_differential.py

fuzz-nightly:
	HYPOTHESIS_PROFILE=nightly REPRO_FUZZ_PARTITIONS=$(PARTITIONS) $(PYTHON) -m pytest -x -q tests/property/test_sql_fuzz_differential.py --hypothesis-seed=$(SEED)

fuzz-partitioned:
	HYPOTHESIS_PROFILE=ci REPRO_FUZZ_PARTITIONS=4 $(PYTHON) -m pytest -x -q tests/property/test_sql_fuzz_differential.py

guards:
	$(PYTHON) -m pytest -x -q -s benchmarks/test_engine_speedup.py benchmarks/test_aggregate_speedup.py benchmarks/test_expression_eval.py benchmarks/test_partition_pruning.py benchmarks/test_late_materialization.py

stress:
	$(PYTHON) -m pytest -x -q -s tests/test_server_concurrency.py benchmarks/test_serving_concurrency.py

perf-smoke:
	$(PYTHON) -m pytest -x -q benchmarks/perf/test_perf_smoke.py

perf:
	$(PYTHON) benchmarks/perf/run.py --out BENCH_perf.json

ab:
	$(PYTHON) tools/perf_ab.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS) --seed $(SEED) \
		--layers "$(LAYERS)" --metric $(METRIC)

bench:
	$(PYTHON) -m pytest -x -q -s benchmarks

# The CI benchmark job's suite, at its scale, writing its trajectory report.
BENCH_pr.json: $(shell find src benchmarks -name '*.py') BENCH_baseline.json
	REPRO_BENCH_SCALE=0.3 REPRO_BENCH_REPORT=$@ $(PYTHON) -m pytest -x -q benchmarks --ignore=benchmarks/test_engine_speedup.py --ignore=benchmarks/test_aggregate_speedup.py

bench-compare: BENCH_pr.json
	$(PYTHON) -m repro.bench.compare BENCH_baseline.json BENCH_pr.json --max-regression 0.20

experiments:
	$(PYTHON) -m pytest -x -q -s benchmarks/test_estimator_matrix.py

# PYTHONPATH is the relative `src`, so inside the export it is the export's.
pins:
	@set -e; dir=$${PINS_DIR:-$$(mktemp -d)}; mkdir -p $$dir; \
	git archive $(PINS_COMMIT) | tar -x -C $$dir; \
	cp tests/golden/gen_planner_pins.py tests/golden/gen_reopt_pins.py $$dir/tests/golden/; \
	(cd $$dir && $(PYTHON) tests/golden/gen_planner_pins.py && $(PYTHON) tests/golden/gen_reopt_pins.py); \
	cmp $$dir/tests/golden/planner_pins.json tests/golden/planner_pins.json; \
	cmp $$dir/tests/golden/reopt_pins.json tests/golden/reopt_pins.json; \
	echo "pins generated at $(PINS_COMMIT) equal the checked-in files"

lint:
	ruff check .

all: ci bench
