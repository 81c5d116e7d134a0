PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

## crash-schedule rotation seed for the fault property harness: each
## value sweeps a different (nranks, level) slice of the replay matrix
FAULT_SEED ?= 0
export FAULT_SEED

.PHONY: test test-simt test-metadb test-iostack test-datapath test-maintenance \
    test-mvcc test-policy test-faults lint verify-collectives \
    bench bench-metadb bench-datapath bench-maintenance bench-policy \
    bench-collective bench-e2e bench-e2e-compare perfcheck reach

## tier-1 verify: static SPMD lint first (cheapest signal), the simt
## kernel every simulated job stands on, the metadb subset next, then
## everything else, then the property harnesses again under the runtime
## collective sanitizer, then the crash-recovery tier
test: lint test-simt test-metadb
	$(PYTHON) -m pytest -x -q --ignore=tests/simt \
	    --ignore=tests/pfs/test_filesystem.py \
	    --ignore=tests/core/test_job_determinism.py --ignore=tests/metadb \
	    --ignore=tests/properties/test_metadb_index_property.py \
	    --ignore=tests/properties/test_sql_property.py \
	    --ignore=tests/properties/test_fault_property.py
	$(MAKE) verify-collectives
	$(MAKE) test-faults

## simt kernel: baton-passing contract on counts (handoffs per switch,
## one park per file-system request and per two-phase aggregator's
## access phase, golden resume order, callback
## failures), primitives (serve against the request/hold loop it
## replaces), fault points, the file system's walk exactness (one park,
## today's float sum, queue wait in closed form) and the job-level
## run-twice determinism tests (seconds)
test-simt:
	$(PYTHON) -m pytest tests/simt tests/pfs/test_filesystem.py \
	    tests/core/test_job_determinism.py -q

## crash tolerance: kernel fault injection, recovery-protocol unit
## tests, cross-job crash/restart scenarios, the crash-at-every-point
## property harness (FAULT_SEED rotates its rank/level matrix), and the
## zero-overhead guard for the fault machinery itself
test-faults:
	$(PYTHON) -m pytest tests/simt/test_faults.py tests/metadb/test_recovery.py \
	    tests/core/test_maintenance_faults.py \
	    tests/properties/test_fault_property.py -q
	$(PYTHON) benchmarks/perfcheck_faults.py

## spmdlint: flag collectives reachable on only some ranks' paths
## (rules + suppression syntax in docs/analysis.md); a new unsuppressed
## finding fails the build
lint:
	$(PYTHON) -m repro.analysis -q

## re-run the datapath/maintenance suites and property harnesses with
## SPMD_VERIFY=1: every job cross-validates per-rank collective
## sequences, so a divergence the static pass cannot see fails here
verify-collectives:
	$(PYTHON) -m pytest tests/analysis -q
	$(PYTHON) -m pytest tests/core/test_datapath.py tests/core/test_maintenance.py \
	    tests/properties/test_datapath_property.py \
	    tests/properties/test_mvcc_property.py --spmd-verify -q

## MVCC concurrency surface: pinned snapshot reads vs background flips,
## lease conflicts, epoch/pin/extent leak audits (docs/concurrency.md)
test-mvcc:
	$(PYTHON) -m pytest tests/properties/test_mvcc_property.py -q

## metadb front-end unit tests (incl. the SQLite plan of every SDM
## statement, tests/metadb/test_scan_coverage.py, and each e2e
## workload's statement stream, tests/metadb/test_statement_stream_golden.py)
## + the scan-equivalence property harnesses
test-metadb:
	$(PYTHON) -m pytest tests/metadb tests/properties/test_metadb_index_property.py \
	    tests/properties/test_sql_property.py -q

## the I/O stack under core, bottom up: datatypes, the file
## system (byte store, striping, the run-list kernels), MPI-IO (views,
## sieving, two-phase — its one-walk access phase held to the
## per-request loop it replaced, its span and packed scratch layouts to
## each other — the coalesced-read pipeline)
test-iostack:
	$(PYTHON) -m pytest tests/dtypes tests/pfs tests/mpiio -q

## storage-order data path: chunked/canonical/reorganize unit tests + the
## cross-order read-equivalence property harness
test-datapath:
	$(PYTHON) -m pytest tests/core/test_datapath.py tests/properties/test_datapath_property.py -q

## maintenance tier: background reorganization, compaction, snapshot-
## surviving queues, index-block cache + the maintenance property dimension
test-maintenance:
	$(PYTHON) -m pytest tests/core/test_maintenance.py tests/properties/test_datapath_property.py -q

## self-tuning policy tier: the one policy switch, adaptive coalesce_gap
## derivation, read-count promotion + the adaptive read-equivalence
## dimension of the datapath property harness
test-policy:
	$(PYTHON) -m pytest tests/core/test_policy.py tests/properties/test_datapath_property.py -q

## metadata query-path ablation (scan vs single-column vs composite vs
## end-of-file index, per-DELETE / per-batch host time vs table size); emits BENCH_metadb.json and holds it to its
## perfcheck guards
bench-metadb:
	METADB_BENCH_JSON=BENCH_metadb.json $(PYTHON) -m pytest benchmarks/bench_ablation_metadb.py --benchmark-only -q
	$(PYTHON) benchmarks/perfcheck.py BENCH_metadb.json

## storage-order ablation (chunked vs canonical writes, reorganize cost,
## read price of each representation, coalesced-read gap + run counts);
## emits BENCH_datapath.json and holds it to its perfcheck guards
bench-datapath:
	DATAPATH_BENCH_JSON=BENCH_datapath.json $(PYTHON) -m pytest benchmarks/bench_ablation_datapath.py --benchmark-only -q
	$(PYTHON) benchmarks/perfcheck.py BENCH_datapath.json

## policy-tier ablation (adaptive gap/promotion vs a grid of static
## settings per knob); every cell is deterministic; emits
## BENCH_policy.json and holds it to its perfcheck guards
bench-policy:
	POLICY_BENCH_JSON=BENCH_policy.json $(PYTHON) -m pytest benchmarks/bench_ablation_policy.py --benchmark-only -q
	$(PYTHON) benchmarks/perfcheck.py BENCH_policy.json

## collective (two-phase) vs independent writes of element-interleaved
## data at true scale, no time dilation; every cell is virtual-time, so a
## change to the two-phase path that moves no virtual cell regenerates
## BENCH_collective.json byte for byte; holds it to its perfcheck guards
bench-collective:
	COLLECTIVE_BENCH_JSON=BENCH_collective.json $(PYTHON) -m pytest benchmarks/bench_ablation_collective.py --benchmark-only -q
	$(PYTHON) benchmarks/perfcheck.py BENCH_collective.json

## guard the committed BENCH JSONs against the table in
## benchmarks/perfcheck.py: fails if the cold chunked read exceeds 1.3x
## of canonical at 4-32 ranks, the chunked read's submitted run count
## regresses toward O(elements), index traffic or churned-file growth
## leave their bounds, an adaptive policy falls below its best static
## setting, a metadb DELETE / batch INSERT costs >4x more at 40x the rows,
## a metadb composite / end-of-file probe beats the scan < 50x at 10k
## rows or the composite gap stops widening with table size,
## two-phase collective writes stop beating both independent paths 10x,
## a warm chunked read falls behind the canonical one, a background
## reorganize removes < 80 % of the sync critical path, or compaction
## leaves a free extent behind; then time the run list's move kernels
## against the byte index they replaced, in-process in alternating
## rounds, holding the median per-round ratio so the host's speed
## cancels (bulk DOUBLE runs >= 2.5x faster, small request lists <= 1.5x
## slower); then the resolve-once memos the same way
## (applying a kept chunked read plan >= 3x faster than resolving it, a
## FileView over a memoised filetype >= 10x faster than over a fresh one)
## and the chunked resolution against the per-chunk probing its
## position table replaced for dense wanted sets (>= 2.8x faster at
## bulk_datapath's shape, <= 1.5x slower for a sparse viewer);
## then a two-phase aggregation's span layout against the packed one
## (build plus move >= 2x faster on bulk_datapath's shape, <= 1.1x slower
## on the workloads' small shapes); then the partitioner's growth with k
## (multilevel_kway on fun3d_e2e's mesh at k = 512 <= 8x its time at
## k = 32); then the simulator's baton pass against a plain two-thread
## Lock ping-pong, pinned to one CPU (<= 1.1x per handoff; skipped where
## the process cannot pin itself or has no SCHED_BATCH); then `make reach`
perfcheck:
	$(PYTHON) benchmarks/perfcheck.py
	$(PYTHON) benchmarks/perfcheck_kernels.py
	$(PYTHON) benchmarks/perfcheck_plans.py
	$(PYTHON) benchmarks/perfcheck_aggregation.py
	$(PYTHON) benchmarks/perfcheck_partition.py
	$(PYTHON) benchmarks/perfcheck_switch.py
	$(MAKE) reach

## every function under src/repro (outside analysis/) that no workload,
## `python -m repro.bench --fast`, example or JSON-emitting ablation
## enters must be listed in reach.baseline with the reason it stays, and
## every reached function's count of never-run lines outside `raise`
## statements with its reason (lines=<n>); a count may only shrink
## (about two minutes)
reach:
	$(PYTHON) benchmarks/reach.py

## maintenance ablation (sync vs background reorganize critical path,
## cold vs warm chunked-read index cache, compaction file sizes); emits
## BENCH_maintenance.json and holds it to its perfcheck guards
bench-maintenance:
	MAINTENANCE_BENCH_JSON=BENCH_maintenance.json $(PYTHON) -m pytest benchmarks/bench_ablation_maintenance.py --benchmark-only -q
	$(PYTHON) benchmarks/perfcheck.py BENCH_maintenance.json

## the two-clock end-to-end benchmark (BENCHMARK.json, benchmarks/e2e/):
## every workload, both trace modes, one record written to $(OUT); then
## `make bench-e2e-compare A=parent.json B=change.json` holds two records
## of equal seed against each other (virtual clock and counters exactly)
OUT ?= .bench_build/e2e.json
bench-e2e:
	mkdir -p $(dir $(OUT))
	$(PYTHON) benchmarks/e2e/run.py --out $(OUT)

bench-e2e-compare:
	$(PYTHON) benchmarks/e2e/compare.py $(A) $(B)

## every paper-reproduction benchmark (tracked-JSON ablations first; the
## datapath ablation runs perfcheck against its regenerated JSON).
## Benchmarks are passed as explicit file arguments: bench_*.py does not
## match pytest's default test_*.py discovery pattern, so a bare
## `pytest benchmarks/` collects nothing.
TRACKED_BENCHES := benchmarks/bench_ablation_metadb.py \
    benchmarks/bench_ablation_datapath.py \
    benchmarks/bench_ablation_maintenance.py \
    benchmarks/bench_ablation_policy.py \
    benchmarks/bench_ablation_collective.py
bench: bench-metadb bench-datapath bench-maintenance bench-policy \
    bench-collective
	$(PYTHON) -m pytest --benchmark-only -q \
	    $(filter-out $(TRACKED_BENCHES),$(wildcard benchmarks/bench_*.py))
	$(MAKE) perfcheck
