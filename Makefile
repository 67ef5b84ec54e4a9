# Mirrors .github/workflows/ci.yml: `make ci-local` runs the same gates as
# the CI job matrix (fast-gate, test, race, chaos-fuzz, bench-regression),
# serially. `make check` is the historical alias without the bench gate.

GO ?= go

.PHONY: check ci-local fast-gate build vet fmt-check test race corralvet \
	chaos fuzz fuzz-native overload trace-determinism resume-determinism bench bench-compare \
	scale scale-bench-compare scale-nightly perfbench-check

check: build vet fmt-check test race chaos fuzz overload trace-determinism resume-determinism
	@echo "check: all gates passed"

# One target per CI job, in the workflow's job order.
ci-local: fast-gate perfbench-check test trace-determinism resume-determinism race chaos fuzz fuzz-native overload bench-compare scale scale-bench-compare
	@echo "ci-local: all CI jobs passed"

fast-gate: build vet fmt-check

build:
	$(GO) build ./...

# vet is go vet plus the full corralvet suite (all nine checks), so a
# seeded contract violation — a shared write in a parallelFor closure, a
# fmt call on a //corral:hotpath function — fails `make vet` directly.
# The second run adds the _test.go files, so test code obeys the same
# contracts (an exact float comparison in a determinism assertion carries
# its //corralvet:ok floateq reason).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/corralvet ./...
	$(GO) run ./cmd/corralvet -tests ./...

# perfbench/ is its own Go module (replace corral => ../), so the root
# `go build ./...` never compiles it; vet and self-test it here so an API
# change that breaks the repository benchmark fails CI.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Standalone corralvet run with the machine-readable report, mirroring
# the CI fast-gate step (the same run `make vet` performs without the
# artifact).
corralvet:
	$(GO) run ./cmd/corralvet -report corralvet.json ./...

# Chaos gate: two-seed determinism of the full fault-injection sweep plus
# the graceful-degradation acceptance (replan <= drop <= yarn on the
# bundled trace). -count=1 defeats the test cache so the sweep really runs.
chaos:
	$(GO) test ./internal/experiments -run 'TestChaos' -count=1 -v

# corralcheck gate: the fixed-seed fuzzer replays the bundled randomized
# workload+fault traces (task crashes, machine/link faults, AM kills, DFS
# corruption) under all three schedulers with the invariant monitor
# attached, plus the attrition-sweep acceptance (every job completes at
# every bundled crash rate, completion degrades monotonically).
fuzz:
	$(GO) test ./internal/experiments -run 'TestFuzz|TestAttritionSweep' -count=1 -v

# Native fuzzing of the input decoders, 20 s of coverage-guided mutation
# each. snapshot.Decode, seeded from the committed snapshot files, must
# never panic, never return a snapshot with an error, and round-trip
# whatever it accepts. corraltrace's JSONL summarizer, seeded from its
# overload trace fixture, must never panic and must fail with an error and
# no output on malformed input. corralbench's `go test -bench` parser,
# seeded from its test inputs, must never panic, must return no baseline
# with an error, and must compare an accepted run with itself without
# drift. corralplan's workload decoder, seeded from workloadgen output,
# must never panic, and whatever it accepts must plan without a panic and
# with one assignment per plannable job. corralsim's command line, parsed
# and validated, must never panic, and every value it accepts must lie in
# its documented range. A crasher lands in the package's
# testdata/fuzz/<target> directory, where `go test` replays it from then
# on.
fuzz-native:
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s
	$(GO) test ./cmd/corraltrace -run '^$$' -fuzz '^FuzzSummarize$$' -fuzztime 20s
	$(GO) test ./cmd/corralbench -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20s
	$(GO) test ./cmd/corralplan -run '^$$' -fuzz '^FuzzDecodeJobs$$' -fuzztime 20s
	$(GO) test ./cmd/corralsim -run '^$$' -fuzz '^FuzzParseFlags$$' -fuzztime 20s

# Overload gate: at 4x the saturating arrival rate under a fault storm,
# budgeted Corral (planner deadline budget + replan-storm suppression +
# admission control) must finish with the armed replan-rate and
# admission-queue bounds clean and every job completed or shed, while the
# unhardened replanning configuration demonstrably trips the replan-rate
# bound (anti-vacuity); the sweep is bit-identical across seeds, worker
# counts and a mid-storm snapshot/resume. -count=1 defeats the test cache.
overload:
	$(GO) test ./internal/experiments -run 'TestOverload' -count=1 -v
	$(GO) test ./internal/runtime -run 'TestReplanSuppression|TestPlannerBudget|TestAdmission|TestOverload' -count=1

# Resume-determinism gate: runs restored from mid-flight snapshots must
# finish with a bit-identical Result and trace export at any sweep worker
# count, the restore audit must catch any single corrupted state field,
# and the snapshot codec's golden file must not drift. A failing
# equivalence point persists its snapshot to
# internal/experiments/resume-failure.snap.json (uploaded as a CI
# artifact) for corralsnap inspection. -count=1 defeats the test cache.
resume-determinism:
	$(GO) test ./internal/experiments -run 'TestResume' -count=1 -v
	$(GO) test ./internal/runtime -run 'TestSnapshot' -count=1
	$(GO) test ./internal/snapshot -count=1

# Trace-determinism gate: replaying a traced suite must reproduce the
# JSONL and Chrome exports byte for byte, independent of seed plumbing,
# sweep worker count and registration order — and the disabled tracer must
# stay allocation-free. -count=1 defeats the test cache.
trace-determinism:
	$(GO) test ./internal/experiments -run 'TestTrace|TestTracing' -count=1 -v
	$(GO) test ./internal/trace -count=1

# Datacenter-scale gate: the 2k + 5k cells of the scale suite with full
# verification (same-seed determinism rerun + mid-flight snapshot/resume
# + plan wall-clock budget at every cell).
# corralsim exits non-zero on any verification failure; the JSON report
# lands in scale-report.json (uploaded as a CI artifact even on red).
scale:
	$(GO) run ./cmd/corralsim -exp scale -size m -seed 1 -json > scale-report.json

# Scale benchmark comparison: the recompute micro-benchmarks, the
# datacenter-scale planning benchmarks (2k + 10k cell shapes) and the
# end-to-end scale sweep, diffed against the full committed baseline in
# -subset mode (baseline-only entries are skipped, semantic drift and new
# benchmarks still fail). `make bench` remains the only producer of
# BENCH_baseline.json.
scale-bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleSweep|BenchmarkPlan2k|BenchmarkPlan10k' -benchtime 1x . \
		| $(GO) run ./cmd/corralbench -o scale-fresh.json -compare BENCH_baseline.json -tol 50 -subset
	$(GO) test -run '^$$' -bench 'BenchmarkRecompute' -benchtime 1x ./internal/netsim \
		| $(GO) run ./cmd/corralbench -compare BENCH_baseline.json -tol 50 -subset

# Nightly ladder: the full 2k/5k/10k sweep (minutes of wall time) plus
# extended fuzz and resume sweeps; see .github/workflows/nightly.yml.
scale-nightly:
	$(GO) run ./cmd/corralsim -exp scale -size l -seed 1 -json > scale-report.json
	$(GO) run ./cmd/corralsim -fuzz-traces 100 -size s -seed 1
	$(GO) test ./internal/experiments -run 'TestResume' -count=1

# Perf baseline: every benchmark once on the fast "s" profile — the
# experiment harness in the repo root, the netsim allocator
# micro-benchmarks and the tracer's emit/export overhead — captured as
# machine-readable JSON for trajectory tracking. Rerun this (and commit
# the result) whenever a semantic metric or the benchmark set
# intentionally changes.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/netsim ./internal/trace ./internal/analysis \
		| $(GO) run ./cmd/corralbench -o BENCH_baseline.json

# Benchmark-regression gate: rerun the same benchmarks and diff against
# the committed baseline. Semantic metrics must match bit for bit;
# timing metrics (ns/op, B/op, ...) are machine-dependent and only warn
# past the tolerance. The fresh JSON lands in bench-fresh.json (uploaded
# as a CI artifact) for inspection.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/netsim ./internal/trace ./internal/analysis \
		| $(GO) run ./cmd/corralbench -o bench-fresh.json -compare BENCH_baseline.json -tol 50
