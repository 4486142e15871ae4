GO ?= go

.PHONY: build test check bench chaos-smoke divergence-smoke serve-smoke drift-smoke fleet-smoke crash-smoke lsm-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full verification gate: vet, the full test suite, a
# race-detector pass (concurrent online tuning requests share one agent
# under the Tuner's lock, and the server's session pool, the fleet nodes
# and the registry leases are goroutines over shared state), a
# fixed-count fuzz smoke, and the hot-path bench pipeline smoke. It also
# prints scripts/loc.sh, the non-test line count simplicity PRs are
# measured by.
check:
	./scripts/check.sh

# chaos-smoke runs the seeded fault-injection scenario end to end: a
# crash-storm tuning request that must end on the best-known-good
# configuration, and a chaotic training run killed after 3 episodes and
# resumed from its checkpoint with matching episode accounting. See
# EXPERIMENTS.md ("Chaos recipe").
chaos-smoke:
	$(GO) test -count=1 -run 'TestChaosSmoke|TestTuningRequestSurvivesCrashStorm' ./internal/controller/ -v

# serve-smoke runs the multi-tenant serving scenario end to end: an HTTP
# server on a random port, a scratch tuning job against the simulator that
# must complete and register its model, and a second same-workload job
# that must take the warm-start path and converge in fewer episodes. See
# EXPERIMENTS.md ("Serving walkthrough").
serve-smoke:
	$(GO) test -count=1 -timeout 120s -run 'TestServeSmoke' ./internal/server/ -v

# fleet-smoke runs the multi-process robustness scenario end to end: a
# 3-process fleet over one lease-replicated registry, 50 concurrent
# tenants, one process SIGKILLed mid-run and another's lease renewals
# stalled past the TTL. It must finish with zero lost jobs, at least one
# recorded failover via lease steal, a bounded submit-to-deploy p99, and
# a CRC-clean registry. See README ("Fleet serving") and DESIGN.md.
fleet-smoke:
	$(GO) run ./cmd/loadgen

# crash-smoke runs the bounded, seeded crash-consistency exploration: for
# every durable-path workload (registry, change log, lease, fleet journal,
# checkpoint), a simulated power cut before every mutating filesystem
# operation, with strict (fsynced-only) and torn (seeded partial-tail)
# disk images verified at each point. Zero invariant violations are
# tolerated, and the sensitivity test proves the harness still catches a
# deliberately re-introduced torn-tail bug. See DESIGN.md ("Durability
# contract").
crash-smoke:
	$(GO) test -count=1 -timeout 120s -run 'TestCrashSmoke|TestHarnessCatchesTornTailBug' ./internal/crashtest/ -v

# lsm-smoke runs a short seeded DDPG tune against the LSM storage engine
# on a write-only workload: the tuned configuration must beat the shipped
# defaults on throughput, and at least one write-stall event must be
# observed along the way (proving the tuner trains through the engine's
# compaction-debt regime, not around it). See README ("Storage engines")
# and DESIGN.md §10.
lsm-smoke:
	$(GO) test -count=1 -timeout 120s -run 'TestLSMSmoke' ./internal/simdb/lsm/ -v

# divergence-smoke runs the learner-health supervisor scenarios: a seeded
# critic divergence that must heal and converge, an exhausted heal budget
# that must abort with a diagnosis, and the full-stack smoke where chaos
# injects finite reward spikes past disabled clamps. See EXPERIMENTS.md
# ("Divergence-injection recipe").
divergence-smoke:
	$(GO) test -count=1 -timeout 120s -run 'TestDivergence' ./internal/core/ -v

# drift-smoke runs the dynamic-serving scenario: a seeded time-varying
# timeline whose flash crowd must trigger at least one drift-detected
# re-tune, with zero unreverted guardrail violations. See EXPERIMENTS.md
# ("Dynamic-workload recipe").
drift-smoke:
	$(GO) test -count=1 -timeout 120s -run 'TestDriftSmoke' ./internal/core/ -v

# bench runs the hot-path kernel/train-step benchmarks and refreshes the
# tracked BENCH_hotpath.json trajectory (GEMM GFLOP/s, µs and allocs per
# DDPG train step, episodes/sec, and the speedups against the recorded
# naive baseline); see EXPERIMENTS.md ("Hot-path bench baseline") for how
# to read the numbers.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMul|BenchmarkMulT|BenchmarkTMul' -benchtime=0.5s ./internal/mat/
	$(GO) test -run '^$$' -bench 'BenchmarkTrainStepInfo' -benchtime=0.5s ./internal/rl/ddpg/
	$(GO) run ./cmd/benchjson -out BENCH_hotpath.json
	$(GO) run ./cmd/benchjson -check BENCH_hotpath.json
