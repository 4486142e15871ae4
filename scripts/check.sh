#!/bin/sh
# check.sh runs the repo's full verification gate: static analysis, the
# full test suite (shuffled, to catch inter-test state leaks), the seeded
# chaos smoke scenario, and a race-detector pass. Concurrent online tuning
# requests share one agent under the Tuner's lock (internal/core,
# internal/controller), and the server's session pool, the fleet nodes and
# the registry leases are goroutines over shared state, so -race is part of
# the standard gate, not an optional extra. The race pass runs with -short:
# the long expr integration test exceeds the per-package timeout under race
# instrumentation, and every concurrency-sensitive test (internal/core,
# internal/controller, internal/server, internal/fleet, internal/registry)
# runs in short mode too.
set -eu
cd "$(dirname "$0")/.."

echo "== package docs =="
# Every internal package keeps its package-level contract in a doc.go, so
# the documented invariants (buffer ownership, concurrency, timeline
# semantics, drift thresholds) have one canonical home.
for d in $(go list -f '{{.Dir}}' ./internal/...); do
    if [ ! -f "$d/doc.go" ]; then
        echo "missing $d/doc.go" >&2
        exit 1
    fi
done

echo "== non-test Go lines =="
# The one agreed size figure "net-negative LOC" refers to.
./scripts/loc.sh

echo "== unused exports =="
# One entry point per verb stays one: an exported func or method under
# internal/ that nothing else in the repo names is deleted, not kept.
unused="$(./scripts/unused.sh)"
if [ -n "$unused" ]; then
    echo "exported but referenced nowhere (delete, or use):" >&2
    echo "$unused" >&2
    exit 1
fi

echo "== os.Rename lint =="
# Atomic-write discipline: every durable file lands through nn.WriteAtomic
# (temp file, fsync, rename, directory fsync) — the lease files, change
# log, registry entries and fleet journal all depend on never observing a
# torn file. A bare os.Rename anywhere else skips the fsyncs and breaks
# that contract on crash.
rename_hits="$(grep -rn 'os\.Rename' --include='*.go' . \
    | grep -v '^\./internal/vfs/os\.go:' || true)"
if [ -n "$rename_hits" ]; then
    echo "direct os.Rename outside the atomic-write helper (use nn.WriteAtomic):" >&2
    echo "$rename_hits" >&2
    exit 1
fi

echo "== vfs interposition lint =="
# Crash-testability discipline: every durable path goes through a vfs.FS
# handle so the crashtest harness can interpose fault injection and
# power-cut simulation. A direct os.* filesystem mutation in a ported
# package is invisible to the harness — it would silently shrink the
# torture suite's coverage. Only the vfs passthrough (internal/vfs/os.go)
# may touch the os package; tests may use os.* for scaffolding.
vfs_hits="$(grep -rn 'os\.\(OpenFile\|Rename\|Remove\|RemoveAll\|CreateTemp\|ReadFile\|WriteFile\|MkdirAll\|Mkdir\|ReadDir\|Link\|Truncate\)' \
        --include='*.go' \
        internal/registry internal/fleet internal/crashtest internal/nn/io.go internal/core/checkpoint.go \
    | grep -v '_test\.go:' \
    | grep -v ':[0-9]*:[[:space:]]*//' || true)"
if [ -n "$vfs_hits" ]; then
    echo "direct os filesystem call in a crash-tested package (route through vfs.FS):" >&2
    echo "$vfs_hits" >&2
    exit 1
fi

echo "== go vet =="
# vet's asmdecl pass checks the assembly stubs of internal/mat (the GEMM
# tiles) and internal/nn (the optimizer sweep) — argument offsets, frame
# sizes — against their Go declarations.
go vet ./...

echo "== cross-build (arm64) =="
# internal/mat and internal/nn each have an amd64-only file set (the
# AVX2/AVX-512 GEMM tiles and their dispatch; the AVX2 sweep kernel); this
# proves the set every other architecture gets — the portable kernels and
# the scalar sweep alone — still compiles, test files included (they
# lower the SIMD level, so they name what gemm_other.go must declare).
# Needs no network.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/mat ./internal/nn

echo "== SIMD levels exercised =="
# The bit-identity tests skip a level the host lacks (and say so); print
# what actually ran here, so a runner without AVX-512 cannot pass for one
# with it. The tests themselves gate in the full run below.
go test -count=1 -v -run 'TestSIMDBitIdenticalToPortable|TestTrainStepSameBitsAtEveryLevel' ./internal/mat \
    | grep -E 'bit-identical|NOT covered|SIMD levels exercised'
go test -count=1 -v -run 'TestSweepKernelMatchesScalar' ./internal/nn \
    | grep -E 'bit-identical|NOT covered'

echo "== go test (shuffled) =="
go test -shuffle=on -timeout 120s ./...

echo "== chaos smoke =="
go test -count=1 -timeout 120s -run 'TestChaosSmoke|TestTuningRequestSurvivesCrashStorm' ./internal/controller/

echo "== divergence smoke =="
go test -count=1 -timeout 120s -run 'TestDivergence' ./internal/core/

echo "== serve smoke =="
go test -count=1 -timeout 120s -run 'TestServeSmoke' ./internal/server/

echo "== drift smoke =="
go test -count=1 -timeout 120s -run 'TestDriftSmoke' ./internal/core/

echo "== lsm smoke =="
# A short seeded DDPG tune on the LSM storage engine: tuned must beat
# defaults and at least one write-stall event must be observed.
go test -count=1 -timeout 120s -run 'TestLSMSmoke' ./internal/simdb/lsm/

echo "== crash smoke =="
# Systematic power-cut exploration: every crashtest workload, a crash
# before every mutating filesystem op, strict plus torn disk images at
# each point, zero tolerated invariant violations — plus the sensitivity
# test proving the harness catches a re-introduced torn-tail bug.
go test -count=1 -timeout 120s -run 'TestCrashSmoke|TestHarnessCatchesTornTailBug' ./internal/crashtest/

echo "== experiment front door =="
# cdbtune exp over the four instant experiments (milliseconds of work) in
# one renderer, and an unknown experiment ID must exit non-zero. cdbtune
# eval stress-tests a checked-in my.cnf; the verb's former name,
# `benchmark`, must be gone.
go run ./cmd/cdbtune exp -budget quick -format csv table1 timing fig1c fig1d >/dev/null
if go run ./cmd/cdbtune exp nosuchid 2>/dev/null; then
    echo "cdbtune exp accepted an unknown experiment ID" >&2
    exit 1
fi
go run ./cmd/cdbtune eval -config cmd/cdbtune/testdata/small.cnf >/dev/null
if go run ./cmd/cdbtune benchmark -config cmd/cdbtune/testdata/small.cnf 2>/dev/null; then
    echo "cdbtune still accepts the benchmark verb (renamed to eval)" >&2
    exit 1
fi

echo "== model round trip =="
# The CLI's model path end to end, both layouts: train writes the policy
# (-model) and a checkpoint with all four networks, the resumed run loads
# the checkpoint, and tune loads the policy.
model_tmp="$(mktemp -d)"
trap 'rm -rf "$model_tmp"' EXIT
go build -o "$model_tmp/cdbtune" ./cmd/cdbtune
start="$(date +%s%N)"
"$model_tmp/cdbtune" train -episodes 2 -quiet -model "$model_tmp/m.bin" \
    -checkpoint "$model_tmp/c.ckpt" -checkpoint-every 1 >/dev/null
resumed="$("$model_tmp/cdbtune" train -episodes 3 -quiet -resume -model "$model_tmp/m.bin" \
    -checkpoint "$model_tmp/c.ckpt" -checkpoint-every 1)"
case "$resumed" in
*"resumed from"*) ;;
*)
    echo "cdbtune train -resume did not resume from its checkpoint" >&2
    exit 1
    ;;
esac
"$model_tmp/cdbtune" tune -model "$model_tmp/m.bin" -steps 2 >/dev/null
echo "train, resume and tune took $((($(date +%s%N) - start) / 1000000)) ms"
rm -rf "$model_tmp"
trap - EXIT

echo "== fleet smoke =="
# The multi-process robustness scenario: 3 serve processes, 50 tenants,
# one SIGKILL and one lease stall mid-run; must end with zero lost jobs,
# a recorded failover via lease steal, and a CRC-clean shared registry.
go run ./cmd/loadgen

echo "== fuzz smoke =="
# Native fuzzing on the parser of operator-supplied configuration files:
# no panic, every value inside its knob's range, and FormatConfig ->
# ParseConfig round-trips, for every engine catalog. The budget is a count
# of executions, not a duration: the gate does the same work on any
# machine, and a time-based -fuzztime stalls in some sandboxes.
go test -run '^$' -fuzz '^FuzzParseConfig$' -fuzztime 2000x ./internal/knobs/
# ...and on the two decoders of on-disk model bytes: Agent.Load (no panic,
# allocation within a small multiple of the input, the agent untouched on
# error) and the registry entry frame.
go test -run '^$' -fuzz '^FuzzAgentLoad$' -fuzztime 2000x ./internal/rl/ddpg/
go test -run '^$' -fuzz '^FuzzReadEntry$' -fuzztime 2000x ./internal/registry/
# ...and on the change-log frame reader: exactly the intact prefix of
# frames, an error only for damage that is not a torn tail.
go test -run '^$' -fuzz '^FuzzChangeLogTail$' -fuzztime 2000x ./internal/registry/

echo "== go test -race (short) =="
go test -race -short -shuffle=on -timeout 20m ./...

echo "== hot-path bench smoke =="
# A short-benchtime benchjson emission into a scratch file, validated by
# its own -check mode, plus a -check of the tracked BENCH_hotpath.json:
# proves the whole make-bench pipeline (measure -> JSON schema -> check)
# still works without paying for a full measurement. The in-place
# model_path refresh runs on a scratch copy of the tracked file. The
# scratch numbers are noisy by design and are discarded.
hotpath_tmp="$(mktemp /tmp/bench_hotpath.XXXXXX.json)"
modelpath_tmp="$(mktemp /tmp/bench_modelpath.XXXXXX.json)"
trap 'rm -f "$hotpath_tmp" "$modelpath_tmp"' EXIT
go run ./cmd/benchjson -quick -out "$hotpath_tmp"
go run ./cmd/benchjson -check "$hotpath_tmp"
if [ -f BENCH_hotpath.json ]; then
    go run ./cmd/benchjson -check BENCH_hotpath.json
    cp BENCH_hotpath.json "$modelpath_tmp"
    go run ./cmd/benchjson -quick -modelpath "$modelpath_tmp"
    go run ./cmd/benchjson -check "$modelpath_tmp"
fi
