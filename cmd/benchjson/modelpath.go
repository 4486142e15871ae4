package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
)

// Row is one model-path ledger entry as `go test -benchmem` would print it.
type Row struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// ModelPath is the per-layer ledger of everything a warm-started serving
// job does with the model besides training it, at the full-size
// configuration (266 MySQL knobs, shipped Table 5 networks — a 2.06 MB
// saved policy, 4.1 MB snapshots): serialize, deserialize, in-memory
// best-policy snapshot of freshly updated weights, registry write (temp
// file + fsync + rename + dir fsync on the real filesystem) and
// CRC-verified registry read, the per-session tuner construction, and the
// whole zero-update warm session those make up. EXPERIMENTS.md
// ("Model-path ledger") records the trajectory.
type ModelPath struct {
	// Measured and GoMaxProcs say when and how these rows were taken: they
	// are refreshed on whatever box runs `make bench`, which need not be
	// the reference machine the kernel rows above them are anchored to.
	Measured   string         `json:"measured"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Rows       map[string]Row `json:"rows"`
}

// modelPathRows names every row a valid report carries.
var modelPathRows = []string{
	"agent_save", "agent_load", "agent_snapshot",
	"registry_put_4mb", "registry_nearest_4mb", "core_new", "warm_session",
}

func row(res testing.BenchmarkResult) Row {
	return Row{
		NsOp:     float64(res.NsPerOp()),
		BOp:      float64(res.AllocedBytesPerOp()),
		AllocsOp: float64(res.AllocsPerOp()),
	}
}

func measureModelPath(benchtime time.Duration, reps int) (ModelPath, error) {
	mp := ModelPath{Measured: time.Now().UTC().Format(time.RFC3339), GoMaxProcs: goMaxProcs(), Rows: map[string]Row{}}
	cfg := core.DefaultConfig(knobs.MySQL(knobs.EngineCDB))
	tuner, err := core.New(cfg)
	if err != nil {
		return mp, err
	}
	var model bytes.Buffer
	if err := tuner.Save(&model); err != nil {
		return mp, err
	}

	mp.Rows["agent_save"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := tuner.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}))
	mp.Rows["agent_load"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tuner.Load(bytes.NewReader(model.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// A snapshot of weights an update has just written: the copy a
	// training run pays (one of unchanged weights shares and costs
	// nothing). The update itself runs untimed, on a small batch so the
	// row's wall time stays near its benchtime.
	trained := newBenchAgent(cfg.DDPG.ActionDim, 8)
	mp.Rows["agent_snapshot"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, ok := trained.TrainStepInfo(); !ok {
				b.Fatal("train step refused: memory underfilled")
			}
			b.StartTimer()
			if trained.Snapshot() == nil {
				b.Fatal("nil snapshot")
			}
		}
	}))
	mp.Rows["core_new"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.New(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// What a warm job that trains nothing does with the model: build the
	// session tuner, load the entry, take the supervisor's and the best
	// policy's snapshots, restore the best, and save for write-back.
	mp.Rows["warm_session"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tn, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := tn.Load(bytes.NewReader(model.Bytes())); err != nil {
				b.Fatal(err)
			}
			agent := tn.Agent()
			agent.Snapshot()
			best := agent.Snapshot()
			if err := best.Finite(); err != nil {
				b.Fatal(err)
			}
			if err := agent.SetWeights(best); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tn.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}))

	dir, err := os.MkdirTemp("", "benchjson-registry-")
	if err != nil {
		return mp, err
	}
	defer os.RemoveAll(dir)
	reg, err := registry.Open(dir)
	if err != nil {
		return mp, err
	}
	meta := registry.Meta{ID: "m0000", Workload: "sysbench-rw", Instance: "CDB-A", Fingerprint: []float64{0.1, 0.2, 0.3}}
	mp.Rows["registry_put_4mb"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Put(meta, model.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	}))
	mp.Rows["registry_nearest_4mb"] = row(bench(benchtime, reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if mt, ok := reg.Nearest(meta.Fingerprint); !ok || len(mt.Model) != model.Len() {
				b.Fatal("registry lost the model")
			}
		}
	}))
	if bad := reg.Corrupt(); len(bad) != 0 {
		return mp, fmt.Errorf("registry bench left corrupt entries: %v", bad)
	}
	return mp, nil
}
