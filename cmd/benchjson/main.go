// Command benchjson measures the mat/nn/ddpg hot path and emits the
// machine-readable BENCH_hotpath.json trajectory that `make bench`
// tracks: GEMM throughput (GFLOP/s), µs and allocations per DDPG train
// step, and end-to-end training episodes per second. The recorded naive
// baseline (the kernels before the pooled/blocked rewrite, measured on the
// same machine class) is embedded so every emission carries its own
// speedup ratios.
//
// Usage:
//
//	go run ./cmd/benchjson -out BENCH_hotpath.json   # full measurement
//	go run ./cmd/benchjson -quick -out /tmp/b.json   # CI smoke (short benchtime)
//	go run ./cmd/benchjson -check BENCH_hotpath.json # validate an existing file
//	go run ./cmd/benchjson -kernels BENCH_hotpath.json # re-measure only the "kernels" block in place
//	go run ./cmd/benchjson -modelpath BENCH_hotpath.json # re-measure only the "model_path" block in place
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/mat"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Baseline is the recorded naive-kernel measurement this file's numbers
// are compared against. See EXPERIMENTS.md ("Hot-path bench baseline")
// for the recipe that produced it; re-record it only when the reference
// machine class changes, never when the kernels do — it is the fixed
// point the perf trajectory is anchored to.
type Baseline struct {
	TrainStepUS     float64 `json:"train_step_us"`
	TrainStepAllocs float64 `json:"train_step_allocs"`
	GEMMGflopsMul   float64 `json:"gemm_gflops_mul"`
	EpisodesPerSec  float64 `json:"episodes_per_sec"`
}

// recordedBaseline was measured at the seed of this perf effort (naive
// axpy/dot kernels with per-call allocation in every layer); values are
// filled from the run recorded in EXPERIMENTS.md.
var recordedBaseline = Baseline{
	TrainStepUS:     33028.9,
	TrainStepAllocs: 336,
	GEMMGflopsMul:   4.58,
	EpisodesPerSec:  1.25,
}

// Report is the BENCH_hotpath.json schema. requiredKeys in -check mode
// must stay in sync with the json tags here.
type Report struct {
	Schema     string `json:"schema"`
	Generated  string `json:"generated"`
	GoMaxProcs int    `json:"gomaxprocs"`

	GEMMGflopsMul  float64 `json:"gemm_gflops_mul"`
	GEMMGflopsMulT float64 `json:"gemm_gflops_mult"`
	GEMMGflopsTMul float64 `json:"gemm_gflops_tmul"`

	TrainStepUS     float64 `json:"train_step_us"`
	TrainStepAllocs float64 `json:"train_step_allocs"`
	EpisodesPerSec  float64 `json:"episodes_per_sec"`

	ModelPath ModelPath `json:"model_path"`
	Kernels   Kernels   `json:"kernels"`

	Baseline Baseline `json:"baseline"`

	TrainStepSpeedup    float64 `json:"train_step_speedup"`
	TrainStepAllocRatio float64 `json:"train_step_alloc_reduction"`
}

func main() {
	out := flag.String("out", "", "write JSON to this file instead of stdout")
	check := flag.String("check", "", "validate an existing BENCH_hotpath.json and exit")
	quick := flag.Bool("quick", false, "short benchtime smoke mode (numbers are noisy)")
	kernels := flag.String("kernels", "", "re-measure only the kernels block of this existing report, in place")
	modelPath := flag.String("modelpath", "", "re-measure only the model_path block of this existing report, in place")
	flag.Parse()

	if *check != "" {
		if err := checkFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %s OK\n", *check)
		return
	}

	benchtime := 2 * time.Second
	episodes := 6
	reps := 3
	if *quick {
		benchtime = 50 * time.Millisecond
		episodes = 2
		reps = 1
	}

	for _, b := range []struct {
		name, path string
		measure    func(*Report) error
	}{
		{"kernels", *kernels, func(r *Report) (err error) {
			r.Kernels, err = measureKernels(benchtime, reps)
			return err
		}},
		{"model_path", *modelPath, func(r *Report) (err error) {
			r.ModelPath, err = measureModelPath(benchtime, reps)
			return err
		}},
	} {
		if b.path == "" {
			continue
		}
		if err := mergeBlock(b.path, b.measure); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: refreshed the %s block of %s\n", b.name, b.path)
		return
	}

	r := measure(benchtime, reps, episodes)

	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (train step %.1fµs, %.0f allocs)\n", *out, r.TrainStepUS, r.TrainStepAllocs)
}

// mergeBlock re-measures one block of the report at path and rewrites
// the file, leaving every other row as recorded: the rows above the
// blocks are anchored to the reference machine and are not this box's to
// touch.
func mergeBlock(path string, measure func(*Report) error) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := measure(&r); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// bench runs fn under the testing harness across reps×4 short windows
// (d/4 each, same total budget as reps runs of d) and keeps the fastest
// window. On a shared machine the minimum is the noise-robust
// estimator: interfering load can only inflate a window, never deflate
// it, and because the interference is bursty, many short windows are
// far more likely to catch a quiet gap than a few long ones.
// testing.Benchmark sizes runs from the -test.benchtime flag, so set it
// directly.
func bench(d time.Duration, reps int, fn func(b *testing.B)) testing.BenchmarkResult {
	win, n := d/4, 4*reps
	if win < 50*time.Millisecond {
		win, n = d, reps
	}
	_ = flag.Set("test.benchtime", win.String())
	best := testing.Benchmark(fn)
	for i := 1; i < n; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

func measure(benchtime time.Duration, reps, episodes int) Report {
	r := Report{
		Schema:     "cdbtune-hotpath-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: goMaxProcs(),
		Baseline:   recordedBaseline,
	}

	// GEMM throughput at the critic-trunk training shape (batch 64,
	// 256→256) — the single heaviest kernel invocation in a train step.
	const m, k, n = 64, 256, 256
	flops := 2 * float64(m) * float64(k) * float64(n)
	a, b, dst := randMat(1, m, k), randMat(2, k, n), mat.New(m, n)
	bt := randMat(3, n, k) // for MulT: a(m×k) × bt(n×k)ᵀ
	res := bench(benchtime, reps, func(b_ *testing.B) {
		for i := 0; i < b_.N; i++ {
			mat.Mul(dst, a, b)
		}
	})
	r.GEMMGflopsMul = flops / float64(res.NsPerOp())
	res = bench(benchtime, reps, func(b_ *testing.B) {
		for i := 0; i < b_.N; i++ {
			mat.MulT(dst, a, bt)
		}
	})
	r.GEMMGflopsMulT = flops / float64(res.NsPerOp())
	// TMul at the backward weight-gradient shape: dst(k×n) = a(m×k)ᵀ × b(m×n).
	ta, tb, tdst := randMat(5, m, k), randMat(6, m, n), mat.New(k, n)
	res = bench(benchtime, reps, func(b_ *testing.B) {
		for i := 0; i < b_.N; i++ {
			mat.TMul(tdst, ta, tb)
		}
	})
	r.GEMMGflopsTMul = flops / float64(res.NsPerOp())

	// DDPG train step at the shape this row has tracked since the seed: 63
	// internal metrics, a 20-knob action, paper batch size 64. The
	// full-catalog serving shape (266 knobs) is the kernels block's
	// train_step_266_us. This is the headline metric, so it gets twice the
	// reps: the min-of-N estimator needs more samples here than for the
	// short GEMM kernels.
	agent := newBenchAgent(20, 0)
	res = bench(benchtime, 2*reps, func(b_ *testing.B) {
		b_.ReportAllocs()
		for i := 0; i < b_.N; i++ {
			if _, ok := agent.TrainStepInfo(); !ok {
				b_.Fatal("train step refused: memory underfilled")
			}
		}
	})
	r.TrainStepUS = float64(res.NsPerOp()) / 1e3
	r.TrainStepAllocs = float64(res.AllocsPerOp())

	// End-to-end offline training throughput on the simulator.
	r.EpisodesPerSec = measureEpisodesPerSec(episodes)

	mp, err := measureModelPath(benchtime, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: model-path bench: %v\n", err)
	}
	r.ModelPath = mp
	if r.Kernels, err = measureKernels(benchtime, reps); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: kernels bench: %v\n", err)
	}

	if r.Baseline.TrainStepUS > 0 {
		r.TrainStepSpeedup = r.Baseline.TrainStepUS / r.TrainStepUS
	}
	if r.Baseline.TrainStepAllocs > 0 && r.TrainStepAllocs > 0 {
		r.TrainStepAllocRatio = r.Baseline.TrainStepAllocs / r.TrainStepAllocs
	}
	return r
}

// newBenchAgent builds the train-step workload: default architecture over
// the given number of knobs, replay pool pre-filled past MinMemory with
// seeded transitions. batch > 0 overrides the paper's batch size (and
// MinMemory with it).
func newBenchAgent(knobs, batch int) *ddpg.Agent {
	cfg := ddpg.DefaultConfig(metrics.NumMetrics, knobs)
	if batch > 0 {
		cfg.BatchSize, cfg.MinMemory = batch, batch
	}
	agent := ddpg.New(cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 512; i++ {
		tr := rl.Transition{
			State:     make([]float64, cfg.StateDim),
			Action:    make([]float64, cfg.ActionDim),
			NextState: make([]float64, cfg.StateDim),
			Reward:    rng.NormFloat64(),
		}
		for j := range tr.State {
			tr.State[j] = rng.Float64()
			tr.NextState[j] = rng.Float64()
		}
		for j := range tr.Action {
			tr.Action[j] = rng.Float64()
		}
		agent.Observe(tr)
	}
	return agent
}

// measureEpisodesPerSec times a short serial OfflineTrainOpts run against
// the simulated CDB-A instance with the full MySQL knob catalog.
func measureEpisodesPerSec(episodes int) float64 {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()
	cfg := core.DefaultConfig(cat)
	tuner, err := core.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: episodes bench: %v\n", err)
		return 0
	}
	mkEnv := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(ep))
		return env.New(db, cat, w)
	}
	start := time.Now()
	if _, err := tuner.OfflineTrainOpts(mkEnv, core.TrainOptions{Episodes: episodes}); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: episodes bench: %v\n", err)
		return 0
	}
	return float64(episodes) / time.Since(start).Seconds()
}

func randMat(seed int64, rows, cols int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func goMaxProcs() int { return runtime.GOMAXPROCS(0) }

// requiredKeys is the contract the bench-smoke step in scripts/check.sh
// enforces: a BENCH_hotpath.json missing any of these keys fails -check.
var requiredKeys = []string{
	"schema",
	"gemm_gflops_mul",
	"train_step_us",
	"train_step_allocs",
	"episodes_per_sec",
	"model_path",
	"kernels",
	"baseline",
}

func checkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: invalid JSON: %w", path, err)
	}
	for _, k := range requiredKeys {
		if _, ok := m[k]; !ok {
			return fmt.Errorf("%s: missing required key %q", path, k)
		}
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("%s: schema mismatch: %w", path, err)
	}
	if r.TrainStepUS <= 0 || r.GEMMGflopsMul <= 0 {
		return fmt.Errorf("%s: non-positive measurements (train_step_us=%v, gemm_gflops_mul=%v)", path, r.TrainStepUS, r.GEMMGflopsMul)
	}
	for _, name := range modelPathRows {
		if r.ModelPath.Rows[name].NsOp <= 0 {
			return fmt.Errorf("%s: model_path row %q has no measurement", path, name)
		}
	}
	if err := r.Kernels.check(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
