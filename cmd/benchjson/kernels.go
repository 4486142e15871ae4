package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"cdbtune/internal/metrics"
	"cdbtune/internal/nn"
)

// Kernels is the numeric-layer ledger at the shape the benchmark's
// full-catalog workloads pay for — 266 knobs, where the headline
// train_step_us above it is a 20-knob agent — stamped like ModelPath
// because it is refreshed on whatever box runs the tool: the µs and
// allocations of one DDPG update, the critic-sized Adam step and full
// post-backward sweep inside it, and the three GEMMs' serial GFLOP/s at
// each kernel level the host has.
// EXPERIMENTS.md ("Hot-path bench baseline") records the trajectory.
type Kernels struct {
	Measured   string `json:"measured"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// SIMD is the level internal/mat selected on this host: "avx512",
	// "avx2" or "portable".
	SIMD string `json:"simd"`

	TrainStep266US     float64 `json:"train_step_266_us"`
	TrainStep266Allocs float64 `json:"train_step_266_allocs"`
	// AdamStepUS is Adam.Step alone; SweepUS is what a train step runs
	// after the critic's backward pass — clip scale, Adam, soft update of
	// the target critic and max |w| — in its one pass.
	AdamStepUS float64 `json:"adam_step_us"`
	SweepUS    float64 `json:"sweep_us"`

	// GEMMGflops is operation ("mul", "mult", "tmul") → level → GFLOP/s
	// at batch 64, 256→256, one column per level from the host's own down
	// to "portable".
	GEMMGflops map[string]map[string]float64 `json:"gemm_gflops"`
}

var gemmOps = []string{"mul", "mult", "tmul"}

// simdLevels lists the kernel levels, highest first; a host at one level
// runs (and the ledger carries) every level after it.
var simdLevels = []string{"avx512", "avx2", "portable"}

func measureKernels(benchtime time.Duration, reps int) (Kernels, error) {
	k := Kernels{Measured: time.Now().UTC().Format(time.RFC3339), GoMaxProcs: goMaxProcs()}

	agent := newBenchAgent(266, 0)
	res := bench(benchtime, 2*reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := agent.TrainStepInfo(); !ok {
				b.Fatal("train step refused: memory underfilled")
			}
		}
	})
	k.TrainStep266US = float64(res.NsPerOp()) / 1e3
	k.TrainStep266Allocs = float64(res.AllocsPerOp())

	// The Table 5 critic's tensors at 63 metrics + 266 knobs (≈190 k
	// weights): the larger of the two optimizer passes in an update. Each
	// timed run starts from fresh weights and moments: the loop feeds no
	// gradients, and tens of thousands of decay-only updates on one
	// network walk its weights into denormals, whose microcode assists
	// would be what gets timed.
	in := metrics.NumMetrics + 266
	criticSized := func() *nn.Network {
		return nn.NewNetwork(nn.NewDense(in, 256), nn.NewDense(256, 256), nn.NewDense(256, 64), nn.NewDense(64, 1))
	}
	optimizerPass := func(pass func(opt *nn.Adam, target *nn.Network)) float64 {
		res := bench(benchtime, reps, func(b *testing.B) {
			net, target := criticSized(), criticSized()
			net.InitUniform(rand.New(rand.NewSource(13)), 0.1)
			net.CopyTo(target)
			opt := nn.NewAdam(net, 1e-3)
			opt.WeightDecay = 1e-4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(opt, target)
			}
		})
		return float64(res.NsPerOp()) / 1e3
	}
	k.AdamStepUS = optimizerPass(func(opt *nn.Adam, _ *nn.Network) { opt.Step() })
	k.SweepUS = optimizerPass(func(opt *nn.Adam, target *nn.Network) { opt.Sweep(0.5, target, 0.01) })

	var err error
	k.GEMMGflops, err = measureGEMMPaths(benchtime)
	for _, level := range simdLevels {
		if _, ok := k.GEMMGflops["mul"][level]; ok {
			k.SIMD = level // the highest level BenchmarkGEMMPaths could run
			break
		}
	}
	return k, err
}

// measureGEMMPaths runs internal/mat's BenchmarkGEMMPaths — the level is
// unexported, so only that package's own benchmark can time the lower
// levels on a host that has a higher one — and parses its GFLOP/s column. It
// must run from the module root, like every `go run ./cmd/benchjson`.
func measureGEMMPaths(benchtime time.Duration) (map[string]map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^BenchmarkGEMMPaths$",
		"-benchtime", benchtime.String(), "./internal/mat")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench BenchmarkGEMMPaths: %w: %s", err, stderr.String())
	}
	rows := map[string]map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// BenchmarkGEMMPaths/mul/avx512-2  300  363622 ns/op  23.07 GFLOP/s
		f := strings.Fields(sc.Text())
		if len(f) < 6 || f[len(f)-1] != "GFLOP/s" {
			continue
		}
		name := strings.Split(f[0], "/")
		if len(name) != 3 {
			continue
		}
		op, path := name[1], name[2]
		if i := strings.LastIndexByte(path, '-'); i >= 0 {
			path = path[:i]
		}
		g, err := strconv.ParseFloat(f[len(f)-2], 64)
		if err != nil {
			return nil, fmt.Errorf("BenchmarkGEMMPaths: %q: %w", sc.Text(), err)
		}
		if rows[op] == nil {
			rows[op] = map[string]float64{}
		}
		rows[op][path] = g
	}
	return rows, nil
}

// check reports what a valid kernels block must carry.
func (k Kernels) check() error {
	host := slices.Index(simdLevels, k.SIMD)
	if host < 0 {
		return fmt.Errorf("kernels.simd = %q, want one of %v", k.SIMD, simdLevels)
	}
	if k.TrainStep266US <= 0 || k.AdamStepUS <= 0 || k.SweepUS <= 0 {
		return fmt.Errorf("kernels: non-positive measurements (train_step_266_us=%v, adam_step_us=%v, sweep_us=%v)",
			k.TrainStep266US, k.AdamStepUS, k.SweepUS)
	}
	for _, op := range gemmOps {
		for _, level := range simdLevels[host:] {
			if k.GEMMGflops[op][level] <= 0 {
				return fmt.Errorf("kernels.gemm_gflops.%s.%s has no measurement", op, level)
			}
		}
	}
	return nil
}
