// The smoke test lives in an external test package so it can drive the
// full tuning stack (env, core, ddpg) against the LSM engine without
// creating an import cycle: the lsm package itself must stay importable
// by env.
package lsm_test

import (
	"context"
	"testing"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// TestLSMSmoke is the `make lsm-smoke` gate: a short seeded DDPG tune
// against the LSM engine on a write-only workload. It must (a) find a
// configuration that beats the shipped defaults on throughput and (b)
// observe at least one write-stall event along the way — the defaults'
// L0 triggers are deliberately tight enough that sysbench-wo pushes the
// engine into its slowdown/stop regime, so a tuner that never sees a
// stall is not exercising the compaction-debt dynamics at all.
func TestLSMSmoke(t *testing.T) {
	const seed = 11
	inst := simdb.CDBC
	w := workload.SysbenchWO()
	full := knobs.ForEngine(knobs.EngineLSM)
	idx := make([]int, 20)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)

	var envs []*env.Env
	newLSMEnv := func(s int64) *env.Env {
		e := env.New(env.OpenEngine(knobs.EngineLSM, inst, s), cat, w)
		envs = append(envs, e)
		return e
	}

	base, err := newLSMEnv(seed).Measure()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("defaults: %.1f tx/s, p99 %.1f ms", base.Ext.Throughput, base.Ext.Latency99)

	cfg := core.DefaultConfig(cat)
	cfg.StepsPerEpisode = 6
	cfg.UpdatesPerStep = 2
	cfg.Seed = seed
	d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
	d.ActorHidden = []int{24, 24}
	d.CriticHidden = []int{32, 24}
	d.ActionBias = cat.Defaults(inst.HW.RAMGB, inst.HW.DiskGB)
	d.Seed = seed
	cfg.DDPG = d
	tuner, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.OfflineTrainOpts(func(ep int) *env.Env {
		return newLSMEnv(seed + 10 + int64(ep))
	}, core.TrainOptions{Episodes: 8}); err != nil {
		t.Fatal(err)
	}

	res, err := tuner.OnlineTune(context.Background(), newLSMEnv(seed+99), core.TuneOptions{Steps: 6, FineTune: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tuned: %.1f tx/s, p99 %.1f ms (%+.1f%%)",
		res.BestPerf.Throughput, res.BestPerf.Latency99,
		(res.BestPerf.Throughput/base.Ext.Throughput-1)*100)
	if res.BestPerf.Throughput <= base.Ext.Throughput {
		t.Errorf("tuned throughput %.1f did not beat defaults %.1f",
			res.BestPerf.Throughput, base.Ext.Throughput)
	}

	stalls := 0
	var stallSec float64
	for _, e := range envs {
		f := e.Faults()
		stalls += f.Stalls
		stallSec += f.StallSec
	}
	t.Logf("write stalls: %d events, %.1f s charged to the virtual clock", stalls, stallSec)
	if stalls < 1 {
		t.Error("no write-stall events observed: the smoke never reached the compaction-debt regime")
	}
	if stalls >= 1 && stallSec <= 0 {
		t.Error("stall events recorded but no stall seconds charged")
	}
}
