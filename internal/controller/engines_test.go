package controller

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

// TestTuningRequestOtherEngines serves requests against MongoDB,
// Postgres and LSM instances — the controller is engine-agnostic because
// the tuner's catalog carries the engine and env.OpenEngine picks the
// simulator family.
func TestTuningRequestOtherEngines(t *testing.T) {
	cases := []struct {
		engine knobs.Engine
		inst   simdb.Instance
		w      workload.Workload
	}{
		{knobs.EngineMongoDB, simdb.CDBE, workload.YCSB()},
		{knobs.EnginePostgres, simdb.CDBD, workload.TPCC()},
		{knobs.EngineLSM, simdb.CDBC, workload.YCSB()},
	}
	for _, c := range cases {
		full := knobs.ForEngine(c.engine)
		idx := make([]int, 6)
		for i := range idx {
			idx[i] = i
		}
		cat := full.Subset(idx)
		cfg := core.DefaultConfig(cat)
		d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
		d.ActorHidden = []int{16, 16}
		d.CriticHidden = []int{24, 16}
		cfg.DDPG = d
		cfg.StepsPerEpisode = 4
		cfg.UpdatesPerStep = 1
		tn, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := New(Config{Tuner: tn, Seed: 5, OnlineSteps: 2})
		if err != nil {
			t.Fatal(err)
		}
		db := env.OpenEngine(c.engine, c.inst, 77)
		res, err := ctl.HandleTuningRequestCtx(context.Background(), db, c.w)
		if err != nil {
			t.Fatalf("%v: %v", c.engine, err)
		}
		if res.BestPerf.Throughput <= 0 {
			t.Fatalf("%v: no performance", c.engine)
		}
		if len(res.Values) != cat.Len() {
			t.Fatalf("%v: values dim %d", c.engine, len(res.Values))
		}
	}
}
