// Crossengine: tune all engine variants the paper evaluates (CDB
// MySQL, local MySQL, MongoDB, Postgres) plus the LSM storage engine on a
// representative workload each and print the before/after matrix — the
// Appendix C.3 scenario as a single runnable program.
//
//	go run ./examples/crossengine
package main

import (
	"context"
	"fmt"
	"log"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func main() {
	cases := []struct {
		engine knobs.Engine
		inst   simdb.Instance
		w      workload.Workload
	}{
		{knobs.EngineCDB, simdb.CDBA, workload.SysbenchRW()},
		{knobs.EngineLocalMySQL, simdb.CDBC, workload.TPCC()},
		{knobs.EngineMongoDB, simdb.CDBE, workload.YCSB()},
		{knobs.EnginePostgres, simdb.CDBD, workload.TPCC()},
		{knobs.EngineLSM, simdb.CDBC, workload.YCSB()},
	}
	fmt.Printf("%-12s %-12s %-12s | %10s | %10s | %8s\n",
		"engine", "instance", "workload", "default", "CDBTune", "gain")
	fmt.Println("--------------------------------------+------------+------------+---------")
	for ci, c := range cases {
		cat := knobs.ForEngine(c.engine)
		seed := int64(1000 * (ci + 1))

		e := env.New(env.OpenEngine(c.engine, c.inst, seed), cat, c.w)
		base, err := e.Measure()
		if err != nil {
			log.Fatal(err)
		}

		cfg := core.DefaultConfig(cat)
		d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
		d.ActorHidden = []int{64, 64}
		d.CriticHidden = []int{128, 64}
		d.ActionBias = cat.Defaults(c.inst.HW.RAMGB, c.inst.HW.DiskGB)
		d.Seed = seed
		cfg.DDPG = d
		cfg.Seed = seed
		tuner, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tuner.OfflineTrainOpts(func(ep int) *env.Env {
			return env.New(env.OpenEngine(c.engine, c.inst, seed+10+int64(ep)), cat, c.w)
		}, core.TrainOptions{Episodes: 25}); err != nil {
			log.Fatal(err)
		}
		e2 := env.New(env.OpenEngine(c.engine, c.inst, seed+99), cat, c.w)
		res, err := tuner.OnlineTune(context.Background(), e2, core.TuneOptions{Steps: 5, FineTune: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-12s %-12s | %10.1f | %10.1f | %+7.1f%%\n",
			c.engine, c.inst.Name, c.w.Name,
			base.Ext.Throughput, res.BestPerf.Throughput,
			(res.BestPerf.Throughput/base.Ext.Throughput-1)*100)
	}
	fmt.Println("\nOne library, five engines: the knob catalogs carry per-engine names")
	fmt.Println("and ranges while the tuner sees only normalized vectors (Appendix C.3).")
}
