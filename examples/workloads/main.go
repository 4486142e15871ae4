// Workloads: tune every paper workload with every tuner and print the
// Figure 9-style comparison matrix. Uses a reduced training budget so the
// whole run finishes in a couple of minutes on one core.
//
//	go run ./examples/workloads
package main

import (
	"context"
	"fmt"
	"log"

	"cdbtune/internal/bestconfig"
	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/ottertune"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func mkEnv(cat *knobs.Catalog, w workload.Workload, seed int64) *env.Env {
	return env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, seed), cat, w)
}

func main() {
	cat := knobs.MySQL(knobs.EngineCDB)
	fmt.Printf("%-12s | %10s | %10s | %10s | %10s | %10s\n",
		"workload", "default", "BestConfig", "DBA", "OtterTune", "CDBTune")
	fmt.Println("-------------+------------+------------+------------+------------+-----------")
	for wi, w := range workload.All() {
		seed := int64(wi * 1000)
		row := []float64{}

		e := mkEnv(cat, w, seed)
		base, err := e.Measure()
		if err != nil {
			log.Fatal(err)
		}
		row = append(row, base.Ext.Throughput)

		bres, err := bestconfig.Tune(mkEnv(cat, w, seed+1), bestconfig.Config{
			Budget: 30, RoundSamples: 10, Shrink: 0.5, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		row = append(row, bres.BestPerf.Throughput)

		_, dperf, err := dba.Tune(mkEnv(cat, w, seed+2))
		if err != nil {
			log.Fatal(err)
		}
		row = append(row, dperf.Throughput)

		repo, err := ottertune.BuildRepository([]*env.Env{mkEnv(cat, w, seed+3)}, 40, dba.Recommend, seed)
		if err != nil {
			log.Fatal(err)
		}
		ores, err := ottertune.Tune(mkEnv(cat, w, seed+4), repo, ottertune.Config{
			Steps: 5, Candidates: 300, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		row = append(row, ores.BestPerf.Throughput)

		cfg := core.DefaultConfig(cat)
		d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
		d.ActorHidden = []int{64, 64}
		d.CriticHidden = []int{128, 64}
		cfg.DDPG = d
		cfg.UpdatesPerStep = 2
		cfg.Seed = seed
		cfg.DDPG.ActionBias = cat.Defaults(simdb.CDBA.HW.RAMGB, simdb.CDBA.HW.DiskGB)
		tuner, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tuner.OfflineTrainOpts(func(ep int) *env.Env {
			return mkEnv(cat, w, seed+10+int64(ep))
		}, core.TrainOptions{Episodes: 20}); err != nil {
			log.Fatal(err)
		}
		tres, err := tuner.OnlineTune(context.Background(), mkEnv(cat, w, seed+90), core.TuneOptions{Steps: 5, FineTune: true})
		if err != nil {
			log.Fatal(err)
		}
		row = append(row, tres.BestPerf.Throughput)

		fmt.Printf("%-12s |", w.Name)
		for _, v := range row {
			fmt.Printf(" %10.1f |", v)
		}
		fmt.Println()
	}
	fmt.Println("\nthroughput in txn/sec; every tuner ran against CDB-A (8 GB / 100 GB)")
}
