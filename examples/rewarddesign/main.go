// Rewarddesign: the Appendix C.1.1 ablation as a runnable example — train
// the same agent under the four reward functions and watch convergence
// speed and final quality diverge.
//
//	go run ./examples/rewarddesign
package main

import (
	"context"
	"fmt"
	"log"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/reward"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func main() {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()

	fmt.Println("training the same DDPG agent under four reward designs (sysbench-rw, CDB-A)")
	fmt.Printf("%-12s %12s %14s %12s\n", "reward", "iterations", "throughput", "latency99")
	for _, kind := range []reward.Kind{reward.RFA, reward.RFB, reward.RFC, reward.RFCDBTune} {
		cfg := core.DefaultConfig(cat)
		d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
		d.ActorHidden = []int{64, 64}
		d.CriticHidden = []int{128, 64}
		cfg.DDPG = d
		cfg.RewardKind = kind
		cfg.UpdatesPerStep = 2
		cfg.Seed = 7
		cfg.DDPG.ActionBias = cat.Defaults(simdb.CDBA.HW.RAMGB, simdb.CDBA.HW.DiskGB)
		tuner, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := tuner.OfflineTrainOpts(func(ep int) *env.Env {
			return env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, int64(100+ep)), cat, w)
		}, core.TrainOptions{Episodes: 20})
		if err != nil {
			log.Fatal(err)
		}
		e := env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, 999), cat, w)
		res, err := tuner.OnlineTune(context.Background(), e, core.TuneOptions{Steps: 5, FineTune: true})
		if err != nil {
			log.Fatal(err)
		}
		conv := rep.ConvergedAt
		if conv == 0 {
			conv = rep.Iterations
		}
		fmt.Printf("%-12s %12d %12.1f/s %10.1fms\n",
			kind, conv, res.BestPerf.Throughput, res.BestPerf.Latency99)
	}
	fmt.Println("\nRF-CDBTune weighs progress against both the initial settings and the")
	fmt.Println("previous step, and zeroes rewards earned while regressing (§4.2).")
}
