package core_test

import (
	"context"
	"fmt"
	"log"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Train a CDBTune model offline on Sysbench read-write against fresh CDB-A
// instances (§2.2.1), then serve one user's online tuning request with it
// (§2.1.2) and read off the recommended knobs. The networks and the
// training budget are shrunk so the example runs in milliseconds; drop
// the overrides for the paper's Table 4/5 defaults.
func ExampleTuner_OnlineTune() {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()

	cfg := core.DefaultConfig(cat)
	cfg.DDPG.ActionBias = cat.Defaults(simdb.CDBA.HW.RAMGB, simdb.CDBA.HW.DiskGB)
	cfg.DDPG.ActorHidden = []int{16, 16}
	cfg.DDPG.CriticHidden = []int{32, 16}
	cfg.StepsPerEpisode = 6
	tuner, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := tuner.OfflineTrainOpts(func(ep int) *env.Env {
		return env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, int64(ep)), cat, w)
	}, core.TrainOptions{Episodes: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d episodes, %d iterations\n", rep.Episodes, rep.Iterations)

	user := env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, 12345), cat, w)
	res, err := tuner.OnlineTune(context.Background(), user, core.TuneOptions{Steps: 5, FineTune: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tput %.1f -> %.1f txn/s over %d steps\n", res.Initial.Throughput, res.BestPerf.Throughput, len(res.History))
	fmt.Printf("train steps: %d\n", tuner.Agent().TrainSteps())

	hw := simdb.CDBA.HW
	for _, name := range []string{"innodb_buffer_pool_size", "innodb_flush_log_at_trx_commit"} {
		i := cat.Index(name)
		fmt.Printf("%s = %.0f\n", name, cat.Knobs[i].Value(res.Best[i], hw.RAMGB, hw.DiskGB))
	}
	// Output:
	// trained: 12 episodes, 72 iterations
	// tput 330.5 -> 481.9 txn/s over 5 steps
	// train steps: 28
	// innodb_buffer_pool_size = 830
	// innodb_flush_log_at_trx_commit = 1
}
