// Quickstart: train a small CDBTune model on Sysbench read-write and use
// it to serve one online tuning request, printing the before/after
// performance and the most important recommended knobs.
//
//	go run ./examples/quickstart
package main

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

func main() {
	// The tunable space: the full 266-knob CDB catalog.
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()

	// Build the tuner with the paper's defaults (Table 4/5).
	cfg := core.DefaultConfig(cat)
	cfg.DDPG.ActionBias = cat.Defaults(simdb.CDBA.HW.RAMGB, simdb.CDBA.HW.DiskGB)
	tuner, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Offline training: the workload generator stress-tests fresh CDB-A
	// instances with the standard workload (cold start, §2.2.1).
	mkEnv := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(ep))
		return env.New(db, cat, w)
	}
	fmt.Println("offline training (30 episodes on CDB-A, sysbench-rw)...")
	rep, err := tuner.OfflineTrainOpts(mkEnv, core.TrainOptions{Episodes: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d iterations, %d crashes punished, best seen %.0f txn/sec\n",
		rep.Iterations, rep.Crashes, rep.BestPerf.Throughput)

	// Online tuning: a user's request arrives; replay their workload and
	// recommend within 5 steps (§2.1.2).
	user := env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, 12345), cat, w)
	res, err := tuner.OnlineTune(context.Background(), user, core.TuneOptions{Steps: 5, FineTune: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nonline tuning request served in %.0f virtual minutes:\n", res.Seconds/60)
	fmt.Printf("  default config: %8.1f txn/sec   %8.1f ms (99th)\n", res.Initial.Throughput, res.Initial.Latency99)
	fmt.Printf("  CDBTune config: %8.1f txn/sec   %8.1f ms (99th)\n", res.BestPerf.Throughput, res.BestPerf.Latency99)
	fmt.Printf("  improvement:    %+.1f%% throughput, %+.1f%% latency\n",
		(res.BestPerf.Throughput/res.Initial.Throughput-1)*100,
		(res.BestPerf.Latency99/res.Initial.Latency99-1)*100)

	fmt.Println("\nkey recommended knobs:")
	hw := simdb.CDBA.HW
	for _, name := range []string{"innodb_buffer_pool_size", "innodb_log_file_size",
		"innodb_flush_log_at_trx_commit", "innodb_write_io_threads", "max_connections"} {
		i := cat.Index(name)
		v := cat.Knobs[i].Value(res.Best[i], hw.RAMGB, hw.DiskGB)
		fmt.Printf("  %-34s = %.0f\n", name, v)
	}
}
