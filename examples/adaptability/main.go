// Adaptability: the paper's §5.3 scenario. A model trained on an 8 GB
// instance serves a tuning request on a 64 GB instance (cross testing,
// M_8G→64G) without retraining, and is compared against a model trained
// on the 64 GB instance directly (normal testing) and the expert rules.
//
//	go run ./examples/adaptability
package main

import (
	"context"
	"fmt"
	"log"

	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func train(cat *knobs.Catalog, inst simdb.Instance, w workload.Workload, seed int64) *core.Tuner {
	cfg := core.DefaultConfig(cat)
	cfg.Seed = seed
	cfg.DDPG.ActionBias = cat.Defaults(inst.HW.RAMGB, inst.HW.DiskGB)
	tuner, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	_, err = tuner.OfflineTrainOpts(func(ep int) *env.Env {
		return env.New(simdb.New(knobs.EngineCDB, inst, seed+int64(ep)), cat, w)
	}, core.TrainOptions{Episodes: 25})
	if err != nil {
		log.Fatal(err)
	}
	return tuner
}

func main() {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchWO()
	small := simdb.CDBA     // 8 GB RAM — training hardware
	big := simdb.MakeX1(64) // 64 GB RAM — the user resized their instance

	fmt.Println("training M_8G on CDB-A (8 GB) ...")
	m8 := train(cat, small, w, 1)
	fmt.Println("training M_64G on CDB-X1-64G (normal testing reference) ...")
	m64 := train(cat, big, w, 500)

	report := func(name string, t *core.Tuner, seed int64) {
		e := env.New(simdb.New(knobs.EngineCDB, big, seed), cat, w)
		res, err := t.OnlineTune(context.Background(), e, core.TuneOptions{Steps: 5, FineTune: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s %8.1f txn/sec  %8.1f ms\n", name, res.BestPerf.Throughput, res.BestPerf.Latency99)
	}

	fmt.Println("\ntuning the 64 GB instance (sysbench write-only):")
	e := env.New(simdb.New(knobs.EngineCDB, big, 900), cat, w)
	base, err := e.Measure()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-28s %8.1f txn/sec  %8.1f ms\n", "defaults", base.Ext.Throughput, base.Ext.Latency99)

	eDBA := env.New(simdb.New(knobs.EngineCDB, big, 901), cat, w)
	_, dperf, err := dba.Tune(eDBA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-28s %8.1f txn/sec  %8.1f ms\n", "DBA rules", dperf.Throughput, dperf.Latency99)

	report("CDBTune M_8G→64G (cross)", m8, 902)
	report("CDBTune M_64G→64G (normal)", m64, 903)

	fmt.Println("\nThe cross-tested model tracks the normally-trained one without")
	fmt.Println("retraining — the state (63 internal metrics) reflects the new")
	fmt.Println("hardware and the policy responds to it (§5.3.1).")
}
