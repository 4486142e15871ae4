package controller_test

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"

	"cdbtune/internal/controller"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// The Figure 2 flow through the controller: a DBA training request builds
// the standard model (§2.1.1), then a user tuning request is served
// (§2.1.2): the user's workload is captured and replayed, CDBTune
// recommends within 5 steps, the license step approves a gain of at least
// 10 %, and the deployed configuration is exported as a my.cnf fragment.
// The networks and the training budget are shrunk so the example runs in
// milliseconds.
func ExampleController_HandleTuningRequestCtx() {
	cat := knobs.MySQL(knobs.EngineCDB)
	tcfg := core.DefaultConfig(cat)
	tcfg.DDPG.ActionBias = cat.Defaults(simdb.CDBA.HW.RAMGB, simdb.CDBA.HW.DiskGB)
	tcfg.DDPG.ActorHidden = []int{16, 16}
	tcfg.DDPG.CriticHidden = []int{32, 16}
	tcfg.StepsPerEpisode = 6
	tuner, err := core.New(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := controller.New(controller.Config{
		Tuner:    tuner,
		Approver: controller.ThresholdApprover{MinImprovement: 0.10},
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	rep, err := ctl.HandleTrainingRequest(func(ep int) *env.Env {
		return env.New(simdb.New(knobs.EngineCDB, simdb.CDBA, int64(ep)), cat, workload.SysbenchRW())
	}, core.TrainOptions{Episodes: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training request: %d episodes, %d iterations\n", rep.Episodes, rep.Iterations)

	userDB := simdb.New(knobs.EngineCDB, simdb.CDBA, 777)
	res, err := ctl.HandleTuningRequestCtx(context.Background(), userDB, workload.SysbenchRW())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed profile: %.1f%% reads, %d client threads\n", res.Replayed.ReadFraction*100, res.Replayed.Threads)
	fmt.Printf("recommendation: %.1f -> %.1f txn/s, license granted: %v\n",
		res.Initial.Throughput, res.BestPerf.Throughput, res.Approved)
	if !res.Approved {
		return
	}

	cnf, err := knobs.FormatConfig(cat, res.Values, true)
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(cnf, "\n"), "\n")
	fmt.Printf("my.cnf fragment: %d lines under %s, including\n", len(lines), lines[0])
	for _, l := range lines {
		if v, ok := strings.CutPrefix(l, "innodb_buffer_pool_size = "); ok {
			x, _ := strconv.ParseFloat(v, 64)
			fmt.Printf("innodb_buffer_pool_size = %.0f\n", x)
		}
	}
	// Output:
	// training request: 12 episodes, 72 iterations
	// replayed profile: 71.0% reads, 1500 client threads
	// recommendation: 600.5 -> 865.2 txn/s, license granted: true
	// my.cnf fragment: 81 lines under [mysqld], including
	// innodb_buffer_pool_size = 830
}
