// Endtoend: the full Figure 2 flow through the controller — a DBA
// training request builds the standard model, then a user tuning request
// is served: the user's workload is captured and replayed, CDBTune
// recommends within 5 steps, the license step approves, and the final
// configuration is exported as a my.cnf fragment.
//
//	go run ./examples/endtoend
package main

import (
	"context"
	"fmt"
	"log"

	"cdbtune/internal/controller"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func main() {
	cat := knobs.MySQL(knobs.EngineCDB)
	tcfg := core.DefaultConfig(cat)
	tcfg.DDPG.ActionBias = cat.Defaults(simdb.CDBA.HW.RAMGB, simdb.CDBA.HW.DiskGB)
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

	// 1. DBA training request: cold-start the standard model with the
	//    workload generator's standard workloads (§2.2.1).
	fmt.Println("[controller] DBA training request: 25 episodes on CDB-A ...")
	rep, err := ctl.HandleTrainingRequest(func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(ep))
		return env.New(db, cat, workload.SysbenchRW())
	}, core.TrainOptions{Episodes: 25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[controller] trained: %d iterations, best %.0f txn/sec seen, %d crashes punished\n",
		rep.Iterations, rep.BestPerf.Throughput, rep.Crashes)

	// 2. User tuning request: the user's CDB instance runs a read-write
	//    workload the model has never seen verbatim.
	fmt.Println("[controller] user tuning request received; capturing 150 s of workload ...")
	userDB := simdb.New(knobs.EngineCDB, simdb.CDBA, 777)
	res, err := ctl.HandleTuningRequestCtx(context.Background(), userDB, workload.SysbenchRW())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[controller] replayed profile: %.0f%% reads, %d client threads\n",
		res.Replayed.ReadFraction*100, res.Replayed.Threads)
	fmt.Printf("[controller] recommendation: %.0f → %.0f txn/sec (%+.0f%%), latency %.0f → %.0f ms\n",
		res.Initial.Throughput, res.BestPerf.Throughput,
		res.Improvement*100,
		res.Initial.Latency99, res.BestPerf.Latency99)
	if !res.Approved {
		fmt.Println("[controller] license DENIED (below +10% threshold); instance rolled back")
		return
	}
	fmt.Println("[controller] license granted; configuration deployed")

	// 3. Export the deployed configuration in the engine's native syntax.
	cfgText, err := knobs.FormatConfig(cat, res.Values, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- recommended my.cnf fragment (knobs changed from defaults) ---")
	fmt.Print(truncateLines(cfgText, 18))
}

func truncateLines(s string, n int) string {
	out, count := "", 0
	for _, line := range splitLines(s) {
		if count == n {
			out += "… (remaining knobs omitted)\n"
			break
		}
		out += line + "\n"
		count++
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
