package expr

import (
	"fmt"
	"math"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/dqn"
	"cdbtune/internal/rl/qlearn"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// qdqnKnobs is the tiny subset Q-learning/DQN can even enumerate.
var qdqnKnobs = []string{"innodb_buffer_pool_size", "innodb_log_file_size", "innodb_flush_log_at_trx_commit"}

// QLearnDQN reproduces the §3.3 argument quantitatively: tabular
// Q-Learning and DQN against DDPG on the same tiny knob subset, plus the
// combinatorial blow-up that rules them out at paper scale (100^266
// discretized actions).
func QLearnDQN(b Budget, episodes int) (Table, error) {
	if episodes <= 0 {
		episodes = b.Episodes
	}
	full := knobs.MySQL(knobs.EngineCDB)
	var idx []int
	for _, n := range qdqnKnobs {
		idx = append(idx, full.Index(n))
	}
	cat := full.Subset(idx)
	w := workload.SysbenchRW()
	const levels = 5
	numActions := 1
	for range cat.Knobs {
		numActions *= levels
	}
	decode := func(a int) []float64 {
		x := make([]float64, cat.Len())
		for i := range x {
			x[i] = float64(a%levels) / float64(levels-1)
			a /= levels
		}
		return x
	}

	t := Table{
		Title: fmt.Sprintf("§3.3 ablation: Q-Learning / DQN / DDPG on %d knobs × %d levels (Sysbench RW, CDB-A)", cat.Len(), levels),
		Header: []string{"method", "action space", "state space", "best throughput",
			"notes"},
	}

	runDiscrete := func(act func(s []float64) int, update func(s []float64, a int, r float64, n []float64)) float64 {
		best := 0.0
		for ep := 0; ep < episodes; ep++ {
			e := newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+int64(10000+ep))
			base, err := e.Measure()
			if err != nil {
				continue
			}
			state := metrics.Normalize(base.State)
			t0 := base.Ext.Throughput
			for step := 0; step < b.StepsPerEpisode; step++ {
				a := act(state)
				res, err := e.Step(decode(a))
				if err != nil {
					update(state, a, -10, state)
					break
				}
				r := (res.Ext.Throughput - t0) / t0
				next := metrics.Normalize(res.State)
				update(state, a, r, next)
				state = next
				if res.Ext.Throughput > best {
					best = res.Ext.Throughput
				}
			}
		}
		return best
	}

	// Tabular Q-learning over the hashed 63-dim state.
	qcfg := qlearn.DefaultConfig(numActions)
	qcfg.Seed = b.Seed
	qa := qlearn.New(qcfg)
	qBest := runDiscrete(
		func(s []float64) int { return qa.ActEpsilonGreedy(s) },
		func(s []float64, a int, r float64, n []float64) { qa.Update(s, a, r, n, false) },
	)
	t.Rows = append(t.Rows, []string{
		"Q-Learning", fmt.Sprintf("%d", numActions),
		fmt.Sprintf("%d distinct (no generalization)", qa.TableSize()),
		fmtF(qBest), "table grows with every state seen",
	})

	// DQN over the same discrete action set.
	dcfg := dqn.DefaultConfig(metrics.NumMetrics, numActions)
	dcfg.Seed = b.Seed
	da := dqn.New(dcfg)
	dBest := runDiscrete(
		func(s []float64) int { return da.ActEpsilonGreedy(s) },
		func(s []float64, a int, r float64, n []float64) {
			da.Observe(s, a, r, n, false)
			da.TrainStep()
		},
	)
	t.Rows = append(t.Rows, []string{
		"DQN", fmt.Sprintf("%d", numActions), "generalized by network",
		fmtF(dBest), "output layer = one unit per action",
	})

	// DDPG on the same subset: continuous actions, no enumeration.
	tuner, _, err := trainTuner(b, knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+11000)
	if err != nil {
		return t, err
	}
	res, err := onlineTune(b, tuner, newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+11090))
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"DDPG (CDBTune)", "continuous", "generalized by network",
		fmtF(res.BestPerf.Throughput), "scales to 266 knobs",
	})

	// The blow-up row: the paper's 266 knobs × 100 levels.
	t.Rows = append(t.Rows, []string{
		"(any discrete method, paper scale)",
		fmt.Sprintf("100^266 ≈ 10^%d", int(266*math.Log10(100))),
		"10^126 discretized states", "-", "infeasible (§3.3)",
	})
	return t, nil
}

// AblationReplay compares prioritized vs uniform experience replay: §5.1
// reports prioritized replay doubling convergence speed.
func AblationReplay(b Budget) (Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()
	t := Table{
		Title:  "Ablation: prioritized vs uniform experience replay (Sysbench RW, CDB-A)",
		Header: []string{"replay", "iterations to converge", "best throughput"},
	}
	for _, prioritized := range []bool{true, false} {
		seed := b.Seed + 12000
		cfg := warmConfig(b, cat, simdb.CDBA)
		cfg.DDPG.Prioritized = prioritized
		cfg.Seed = seed
		_, rep, err := train(b, cfg, func(ep int) *env.Env {
			return newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+int64(ep))
		})
		if err != nil {
			return t, err
		}
		name := "uniform"
		if prioritized {
			name = "prioritized"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%d", iterations(rep)), fmtF(rep.BestPerf.Throughput)})
	}
	return t, nil
}

// AblationAction compares the paper's action representation (§3.2: one
// action sets all knob values at once) against an incremental per-step
// delta representation.
func AblationAction(b Budget) (Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()
	t := Table{
		Title:  "Ablation: absolute full-vector actions vs incremental delta actions (Sysbench RW, CDB-A)",
		Header: []string{"action mode", "best throughput", "latency99 (ms)"},
	}
	for _, delta := range []float64{0, 0.15} {
		seed := b.Seed + 13000
		cfg := warmConfig(b, cat, simdb.CDBA)
		cfg.Seed = seed
		mk := func(ep int) *env.Env {
			e := newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+int64(ep))
			e.DeltaScale = delta
			return e
		}
		model, _, err := train(b, cfg, mk)
		if err != nil {
			return t, err
		}
		res, err := onlineTune(b, model, mk(9999))
		if err != nil {
			return t, err
		}
		name := "absolute (paper §3.2)"
		if delta > 0 {
			name = fmt.Sprintf("delta ±%.2f per step", delta)
		}
		t.Rows = append(t.Rows, []string{name, fmtF(res.BestPerf.Throughput), fmtF(res.BestPerf.Latency99)})
	}
	return t, nil
}
