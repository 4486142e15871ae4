package expr

import (
	"fmt"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/reward"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Fig14 reproduces Appendix C.1.1 (Figure 14): training convergence
// iterations and resulting performance for the four reward functions
// (RF-A, RF-B, RF-C, RF-CDBTune) on TPC-C (CDB-C) and Sysbench RW and RO
// (CDB-A).
func Fig14(b Budget) ([]Table, error) {
	cases := []struct {
		w    workload.Workload
		inst simdb.Instance
	}{
		{workload.TPCC(), simdb.CDBC},
		{workload.SysbenchRW(), simdb.CDBA},
		{workload.SysbenchRO(), simdb.CDBA},
	}
	kinds := []reward.Kind{reward.RFA, reward.RFB, reward.RFC, reward.RFCDBTune}
	cat := knobs.MySQL(knobs.EngineCDB)

	var tables []Table
	for ci, c := range cases {
		t := Table{
			Title:  fmt.Sprintf("Figure 14 (%s on %s): reward-function comparison", c.w.Name, c.inst.Name),
			Header: []string{"reward function", "iterations to converge", "throughput (txn/sec)", "latency99 (ms)"},
		}
		for ki, kind := range kinds {
			seed := b.Seed + int64(7000+ci*100+ki*13)
			cfg := warmConfig(b, cat, c.inst)
			cfg.RewardKind = kind
			cfg.Seed = seed
			model, rep, err := train(b, cfg, func(ep int) *env.Env {
				return newEnv(knobs.EngineCDB, c.inst, cat, c.w, seed+int64(ep))
			})
			if err != nil {
				return nil, err
			}
			res, err := onlineTune(b, model, newEnv(knobs.EngineCDB, c.inst, cat, c.w, seed+90))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				kind.String(), fmt.Sprintf("%d", iterations(rep)),
				fmtF(res.BestPerf.Throughput), fmtF(res.BestPerf.Latency99),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig15 reproduces Appendix C.1.2 (Figure 15): sweeping the throughput
// coefficient CT (CL = 1 − CT) and reporting the throughput and latency
// of the tuned system relative to the CT = CL = 0.5 baseline, on Sysbench
// RW (CDB-A).
func Fig15(b Budget, cts []float64) (Figure, error) {
	if len(cts) == 0 {
		cts = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()
	fig := Figure{
		Title:  "Figure 15: throughput/latency change rate vs CT (CL = 1−CT), Sysbench RW",
		XLabel: "CT",
		YLabel: "ratio vs CT=0.5 baseline",
	}
	perfAt := func(ct float64) (float64, float64, error) {
		seed := b.Seed + int64(8000+int(ct*100))
		cfg := warmConfig(b, cat, simdb.CDBA)
		cfg.CT, cfg.CL = ct, 1-ct
		cfg.Seed = seed
		model, _, err := train(b, cfg, func(ep int) *env.Env {
			return newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+int64(ep))
		})
		if err != nil {
			return 0, 0, err
		}
		res, err := onlineTune(b, model, newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+90))
		if err != nil {
			return 0, 0, err
		}
		return res.BestPerf.Throughput, res.BestPerf.Latency99, nil
	}
	baseT, baseL, err := perfAt(0.5)
	if err != nil {
		return fig, err
	}
	var tput, lat Series
	tput.Name, lat.Name = "Throughput", "Latency"
	for _, ct := range cts {
		t, l := baseT, baseL
		if ct != 0.5 {
			t, l, err = perfAt(ct)
			if err != nil {
				return fig, err
			}
		}
		tput.X, tput.Y = append(tput.X, ct), append(tput.Y, t/baseT)
		lat.X, lat.Y = append(lat.X, ct), append(lat.Y, l/baseL)
	}
	fig.Series = []Series{tput, lat}
	return fig, nil
}

// Table6 reproduces Appendix C.2 (Table 6): tuning performance and
// training iterations as the actor/critic depth and width vary. The row
// set mirrors the paper's; the quick budget divides every width by the
// given shrink factor to stay single-core friendly (shrink 1 = paper
// architecture).
func Table6(b Budget, shrink int) (Table, error) {
	if shrink <= 0 {
		shrink = 1
	}
	type arch struct {
		actor, critic []int
	}
	rows := []arch{
		{[]int{128, 128, 64}, []int{256, 256, 64}},
		{[]int{256, 256, 128}, []int{512, 512, 128}},
		{[]int{128, 128, 128, 64}, []int{256, 256, 256, 64}},
		{[]int{256, 256, 256, 128}, []int{512, 512, 512, 128}},
		{[]int{128, 128, 128, 128, 64}, []int{256, 256, 256, 256, 64}},
		{[]int{256, 256, 256, 256, 128}, []int{512, 512, 512, 512, 128}},
		{[]int{128, 128, 128, 128, 128, 64}, []int{256, 256, 256, 256, 256, 64}},
		{[]int{256, 256, 256, 256, 256, 128}, []int{512, 512, 512, 512, 512, 128}},
	}
	div := func(ws []int) []int {
		out := make([]int, len(ws))
		for i, w := range ws {
			out[i] = w / shrink
			if out[i] < 8 {
				out[i] = 8
			}
		}
		return out
	}
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.TPCC()
	t := Table{
		Title:  "Table 6: tuning performance by actor/critic architecture (TPC-C, 266 knobs)",
		Header: []string{"AHL", "actor neurons", "CHL", "critic neurons", "throughput", "latency99 (ms)", "iterations"},
	}
	for ri, a := range rows {
		seed := b.Seed + int64(9000+ri*17)
		cfg := warmConfig(b, cat, simdb.CDBB)
		cfg.DDPG.ActorHidden = div(a.actor)
		cfg.DDPG.CriticHidden = div(a.critic)
		cfg.Seed = seed
		model, rep, err := train(b, cfg, func(ep int) *env.Env {
			return newEnv(knobs.EngineCDB, simdb.CDBB, cat, w, seed+int64(ep))
		})
		if err != nil {
			return t, err
		}
		res, err := onlineTune(b, model, newEnv(knobs.EngineCDB, simdb.CDBB, cat, w, seed+90))
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", len(a.actor)), fmtInts(div(a.actor)),
			fmt.Sprintf("%d", len(a.critic)), fmtInts(div(a.critic)),
			fmtF(res.BestPerf.Throughput), fmtF(res.BestPerf.Latency99),
			fmt.Sprintf("%d", iterations(rep)),
		})
	}
	return t, nil
}

func fmtInts(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", x)
	}
	return s
}
