package expr

import (
	"context"
	"fmt"

	"cdbtune/internal/bestconfig"
	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/knobs"
	"cdbtune/internal/ottertune"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Fig10 reproduces Figure 10 (adaptability to memory-size change): a model
// trained on CDB-A (8 GB) recommends for CDB-X1 instances with other RAM
// sizes (cross testing, M_8G→XG) and is compared with models trained
// directly on those instances (normal testing, M_XG→XG), plus the
// baselines, under Sysbench WO. rams defaults to a subset of the paper's
// (4, 12, 32, 64, 128).
func Fig10(b Budget, rams []float64) ([]Table, error) {
	if len(rams) == 0 {
		rams = []float64{4, 32, 128}
	}
	return adaptSweep(b, "Figure 10", workload.SysbenchWO(), simdb.CDBA, func(x float64) simdb.Instance {
		return simdb.MakeX1(x)
	}, rams, "M_8G")
}

// Fig11 reproduces Figure 11 (adaptability to disk-capacity change):
// trained on CDB-C (200 GB disk), tuned on CDB-X2 variants, Sysbench RO.
func Fig11(b Budget, disks []float64) ([]Table, error) {
	if len(disks) == 0 {
		disks = []float64{32, 100, 512}
	}
	return adaptSweep(b, "Figure 11", workload.SysbenchRO(), simdb.CDBC, func(x float64) simdb.Instance {
		return simdb.MakeX2(x)
	}, disks, "M_200G")
}

// adaptSweep implements the shared cross-vs-normal testing protocol.
func adaptSweep(b Budget, title string, w workload.Workload, trainInst simdb.Instance, mkInst func(float64) simdb.Instance, xs []float64, modelName string) ([]Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	seed := b.Seed + 5000

	// One base model trained on the training instance.
	baseTuner, _, err := trainTuner(b, knobs.EngineCDB, trainInst, cat, []workload.Workload{w}, seed)
	if err != nil {
		return nil, err
	}
	repo, err := buildRepo(b, knobs.EngineCDB, trainInst, cat, []workload.Workload{w}, seed+20)
	if err != nil {
		return nil, err
	}

	var tables []Table
	for xi, x := range xs {
		inst := mkInst(x)
		s := seed + int64(100+xi*31)
		t := Table{
			Title:  fmt.Sprintf("%s: %s→%s under %s", title, modelName, inst.Name, w.Name),
			Header: []string{"tuner", "throughput (txn/sec)", "latency99 (ms)"},
		}
		// Baselines on the target instance.
		e := newEnv(knobs.EngineCDB, inst, cat, w, s)
		bcfg := bestconfig.DefaultConfig()
		bcfg.Budget = b.BestConfigSteps
		bcfg.Seed = s
		bres, err := bestconfig.Tune(e, bcfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"BestConfig", fmtF(bres.BestPerf.Throughput), fmtF(bres.BestPerf.Latency99)})

		e = newEnv(knobs.EngineCDB, inst, cat, w, s+1)
		_, dperf, err := dba.Tune(e)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"DBA", fmtF(dperf.Throughput), fmtF(dperf.Latency99)})

		e = newEnv(knobs.EngineCDB, inst, cat, w, s+2)
		ocfg := ottertune.DefaultConfig()
		ocfg.Steps = b.OtterTuneSteps
		ocfg.Seed = s
		ores, err := ottertune.Tune(e, repo, ocfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"OtterTune", fmtF(ores.BestPerf.Throughput), fmtF(ores.BestPerf.Latency99)})

		// Cross testing: the base model tunes the new hardware directly.
		e = newEnv(knobs.EngineCDB, inst, cat, w, s+3)
		cross, err := baseTuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"CDBTune (cross testing)", fmtF(cross.BestPerf.Throughput), fmtF(cross.BestPerf.Latency99)})

		// Normal testing: a model trained on the target hardware.
		normTuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, []workload.Workload{w}, s+4)
		if err != nil {
			return nil, err
		}
		e = newEnv(knobs.EngineCDB, inst, cat, w, s+5)
		norm, err := normTuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"CDBTune (normal testing)", fmtF(norm.BestPerf.Throughput), fmtF(norm.BestPerf.Latency99)})
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig12 reproduces Figure 12 (adaptability to workload change): a model
// trained on Sysbench RW recommends for TPC-C (M_RW→TPC-C, cross testing)
// against a model trained on TPC-C (normal testing) and the baselines, on
// CDB-C.
func Fig12(b Budget) (Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	inst := simdb.CDBC
	target := workload.TPCC()
	seed := b.Seed + 6000

	t := Table{
		Title:  "Figure 12: model trained on Sysbench RW applied to TPC-C (CDB-C)",
		Header: []string{"tuner", "throughput (txn/sec)", "latency99 (ms)"},
	}

	e := newEnv(knobs.EngineCDB, inst, cat, target, seed)
	bcfg := bestconfig.DefaultConfig()
	bcfg.Budget = b.BestConfigSteps
	bcfg.Seed = seed
	bres, err := bestconfig.Tune(e, bcfg)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"BestConfig", fmtF(bres.BestPerf.Throughput), fmtF(bres.BestPerf.Latency99)})

	e = newEnv(knobs.EngineCDB, inst, cat, target, seed+1)
	_, dperf, err := dba.Tune(e)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"DBA", fmtF(dperf.Throughput), fmtF(dperf.Latency99)})

	repo, err := buildRepo(b, knobs.EngineCDB, inst, cat, []workload.Workload{workload.SysbenchRW()}, seed+2)
	if err != nil {
		return t, err
	}
	e = newEnv(knobs.EngineCDB, inst, cat, target, seed+3)
	ocfg := ottertune.DefaultConfig()
	ocfg.Steps = b.OtterTuneSteps
	ocfg.Seed = seed
	ores, err := ottertune.Tune(e, repo, ocfg)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"OtterTune", fmtF(ores.BestPerf.Throughput), fmtF(ores.BestPerf.Latency99)})

	// Cross testing: M_RW→TPC-C.
	rwTuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, []workload.Workload{workload.SysbenchRW()}, seed+10)
	if err != nil {
		return t, err
	}
	e = newEnv(knobs.EngineCDB, inst, cat, target, seed+11)
	cross, err := rwTuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"CDBTune (M_RW→TPC-C)", fmtF(cross.BestPerf.Throughput), fmtF(cross.BestPerf.Latency99)})

	// Normal testing: M_TPC-C→TPC-C.
	tpccTuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, []workload.Workload{target}, seed+20)
	if err != nil {
		return t, err
	}
	e = newEnv(knobs.EngineCDB, inst, cat, target, seed+21)
	norm, err := tpccTuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"CDBTune (M_TPC-C→TPC-C)", fmtF(norm.BestPerf.Throughput), fmtF(norm.BestPerf.Latency99)})
	return t, nil
}
