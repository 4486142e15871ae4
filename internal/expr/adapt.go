package expr

import (
	"fmt"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
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
	baseTuner, _, err := trainTuner(b, knobs.EngineCDB, trainInst, cat, w, seed)
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
		// Normal testing: a model trained on the target hardware.
		normTuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, w, s+4)
		if err != nil {
			return nil, err
		}
		// The baselines run on the target instance; cross testing tunes
		// the new hardware with the base model directly.
		t, err := perfTable(Table{
			Title:  fmt.Sprintf("%s: %s→%s under %s", title, modelName, inst.Name, w.Name),
			Header: []string{"tuner", "throughput (txn/sec)", "latency99 (ms)"},
		}, []tuner{
			bestConfig(b, s), expertDBA(), otterTune(b, repo, s, false),
			cdbTune("CDBTune (cross testing)", b, baseTuner),
			cdbTune("CDBTune (normal testing)", b, normTuner),
		}, []int64{s, s + 1, s + 2, s + 3, s + 5}, func(seed int64) *env.Env {
			return newEnv(knobs.EngineCDB, inst, cat, w, seed)
		})
		if err != nil {
			return nil, err
		}
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
	repo, err := buildRepo(b, knobs.EngineCDB, inst, cat, []workload.Workload{workload.SysbenchRW()}, seed+2)
	if err != nil {
		return t, err
	}
	rwTuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, workload.SysbenchRW(), seed+10)
	if err != nil {
		return t, err
	}
	tpccTuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, target, seed+20)
	if err != nil {
		return t, err
	}
	return perfTable(t, []tuner{
		bestConfig(b, seed), expertDBA(), otterTune(b, repo, seed, false),
		cdbTune("CDBTune (M_RW→TPC-C)", b, rwTuner),
		cdbTune("CDBTune (M_TPC-C→TPC-C)", b, tpccTuner),
	}, []int64{seed, seed + 1, seed + 3, seed + 11, seed + 21}, func(s int64) *env.Env {
		return newEnv(knobs.EngineCDB, inst, cat, target, s)
	})
}
