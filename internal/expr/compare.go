package expr

import (
	"context"
	"fmt"

	"cdbtune/internal/bestconfig"
	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/ottertune"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// sixWay runs the paper's standard comparison (Figures 9, 16, 17, 18):
// engine defaults, CDB defaults, BestConfig, DBA, OtterTune and CDBTune on
// one workload/instance, returning (throughput, latency99) per tuner.
type sixWayResult struct {
	Names []string
	Perf  []metrics.External
}

func runSixWay(b Budget, engine knobs.Engine, inst simdb.Instance, w workload.Workload, tuner *core.Tuner, repo *ottertune.Repository, seed int64) (sixWayResult, error) {
	var out sixWayResult
	add := func(name string, p metrics.External) {
		out.Names = append(out.Names, name)
		out.Perf = append(out.Perf, p)
	}
	cat := tuner.Config().Cat

	// Engine defaults.
	e := newEnv(engine, inst, cat, w, seed)
	base, err := e.Measure()
	if err != nil {
		return out, err
	}
	add(engine.String()+" default", base.Ext)

	// CDB shipped defaults.
	e = newEnv(engine, inst, cat, w, seed+1)
	res, err := e.Step(cdbDefault(e))
	if err != nil {
		return out, err
	}
	add("CDB default", res.Ext)

	// BestConfig.
	e = newEnv(engine, inst, cat, w, seed+2)
	bcfg := bestconfig.DefaultConfig()
	bcfg.Budget = b.BestConfigSteps
	bcfg.Seed = seed
	bres, err := bestconfig.Tune(e, bcfg)
	if err != nil {
		return out, err
	}
	add("BestConfig", bres.BestPerf)

	// DBA.
	e = newEnv(engine, inst, cat, w, seed+3)
	_, dperf, err := dba.Tune(e)
	if err != nil {
		return out, err
	}
	add("DBA", dperf)

	// OtterTune.
	e = newEnv(engine, inst, cat, w, seed+4)
	ocfg := ottertune.DefaultConfig()
	ocfg.Steps = b.OtterTuneSteps
	ocfg.Seed = seed
	ores, err := ottertune.Tune(e, repo, ocfg)
	if err != nil {
		return out, err
	}
	add("OtterTune", ores.BestPerf)

	// CDBTune: the 5-step online protocol with fine-tuning.
	e = newEnv(engine, inst, cat, w, seed+5)
	tres, err := tuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
	if err != nil {
		return out, err
	}
	add("CDBTune", tres.BestPerf)
	return out, nil
}

// fig9Cache memoizes Fig9 runs per budget: the experiment is
// deterministic in (budget name, seed), and Table 3 is derived from the
// same data.
var fig9Cache = map[string][]Table{}

// Fig9 reproduces Figure 9: throughput and 99th-percentile latency for
// Sysbench RW, RO and WO on CDB-A across the six settings.
func Fig9(b Budget) ([]Table, error) {
	key := fmt.Sprintf("%s/%d/%d", b.Name, b.Seed, b.Episodes)
	if cached, ok := fig9Cache[key]; ok {
		return cached, nil
	}
	tables, err := fig9Run(b)
	if err == nil {
		fig9Cache[key] = tables
	}
	return tables, err
}

func fig9Run(b Budget) ([]Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	ws := []workload.Workload{workload.SysbenchRW(), workload.SysbenchRO(), workload.SysbenchWO()}
	repo, err := buildRepo(b, knobs.EngineCDB, simdb.CDBA, cat, ws, b.Seed+500)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for wi, w := range ws {
		tuner, _, err := trainTuner(b, knobs.EngineCDB, simdb.CDBA, cat, []workload.Workload{w}, b.Seed+int64(wi*100))
		if err != nil {
			return nil, err
		}
		six, err := runSixWay(b, knobs.EngineCDB, simdb.CDBA, w, tuner, repo, b.Seed+int64(wi*100)+50)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title:  fmt.Sprintf("Figure 9 (%s on CDB-A)", w.Name),
			Header: []string{"tuner", "throughput (txn/sec)", "99th %-tile latency (ms)"},
		}
		for i, n := range six.Names {
			t.Rows = append(t.Rows, []string{n, fmtF(six.Perf[i].Throughput), fmtF(six.Perf[i].Latency99)})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Table3 reproduces Table 3: CDBTune's throughput gain and latency
// reduction relative to BestConfig, DBA and OtterTune for Sysbench RW, RO
// and WO. It reuses the Figure 9 runs.
func Table3(b Budget) (Table, error) {
	tables, err := Fig9(b)
	if err != nil {
		return Table{}, err
	}
	out := Table{
		Title: "Table 3: CDBTune improvement over BestConfig / DBA / OtterTune",
		Header: []string{"workload",
			"T vs BestConfig", "L vs BestConfig",
			"T vs DBA", "L vs DBA",
			"T vs OtterTune", "L vs OtterTune"},
	}
	parse := func(t Table, tuner string) (tp, lat float64) {
		for _, row := range t.Rows {
			if row[0] == tuner {
				fmt.Sscanf(row[1], "%f", &tp)
				fmt.Sscanf(row[2], "%f", &lat)
			}
		}
		return tp, lat
	}
	names := []string{"rw", "ro", "wo"}
	for i, t := range tables {
		ct, cl := parse(t, "CDBTune")
		row := []string{names[i]}
		for _, other := range []string{"BestConfig", "DBA", "OtterTune"} {
			ot, ol := parse(t, other)
			row = append(row, fmtPct(ct/ot-1), fmtPct(1-cl/ol))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig16to18 reproduces Appendix C.3: the six-way comparison on MongoDB
// (YCSB, CDB-E), Postgres (TPC-C, CDB-D) and local MySQL (TPC-C, CDB-C).
func Fig16to18(b Budget) ([]Table, error) {
	cases := []struct {
		title  string
		engine knobs.Engine
		inst   simdb.Instance
		w      workload.Workload
	}{
		{"Figure 16: YCSB on MongoDB (CDB-E, 232 knobs)", knobs.EngineMongoDB, simdb.CDBE, workload.YCSB()},
		{"Figure 17: TPC-C on Postgres (CDB-D, 169 knobs)", knobs.EnginePostgres, simdb.CDBD, workload.TPCC()},
		{"Figure 18: TPC-C on local MySQL (CDB-C)", knobs.EngineLocalMySQL, simdb.CDBC, workload.TPCC()},
	}
	var tables []Table
	for ci, c := range cases {
		cat := knobs.ForEngine(c.engine)
		seed := b.Seed + int64(2000+ci*100)
		repo, err := buildRepo(b, c.engine, c.inst, cat, []workload.Workload{c.w}, seed)
		if err != nil {
			return nil, err
		}
		tuner, _, err := trainTuner(b, c.engine, c.inst, cat, []workload.Workload{c.w}, seed+10)
		if err != nil {
			return nil, err
		}
		six, err := runSixWay(b, c.engine, c.inst, c.w, tuner, repo, seed+60)
		if err != nil {
			return nil, err
		}
		t := Table{Title: c.title, Header: []string{"tuner", "throughput", "latency99 (ms)"}}
		for i, n := range six.Names {
			t.Rows = append(t.Rows, []string{n, fmtF(six.Perf[i].Throughput), fmtF(six.Perf[i].Latency99)})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Table2 reproduces Table 2: steps and wall-clock time per online tuning
// request for each tool, measured on the virtual clock.
func Table2(b Budget) (Table, error) {
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()
	out := Table{
		Title:  "Table 2: online tuning steps and time per request",
		Header: []string{"tuning tool", "total steps", "total time (min)"},
	}

	// CDBTune: 5 recommendation steps with a pre-trained model.
	tuner, _, err := trainTuner(b, knobs.EngineCDB, simdb.CDBA, cat, []workload.Workload{w}, b.Seed+3000)
	if err != nil {
		return out, err
	}
	e := newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+3050)
	tres, err := tuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, []string{"CDBTune", fmt.Sprintf("%d", b.OnlineSteps), fmtF(tres.Seconds / 60)})

	// OtterTune: trains/fits per request, 11 steps.
	repo, err := buildRepo(b, knobs.EngineCDB, simdb.CDBA, cat, []workload.Workload{w}, b.Seed+3100)
	if err != nil {
		return out, err
	}
	e = newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+3150)
	ocfg := ottertune.DefaultConfig()
	ocfg.Steps = b.OtterTuneSteps
	if _, err := ottertune.Tune(e, repo, ocfg); err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, []string{"OtterTune", fmt.Sprintf("%d", b.OtterTuneSteps), fmtF(e.Clock.Minutes())})

	// BestConfig: 50-step search from scratch.
	e = newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+3200)
	bcfg := bestconfig.DefaultConfig()
	bcfg.Budget = b.BestConfigSteps
	if _, err := bestconfig.Tune(e, bcfg); err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, []string{"BestConfig", fmt.Sprintf("%d", b.BestConfigSteps), fmtF(e.Clock.Minutes())})

	// DBA: one expert pass, 8.6 hours.
	e = newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, b.Seed+3300)
	if _, _, err := dba.Tune(e); err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, []string{"DBA", "1", fmtF(e.Clock.Minutes())})
	return out, nil
}
