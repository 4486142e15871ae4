package expr

import (
	"fmt"

	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// CrossEngine runs the same train-then-tune protocol against every engine
// family in one invocation — the two MySQL flavors' stand-in (CDB), the
// document store, the row store and the LSM engine — and reports default
// vs tuned externals side by side. One table answers the architectural
// question the engine abstraction exists for: does the tuner improve every
// engine family it can open, without engine-specific code?
//
// knobCap > 0 restricts each engine to the first knobCap knobs of its
// catalog (the major knobs lead every catalog); 0 tunes the full catalog.
func CrossEngine(b Budget, knobCap int) (Table, error) {
	cases := []struct {
		engine knobs.Engine
		inst   simdb.Instance
		w      workload.Workload
	}{
		{knobs.EngineCDB, simdb.CDBA, workload.SysbenchRW()},
		{knobs.EngineMongoDB, simdb.CDBE, workload.YCSB()},
		{knobs.EnginePostgres, simdb.CDBD, workload.TPCC()},
		{knobs.EngineLSM, simdb.CDBC, workload.YCSB()},
	}
	out := Table{
		Title: "Cross-engine: one tuner, four engine families",
		Header: []string{"engine", "instance", "workload", "knobs",
			"default tput", "tuned tput", "Δtput", "default p99 (ms)", "tuned p99 (ms)"},
	}
	for ci, c := range cases {
		cat := knobs.ForEngine(c.engine)
		if knobCap > 0 && cat.Len() > knobCap {
			idx := make([]int, knobCap)
			for i := range idx {
				idx[i] = i
			}
			cat = cat.Subset(idx)
		}
		seed := b.Seed + int64(7000+ci*100)

		// Defaults reference on a fresh instance.
		base, err := newEnv(c.engine, c.inst, cat, c.w, seed).Measure()
		if err != nil {
			return out, fmt.Errorf("%s defaults: %w", c.engine, err)
		}

		tuner, _, err := trainTuner(b, c.engine, c.inst, cat, c.w, seed+10)
		if err != nil {
			return out, fmt.Errorf("%s train: %w", c.engine, err)
		}
		res, err := onlineTune(b, tuner, newEnv(c.engine, c.inst, cat, c.w, seed+90))
		if err != nil {
			return out, fmt.Errorf("%s tune: %w", c.engine, err)
		}
		out.Rows = append(out.Rows, []string{
			c.engine.String(), c.inst.Name, c.w.Name, fmt.Sprintf("%d", cat.Len()),
			fmtF(base.Ext.Throughput), fmtF(res.BestPerf.Throughput),
			fmtPct(res.BestPerf.Throughput/base.Ext.Throughput - 1),
			fmtF(base.Ext.Latency99), fmtF(res.BestPerf.Latency99),
		})
	}
	return out, nil
}
