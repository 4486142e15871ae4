package expr

import (
	"fmt"

	"cdbtune/internal/dba"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/ottertune"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Fig1AB reproduces Figure 1(a)/(b): OtterTune and OtterTune-with-deep-
// learning throughput as the training-sample count grows, against the
// MySQL-default and DBA horizontal references, on TPC-H (a) and Sysbench
// RW (b) over CDB-A. sampleCounts defaults to a compressed version of the
// paper's 1k-14k axis, scaled to what a simulator session can hold.
func Fig1AB(b Budget, sampleCounts []int) ([]Figure, error) {
	if len(sampleCounts) == 0 {
		sampleCounts = []int{50, 100, 200, 400, 800}
	}
	var figs []Figure
	for fi, w := range []workload.Workload{workload.TPCH(), workload.SysbenchRW()} {
		seed := b.Seed + int64(fi*1000)
		mkEnv := func(s int64) *env.Env {
			return newEnv(knobs.EngineCDB, simdb.CDBA, knobs.MySQL(knobs.EngineCDB), w, s)
		}
		// The horizontal references.
		base, err := engineDefault(knobs.EngineCDB).tune(mkEnv(seed))
		if err != nil {
			return nil, err
		}
		dbaPerf, err := expertDBA().tune(mkEnv(seed + 1))
		if err != nil {
			return nil, err
		}
		flat := func(name string, y float64) Series {
			s := Series{Name: name}
			for _, n := range sampleCounts {
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, y)
			}
			return s
		}

		var series []Series
		for _, dnn := range []bool{false, true} {
			var s Series
			for i, n := range sampleCounts {
				repo, err := ottertune.BuildRepository([]*env.Env{mkEnv(seed + 10 + int64(i))}, n, dba.Recommend, seed+20+int64(i))
				if err != nil {
					return nil, err
				}
				ot := otterTune(b, repo, seed+int64(i), dnn)
				perf, err := ot.tune(mkEnv(seed + 40 + int64(i)))
				if err != nil {
					return nil, err
				}
				s.Name = ot.name
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, perf.Throughput)
			}
			series = append(series, s)
		}
		figs = append(figs, Figure{
			Title:  fmt.Sprintf("Figure 1(%c): throughput vs number of samples, %s on CDB-A", 'a'+fi, w.Name),
			XLabel: "training samples",
			YLabel: "throughput (txn/sec)",
			Series: append(series, flat("MySQL Default", base.Throughput), flat("DBA", dbaPerf.Throughput)),
		})
	}
	return figs, nil
}

// Fig1C reproduces Figure 1(c): tunable knob count per CDB version.
func Fig1C() Table {
	t := Table{
		Title:  "Figure 1(c): tunable knobs by CDB version",
		Header: []string{"CDB version", "tunable knobs"},
	}
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7} {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.1f", v), fmt.Sprintf("%d", knobs.TunableKnobCount(v))})
	}
	return t
}

// Fig1D reproduces Figure 1(d): the throughput surface over two knobs
// (buffer pool size × write IO threads) under Sysbench RW on an
// 8 GB / 100 GB instance, showing the non-monotone interacting landscape.
func Fig1D(grid int) (Table, error) {
	if grid <= 0 {
		grid = 9
	}
	cat := knobs.MySQL(knobs.EngineCDB)
	w := workload.SysbenchRW()
	t := Table{
		Title:  "Figure 1(d): performance surface (throughput, txn/sec) over buffer pool × write IO threads, Sysbench RW, 8 GB RAM / 100 GB disk",
		Header: []string{"bp\\wio"},
	}
	for j := 0; j < grid; j++ {
		t.Header = append(t.Header, fmt.Sprintf("%.2f", float64(j)/float64(grid-1)))
	}
	bpIdx := cat.Index("innodb_buffer_pool_size")
	wtIdx := cat.Index("innodb_write_io_threads")
	for i := 0; i < grid; i++ {
		bp := float64(i) / float64(grid-1)
		row := []string{fmt.Sprintf("%.2f", bp)}
		for j := 0; j < grid; j++ {
			wt := float64(j) / float64(grid-1)
			db := simdb.New(knobs.EngineCDB, simdb.CDBA, 1)
			x := cat.Defaults(8, 100)
			x[bpIdx] = bp
			x[wtIdx] = wt
			if _, err := db.ApplyKnobs(cat, x); err != nil {
				return t, err
			}
			res, err := db.RunWorkload(w, 30)
			if err != nil {
				row = append(row, "crash")
				continue
			}
			row = append(row, fmt.Sprintf("%.0f", res.Ext.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table1 reproduces Table 1: the database instances and hardware matrix.
func Table1() Table {
	t := Table{
		Title:  "Table 1: database instances and hardware configuration",
		Header: []string{"Instance", "RAM (GB)", "Disk (GB)"},
	}
	for _, in := range simdb.Table1() {
		t.Rows = append(t.Rows, []string{in.Name, fmtF(in.HW.RAMGB), fmtF(in.HW.DiskGB)})
	}
	t.Rows = append(t.Rows,
		[]string{"CDB-X1", "(4, 12, 32, 64, 128)", "100"},
		[]string{"CDB-X2", "12", "(32, 64, 100, 256, 512)"},
	)
	return t
}

// Timing reproduces the §5.1.1 execution-time breakdown of one step.
func Timing() Table {
	return Table{
		Title:  "§5.1.1: execution time of one training/tuning step",
		Header: []string{"stage", "time"},
		Rows: [][]string{
			{"stress testing", fmt.Sprintf("%.2f s", simdb.StressTestSec)},
			{"metrics collection", fmt.Sprintf("%.2f ms", simdb.MetricsCollectSec*1000)},
			{"model update", fmt.Sprintf("%.2f ms", 28.76)},
			{"recommendation", fmt.Sprintf("%.2f ms", 2.16)},
			{"deployment", fmt.Sprintf("%.2f s", simdb.DeploySec)},
			{"restart (when required)", fmt.Sprintf("%.0f s", float64(simdb.RestartSec))},
		},
	}
}
