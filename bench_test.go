package cdbtune_test

// One benchmark per table and figure of the paper's evaluation (§5 and
// Appendix C), plus the DESIGN.md design-choice ablations. Each iteration
// regenerates the experiment end-to-end — training models, running
// baselines, measuring the simulated fleet — and logs the rendered
// rows/series so `go test -bench=. -benchmem` doubles as the reproduction
// run. EXPERIMENTS.md records paper-vs-measured per experiment.

import (
	"testing"

	"cdbtune/internal/expr"
)

// benchBudget is the per-bench compute budget; quick keeps the full suite
// runnable on a single core.
func benchBudget() expr.Budget { return expr.Quick() }

func logTables(b *testing.B, ts []expr.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range ts {
		b.Log("\n" + t.Render())
	}
}

func logFigs(b *testing.B, fs []expr.Figure, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fs {
		b.Log("\n" + f.Render())
	}
}

// BenchmarkFig1 regenerates Figure 1: the motivation panels — OtterTune
// (±deep learning) vs sample volume (a, b), the knob-count growth (c) and
// the 2-knob performance surface (d).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := expr.Fig1AB(benchBudget(), []int{40, 80, 160, 320})
		logFigs(b, figs, err)
		b.Log("\n" + expr.Fig1C().Render())
		t, err := expr.Fig1D(7)
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkTable1 regenerates Table 1 (instance matrix).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.Log("\n" + expr.Table1().Render())
	}
}

// BenchmarkTable2 regenerates Table 2: per-tool online tuning steps and
// virtual wall-clock time.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.Table2(benchBudget())
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkTiming regenerates the §5.1.1 execution-time breakdown.
func BenchmarkTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.Log("\n" + expr.Timing().Render())
	}
}

// BenchmarkFig5 regenerates Figure 5: performance vs accumulated trying
// steps (5..50) on the three Sysbench workloads.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := expr.Fig5(benchBudget(), 50)
		logFigs(b, figs, err)
	}
}

// BenchmarkFig6to8 regenerates Figures 6-8: performance vs tunable knob
// count under the DBA, OtterTune(Lasso) and random orderings.
func BenchmarkFig6to8(b *testing.B) {
	counts := []int{20, 60, 120, 200, 266}
	for i := 0; i < b.N; i++ {
		for _, order := range []expr.KnobOrder{expr.OrderDBA, expr.OrderOtterTune, expr.OrderRandom} {
			tput, lat, iters, err := expr.KnobSweep(benchBudget(), order, counts)
			if err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + tput.Render())
			b.Log("\n" + lat.Render())
			if order == expr.OrderRandom {
				b.Log("\n" + iters.Render())
			}
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: the six-way comparison on Sysbench
// RW/RO/WO over CDB-A.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := expr.Fig9(benchBudget())
		logTables(b, ts, err)
	}
}

// BenchmarkTable3 regenerates Table 3: CDBTune's improvement over
// BestConfig, DBA and OtterTune.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.Table3(benchBudget())
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkFig10 regenerates Figure 10: adaptability to RAM changes
// (M_8G→XG cross testing vs normal testing, Sysbench WO).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := expr.Fig10(benchBudget(), nil)
		logTables(b, ts, err)
	}
}

// BenchmarkFig11 regenerates Figure 11: adaptability to disk changes
// (M_200G→XG, Sysbench RO).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := expr.Fig11(benchBudget(), nil)
		logTables(b, ts, err)
	}
}

// BenchmarkFig12 regenerates Figure 12: workload transfer (M_RW→TPC-C).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.Fig12(benchBudget())
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkFig14 regenerates Appendix C.1.1: the reward-function ablation.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := expr.Fig14(benchBudget())
		logTables(b, ts, err)
	}
}

// BenchmarkFig15 regenerates Appendix C.1.2: the CT/CL coefficient sweep.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := expr.Fig15(benchBudget(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + f.Render())
	}
}

// BenchmarkTable6 regenerates Appendix C.2: tuning performance across
// actor/critic architectures (widths divided by 4 under the quick budget).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.Table6(benchBudget(), 4)
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkFig16to18 regenerates Appendix C.3: MongoDB (YCSB), Postgres
// (TPC-C) and local MySQL (TPC-C).
func BenchmarkFig16to18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := expr.Fig16to18(benchBudget())
		logTables(b, ts, err)
	}
}

// BenchmarkQLearnDQN regenerates the §3.3 ablation: Q-Learning and DQN
// against DDPG, and the discrete action-space blow-up.
func BenchmarkQLearnDQN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.QLearnDQN(benchBudget(), 0)
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkAblationReplay regenerates the prioritized-vs-uniform replay
// ablation (§5.1 claims prioritized replay halves convergence).
func BenchmarkAblationReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.AblationReplay(benchBudget())
		logTables(b, []expr.Table{t}, err)
	}
}

// BenchmarkAblationAction regenerates the action-representation ablation
// (absolute full-vector actions, §3.2, vs incremental deltas).
func BenchmarkAblationAction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := expr.AblationAction(benchBudget())
		logTables(b, []expr.Table{t}, err)
	}
}
