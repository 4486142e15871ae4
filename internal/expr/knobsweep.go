package expr

import (
	"context"
	"fmt"
	"math/rand"

	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/knobs"
	"cdbtune/internal/ottertune"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// defaultKnobCounts is the compressed version of the paper's 20..266 axis
// used by the quick budget.
var defaultKnobCounts = []int{20, 60, 100, 150, 200, 266}

// KnobOrder selects the ranking behind a Figure 6/7/8 sweep.
type KnobOrder int

// Knob orderings from the paper.
const (
	OrderDBA       KnobOrder = iota // Figure 6: expert importance ranking
	OrderOtterTune                  // Figure 7: Lasso ranking
	OrderRandom                     // Figure 8: random nested subsets
)

// knobOrder computes the knob index permutation for the sweep.
func knobOrder(b Budget, order KnobOrder, cat *knobs.Catalog) ([]int, error) {
	switch order {
	case OrderDBA:
		return dba.ImportanceOrder(cat), nil
	case OrderOtterTune:
		// Rank with Lasso over a sampled repository (TPC-C on CDB-B, the
		// Figure 7 setting).
		repo, err := buildRepo(b, knobs.EngineCDB, simdb.CDBB, cat, []workload.Workload{workload.TPCC()}, b.Seed+4000)
		if err != nil {
			return nil, err
		}
		return repo.RankKnobs()
	default:
		rng := rand.New(rand.NewSource(b.Seed + 4100))
		return rng.Perm(cat.Len()), nil
	}
}

// KnobSweep runs the Figure 6/7/8 experiment: performance as the tunable
// knob count grows along the given ordering, with TPC-C on CDB-B. For the
// DBA and OtterTune orderings it also evaluates those tuners per point;
// the random ordering (Figure 8) tracks CDBTune plus its training
// iterations.
func KnobSweep(b Budget, order KnobOrder, counts []int) (Figure, Figure, Figure, error) {
	if len(counts) == 0 {
		counts = defaultKnobCounts
	}
	full := knobs.MySQL(knobs.EngineCDB)
	perm, err := knobOrder(b, order, full)
	if err != nil {
		return Figure{}, Figure{}, Figure{}, err
	}
	w := workload.TPCC()

	name := map[KnobOrder]string{
		OrderDBA:       "Figure 6 (knobs sorted by DBA)",
		OrderOtterTune: "Figure 7 (knobs sorted by OtterTune)",
		OrderRandom:    "Figure 8 (knobs randomly selected by CDBTune)",
	}[order]
	tputFig := Figure{Title: name + " — throughput", XLabel: "number of knobs", YLabel: "throughput (txn/sec)"}
	latFig := Figure{Title: name + " — latency", XLabel: "number of knobs", YLabel: "99th %-tile (ms)"}
	iterFig := Figure{Title: name + " — iterations", XLabel: "number of knobs", YLabel: "training iterations"}

	var cdbT, cdbL, dbaT, dbaL, otT, otL, iters Series
	cdbT.Name, cdbL.Name = "CDBTune", "CDBTune"
	dbaT.Name, dbaL.Name = "DBA", "DBA"
	otT.Name, otL.Name = "OtterTune", "OtterTune"
	iters.Name = "CDBTune iterations"

	for pi, n := range counts {
		if n > full.Len() {
			n = full.Len()
		}
		sub := full.Subset(perm[:n])
		seed := b.Seed + int64(4200+pi*37)
		x := float64(n)

		// CDBTune trained on the subset.
		tuner, rep, err := trainTuner(b, knobs.EngineCDB, simdb.CDBB, sub, []workload.Workload{w}, seed)
		if err != nil {
			return tputFig, latFig, iterFig, err
		}
		e := newEnv(knobs.EngineCDB, simdb.CDBB, sub, w, seed+60)
		tres, err := tuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
		if err != nil {
			return tputFig, latFig, iterFig, err
		}
		cdbT.X, cdbT.Y = append(cdbT.X, x), append(cdbT.Y, tres.BestPerf.Throughput)
		cdbL.X, cdbL.Y = append(cdbL.X, x), append(cdbL.Y, tres.BestPerf.Latency99)
		conv := rep.ConvergedAt
		if conv == 0 {
			conv = rep.Iterations
		}
		iters.X, iters.Y = append(iters.X, x), append(iters.Y, float64(conv))

		if order == OrderRandom {
			continue
		}
		// DBA restricted to the subset.
		e = newEnv(knobs.EngineCDB, simdb.CDBB, sub, w, seed+61)
		_, dperf, err := dba.Tune(e)
		if err != nil {
			return tputFig, latFig, iterFig, err
		}
		dbaT.X, dbaT.Y = append(dbaT.X, x), append(dbaT.Y, dperf.Throughput)
		dbaL.X, dbaL.Y = append(dbaL.X, x), append(dbaL.Y, dperf.Latency99)

		// OtterTune on the subset.
		repo, err := buildRepo(b, knobs.EngineCDB, simdb.CDBB, sub, []workload.Workload{w}, seed+62)
		if err != nil {
			return tputFig, latFig, iterFig, err
		}
		e = newEnv(knobs.EngineCDB, simdb.CDBB, sub, w, seed+63)
		ocfg := ottertune.DefaultConfig()
		ocfg.Steps = b.OtterTuneSteps
		ocfg.Seed = seed
		ores, err := ottertune.Tune(e, repo, ocfg)
		if err != nil {
			return tputFig, latFig, iterFig, err
		}
		otT.X, otT.Y = append(otT.X, x), append(otT.Y, ores.BestPerf.Throughput)
		otL.X, otL.Y = append(otL.X, x), append(otL.Y, ores.BestPerf.Latency99)
	}

	tputFig.Series = append(tputFig.Series, cdbT)
	latFig.Series = append(latFig.Series, cdbL)
	if order != OrderRandom {
		tputFig.Series = append(tputFig.Series, dbaT, otT)
		latFig.Series = append(latFig.Series, dbaL, otL)
	}
	iterFig.Series = append(iterFig.Series, iters)
	return tputFig, latFig, iterFig, nil
}

// Fig5 reproduces Figure 5: performance as the accumulated trying steps
// grow from 5 to maxSteps in increments of 5, for Sysbench RW/RO/WO on
// CDB-A. Per the paper's protocol the reported point at step budget k is
// the best performance within the first k online steps.
func Fig5(b Budget, maxSteps int) ([]Figure, error) {
	if maxSteps <= 0 {
		maxSteps = 50
	}
	cat := knobs.MySQL(knobs.EngineCDB)
	var figs []Figure
	for wi, w := range []workload.Workload{workload.SysbenchRW(), workload.SysbenchRO(), workload.SysbenchWO()} {
		seed := b.Seed + int64(4500+wi*41)
		tuner, _, err := trainTuner(b, knobs.EngineCDB, simdb.CDBA, cat, []workload.Workload{w}, seed)
		if err != nil {
			return nil, err
		}
		e := newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+70)
		res, err := tuner.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: maxSteps, FineTune: true})
		if err != nil {
			return nil, err
		}
		var tput, lat Series
		tput.Name, lat.Name = "CDBTune throughput", "CDBTune latency"
		bestT, bestL := res.Initial.Throughput, res.Initial.Latency99
		for i, ext := range res.History {
			if ext.Throughput > bestT {
				bestT = ext.Throughput
			}
			if ext.Latency99 < bestL {
				bestL = ext.Latency99
			}
			step := i + 1
			if step%5 == 0 {
				tput.X, tput.Y = append(tput.X, float64(step)), append(tput.Y, bestT)
				lat.X, lat.Y = append(lat.X, float64(step)), append(lat.Y, bestL)
			}
		}
		figs = append(figs,
			Figure{Title: fmt.Sprintf("Figure 5 (%s) — throughput vs steps", w.Name), XLabel: "steps", YLabel: "txn/sec", Series: []Series{tput}},
			Figure{Title: fmt.Sprintf("Figure 5 (%s) — latency vs steps", w.Name), XLabel: "steps", YLabel: "99th %-tile (ms)", Series: []Series{lat}},
		)
	}
	return figs, nil
}
