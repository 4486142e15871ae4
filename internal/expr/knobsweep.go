package expr

import (
	"fmt"
	"math/rand"

	"cdbtune/internal/dba"
	"cdbtune/internal/knobs"
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

	// One throughput and one latency series per tool, in row order.
	var tput, lat []Series
	iters := Series{Name: "CDBTune iterations"}
	for pi, n := range counts {
		if n > full.Len() {
			n = full.Len()
		}
		sub := full.Subset(perm[:n])
		seed := b.Seed + int64(4200+pi*37)
		x := float64(n)

		// CDBTune trained on the subset; for the DBA and OtterTune
		// orderings, those tools restricted to the subset too.
		model, rep, err := trainTuner(b, knobs.EngineCDB, simdb.CDBB, sub, w, seed)
		if err != nil {
			return tputFig, latFig, iterFig, err
		}
		iters.X, iters.Y = append(iters.X, x), append(iters.Y, float64(iterations(rep)))
		rows := []tuner{cdbTune("CDBTune", b, model)}
		seeds := []int64{seed + 60}
		if order != OrderRandom {
			repo, err := buildRepo(b, knobs.EngineCDB, simdb.CDBB, sub, []workload.Workload{w}, seed+62)
			if err != nil {
				return tputFig, latFig, iterFig, err
			}
			rows = append(rows, expertDBA(), otterTune(b, repo, seed, false))
			seeds = append(seeds, seed+61, seed+63)
		}
		for i, r := range rows {
			perf, err := r.tune(newEnv(knobs.EngineCDB, simdb.CDBB, sub, w, seeds[i]))
			if err != nil {
				return tputFig, latFig, iterFig, err
			}
			if pi == 0 {
				tput, lat = append(tput, Series{Name: r.name}), append(lat, Series{Name: r.name})
			}
			tput[i].X, tput[i].Y = append(tput[i].X, x), append(tput[i].Y, perf.Throughput)
			lat[i].X, lat[i].Y = append(lat[i].X, x), append(lat[i].Y, perf.Latency99)
		}
	}
	tputFig.Series, latFig.Series = tput, lat
	iterFig.Series = []Series{iters}
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
	long := b
	long.OnlineSteps = maxSteps
	var figs []Figure
	for wi, w := range []workload.Workload{workload.SysbenchRW(), workload.SysbenchRO(), workload.SysbenchWO()} {
		seed := b.Seed + int64(4500+wi*41)
		tuner, _, err := trainTuner(b, knobs.EngineCDB, simdb.CDBA, cat, w, seed)
		if err != nil {
			return nil, err
		}
		e := newEnv(knobs.EngineCDB, simdb.CDBA, cat, w, seed+70)
		res, err := onlineTune(long, tuner, e)
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
