package expr

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"cdbtune/internal/core"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// TimelineTelemetry exercises the dynamic-serving layer over a compressed
// 24-hour tenant day (workload.Diurnal24): a model trained on the steady
// base workload serves the timeline with the drift detector live, re-tuning
// in place each time the streamed metric fingerprint diverges from what the
// serving configuration was tuned for; a control run over the same day and
// seeds has the detector disabled, so its configuration goes stale as the
// phases shift. The tables report per-phase throughput for both runs, every
// drift-triggered re-tune (stale vs re-tuned throughput), and the safety
// accounting — the acceptance bar is at least one improving re-tune and
// zero unreverted guardrail violations. The figure plots both throughput
// curves against the scaled load curve, hour by simulated hour.
func TimelineTelemetry(b Budget) ([]Table, Figure, error) {
	var fig Figure
	// A compact knob subset keeps training in budget; the serving loop and
	// detector are what's under measurement, not the policy.
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 10)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)
	inst, base := simdb.Table1()[0], workload.SysbenchRW()

	// Train the serving model on the stationary base profile — the
	// workload the tenant looked like before the day started.
	tuner, _, err := trainTuner(b, knobs.EngineCDB, inst, cat, base, b.Seed)
	if err != nil {
		return nil, fig, err
	}

	// A throwaway registry holding the trained model gives the drift path
	// a warm-seed candidate, exercising the fingerprint lookup end to end.
	regDir, err := os.MkdirTemp("", "cdbtune-timeline-*")
	if err != nil {
		return nil, fig, err
	}
	defer os.RemoveAll(regDir)
	reg, err := registry.Open(regDir, registry.WithLogf(func(string, ...any) {}))
	if err != nil {
		return nil, fig, err
	}
	baseEnv := newEnv(knobs.EngineCDB, inst, cat, base, b.Seed)
	baseRes, err := baseEnv.Measure()
	if err != nil {
		return nil, fig, err
	}
	var buf bytes.Buffer
	if err := tuner.Save(&buf); err != nil {
		return nil, fig, err
	}
	stored, err := reg.Put(registry.Meta{
		Workload: base.Name, Instance: inst.Name,
		Fingerprint: registry.Fingerprint(baseRes.State, base, inst.HW),
	}, buf.Bytes())
	if err != nil {
		return nil, fig, err
	}

	serve := func(t *core.Tuner, threshold float64, warm bool) (core.DynamicReport, error) {
		e := newEnv(knobs.EngineCDB, inst, cat, base, b.Seed+1)
		e.Timeline = workload.Diurnal24(base)
		// Half the default compression: a re-tune (a few virtual minutes of
		// stress tests, deploys and restarts) then costs ~4 simulated hours
		// instead of ~9, so the drift-aware run still samples most of the
		// day's phases between re-tunes.
		e.Timeline.TimeScale = 30
		opts := core.DynamicOptions{
			HorizonHours: e.Timeline.TotalHours(),
			Drift:        core.DriftConfig{Threshold: threshold},
			ReTuneSteps:  3,
			FineTune:     true,
		}
		if warm {
			opts.WarmSeed = func(state []float64, w workload.Workload) (string, bool) {
				fp := registry.Fingerprint(state, w, inst.HW)
				mt, ok := reg.NearestWithin(fp, 0.5)
				if !ok {
					return "", false
				}
				if lerr := t.Load(bytes.NewReader(mt.Model)); lerr != nil {
					return "", false
				}
				return mt.Meta.ID, true
			}
		}
		return t.ServeDynamic(e, opts)
	}

	// Drift-aware run, then the stale-config control: an identically
	// trained model over the identical day with the detector muted (a
	// threshold no EWMA can reach).
	rep, err := serve(tuner, 0, true)
	if err != nil {
		return nil, fig, err
	}
	control, err := core.New(warmConfig(b, cat, inst))
	if err != nil {
		return nil, fig, err
	}
	if err := control.Load(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, fig, err
	}
	staleRep, err := serve(control, math.Inf(1), false)
	if err != nil {
		return nil, fig, err
	}

	type phaseAgg struct {
		load, tuned, stale float64
		nT, nS             int
	}
	var order []string
	agg := map[string]*phaseAgg{}
	get := func(phase string) *phaseAgg {
		a := agg[phase]
		if a == nil {
			a = &phaseAgg{}
			agg[phase] = a
			order = append(order, phase)
		}
		return a
	}
	for _, s := range rep.Samples {
		a := get(s.Phase)
		a.load += s.Load
		a.tuned += s.Ext.Throughput
		a.nT++
	}
	for _, s := range staleRep.Samples {
		a := get(s.Phase)
		a.stale += s.Ext.Throughput
		a.nS++
	}

	phases := Table{
		Title:  "Per-phase throughput over a compressed 24h day (diurnal24; drift-aware vs stale config)",
		Header: []string{"phase", "mean load", "drift-aware tx/s", "stale tx/s", "delta"},
	}
	for _, name := range order {
		a := agg[name]
		tuned, stale := "-", "-"
		delta := "-"
		if a.nT > 0 {
			tuned = fmtF(a.tuned / float64(a.nT))
		}
		if a.nS > 0 {
			stale = fmtF(a.stale / float64(a.nS))
		}
		if a.nT > 0 && a.nS > 0 && a.stale > 0 {
			delta = fmtPct((a.tuned/float64(a.nT))/(a.stale/float64(a.nS)) - 1)
		}
		load := "-"
		if a.nT > 0 {
			load = fmt.Sprintf("%.2f", a.load/float64(a.nT))
		}
		phases.Rows = append(phases.Rows, []string{name, load, tuned, stale, delta})
	}

	retunes := Table{
		Title:  "Drift-triggered re-tunes (warm seed = registry nearest-model lookup)",
		Header: []string{"hour", "phase", "seed", "stale tx/s", "re-tuned tx/s", "delta", "reverts", "vetoes", "cost (vmin)"},
	}
	for _, rt := range rep.Retunes {
		delta := "-"
		if rt.Stale.Throughput > 0 {
			delta = fmtPct(rt.Tuned.Throughput/rt.Stale.Throughput - 1)
		}
		seed := rt.Seed
		if seed == "" {
			seed = "in-place"
		} else if seed == stored.ID {
			seed += " (base model)"
		}
		retunes.Rows = append(retunes.Rows, []string{
			fmt.Sprintf("%.1f", rt.Hour), rt.Phase, seed,
			fmtF(rt.Stale.Throughput), fmtF(rt.Tuned.Throughput), delta,
			fmt.Sprintf("%d", rt.Reverts), fmt.Sprintf("%d", rt.Vetoes),
			fmt.Sprintf("%.1f", rt.Seconds/60),
		})
	}

	summary := Table{
		Title:  "Dynamic serving summary (zero unreverted violations is the safety bar)",
		Header: []string{"metric", "drift-aware", "stale control"},
		Rows: [][]string{
			{"mean throughput (tx/s)", fmtF(rep.MeanThroughput()), fmtF(staleRep.MeanThroughput())},
			{"drifts detected", fmt.Sprintf("%d", rep.Drifts), fmt.Sprintf("%d", staleRep.Drifts)},
			{"re-tunes", fmt.Sprintf("%d", len(rep.Retunes)), fmt.Sprintf("%d", len(staleRep.Retunes))},
			{"reverts", fmt.Sprintf("%d", rep.Reverts), fmt.Sprintf("%d", staleRep.Reverts)},
			{"crashes", fmt.Sprintf("%d", rep.Crashes), fmt.Sprintf("%d", staleRep.Crashes)},
			{"unreverted violations", fmt.Sprintf("%d", rep.Unreverted), fmt.Sprintf("%d", staleRep.Unreverted)},
			{"simulated hours served", fmt.Sprintf("%.1f", rep.Hours), fmt.Sprintf("%.1f", staleRep.Hours)},
			{"virtual cost (minutes)", fmt.Sprintf("%.1f", rep.Seconds/60), fmt.Sprintf("%.1f", staleRep.Seconds/60)},
		},
	}

	// The load curve shares the throughput axis by scaling its 0.35–2.2×
	// multiplier range up to the drift-aware peak, so all three shapes are
	// comparable in one plot.
	peak, maxLoad := 0.0, 0.0
	for _, s := range rep.Samples {
		peak = math.Max(peak, s.Ext.Throughput)
		maxLoad = math.Max(maxLoad, s.Load)
	}
	if maxLoad == 0 {
		maxLoad = 1
	}
	tunedSeries := Series{Name: "drift-aware throughput"}
	loadSeries := Series{Name: fmt.Sprintf("load curve (scaled x%.0f)", peak/maxLoad)}
	for _, s := range rep.Samples {
		tunedSeries.X = append(tunedSeries.X, s.Hour)
		tunedSeries.Y = append(tunedSeries.Y, s.Ext.Throughput)
		loadSeries.X = append(loadSeries.X, s.Hour)
		loadSeries.Y = append(loadSeries.Y, s.Load/maxLoad*peak)
	}
	staleSeries := Series{Name: "stale-config throughput"}
	for _, s := range staleRep.Samples {
		staleSeries.X = append(staleSeries.X, s.Hour)
		staleSeries.Y = append(staleSeries.Y, s.Ext.Throughput)
	}
	fig = Figure{
		Title:  "Throughput tracking the compressed 24h load curve (re-tunes at drift marks)",
		XLabel: "simulated hour",
		YLabel: "txn/sec",
		Series: []Series{tunedSeries, staleSeries, loadSeries},
	}
	return []Table{phases, retunes, summary}, fig, nil
}
