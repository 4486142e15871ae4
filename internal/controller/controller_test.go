package controller

import (
	"bytes"
	"context"
	"math"
	"testing"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func testTuner(t *testing.T) (*core.Tuner, *knobs.Catalog) {
	t.Helper()
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)
	cfg := core.DefaultConfig(cat)
	d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
	d.ActorHidden = []int{24, 24}
	d.CriticHidden = []int{32, 24}
	cfg.DDPG = d
	cfg.StepsPerEpisode = 6
	cfg.UpdatesPerStep = 1
	tn, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tn, cat
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing tuner must error")
	}
	tn, _ := testTuner(t)
	c, err := New(Config{Tuner: tn})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.CaptureSec != 150 || c.cfg.OnlineSteps != 5 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
}

func TestTuningRequestEndToEnd(t *testing.T) {
	tn, cat := testTuner(t)
	// A little training so the tuner has a remembered best.
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(100+ep))
		return env.New(db, cat, workload.SysbenchRW())
	}
	if _, err := tn.OfflineTrainOpts(mk, core.TrainOptions{Episodes: 4}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Tuner: tn, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 999)
	res, err := c.HandleTuningRequestCtx(context.Background(), db, workload.SysbenchRW())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approved {
		t.Fatal("auto-approver must approve")
	}
	if res.Replayed.Name != "replayed" {
		t.Fatalf("request did not replay the captured workload: %q", res.Replayed.Name)
	}
	if res.Replayed.ReadFraction < 0.6 || res.Replayed.ReadFraction > 0.8 {
		t.Fatalf("replayed profile lost the RW mix: %v", res.Replayed.ReadFraction)
	}
	if len(res.Values) != cat.Len() {
		t.Fatalf("values dim %d", len(res.Values))
	}
	if c.Requests() != 1 {
		t.Fatalf("Requests = %d", c.Requests())
	}
}

func TestRejectionRollsBack(t *testing.T) {
	tn, cat := testTuner(t)
	// Impossible threshold: nothing is ever approved.
	c, err := New(Config{Tuner: tn, Approver: ThresholdApprover{MinImprovement: 1e9}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 42)
	hw := db.Instance().HW
	before := cat.Denormalize(db.CurrentKnobs(cat), hw.RAMGB, hw.DiskGB)
	res, err := c.HandleTuningRequestCtx(context.Background(), db, workload.TPCC())
	if err != nil {
		t.Fatal(err)
	}
	if res.Approved {
		t.Fatal("threshold approver should have rejected")
	}
	after := cat.Denormalize(db.CurrentKnobs(cat), hw.RAMGB, hw.DiskGB)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("knob %s not rolled back: %v vs %v", cat.Knobs[i].Name, after[i], before[i])
		}
	}
}

func TestThresholdApprover(t *testing.T) {
	a := ThresholdApprover{MinImprovement: 0.05}
	if a.Approve(nil, nil, 0.04) {
		t.Fatal("should reject below threshold")
	}
	if !a.Approve(nil, nil, 0.06) {
		t.Fatal("should approve above threshold")
	}
}

func TestTrainingRequest(t *testing.T) {
	tn, cat := testTuner(t)
	c, err := New(Config{Tuner: tn})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(500+ep))
		return env.New(db, cat, workload.SysbenchWO())
	}
	rep, err := c.HandleTrainingRequest(mk, core.TrainOptions{Episodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 3 {
		t.Fatalf("Episodes = %d", rep.Episodes)
	}
	// Parallel path.
	rep, err = c.HandleTrainingRequest(mk, core.TrainOptions{Episodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 4 {
		t.Fatalf("parallel Episodes = %d", rep.Episodes)
	}
}

// TestModelPersistence round-trips the model across a controller restart:
// the second controller's tuner loads what the first one's saved, and both
// then serve the same request identically.
func TestModelPersistence(t *testing.T) {
	tn, _ := testTuner(t)
	c, err := New(Config{Tuner: tn})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tn2, _ := testTuner(t)
	c2, err := New(Config{Tuner: tn2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	s := make([]float64, metrics.NumMetrics)
	a, b := tn.Agent().Act(s), tn2.Agent().Act(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("model differs after reload")
		}
	}
	serve := func(c *Controller) RequestResult {
		res, err := c.HandleTuningRequestCtx(context.Background(), simdb.New(knobs.EngineCDB, simdb.CDBA, 31), workload.SysbenchRW())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := serve(c), serve(c2)
	if r1.BestPerf != r2.BestPerf || r1.Improvement != r2.Improvement {
		t.Fatalf("restarted controller serves differently: %+v vs %+v", r1.BestPerf, r2.BestPerf)
	}
}

// zeroDB is an instance whose stress tests measure no throughput at all.
type zeroDB struct{ env.Database }

func (d zeroDB) RunWorkload(w workload.Workload, sec float64) (simdb.Result, error) {
	res, err := d.Database.RunWorkload(w, sec)
	res.Ext.Throughput = 0
	return res, err
}

// spyApprover records the improvement the license step was shown.
type spyApprover struct {
	ThresholdApprover
	saw *float64
}

func (a spyApprover) Approve(cat *knobs.Catalog, values []float64, improvement float64) bool {
	*a.saw = improvement
	return a.ThresholdApprover.Approve(cat, values, improvement)
}

// TestImprovementGuardsZeroBaseline pins the one place the relative
// improvement is computed: a baseline of 0 tx/s must reach the Approver
// (and RequestResult.Improvement) as 0, not as the ±Inf/NaN of a division
// by zero — +Inf would sail past every ThresholdApprover.
func TestImprovementGuardsZeroBaseline(t *testing.T) {
	tn, _ := testTuner(t)
	saw := math.NaN()
	c, err := New(Config{Tuner: tn, Approver: spyApprover{ThresholdApprover{MinImprovement: 0.05}, &saw}})
	if err != nil {
		t.Fatal(err)
	}
	db := zeroDB{simdb.New(knobs.EngineCDB, simdb.CDBA, 41)}
	res, err := c.HandleTuningRequestCtx(context.Background(), db, workload.SysbenchRW())
	if err != nil {
		t.Fatal(err)
	}
	if saw != 0 || res.Improvement != 0 {
		t.Fatalf("approver saw %v, result carries %v; want 0 and 0", saw, res.Improvement)
	}
	if res.Approved {
		t.Fatal("a +5% threshold must not approve an unmeasurable improvement")
	}
}
