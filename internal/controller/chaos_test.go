package controller

import (
	"context"
	"path/filepath"
	"testing"

	"cdbtune/internal/chaos"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// A tuning request served during a crash storm must leave the tenant on
// the best-known-good configuration — here the pre-request one, since
// every recommendation crashes — and report the guardrail's reverts.
func TestTuningRequestSurvivesCrashStorm(t *testing.T) {
	tn, cat := testTuner(t)
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(200+ep))
		return env.New(db, cat, workload.SysbenchRW())
	}
	if _, err := tn.OfflineTrainOpts(mk, core.TrainOptions{Episodes: 3}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Tuner: tn, Seed: 1, GuardK: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Run 1 is the request's baseline measurement; every later stress
	// test crashes.
	in := chaos.New(chaos.Config{Seed: 5, CrashStormAtRun: 2, CrashStormRuns: 500})
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 888)
	before := db.CurrentKnobs(cat)

	res, err := c.HandleTuningRequestCtx(context.Background(), in.Wrap(db), workload.SysbenchRW())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("storm did not bite — test is vacuous")
	}
	if res.Reverts == 0 {
		t.Fatal("guardrail never reverted during the storm")
	}
	got := db.CurrentKnobs(cat)
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("knob %d left at %v, want pre-request %v — tenant must end on best-known-good", i, got[i], before[i])
		}
	}
	if _, _, regions := c.Guardrail().Stats(); regions == 0 {
		t.Fatal("crash regions were not recorded for future requests")
	}
}

// TestChaosSmoke is the `make chaos-smoke` scenario: a seeded run with
// every fault class enabled flows through offline training (killed and
// resumed from its checkpoint) and a served tuning request, and the fault
// accounting surfaces in the reports.
func TestChaosSmoke(t *testing.T) {
	tn, cat := testTuner(t)
	w := workload.SysbenchRW()

	in := chaos.New(chaos.Config{
		Seed:          42,
		TransientProb: 0.05,
		ApplyFailProb: 0.03,
		StallProb:     0.05,
		StallSec:      30,
		DropoutProb:   0.05,
		CrashProb:     0.02,
	})
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(300+ep))
		return env.New(in.Wrap(db), cat, w)
	}

	// Train under chaos with checkpointing, "kill" the process halfway,
	// and resume: the resumed run's episode accounting must match the
	// full budget.
	const episodes, killAfter = 6, 3
	ck := &core.Checkpointer{Path: filepath.Join(t.TempDir(), "smoke.ckpt"), Every: 1}
	c, err := New(Config{Tuner: tn, Seed: 7, GuardK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.HandleTrainingRequest(mk, core.TrainOptions{
		Episodes: killAfter, Checkpoint: ck,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.HandleTrainingRequest(mk, core.TrainOptions{
		Episodes: episodes, Checkpoint: ck, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != episodes || !rep.Resumed || rep.ResumedEpisodes != killAfter {
		t.Fatalf("resume accounting: episodes %d resumed %v/%d, want %d/%d",
			rep.Episodes, rep.Resumed, rep.ResumedEpisodes, episodes, killAfter)
	}
	if !rep.Faults.Any() && rep.Crashes == 0 {
		t.Fatal("chaos config injected nothing — smoke test is vacuous")
	}

	// Serve a tuning request against a chaotic instance.
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 777)
	res, err := c.HandleTuningRequestCtx(context.Background(), in.Wrap(db), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 && res.SkippedSteps == 0 && res.Crashes == 0 {
		t.Fatal("request made no progress at all")
	}
	cnt := in.Counters()
	if cnt.Transients+cnt.Stalls+cnt.Dropouts+cnt.Crashes+cnt.ApplyFails == 0 {
		t.Fatalf("injector never fired: %+v", cnt)
	}
}
