package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cdbtune/internal/chaos"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// supervisorTestAgent is a tiny agent for driving Supervisor.observe
// directly with synthetic health signals.
func supervisorTestAgent() *ddpg.Agent {
	cfg := ddpg.DefaultConfig(8, 4)
	cfg.ActorHidden = []int{8, 8}
	cfg.CriticHidden = []int{16, 8}
	return ddpg.New(cfg)
}

func TestSupervisorNonFiniteBudget(t *testing.T) {
	a := supervisorTestAgent()
	s := newSupervisor(SupervisorConfig{NonFiniteBudget: 3, HealBudget: 5}, a, 20)
	bad := ddpg.StepInfo{SkippedNonFinite: true, CriticLoss: math.NaN()}
	if err := s.observe(bad); err != nil {
		t.Fatal(err)
	}
	if err := s.observe(bad); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Heals != 0 {
		t.Fatal("healed before the non-finite budget was spent")
	}
	if err := s.observe(bad); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Heals != 1 {
		t.Fatalf("Heals = %d after 3 consecutive non-finite batches, want 1", st.Heals)
	}
	if st.SkippedBatches != 3 {
		t.Fatalf("SkippedBatches = %d, want 3", st.SkippedBatches)
	}
	if st.LRScale >= 1 {
		t.Fatalf("heal must back the learning rate off, LRScale = %v", st.LRScale)
	}
}

func TestSupervisorQExplosionAndBudgetExhaustion(t *testing.T) {
	a := supervisorTestAgent()
	s := newSupervisor(SupervisorConfig{WarmupSteps: 2, HealBudget: 1, QLimit: 100}, a, 20)
	healthy := ddpg.StepInfo{CriticLoss: 0.1, CriticGradNorm: 1, MeanAbsQ: 5, MaxWeight: 0.5}
	for i := 0; i < 4; i++ {
		if err := s.observe(healthy); err != nil {
			t.Fatal(err)
		}
	}
	exploding := healthy
	exploding.MeanAbsQ = 5000 // instant trip: > 10 × QLimit
	if err := s.observe(exploding); err != nil {
		t.Fatalf("first divergence must heal, not abort: %v", err)
	}
	if s.Stats().Heals != 1 {
		t.Fatalf("Heals = %d, want 1", s.Stats().Heals)
	}
	// Re-warm, then diverge again: the budget (1) is now spent.
	for i := 0; i < 3; i++ {
		if err := s.observe(healthy); err != nil {
			t.Fatal(err)
		}
	}
	err := s.observe(exploding)
	var dErr *DivergenceError
	if !errors.As(err, &dErr) {
		t.Fatalf("exhausted budget must return *DivergenceError, got %v", err)
	}
	d := dErr.Diagnosis
	if d.Reason != "q-explosion" || d.Heals != 2 || d.Step == 0 || d.QLimit != 100 {
		t.Fatalf("diagnosis incomplete: %+v", d)
	}
	if s.Diagnosis() == nil || s.Stats().Healthy {
		t.Fatal("supervisor must record the post-mortem and report unhealthy")
	}
}

// divergentConfig is testConfig with the critic learning rate cranked far
// past stability — the classic runaway-critic divergence, injected
// learner-side so it fires deterministically.
func divergentConfig(t *testing.T, cat *knobs.Catalog, criticLR float64) Config {
	cfg := testConfig(t, cat)
	cfg.DDPG.CriticLR = criticLR
	cfg.Seed = 7
	cfg.DDPG.Seed = 7
	return cfg
}

// TestDivergenceHealsAndConverges is the headline robustness property: a
// seeded critic divergence is detected, rolled back, and — because every
// heal halves the learning rate — the run finishes healthy with the heal
// counter advanced and finite weights.
func TestDivergenceHealsAndConverges(t *testing.T) {
	cat := testCat(t)
	tn, err := New(divergentConfig(t, cat, 25))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 300), TrainOptions{
		Episodes: 30,
		Supervisor: SupervisorConfig{
			HealBudget:  20,
			WarmupSteps: 8,
			// Roll back to the pristine initial weights every time: with the
			// critic diverging from step one, any mid-run snapshot would be
			// taken during a healthy-looking but already-inflating phase.
			SnapshotEvery: 1 << 20,
			LRBackoff:     0.2,
		},
	})
	if err != nil {
		t.Fatalf("supervised run must heal its way through, got: %v", err)
	}
	if !rep.Learner.Supervised {
		t.Fatal("report must mark the run as supervised")
	}
	if rep.Learner.Heals == 0 {
		t.Fatal("a critic LR of 25 must trip the supervisor at least once")
	}
	if !rep.Learner.Healthy {
		t.Fatalf("run ended unhealthy: %s", rep.Learner.Diagnosis)
	}
	if rep.Learner.LRScale >= 1 {
		t.Fatalf("heals must have backed the learning rate off, LRScale = %v", rep.Learner.LRScale)
	}
	if rep.Episodes != 30 {
		t.Fatalf("Episodes = %d, want 30", rep.Episodes)
	}
	// The healed model must be finite end to end.
	state := make([]float64, metrics.NumMetrics)
	for _, v := range tn.Agent().Act(state) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("healed policy emits non-finite actions")
		}
	}
}

// TestDivergenceBudgetAborts: with no heal budget, the first divergence
// aborts with a structured diagnosis instead of returning a garbage model.
func TestDivergenceBudgetAborts(t *testing.T) {
	cat := testCat(t)
	tn, err := New(divergentConfig(t, cat, 25))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 300), TrainOptions{
		Episodes: 30,
		Supervisor: SupervisorConfig{
			HealBudget:  -1, // abort on the first divergence
			WarmupSteps: 8,
		},
	})
	var dErr *DivergenceError
	if !errors.As(err, &dErr) {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	if dErr.Diagnosis.Reason == "" || dErr.Diagnosis.Step == 0 {
		t.Fatalf("diagnosis incomplete: %+v", dErr.Diagnosis)
	}
	if rep.Learner.Healthy {
		t.Fatal("report must mark the aborted run unhealthy")
	}
	if rep.Learner.Diagnosis == "" {
		t.Fatal("report must carry the rendered diagnosis")
	}
	if rep.Episodes >= 30 {
		t.Fatalf("run must have aborted early, Episodes = %d", rep.Episodes)
	}
}

// TestDivergenceSmoke drives the full stack: chaos injects
// corrupted-but-finite reward spikes that pass every environment-side
// sanitizer, the tuner is configured with the reward clamps effectively
// off (the misconfiguration the supervisor backstops), and the run must
// either heal or abort with a diagnosis — never silently return a
// poisoned model. `make divergence-smoke` runs exactly this test.
func TestDivergenceSmoke(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.Seed = 11
	cfg.DDPG.Seed = 11
	cfg.DDPG.CriticLR = 0.5 // chase the spiked targets fast enough to trip in-test
	cfg.RewardScale = 1
	cfg.RewardClip = 1e9 // clamps effectively off
	cfg.RewardFloor = 1e9
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(chaos.Config{Seed: 11, SpikeProb: 0.25, SpikeFactor: 1e3})
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, 500+int64(ep))
		return env.New(in.Wrap(db), cat, workload.SysbenchRW())
	}
	rep, err := tn.OfflineTrainOpts(mk, TrainOptions{
		Episodes: 24,
		Supervisor: SupervisorConfig{
			QLimit:      200, // the honest Q scale of this reward function
			WarmupSteps: 8,
		},
	})
	if in.Counters().Spikes == 0 {
		t.Fatal("chaos injected no reward spikes; the smoke test exercised nothing")
	}
	if err != nil {
		var dErr *DivergenceError
		if !errors.As(err, &dErr) {
			t.Fatalf("a supervised run may only fail with a *DivergenceError, got: %v", err)
		}
		if rep.Learner.Diagnosis == "" {
			t.Fatal("aborted run must carry a diagnosis")
		}
		return // clean abort is an acceptable outcome
	}
	if rep.Learner.Heals == 0 && rep.Learner.SkippedBatches == 0 {
		t.Fatal("spiked rewards reached the learner but the supervisor never engaged")
	}
	state := make([]float64, metrics.NumMetrics)
	for _, v := range tn.Agent().Act(state) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("run reported healthy but the policy is non-finite")
		}
	}
}

// slowDB wraps a database with a fixed real-time delay per stress test,
// standing in for a hung collector or an instance that stopped answering.
type slowDB struct {
	env.Database
	delay time.Duration
}

func (d *slowDB) RunWorkload(w workload.Workload, sec float64) (simdb.Result, error) {
	time.Sleep(d.delay)
	return d.Database.RunWorkload(w, sec)
}

func TestTrainDeadlineStopsPromptly(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, 900+int64(ep))
		return env.New(&slowDB{Database: db, delay: 3 * time.Millisecond}, cat, workload.SysbenchRW())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := tn.OfflineTrainOpts(mk, TrainOptions{
		Episodes: 500,
		Ctx:      ctx,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not stop the run promptly: %v", elapsed)
	}
	if rep.Episodes >= 500 {
		t.Fatalf("run claims all %d episodes despite the deadline", rep.Episodes)
	}
	// The partial report is valid accounting.
	if rep.Iterations != tn.Iterations() {
		t.Fatalf("partial report iterations %d != tuner %d", rep.Iterations, tn.Iterations())
	}
	if rep.Episodes > 0 && rep.VirtualSeconds <= 0 {
		t.Fatal("completed episodes must have charged virtual time")
	}
}

func TestTrainCtxCancelStopsMultiWorkerRun(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var after atomic.Int32
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 700), TrainOptions{
		Episodes: 200,
		Ctx:      ctx,
		OnEpisode: func(s EpisodeStats) {
			if after.Add(1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep.Episodes < 3 || rep.Episodes >= 200 {
		t.Fatalf("Episodes = %d, want a partial count ≥ 3", rep.Episodes)
	}
	if rep.BestPerf.Throughput <= 0 {
		t.Fatal("partial report lost the best performance seen")
	}
}

func TestStallWatchdogFlagsStuckWorker(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.StepsPerEpisode = 5
	cfg.SnapshotEvery = -1 // probes would double the slow measurements
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, 40+int64(ep))
		return env.New(&slowDB{Database: db, delay: 80 * time.Millisecond}, cat, workload.SysbenchRW())
	}
	var flagged atomic.Int32
	rep, err := tn.OfflineTrainOpts(mk, TrainOptions{
		Episodes:     2,
		StallTimeout: 20 * time.Millisecond,
		OnStall: func(stuck time.Duration) {
			flagged.Add(1)
			if stuck < 20*time.Millisecond {
				t.Errorf("flagged a stall of only %v", stuck)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls == 0 {
		t.Fatal("an 80 ms step under a 20 ms stall timeout must be flagged")
	}
	if got := int(flagged.Load()); got != rep.Stalls {
		t.Fatalf("OnStall fired %d times but report counts %d stalls", got, rep.Stalls)
	}
}

// cancelAfterDB cancels a context after its Nth stress test — a
// deterministic mid-request cancellation for the online path.
type cancelAfterDB struct {
	env.Database
	after  int
	count  int
	cancel context.CancelFunc
}

func (d *cancelAfterDB) RunWorkload(w workload.Workload, sec float64) (simdb.Result, error) {
	d.count++
	if d.count == d.after {
		d.cancel()
	}
	return d.Database.RunWorkload(w, sec)
}

func TestOnlineTuneCtxCancelDeploysBestKnown(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db := &cancelAfterDB{
		Database: simdb.New(knobs.EngineCDB, simdb.CDBA, 77),
		after:    3, // initial measure + two tuning steps, then cancel
		cancel:   cancel,
	}
	e := env.New(db, cat, workload.SysbenchRW())
	res, err := tn.OnlineTune(ctx, e, TuneOptions{Steps: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Initial.Throughput <= 0 || len(res.History) == 0 {
		t.Fatalf("partial accounting missing: initial %+v, %d history entries", res.Initial, len(res.History))
	}
	// The abandoned request must still leave the instance on the best
	// configuration it measured. Knob quantization makes CurrentKnobs differ
	// from the raw action vector, so compare against a reference instance
	// with the same config deployed.
	ref := simdb.New(knobs.EngineCDB, simdb.CDBA, 77)
	if _, err := ref.ApplyKnobs(cat, res.Best); err != nil {
		t.Fatal(err)
	}
	cur, want := db.CurrentKnobs(cat), ref.CurrentKnobs(cat)
	for i := range cur {
		if math.Abs(cur[i]-want[i]) > 1e-9 {
			t.Fatalf("instance not on best-known config at knob %d: %v vs %v", i, cur[i], want[i])
		}
	}
}

func TestEnvBindCancellation(t *testing.T) {
	cat := testCat(t)
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 5)
	e := env.New(db, cat, workload.SysbenchRW())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Bind(ctx)
	if _, err := e.Measure(); !errors.Is(err, context.Canceled) {
		t.Fatalf("bound Measure after cancel: want context.Canceled, got %v", err)
	}
	if _, err := e.Step(e.Default()); !errors.Is(err, context.Canceled) {
		t.Fatalf("bound Step after cancel: want context.Canceled, got %v", err)
	}
	if f := e.Faults(); f.Any() {
		t.Fatalf("cancellation must not count as a measurement fault: %+v", f)
	}
	e.Bind(nil)
	if _, err := e.Measure(); err != nil {
		t.Fatalf("unbound environment must measure normally: %v", err)
	}
}
