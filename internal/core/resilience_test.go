package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cdbtune/internal/chaos"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/nn"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// chaosFactory builds per-episode environments whose databases share one
// fault injector, so the schedule (run counters, storms, kills) spans the
// whole training run.
func chaosFactory(cat *knobs.Catalog, w workload.Workload, base int64, in *chaos.Injector) EnvFactory {
	return func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, base+int64(ep))
		return env.New(in.Wrap(db), cat, w)
	}
}

// A lost training worker must be respawned, its episode re-run, and the
// shared annealing schedule preserved: the run completes the full episode
// budget with the same final sigma as an undisturbed run.
func TestWorkerLostRespawns(t *testing.T) {
	cat := testCat(t)
	w := workload.SysbenchRW()
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	// Kill the 15th stress test — mid-episode, past the first episodes'
	// measurements, well before the run ends.
	in := chaos.New(chaos.Config{KillWorkerAtRun: 15})
	const episodes = 6
	var stats []EpisodeStats
	rep, err := tn.OfflineTrainOpts(chaosFactory(cat, w, 500, in), TrainOptions{
		Episodes:  episodes,
		OnEpisode: func(s EpisodeStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkerDeaths != 1 {
		t.Fatalf("WorkerDeaths = %d, want 1 (injector: %+v)", rep.WorkerDeaths, in.Counters())
	}
	if rep.Episodes != episodes {
		t.Fatalf("Episodes = %d, want %d — the interrupted episode must be re-run", rep.Episodes, episodes)
	}
	if len(stats) != episodes {
		t.Fatalf("telemetry records = %d, want %d", len(stats), episodes)
	}
	seen := map[int]bool{}
	for _, s := range stats {
		if seen[s.Episode] {
			t.Fatalf("episode %d completed twice", s.Episode)
		}
		seen[s.Episode] = true
	}
	wantSigma := 0.2 * math.Pow(0.99, episodes)
	if got := tn.Agent().Noise.Scale(); math.Abs(got-wantSigma) > 1e-12 {
		t.Fatalf("sigma = %v, want %v — respawn must not disturb the shared schedule", got, wantSigma)
	}
}

// alwaysLost reports every stress test as a lost training server, driving
// the respawn budget to exhaustion.
type alwaysLost struct{ env.Database }

func (alwaysLost) RunWorkload(workload.Workload, float64) (simdb.Result, error) {
	return simdb.Result{}, fmt.Errorf("%w: test: permanently dead server", simdb.ErrWorkerLost)
}

func TestWorkerRespawnBudgetExhausts(t *testing.T) {
	cat := testCat(t)
	w := workload.SysbenchRW()
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, int64(ep))
		return env.New(alwaysLost{Database: db}, cat, w)
	}
	rep, err := tn.OfflineTrainOpts(mk, TrainOptions{Episodes: 4, MaxWorkerRespawns: 3})
	if err == nil {
		t.Fatal("permanently dying workers must eventually fail the run")
	}
	if !errors.Is(err, simdb.ErrWorkerLost) {
		t.Fatalf("err = %v, want ErrWorkerLost chain", err)
	}
	if rep.WorkerDeaths != 4 {
		t.Fatalf("WorkerDeaths = %d, want budget+1 = 4", rep.WorkerDeaths)
	}
}

// A run killed after k episodes and resumed from its checkpoint must end
// with the same episode accounting as an uninterrupted run.
func TestCheckpointResumeMatchesUnkilled(t *testing.T) {
	cat := testCat(t)
	w := workload.SysbenchRW()
	const episodes, killAfter = 6, 3
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")

	fresh := func() *Tuner {
		tn, err := New(testConfig(t, cat))
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}

	// Reference: one uninterrupted run.
	full, err := fresh().OfflineTrainOpts(mkEnvFactory(cat, w, 1000), TrainOptions{Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}

	// "Killed" run: the process stops after killAfter episodes, leaving
	// only the checkpoint behind.
	ck := &Checkpointer{Path: ckpt, Every: 1}
	if _, err := fresh().OfflineTrainOpts(mkEnvFactory(cat, w, 1000), TrainOptions{
		Episodes: killAfter, Checkpoint: ck,
	}); err != nil {
		t.Fatal(err)
	}

	// Resume in a brand-new process (a brand-new tuner).
	resumedTuner := fresh()
	resumed, err := resumedTuner.OfflineTrainOpts(mkEnvFactory(cat, w, 1000), TrainOptions{
		Episodes: episodes, Checkpoint: ck, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || resumed.ResumedEpisodes != killAfter {
		t.Fatalf("resume accounting: %+v", resumed)
	}
	if resumed.Episodes != full.Episodes {
		t.Fatalf("Episodes = %d, want %d (unkilled run)", resumed.Episodes, full.Episodes)
	}
	if resumed.Iterations != full.Iterations {
		t.Fatalf("Iterations = %d, want %d", resumed.Iterations, full.Iterations)
	}
	if got, want := resumedTuner.Agent().Noise.Scale(), 0.2*math.Pow(0.99, episodes); math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v — the annealing schedule must survive the kill", got, want)
	}
	if resumedTuner.Agent().Memory.Len() == 0 {
		t.Fatal("replay memory did not survive the round trip")
	}

	// Resuming a finished run is a no-op with full accounting.
	again, err := fresh().OfflineTrainOpts(mkEnvFactory(cat, w, 1000), TrainOptions{
		Episodes: episodes, Checkpoint: ck, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Episodes != episodes || again.ResumedEpisodes != episodes {
		t.Fatalf("re-resume accounting: %+v", again)
	}
}

// TestWriteAtomic pins the atomic-write contract model and checkpoint
// saves rely on (nn.WriteAtomic; this package's checkpoints go through the
// same helper over an explicit filesystem).
func TestWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the original intact and no temp litter.
	boom := errors.New("boom")
	err := nn.WriteAtomic(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "good" {
		t.Fatalf("original clobbered: %q, %v", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
	// A successful writer replaces the content.
	if err := nn.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("content = %q", got)
	}
}

func TestGuardrailScreenAndRevert(t *testing.T) {
	g := NewGuardrail(2, 0.1)
	good := []float64{0.5, 0.5, 0.5}
	g.BeginRequest(good, 100)

	// No crash regions yet: proposals pass through untouched.
	if _, changed := g.Screen([]float64{0.9, 0.9, 0.9}); changed {
		t.Fatal("clean proposal must not be vetoed")
	}

	crash := []float64{0.9, 0.9, 0.9}
	g.NoteCrash(crash)
	adj, changed := g.Screen([]float64{0.91, 0.9, 0.89})
	if !changed {
		t.Fatal("near-crash proposal must be adjusted")
	}
	var ss float64
	for i := range adj {
		d := adj[i] - crash[i]
		ss += d * d
	}
	if math.Sqrt(ss/3) < 0.1 {
		t.Fatalf("adjusted proposal %v still inside the crash region", adj)
	}

	// The crash above already counts toward the streak; clear it so the
	// failure budget is exercised from zero.
	g.NoteGood(good, 100)
	if _, ok := g.RevertTarget(); ok {
		t.Fatal("revert before any failure")
	}
	g.NoteFailure()
	if _, ok := g.RevertTarget(); ok {
		t.Fatal("revert after 1 failure, budget is 2")
	}
	g.NoteFailure()
	target, ok := g.RevertTarget()
	if !ok || !sameSlice(target, good) {
		t.Fatalf("revert target = %v/%v, want best-known-good", target, ok)
	}
	// The revert consumed the counter.
	if _, ok := g.RevertTarget(); ok {
		t.Fatal("revert counter must reset after a revert")
	}
	// A success resets the failure streak and can raise the bar.
	g.NoteFailure()
	g.NoteGood([]float64{0.6, 0.6, 0.6}, 120)
	g.NoteFailure()
	if _, ok := g.RevertTarget(); ok {
		t.Fatal("streak must reset on success")
	}
	best, perf := g.Best()
	if perf != 120 || !sameSlice(best, []float64{0.6, 0.6, 0.6}) {
		t.Fatalf("best = %v @ %v", best, perf)
	}
	reverts, vetoes, regions := g.Stats()
	if reverts != 1 || vetoes != 1 || regions != 1 {
		t.Fatalf("stats = %d/%d/%d", reverts, vetoes, regions)
	}
}

// Under a crash storm covering the whole request, the guarded tuner must
// revert and finish deployed on the best-known-good configuration — never
// on the crashing recommendation.
func TestGuardedTuneSurvivesCrashStorm(t *testing.T) {
	cat := testCat(t)
	w := workload.SysbenchRW()
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	// Light pre-training so recommendations are not random.
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, w, 300), TrainOptions{Episodes: 2}); err != nil {
		t.Fatal(err)
	}
	// The first run is the baseline measurement; everything after crashes.
	in := chaos.New(chaos.Config{CrashStormAtRun: 2, CrashStormRuns: 200})
	db := simdb.New(knobs.EngineCDB, simdb.CDBA, 77)
	e := env.New(in.Wrap(db), cat, w)
	before := db.CurrentKnobs(cat)

	g := NewGuardrail(2, 0.05)
	res, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: 5, FineTune: true, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("storm did not bite — test is vacuous")
	}
	if res.Reverts == 0 {
		t.Fatal("guardrail never reverted under a full crash storm")
	}
	if !sameSlice(res.Best, before) {
		t.Fatalf("Best must stay the initial configuration when every step crashes")
	}
	if !sameSlice(db.CurrentKnobs(cat), before) {
		t.Fatal("instance must end on the best-known-good configuration")
	}
	if _, _, regions := g.Stats(); regions == 0 {
		t.Fatal("crash regions were not recorded")
	}
}
