package core

import (
	"context"
	"strings"
	"testing"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// crashConfig is a normalized configuration inside the simulator's crash
// zone: the redo log group exceeds the disk budget (§5.2.3).
func crashConfig(t *testing.T, cat *knobs.Catalog) []float64 {
	t.Helper()
	x := make([]float64, cat.Len())
	for i := range x {
		x[i] = 0.5
	}
	for _, n := range []string{"innodb_log_file_size", "innodb_log_files_in_group"} {
		i := cat.Index(n)
		if i < 0 {
			t.Fatalf("missing knob %s", n)
		}
		x[i] = 1
	}
	return x
}

func sameSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The exploration scale must follow the annealing schedule — one decay per
// completed episode — and the telemetry stream must report every episode
// exactly once, in order.
func TestParallelNoiseAnnealingAndTelemetry(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const episodes = 8
	var recs []EpisodeStats
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 1100), TrainOptions{
		Episodes:  episodes,
		OnEpisode: func(s EpisodeStats) { recs = append(recs, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != episodes || len(recs) != episodes {
		t.Fatalf("episodes %d, telemetry records %d, want %d", rep.Episodes, len(recs), episodes)
	}
	// Replicate the schedule: sigma·0.99 per completed episode, floored at
	// MinSigma — the k-th record must sit on it.
	sigma := cfg.DDPG.NoiseSigma
	var vsum float64
	for k, r := range recs {
		sigma *= 0.99
		if sigma < 0.01 {
			sigma = 0.01
		}
		if r.NoiseSigma != sigma {
			t.Fatalf("record %d: sigma %v off the schedule %v", k, r.NoiseSigma, sigma)
		}
		if r.Episode != k {
			t.Fatalf("record %d reports episode %d", k, r.Episode)
		}
		if r.Steps != cfg.StepsPerEpisode {
			t.Fatalf("record %d: %d steps, want %d", k, r.Steps, cfg.StepsPerEpisode)
		}
		if r.VirtualSeconds <= 0 {
			t.Fatalf("record %d: no virtual time charged", k)
		}
		vsum += r.VirtualSeconds
	}
	if got := tn.Agent().Noise.Scale(); got != sigma {
		t.Fatalf("final noise scale %v, want %v after %d episodes", got, sigma, episodes)
	}
	if vsum != rep.VirtualSeconds {
		t.Fatalf("telemetry seconds %v != report %v", vsum, rep.VirtualSeconds)
	}
	if recs[0].String() == "" {
		t.Fatal("empty telemetry log line")
	}
}

// The §C.1.1 convergence rule across episodes: with a one-episode window
// and a huge tolerance, every episode after the first counts as flat.
func TestParallelConvergenceReported(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.ConvergeWindow = 1
	cfg.ConvergeEps = 10
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 1200), TrainOptions{Episodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatal("training did not report convergence")
	}
	if rep.ConvergedAt <= 0 || rep.ConvergedAt > rep.Iterations {
		t.Fatalf("ConvergedAt = %d outside (0, %d]", rep.ConvergedAt, rep.Iterations)
	}
}

// An episode that fails must not be counted as completed.
func TestParallelErrorDoesNotCountEpisodes(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	other := knobs.MySQL(knobs.EngineCDB).Subset([]int{0, 1})
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(other, workload.TPCC(), 1300), TrainOptions{Episodes: 4})
	if err == nil {
		t.Fatal("knob-count mismatch must error")
	}
	if rep.Episodes != 0 {
		t.Fatalf("errored episodes counted as completed: %d", rep.Episodes)
	}
}

// Training is serial: asking for more than one worker must fail loudly, not
// run serially for a caller who believes the run is parallel.
func TestTrainWorkersAboveOneRejected(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	mk := mkEnvFactory(cat, workload.SysbenchRW(), 1350)
	rep, err := tn.OfflineTrainOpts(func(ep int) *env.Env { calls++; return mk(ep) }, TrainOptions{Episodes: 2, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("Workers: 2 must be rejected by name, got %v", err)
	}
	if calls != 0 || rep.Episodes != 0 {
		t.Fatalf("rejected run still trained: %d envs built, %d episodes", calls, rep.Episodes)
	}
	if rep, err := tn.OfflineTrainOpts(mk, TrainOptions{Episodes: 1, Workers: 1}); err != nil || rep.Episodes != 1 {
		t.Fatalf("Workers: 1 is the value the benchmark harness sets and must train: %v, %d episodes", err, rep.Episodes)
	}
}

// After a crash the next recommendation must condition on the re-measured
// recovered instance, not the stale pre-crash state.
func TestOnlineTuneCrashRecoveryConditionsOnRecoveredState(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	// The remembered best config — proposed first by OnlineTune — points
	// into the crash zone, so step 0 crashes deterministically.
	tn.Agent().SetBCTarget(crashConfig(t, cat))
	e := mkEnvFactory(cat, workload.SysbenchWO(), 640)(0)
	const steps = 3
	res, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("crash-zone recommendation must crash")
	}
	// Run accounting: one initial measurement, one stress test per step
	// (crashed steps included), one recovery re-measurement per crash.
	if got, want := e.DB.Runs(), 1+steps+res.Crashes; got != want {
		t.Fatalf("stress-test runs = %d, want %d (crash recovery must re-measure)", got, want)
	}
	trs := tn.Agent().Memory.Transitions()
	if len(trs) != steps {
		t.Fatalf("%d transitions stored, want %d", len(trs), steps)
	}
	// Crash transitions are the terminal self-loops; the step after one
	// must start from a freshly measured state.
	ci := -1
	for i := 0; i < len(trs)-1; i++ {
		if trs[i].Done && sameSlice(trs[i].NextState, trs[i].State) {
			ci = i
			break
		}
	}
	if ci < 0 {
		t.Fatal("no crash transition stored")
	}
	post := trs[ci+1]
	if sameSlice(post.State, trs[ci].State) {
		t.Fatal("post-crash step conditioned on the stale pre-crash state")
	}
	// fineTune=false means the model never changed, so the stored action
	// must be exactly the greedy policy at the stored (recovered) state.
	if !sameSlice(post.Action, tn.Agent().Act(post.State)) {
		t.Fatal("post-crash action was not computed from the recovered state")
	}
}

// Offline training pays for crash recovery too: every crashed step is
// followed by a recovery re-measurement on the same instance.
func TestOfflineTrainRemeasuresAfterCrash(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.SnapshotEvery = -1 // keep each episode's runs on its own env
	// Warm-start the policy inside the crash zone with near-zero
	// exploration, so every step of every episode crashes.
	cfg.DDPG.ActionBias = crashConfig(t, cat)
	cfg.DDPG.NoiseSigma = 1e-9
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dbs []*simdb.DB
	w := workload.SysbenchRW()
	mk := func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, 1400+int64(ep))
		dbs = append(dbs, db)
		return env.New(db, cat, w)
	}
	const episodes = 2
	rep, err := tn.OfflineTrainOpts(mk, TrainOptions{Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}
	if want := episodes * cfg.StepsPerEpisode; rep.Crashes != want {
		t.Fatalf("crashes = %d, want every step (%d)", rep.Crashes, want)
	}
	var runs int
	for _, db := range dbs {
		runs += db.Runs()
	}
	// Per episode: one initial measurement, one stress test per step, one
	// recovery re-measurement per crash (here: per step).
	if want := episodes * (1 + 2*cfg.StepsPerEpisode); runs != want {
		t.Fatalf("stress-test runs = %d, want %d (crash recovery must re-measure)", runs, want)
	}
	if rep.VirtualSeconds <= 0 {
		t.Fatal("no virtual time charged")
	}
}
