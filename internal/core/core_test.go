package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/reward"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// testCat is a 10-knob subset covering the highest-impact roles, keeping
// DDPG training inside unit-test time.
func testCat(t *testing.T) *knobs.Catalog {
	t.Helper()
	full := knobs.MySQL(knobs.EngineCDB)
	names := []string{
		"innodb_buffer_pool_size", "innodb_log_file_size", "innodb_log_files_in_group",
		"innodb_flush_log_at_trx_commit", "sync_binlog", "innodb_read_io_threads",
		"innodb_write_io_threads", "max_connections", "innodb_io_capacity",
		"query_cache_size",
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = full.Index(n)
		if idx[i] < 0 {
			t.Fatalf("missing knob %s", n)
		}
	}
	return full.Subset(idx)
}

func testConfig(t *testing.T, cat *knobs.Catalog) Config {
	t.Helper()
	cfg := DefaultConfig(cat)
	d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
	d.ActorHidden = []int{32, 32}
	d.CriticHidden = []int{64, 32}
	cfg.DDPG = d
	cfg.StepsPerEpisode = 10
	cfg.UpdatesPerStep = 1
	return cfg
}

func mkEnvFactory(cat *knobs.Catalog, w workload.Workload, base int64) EnvFactory {
	return func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, simdb.CDBA, base+int64(ep))
		return env.New(db, cat, w)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil catalog must error")
	}
	cat := testCat(t)
	cfg := DefaultConfig(cat)
	cfg.DDPG.ActionDim = 3 // wrong on purpose
	if _, err := New(cfg); err == nil {
		t.Fatal("action-dim mismatch must error")
	}
}

func TestDefaultsFilled(t *testing.T) {
	cat := testCat(t)
	tn, err := New(Config{Cat: cat})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tn.Config()
	if cfg.CT != 0.5 || cfg.CL != 0.5 {
		t.Fatalf("CT/CL defaults = %v/%v", cfg.CT, cfg.CL)
	}
	if cfg.StepsPerEpisode == 0 || cfg.UpdatesPerStep == 0 || cfg.RewardScale == 0 {
		t.Fatal("zero-valued defaults not filled")
	}
	if cfg.DDPG.ActionDim != cat.Len() || cfg.DDPG.StateDim != metrics.NumMetrics {
		t.Fatalf("DDPG dims %d/%d", cfg.DDPG.StateDim, cfg.DDPG.ActionDim)
	}
}

func TestOfflineTrainRuns(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 100), TrainOptions{Episodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 4 {
		t.Fatalf("Episodes = %d", rep.Episodes)
	}
	if rep.Iterations == 0 || tn.Iterations() != rep.Iterations {
		t.Fatalf("Iterations bookkeeping broken: %d vs %d", rep.Iterations, tn.Iterations())
	}
	if rep.BestPerf.Throughput <= 0 {
		t.Fatal("no performance recorded")
	}
	if tn.Agent().Memory.Len() == 0 {
		t.Fatal("memory pool empty after training")
	}
}

func TestOnlineTuneProtocol(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 200), TrainOptions{Episodes: 3}); err != nil {
		t.Fatal(err)
	}
	e := mkEnvFactory(cat, workload.SysbenchRW(), 300)(0)
	res, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: 5, FineTune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History)+res.Crashes != 5 {
		t.Fatalf("history %d + crashes %d != 5 steps", len(res.History), res.Crashes)
	}
	if res.BestPerf.Throughput < res.Initial.Throughput {
		t.Fatal("best-of-steps must never be below the initial performance")
	}
	if len(res.Best) != cat.Len() {
		t.Fatalf("best config dim %d", len(res.Best))
	}
	// Table 2 shape: the 5-step request costs ≈ 15-35 virtual minutes.
	if res.Seconds < 10*60 || res.Seconds > 45*60 {
		t.Fatalf("online request took %v virtual minutes, want ≈25", res.Seconds/60)
	}
	// The best configuration must be deployed at return. Compare in
	// actual-value space: discrete knobs round, so normalized values
	// differ legitimately.
	hw := e.DB.Instance().HW
	cur := e.DB.CurrentKnobs(e.Cat)
	for i, k := range e.Cat.Knobs {
		got := k.Value(cur[i], hw.RAMGB, hw.DiskGB)
		want := k.Value(res.Best[i], hw.RAMGB, hw.DiskGB)
		if got != want {
			t.Fatalf("knob %s not deployed: %v vs %v", k.Name, got, want)
		}
	}
}

func TestOnlineTuneDefaultSteps(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	e := mkEnvFactory(cat, workload.TPCC(), 400)(0)
	res, err := tn.OnlineTune(context.Background(), e, TuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History)+res.Crashes != 5 {
		t.Fatalf("default steps should be 5, got %d", len(res.History)+res.Crashes)
	}
}

func TestTrainingImprovesPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.UpdatesPerStep = 2
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.SysbenchRW()
	evalPolicy := func() float64 {
		e := mkEnvFactory(cat, w, 900)(0)
		res, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.BestPerf.Throughput
	}
	before := evalPolicy()
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, w, 500), TrainOptions{Episodes: 30}); err != nil {
		t.Fatal(err)
	}
	after := evalPolicy()
	if after <= before {
		t.Fatalf("training did not improve the policy: %v -> %v", before, after)
	}
	// The trained policy must clearly beat the default configuration.
	e := mkEnvFactory(cat, w, 950)(0)
	base, err := e.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if after < base.Ext.Throughput*1.5 {
		t.Fatalf("trained policy %v is not clearly above default %v", after, base.Ext.Throughput)
	}
}

func TestCrashGivesNegativeRewardAndSurvives(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	// Force the crash path deterministically: the remembered best config
	// (proposed first by OnlineTune) points into the crash zone.
	crash := make([]float64, cat.Len())
	for i := range crash {
		crash[i] = 0.5
	}
	crash[cat.Index("innodb_log_file_size")] = 1
	crash[cat.Index("innodb_log_files_in_group")] = 1
	tn.Agent().SetBCTarget(crash)
	e := mkEnvFactory(cat, workload.SysbenchWO(), 600)(0)
	res, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("crash-zone recommendation must be recorded as a crash")
	}
	// The request survives: remaining steps ran and the result is sane.
	if res.BestPerf.Throughput < res.Initial.Throughput {
		t.Fatal("crash recovery lost the initial configuration")
	}
}

func TestRewardScaleClipsCrash(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	// CrashReward × RewardScale = −10, within ±RewardClip.
	cfg := tn.Config()
	scaled := float64(reward.CrashReward) * cfg.RewardScale
	if scaled < -cfg.RewardClip || scaled > 0 {
		t.Fatalf("scaled crash reward %v outside (−clip, 0)", scaled)
	}
}

func TestSaveLoadTuner(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.TPCC(), 700), TrainOptions{Episodes: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tn2, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	if err := tn2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	state := make([]float64, metrics.NumMetrics)
	a, b := tn.Agent().Act(state), tn2.Agent().Act(state)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("reloaded model differs")
		}
	}
}

func TestMismatchedEnvRejected(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	other := knobs.MySQL(knobs.EngineCDB).Subset([]int{0, 1})
	_, err = tn.OfflineTrainOpts(mkEnvFactory(other, workload.TPCC(), 860), TrainOptions{Episodes: 1})
	if err == nil {
		t.Fatal("knob-count mismatch must error")
	}
}

func TestOnlineTuneFeedsMemoryPool(t *testing.T) {
	// §2.1.1 incremental training: tuning requests add their transitions
	// to the memory pool.
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	before := tn.Agent().Memory.Len()
	e := mkEnvFactory(cat, workload.TPCC(), 880)(0)
	if _, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: 4, FineTune: true}); err != nil {
		t.Fatal(err)
	}
	if got := tn.Agent().Memory.Len(); got != before+4 {
		t.Fatalf("memory grew by %d, want 4", got-before)
	}
}

// TestConcurrentObserveSampleAct drives the one kind of sharing a Tuner
// supports — concurrent fine-tuning OnlineTune requests — from 8
// goroutines, so action selection, Observe into the replay pool and
// TrainStep (Sample + UpdatePriorities + gradient update) interleave on one
// agent. Its job is to fail under the race detector (`make check` runs the
// suite with -race) if anything reaches the agent outside agentMu.
func TestConcurrentObserveSampleAct(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.DDPG.BatchSize, cfg.DDPG.MinMemory = 8, 8 // updates run from the second request on
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, steps = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := mkEnvFactory(cat, workload.SysbenchRW(), 4100)(g)
			if _, err := tn.OnlineTune(context.Background(), e, TuneOptions{Steps: steps, FineTune: true}); err != nil {
				t.Errorf("request %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got, want := tn.agent.Memory.Len(), goroutines*steps; got != want {
		t.Fatalf("memory holds %d transitions after concurrent requests, want %d", got, want)
	}
	if tn.agent.TrainSteps() == 0 {
		t.Fatal("no gradient update ran; the test exercised no Sample")
	}
}

func TestSnapshotSelectionKeepsBestPolicy(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.SnapshotEvery = 1
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 910), TrainOptions{Episodes: 6}); err != nil {
		t.Fatal(err)
	}
	if tn.bestSnapshot == nil {
		t.Fatal("no snapshot was taken")
	}
	if tn.bestEval <= 0 {
		t.Fatalf("bestEval = %v", tn.bestEval)
	}
}

func TestSnapshotDisabled(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.SnapshotEvery = -1
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 920), TrainOptions{Episodes: 3}); err != nil {
		t.Fatal(err)
	}
	if tn.bestSnapshot != nil {
		t.Fatal("snapshots taken despite SnapshotEvery=-1")
	}
}

func TestBestActionTracked(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	if tn.Agent().BCTarget() != nil {
		t.Fatal("fresh tuner must have no remembered best")
	}
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 930), TrainOptions{Episodes: 3}); err != nil {
		t.Fatal(err)
	}
	best := tn.Agent().BCTarget()
	if best == nil || len(best) != cat.Len() {
		t.Fatalf("remembered best missing or wrong dim: %v", best)
	}
	if tn.bestActionPerf <= 0 {
		t.Fatalf("bestActionPerf = %v", tn.bestActionPerf)
	}
}
