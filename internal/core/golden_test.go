package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"path/filepath"
	"testing"

	"cdbtune/internal/chaos"
	"cdbtune/internal/workload"
)

// goldenRun hashes everything one offline training run leaves behind.
type goldenRun struct {
	h hash.Hash
}

func (g *goldenRun) floats(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(g.h, "%016x,", math.Float64bits(v))
	}
}

// episode folds one telemetry record in, field by field (the fields every
// offline-training record carries; the dynamic-serving ones stay zero).
func (g *goldenRun) episode(s EpisodeStats) {
	fmt.Fprintf(g.h, "ep %d %d %d %d %d %d %v %d %d|",
		s.Episode, s.Steps, s.Crashes, s.Transients, s.Retries, s.SkippedSteps, s.Lost, s.Heals, s.SkippedBatches)
	g.floats(s.BestThroughput, s.MeanReward, s.CriticLoss, s.ActorLoss, s.NoiseSigma, s.VirtualSeconds, s.MeanAbsQ, s.CriticGradNorm)
}

// finish folds in the final report (minus Stalls, which counts real-time
// watchdog flags), the model bytes — all four networks and the
// self-imitation target — the noise scale and the replay pool, and returns
// the digest.
func (g *goldenRun) finish(t *testing.T, tn *Tuner, rep TrainReport) string {
	t.Helper()
	rep.Stalls = 0
	fmt.Fprintf(g.h, "report %+v|", rep)
	if err := tn.Agent().Snapshot().Save(g.h); err != nil {
		t.Fatal(err)
	}
	g.floats(tn.Agent().Noise.Scale())
	for _, tr := range tn.Agent().Memory.Transitions() {
		g.floats(tr.State...)
		g.floats(tr.Action...)
		g.floats(tr.Reward)
		g.floats(tr.NextState...)
		fmt.Fprintf(g.h, "%v|", tr.Done)
	}
	return fmt.Sprintf("%x", g.h.Sum(nil))
}

// TestOfflineTrainGolden pins OfflineTrainOpts bit for bit below the
// server: the final report, the ordered telemetry stream, the model and the
// replay pool of a clean run, of a seeded chaos run that loses its training
// server mid-episode, and of a run killed after three episodes and resumed
// from its checkpoint. The digests were recorded at 0912465 — the last
// commit with the work-sharing trainer — running one worker, so they prove
// the plain episode loop is that trainer's one-worker behaviour, fault
// paths included. A mismatch means training changed what it learns or
// reports: every serving digest downstream moves with it.
func TestOfflineTrainGolden(t *testing.T) {
	cat := testCat(t)
	w := workload.SysbenchRW()
	fresh := func() *Tuner {
		cfg := testConfig(t, cat)
		cfg.SnapshotEvery = 2
		// Small enough that gradient updates start in the second episode.
		cfg.DDPG.BatchSize, cfg.DDPG.MinMemory = 16, 16
		tn, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	train := func(tn *Tuner, g *goldenRun, mk EnvFactory, opts TrainOptions) (TrainReport, error) {
		opts.OnEpisode = g.episode
		return tn.OfflineTrainOpts(mk, opts)
	}

	cases := []struct {
		name string
		want string
		run  func(t *testing.T) string
	}{
		{"clean", "acdd0a295c7b4fb3696b4d6f7e0b66c8196d8e59e1aa4197276a705e30e59c81", func(t *testing.T) string {
			tn, g := fresh(), &goldenRun{h: sha256.New()}
			rep, err := train(tn, g, mkEnvFactory(cat, w, 9100), TrainOptions{Episodes: 6})
			if err != nil {
				t.Fatal(err)
			}
			if tn.agent.TrainSteps() == 0 || tn.bestSnapshot == nil {
				t.Fatal("fixture ran no update or took no snapshot")
			}
			return g.finish(t, tn, rep)
		}},
		{"chaos", "52978297edbdbbd1789bedc502e691be7a845d858b7d583f1eba2033d6946392", func(t *testing.T) string {
			in := chaos.New(chaos.Config{
				Seed:            11,
				TransientProb:   0.08,
				ApplyFailProb:   0.04,
				StallProb:       0.05,
				StallSec:        30,
				DropoutProb:     0.05,
				CrashProb:       0.06,
				KillWorkerAtRun: 35,
			})
			tn, g := fresh(), &goldenRun{h: sha256.New()}
			rep, err := train(tn, g, chaosFactory(cat, w, 9200, in), TrainOptions{Episodes: 6})
			if err != nil {
				t.Fatal(err)
			}
			cnt := in.Counters()
			if rep.WorkerDeaths != 1 || rep.Crashes == 0 || rep.Faults.Transients == 0 || cnt.Kills != 1 {
				t.Fatalf("chaos fixture is vacuous: %+v, injector %+v", rep, cnt)
			}
			return g.finish(t, tn, rep)
		}},
		{"kill-resume", "b8f357aba72a78918f0cfd2ebc8b2e36bcdbdd4655632f244ad03f3f5b75cac5", func(t *testing.T) string {
			ck := &Checkpointer{Path: filepath.Join(t.TempDir(), "golden.ckpt"), Every: 1}
			g := &goldenRun{h: sha256.New()}
			if _, err := train(fresh(), g, mkEnvFactory(cat, w, 9300), TrainOptions{Episodes: 3, Checkpoint: ck}); err != nil {
				t.Fatal(err)
			}
			tn := fresh()
			rep, err := train(tn, g, mkEnvFactory(cat, w, 9300), TrainOptions{Episodes: 6, Checkpoint: ck, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Resumed || rep.ResumedEpisodes != 3 || rep.Episodes != 6 {
				t.Fatalf("resume accounting: %+v", rep)
			}
			return g.finish(t, tn, rep)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
