package expr

import (
	"context"
	"fmt"

	"cdbtune/internal/chaos"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// TrainingTelemetry runs a short offline training (§5.1's try-and-error
// loop) and reports the per-episode telemetry stream: exploration
// annealing, reward and loss trajectories, crash counts and virtual time.
// The training runs under a light seeded fault mix (transient measurement
// failures, latency stalls, metric dropouts), so the stream also shows the
// resilience layer absorbing faults: retries, skipped steps, and the
// unchanged annealing schedule. A second table summarizes the injected
// faults against the counters the hardened loop reports, and closes with a
// guardrail-protected online-tuning request against the same chaotic
// instance class.
func TrainingTelemetry(b Budget) ([]Table, error) {
	inst := simdb.CDBA
	cat := knobs.MySQL(knobs.EngineCDB)
	cfg := warmConfig(b, cat, inst)
	t, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	episodes := b.Episodes / 2
	if episodes < 8 {
		episodes = 8
	}
	w := workload.SysbenchRW()
	// A light mix: every fault class fires over a normal run, none often
	// enough to drown the learning signal.
	in := chaos.New(chaos.Config{
		Seed:          b.Seed,
		TransientProb: 0.03,
		StallProb:     0.03,
		StallSec:      30,
		DropoutProb:   0.03,
		// Occasional corrupted-but-finite measurements: they pass the env
		// sanitizers by design, so the learner-health table below shows the
		// supervisor watching (reward clamping keeps them non-fatal here).
		SpikeProb: 0.02,
	})
	var records []core.EpisodeStats
	rep, err := t.OfflineTrainOpts(func(ep int) *env.Env {
		db := simdb.New(knobs.EngineCDB, inst, b.Seed+int64(ep))
		return env.New(in.Wrap(db), cat, w)
	}, core.TrainOptions{
		Episodes:  episodes,
		OnEpisode: func(s core.EpisodeStats) { records = append(records, s) },
	})
	if err != nil {
		return nil, err
	}
	stream := Table{
		Title: fmt.Sprintf("Training telemetry (%d episodes; converged=%v at iter %d, best %.1f txn/sec)",
			rep.Episodes, rep.Converged, rep.ConvergedAt, rep.BestPerf.Throughput),
		Header: []string{"episode", "best tput", "mean reward", "critic loss", "actor loss", "sigma", "crashes", "faults", "retries", "skipped", "virtual sec"},
	}
	for _, s := range records {
		stream.Rows = append(stream.Rows, []string{
			fmt.Sprintf("%d", s.Episode),
			fmtF(s.BestThroughput),
			fmt.Sprintf("%+.3f", s.MeanReward),
			fmt.Sprintf("%.4f", s.CriticLoss),
			fmt.Sprintf("%+.3f", s.ActorLoss),
			fmt.Sprintf("%.4f", s.NoiseSigma),
			fmt.Sprintf("%d", s.Crashes),
			fmt.Sprintf("%d", s.Transients),
			fmt.Sprintf("%d", s.Retries),
			fmt.Sprintf("%d", s.SkippedSteps),
			fmt.Sprintf("%.0f", s.VirtualSeconds),
		})
	}

	// A guarded online-tuning request against a crashier instance of the
	// same class: the guardrail's reverts and vetoes close the summary.
	tuneIn := chaos.New(chaos.Config{
		Seed:          b.Seed + 1,
		TransientProb: 0.05,
		CrashProb:     0.15,
	})
	tuneDB := simdb.New(knobs.EngineCDB, inst, b.Seed+9999)
	guard := core.NewGuardrail(2, 0.05)
	tuned, err := t.OnlineTune(context.Background(), env.New(tuneIn.Wrap(tuneDB), cat, w), core.TuneOptions{Steps: 5, FineTune: true, Guard: guard})
	if err != nil {
		return nil, err
	}
	reverts, vetoes, regions := guard.Stats()

	cnt := in.Counters()
	resil := Table{
		Title:  "Resilience summary (seeded fault injection vs. hardened-loop accounting)",
		Header: []string{"counter", "training", "online tune"},
		Rows: [][]string{
			{"injected transients", fmt.Sprintf("%d", cnt.Transients), fmt.Sprintf("%d", tuneIn.Counters().Transients)},
			{"injected stalls", fmt.Sprintf("%d", cnt.Stalls), fmt.Sprintf("%d", tuneIn.Counters().Stalls)},
			{"injected dropouts", fmt.Sprintf("%d", cnt.Dropouts), fmt.Sprintf("%d", tuneIn.Counters().Dropouts)},
			{"injected crashes", fmt.Sprintf("%d", cnt.Crashes), fmt.Sprintf("%d", tuneIn.Counters().Crashes)},
			{"injected reward spikes", fmt.Sprintf("%d", cnt.Spikes), fmt.Sprintf("%d", tuneIn.Counters().Spikes)},
			{"absorbed transients", fmt.Sprintf("%d", rep.Faults.Transients), fmt.Sprintf("%d", tuned.Faults.Transients)},
			{"backoff retries", fmt.Sprintf("%d", rep.Faults.Retries), fmt.Sprintf("%d", tuned.Faults.Retries)},
			{"retry backoff vsec", fmt.Sprintf("%.0f", rep.Faults.RetrySec), fmt.Sprintf("%.0f", tuned.Faults.RetrySec)},
			{"stall vsec charged", fmt.Sprintf("%.0f", rep.Faults.StallSec), fmt.Sprintf("%.0f", tuned.Faults.StallSec)},
			{"state dropouts sanitized", fmt.Sprintf("%d", rep.Faults.Dropouts), fmt.Sprintf("%d", tuned.Faults.Dropouts)},
			{"skipped steps", "-", fmt.Sprintf("%d", tuned.SkippedSteps)},
			{"guardrail reverts", "-", fmt.Sprintf("%d", reverts)},
			{"guardrail vetoes", "-", fmt.Sprintf("%d", vetoes)},
			{"crash regions recorded", "-", fmt.Sprintf("%d", regions)},
			{"worker deaths / lost episodes", fmt.Sprintf("%d / %d", rep.WorkerDeaths, rep.LostEpisodes), "-"},
		},
	}

	// Learner-health summary: what the divergence supervisor saw. On a
	// healthy run the gauges document normal operating levels (the baseline
	// against which a diverging run's q-explosion or gradient blowup is
	// obvious); heals and dropped batches are zero unless something poisoned
	// the learner.
	health := Table{
		Title:  "Learner health (divergence supervision over the training run)",
		Header: []string{"signal", "value"},
		Rows: [][]string{
			{"supervised", fmt.Sprintf("%v", rep.Learner.Supervised)},
			{"healthy at end", fmt.Sprintf("%v", rep.Learner.Healthy)},
			{"heals (rollbacks)", fmt.Sprintf("%d", rep.Learner.Heals)},
			{"weight snapshots taken", fmt.Sprintf("%d", rep.Learner.Snapshots)},
			{"non-finite batches dropped", fmt.Sprintf("%d", rep.Learner.SkippedBatches)},
			{"learning-rate backoff scale", fmt.Sprintf("%.3g", rep.Learner.LRScale)},
			{"EMA mean |Q|", fmt.Sprintf("%.2f", rep.Learner.MeanAbsQ)},
			{"EMA critic grad norm", fmt.Sprintf("%.2f", rep.Learner.GradNorm)},
			{"EMA actor saturation", fmt.Sprintf("%.3f", rep.Learner.Saturation)},
			{"max |weight|", fmt.Sprintf("%.2f", rep.Learner.MaxWeight)},
		},
	}
	if rep.Learner.Diagnosis != "" {
		health.Rows = append(health.Rows, []string{"diagnosis", rep.Learner.Diagnosis})
	}
	return []Table{stream, health, resil}, nil
}
