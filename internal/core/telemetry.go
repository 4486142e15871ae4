package core

import (
	"context"
	"fmt"
	"time"
)

// EpisodeStats is one per-episode training-telemetry record, emitted after
// every completed offline-training episode (serial or parallel). It is the
// observable heartbeat of the §5.1 try-and-error loop: schedulers watch
// NoiseSigma to confirm annealing, dashboards watch BestThroughput and the
// losses, and crash counts localize unstable knob regions.
type EpisodeStats struct {
	// Episode is the episode index handed to the EnvFactory; Worker is the
	// training worker (0-based) that ran it.
	Episode int
	Worker  int

	// Steps and Crashes count the episode's environment steps and crashed
	// steps.
	Steps   int
	Crashes int

	// BestThroughput is the best stress-test throughput the episode saw.
	BestThroughput float64

	// MeanReward averages the stored (scaled and clipped) rewards of the
	// episode's transitions, crash penalties included.
	MeanReward float64

	// CriticLoss and ActorLoss average the losses of the episode's
	// gradient updates; zero when no update ran (memory pool still
	// filling, or PolicyDelay skipped every actor update).
	CriticLoss float64
	ActorLoss  float64

	// NoiseSigma is the exploration scale after this episode's decay —
	// with W workers the schedule still decays once per completed episode,
	// matching serial training.
	NoiseSigma float64

	// VirtualSeconds is the episode's simulated wall-clock cost, including
	// its snapshot probe when one ran after the episode.
	VirtualSeconds float64

	// InferBatchMean is the cumulative mean number of action-selection
	// requests folded into one batched forward pass since training
	// started — the amortization the cross-worker inference batcher is
	// buying. It is 1 when batching is off (serial training; batching
	// only activates with Workers ≥ 2, so a serial run keeps its exact
	// determinism).
	InferBatchMean float64

	// MemoryShards is the number of independently locked shards behind
	// the replay memory pool (1 = the single-lock pool; see
	// Config.MemoryShards).
	MemoryShards int

	// Transients and Retries count the episode environment's transient
	// measurement failures and the backoff retries that absorbed them
	// (snapshot-probe faults included); SkippedSteps counts steps that
	// produced no sample because a fault out-ran the retries.
	Transients   int
	Retries      int
	SkippedSteps int

	// Lost marks an episode abandoned early because its instance could
	// not be recovered.
	Lost bool

	// Heals and SkippedBatches are the learner-health supervisor's
	// cumulative rollback and discarded-batch counts at episode
	// completion; MeanAbsQ and CriticGradNorm its EMA health gauges.
	// All zero when the run is unsupervised.
	Heals          int
	SkippedBatches int
	MeanAbsQ       float64
	CriticGradNorm float64

	// Dynamic-serving fields, set only on records emitted by
	// ServeDynamic (one per drift-triggered re-tune): Phase and Hour
	// locate the triggering drift on the workload timeline, DriftEWMA is
	// the smoothed fingerprint distance that fired the detector, and
	// Drifts/Retunes/Reverts are the serving window's cumulative
	// counters at emission. Phase == "" on offline-training records.
	Phase     string
	Hour      float64
	DriftEWMA float64
	Drifts    int
	Retunes   int
	Reverts   int
}

// String renders the record as a compact single log line.
func (s EpisodeStats) String() string {
	line := fmt.Sprintf("ep %3d wk %d  best %8.1f tx/s  reward %+6.2f  closs %8.4f  aloss %+8.3f  sigma %.4f  crashes %d  batch %4.1f  %6.0f vsec",
		s.Episode, s.Worker, s.BestThroughput, s.MeanReward, s.CriticLoss, s.ActorLoss, s.NoiseSigma, s.Crashes, s.InferBatchMean, s.VirtualSeconds)
	if s.Transients > 0 || s.Retries > 0 || s.SkippedSteps > 0 {
		line += fmt.Sprintf("  faults %d/%d retries, %d skipped", s.Transients, s.Retries, s.SkippedSteps)
	}
	if s.Heals > 0 || s.SkippedBatches > 0 {
		line += fmt.Sprintf("  health %d heals, %d dropped batches, |Q| %.1f", s.Heals, s.SkippedBatches, s.MeanAbsQ)
	}
	if s.Lost {
		line += "  LOST"
	}
	if s.Phase != "" {
		line += fmt.Sprintf("  drift h%05.2f [%s] ewma %.4f (%d drifts, %d retunes, %d reverts)",
			s.Hour, s.Phase, s.DriftEWMA, s.Drifts, s.Retunes, s.Reverts)
	}
	return line
}

// EpisodeHook receives telemetry after each completed training episode.
// The trainer invokes it under its accounting lock, so calls are
// serialized in episode-completion order; keep the hook fast and do not
// call back into the Tuner from it.
type EpisodeHook func(EpisodeStats)

// TrainOptions configures OfflineTrainOpts beyond the episode budget.
type TrainOptions struct {
	// Episodes is the number of training episodes; Workers the number of
	// concurrent training environments (≤ 1 means serial). With
	// Workers ≥ 2 action selection goes through the cross-worker inference
	// batcher, sized to the worker count.
	Episodes int
	Workers  int

	// OnEpisode, when non-nil, receives a telemetry record after each
	// completed episode.
	OnEpisode EpisodeHook

	// Checkpoint, when non-nil, periodically persists the run (atomic
	// temp-file + rename) so a killed training process can continue;
	// a final checkpoint is always written when the run ends cleanly.
	Checkpoint *Checkpointer

	// Resume restores Checkpoint's file (when present) before training
	// and continues from the recorded episode count: the resumed run's
	// report accounts for the restored episodes, so its totals match an
	// unkilled run's. With parallel workers, episodes in flight at the
	// kill re-run from scratch (mkEnv may see those indices twice).
	Resume bool

	// MaxWorkerRespawns bounds how many lost training workers the run
	// will replace before giving up (0 = default 8). Each loss re-queues
	// the interrupted episode and respawns the worker on the shared
	// annealing schedule.
	MaxWorkerRespawns int

	// Ctx, when non-nil, cancels the run: no new episode is handed out and
	// every worker's environment fails fast once the context is done. The
	// run drains promptly and returns the context's error with valid
	// partial accounting (episodes completed before cancellation are fully
	// reported). A context.WithTimeout bounds the run's real (not virtual)
	// wall-clock time. Nil means no external cancellation.
	Ctx context.Context

	// StallTimeout arms the stall watchdog: a worker that sits on one
	// environment step for longer than this (real time) is flagged —
	// TrainReport.Stalls increments and OnStall fires, once per stuck
	// step. The watchdog observes and reports; it never kills the worker
	// (the simulator is synchronous, so the step eventually returns —
	// combine with a Ctx timeout to bound the whole run). 0 disables.
	StallTimeout time.Duration

	// OnStall, when non-nil, is invoked from the watchdog goroutine each
	// time a worker is flagged as stalled. Keep it fast; it must not call
	// back into the Tuner.
	OnStall func(worker int, stuck time.Duration)

	// Supervisor configures learner-health supervision of the run
	// (divergence detection and auto-rollback; see SupervisorConfig). The
	// zero value supervises with defaults; set Supervisor.Disabled to
	// train unsupervised.
	Supervisor SupervisorConfig
}
