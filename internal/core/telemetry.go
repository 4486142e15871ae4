package core

import (
	"context"
	"fmt"
	"time"
)

// EpisodeStats is one per-episode training-telemetry record, emitted after
// every completed offline-training episode. It is the
// observable heartbeat of the §5.1 try-and-error loop: schedulers watch
// NoiseSigma to confirm annealing, dashboards watch BestThroughput and the
// losses, and crash counts localize unstable knob regions.
type EpisodeStats struct {
	// Episode is the episode index handed to the EnvFactory.
	Episode int

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

	// NoiseSigma is the exploration scale after this episode's decay (one
	// decay per completed episode).
	NoiseSigma float64

	// VirtualSeconds is the episode's simulated wall-clock cost, including
	// its snapshot probe when one ran after the episode.
	VirtualSeconds float64

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
	line := fmt.Sprintf("ep %3d  best %8.1f tx/s  reward %+6.2f  closs %8.4f  aloss %+8.3f  sigma %.4f  crashes %d  %6.0f vsec",
		s.Episode, s.BestThroughput, s.MeanReward, s.CriticLoss, s.ActorLoss, s.NoiseSigma, s.Crashes, s.VirtualSeconds)
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

// EpisodeHook receives telemetry after each completed training episode,
// in episode order, on the goroutine that called OfflineTrainOpts — the
// next episode waits for it, so keep the hook fast and do not start
// another training run on the Tuner from it.
type EpisodeHook func(EpisodeStats)

// TrainOptions configures OfflineTrainOpts beyond the episode budget.
type TrainOptions struct {
	// Episodes is the number of training episodes.
	Episodes int

	// Workers is a name the frozen benchmark harness sets (to 1); it
	// selects nothing. Training runs one episode at a time, so 0 and 1 are
	// accepted and any other value makes OfflineTrainOpts return an error
	// rather than run serially for a caller that asked for parallelism.
	Workers int

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
	// unkilled run's. The episode in flight at the kill re-runs from
	// scratch (mkEnv sees that index again).
	Resume bool

	// MaxWorkerRespawns bounds how many lost training servers
	// (simdb.ErrWorkerLost) the run will absorb before giving up (0 =
	// default 8). Each loss re-runs the interrupted episode on a fresh
	// environment.
	MaxWorkerRespawns int

	// Ctx, when non-nil, cancels the run: no new episode starts and the
	// running episode's environment fails fast once the context is done. The
	// run stops promptly and returns the context's error with valid
	// partial accounting (episodes completed before cancellation are fully
	// reported). A context.WithTimeout bounds the run's real (not virtual)
	// wall-clock time. Nil means no external cancellation.
	Ctx context.Context

	// StallTimeout arms the stall watchdog: a run that sits on one
	// environment step for longer than this (real time) is flagged —
	// TrainReport.Stalls increments and OnStall fires, once per stuck
	// step. The watchdog observes and reports; it never kills the run
	// (the simulator is synchronous, so the step eventually returns —
	// combine with a Ctx timeout to bound the whole run). 0 disables.
	StallTimeout time.Duration

	// OnStall, when non-nil, is invoked from the watchdog goroutine each
	// time the run is flagged as stalled. Keep it fast; it must not call
	// back into the Tuner.
	OnStall func(stuck time.Duration)

	// Supervisor configures learner-health supervision of the run
	// (divergence detection and auto-rollback; see SupervisorConfig). The
	// zero value supervises with defaults; set Supervisor.Disabled to
	// train unsupervised.
	Supervisor SupervisorConfig
}
