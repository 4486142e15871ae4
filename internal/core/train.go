package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cdbtune/internal/rl"
	"cdbtune/internal/simdb"
)

// OfflineTrainOpts is the offline trainer (§2.1.1; the suffix is a name
// the benchmark pins): each episode resets to the default configuration,
// measures T0/L0, then walks StepsPerEpisode try-and-error steps; crashes
// are punished (§5.2.3) and the instance is restarted with defaults so the
// episode's remaining steps still produce samples. Episodes run one after
// another on the calling goroutine. The paper trains on 30 servers at once
// (§5.1) because its stress test takes minutes next to a millisecond model
// update; here the stress test is a simulator call and the gradient update
// under the agent lock is the episode, so a second worker has nothing to
// overlap (EXPERIMENTS.md "Serial vs parallel training" has the
// measurement that removed the work-sharing trainer).
//
//   - mkEnv(ep) is called once per episode index, in order, plus one extra
//     call with the same index per best-policy snapshot probe
//     (Config.SnapshotEvery). Exceptions: an episode interrupted by a lost
//     training server, or in flight when a resumed run was killed, re-runs,
//     so mkEnv sees that index again.
//   - Exploration noise decays once per completed episode. The run explores
//     with its own fork of the agent's noise process, synced to the
//     agent's schedule at every episode boundary, so the agent's process
//     carries the annealing schedule and a learner-health heal's noise
//     backoff takes effect from the next episode.
//   - Convergence (§C.1.1) is detected over completed episodes.
//   - TrainReport.VirtualSeconds sums every environment's clock, snapshot
//     probes included.
//
// Resilience: an episode whose error is an absorbed environment fault
// never reaches this loop (see runEpisode). An environment that reports
// simdb.ErrWorkerLost — the training server died, not the database — has
// its partial episode's cost and faults charged to the report, and the
// same episode index runs again on a fresh mkEnv(ep) with a fresh noise
// fork, up to TrainOptions.MaxWorkerRespawns times; any other episode
// error ends the run and is returned with the partial report. With
// TrainOptions.Checkpoint set, completed-episode accounting and the full
// learning state persist atomically every Checkpointer.Every episodes,
// and TrainOptions.Resume continues a killed run so its final report
// matches an uninterrupted one's episode accounting.
func (t *Tuner) OfflineTrainOpts(mkEnv EnvFactory, opts TrainOptions) (TrainReport, error) {
	var rep TrainReport
	if opts.Workers > 1 {
		return rep, fmt.Errorf("core: TrainOptions.Workers = %d: training runs one episode at a time; the field accepts only 0 or 1", opts.Workers)
	}
	maxRespawns := opts.MaxWorkerRespawns
	if maxRespawns <= 0 {
		maxRespawns = 8
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	var next int
	if opts.Checkpoint != nil && opts.Resume {
		saved, found, err := opts.Checkpoint.Load(t)
		if err != nil {
			return rep, err
		}
		if found {
			rep = saved
			rep.Resumed = true
			rep.ResumedEpisodes = saved.Episodes
			next = saved.Episodes
		}
	}
	// A resumed run's checkpoint carries the prior segment's learner and
	// stall accounting: the supervisor and the watchdog restart from zero,
	// so their counters are added on top of these.
	priorLearner, priorStalls := rep.Learner, rep.Stalls

	if !opts.Supervisor.Disabled {
		// qBound is the largest honest stored-return magnitude: stored
		// rewards live in [−RewardFloor, RewardClip] and the discounted sum
		// of a constant bounded reward is bound/(1−γ).
		qBound := t.cfg.RewardClip
		if t.cfg.RewardFloor > qBound {
			qBound = t.cfg.RewardFloor
		}
		if g := t.cfg.DDPG.Gamma; g > 0 && g < 1 {
			qBound /= 1 - g
		}
		t.super = newSupervisor(opts.Supervisor, t.agent, qBound)
		defer func() { t.super = nil }()
	}

	watch := startStallWatchdog(opts.StallTimeout, opts.OnStall)
	// syncReport brings the report's gauges up to date; the watchdog's
	// count is read, never written, from this goroutine.
	syncReport := func() {
		rep.Learner = t.learnerReport(priorLearner)
		rep.Stalls = priorStalls + watch.flagged()
	}
	forkNoise := func() rl.Noise {
		t.agentMu.Lock()
		defer t.agentMu.Unlock()
		return t.agent.Noise.Fork()
	}

	// flat and bestSoFar drive the §C.1.1 convergence rule over completed
	// episodes: converged once the best performance seen has not improved
	// by more than ConvergeEps for ConvergeWindow consecutive episodes. A
	// resumed run re-arms the window from the checkpointed best.
	flat, bestSoFar := 0, rep.BestPerf.Throughput
	noise := forkNoise()
	var runErr error
	for ep := next; ep < opts.Episodes && runErr == nil; {
		// Cancellation is the run's terminal condition, not an episode
		// failure: start no new episode and surface ctx's error.
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		e := mkEnv(ep)
		e.Bind(ctx)
		var st epStats
		var err error
		if e.Cat.Len() != t.cfg.Cat.Len() {
			err = fmt.Errorf("episode env has %d knobs, tuner expects %d", e.Cat.Len(), t.cfg.Cat.Len())
		} else {
			st, err = t.runEpisode(ctx, e, noise, watch.beat)
		}
		seconds := e.Clock.Seconds()
		faults := e.Faults()
		if err == nil && t.cfg.SnapshotEvery > 0 && (ep+1)%t.cfg.SnapshotEvery == 0 {
			pe := mkEnv(ep)
			pe.Bind(ctx)
			watch.beat()
			err = t.maybeSnapshot(pe)
			seconds += pe.Clock.Seconds()
			faults.Add(pe.Faults())
		}
		watch.idle()
		if err != nil {
			switch {
			case errors.Is(err, simdb.ErrWorkerLost):
				// The training server died mid-episode. The partial
				// episode's cost and faults are real; the episode itself
				// runs again on a fresh environment, exploring from a fresh
				// fork of the agent's noise process.
				rep.WorkerDeaths++
				rep.VirtualSeconds += seconds
				rep.Faults.Add(faults)
				if rep.WorkerDeaths > maxRespawns {
					runErr = fmt.Errorf("core: lost %d training workers (budget %d): %w", rep.WorkerDeaths, maxRespawns, err)
				} else {
					noise = forkNoise()
				}
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// Cancelled mid-episode: the partial episode's cost is real
				// and belongs in the report; the run's error is ctx's own,
				// not an episode failure.
				rep.VirtualSeconds += seconds
				rep.Faults.Add(faults)
				runErr = err
			default:
				runErr = fmt.Errorf("core: episode %d: %w", ep, err)
			}
			continue
		}
		rep.Episodes++
		rep.Crashes += st.crashes
		if st.lost {
			rep.LostEpisodes++
		}
		rep.Faults.Add(faults)
		if st.best.Throughput > rep.BestPerf.Throughput {
			rep.BestPerf = st.best
		}
		rep.VirtualSeconds += seconds
		if bestSoFar > 0 && st.best.Throughput <= bestSoFar*(1+t.cfg.ConvergeEps) {
			flat++
		} else {
			flat = 0
		}
		if st.best.Throughput > bestSoFar {
			bestSoFar = st.best.Throughput
		}
		if !rep.Converged && flat >= t.cfg.ConvergeWindow {
			rep.Converged = true
			rep.ConvergedAt = t.Iterations()
		}
		// One decay per completed episode on the agent's process, then
		// sync the run's fork to it.
		t.agentMu.Lock()
		sigma := t.agent.Noise.Decay()
		var sup SupervisorStats
		if t.super != nil {
			sup = t.super.Stats()
		}
		t.agentMu.Unlock()
		noise.SetScale(sigma)
		noise.Reset()
		if ck := opts.Checkpoint; ck != nil && (rep.Episodes%max(ck.Every, 1) == 0 || rep.Episodes == opts.Episodes) {
			syncReport()
			runErr = ck.save(t, rep)
		}
		if opts.OnEpisode != nil {
			opts.OnEpisode(EpisodeStats{
				Episode:        ep,
				Steps:          st.steps,
				Crashes:        st.crashes,
				BestThroughput: st.best.Throughput,
				MeanReward:     st.meanReward(),
				CriticLoss:     st.updates.meanCritic(),
				ActorLoss:      st.updates.meanActor(),
				NoiseSigma:     sigma,
				VirtualSeconds: seconds,
				Transients:     faults.Transients,
				Retries:        faults.Retries,
				SkippedSteps:   st.skipped,
				Lost:           st.lost,
				Heals:          sup.Heals,
				SkippedBatches: sup.SkippedBatches,
				MeanAbsQ:       sup.MeanAbsQ,
				CriticGradNorm: sup.GradNorm,
			})
		}
		ep++
	}
	// Join the watchdog before the final read of its count.
	watch.stop()
	syncReport()
	rep.Iterations = t.Iterations()
	if runErr != nil {
		return rep, runErr
	}
	if err := t.restoreBest(); err != nil {
		return rep, err
	}
	return rep, nil
}

// stallWatchdog flags a training run stuck inside one environment step:
// the trainer stamps a heartbeat (real time) before every step and clears
// it while doing accounting, and the watchdog goroutine counts — and
// reports to onStall — any heartbeat older than the timeout, once per stuck
// step. It observes; it never touches the agent or the run. A nil
// *stallWatchdog (StallTimeout 0) is a valid no-op.
type stallWatchdog struct {
	beatAt  atomic.Int64 // UnixNano of the step in progress; 0 while idle
	flags   atomic.Int64
	quit    chan struct{}
	stopped chan struct{}
}

func startStallWatchdog(timeout time.Duration, onStall func(stuck time.Duration)) *stallWatchdog {
	if timeout <= 0 {
		return nil
	}
	w := &stallWatchdog{quit: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(w.stopped)
		period := timeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		var lastFlag int64
		for {
			select {
			case <-w.quit:
				return
			case <-tick.C:
				now := time.Now().UnixNano()
				b := w.beatAt.Load()
				if b == 0 || b == lastFlag || now-b < int64(timeout) {
					continue
				}
				lastFlag = b
				w.flags.Add(1)
				if onStall != nil {
					onStall(time.Duration(now - b))
				}
			}
		}
	}()
	return w
}

func (w *stallWatchdog) beat() {
	if w != nil {
		w.beatAt.Store(time.Now().UnixNano())
	}
}

func (w *stallWatchdog) idle() {
	if w != nil {
		w.beatAt.Store(0)
	}
}

// flagged reports how many stuck steps have been flagged so far.
func (w *stallWatchdog) flagged() int {
	if w == nil {
		return 0
	}
	return int(w.flags.Load())
}

// stop joins the watchdog goroutine; flagged is final afterwards.
func (w *stallWatchdog) stop() {
	if w != nil {
		close(w.quit)
		<-w.stopped
	}
}

// learnerReport folds the installed supervisor's counters (when one is
// installed) on top of the prior accounting a resumed checkpoint carried.
// Counter fields add; gauge fields reflect the current run.
func (t *Tuner) learnerReport(prior LearnerReport) LearnerReport {
	if t.super == nil {
		return prior
	}
	t.agentMu.Lock()
	s := t.super.Stats()
	d := t.super.Diagnosis()
	t.agentMu.Unlock()
	out := LearnerReport{
		Supervised:     true,
		Heals:          prior.Heals + s.Heals,
		Snapshots:      prior.Snapshots + s.Snapshots,
		SkippedBatches: prior.SkippedBatches + s.SkippedBatches,
		LRScale:        s.LRScale,
		MeanAbsQ:       s.MeanAbsQ,
		GradNorm:       s.GradNorm,
		Saturation:     s.Saturation,
		MaxWeight:      s.MaxWeight,
		Healthy:        s.Healthy,
	}
	if d != nil {
		out.Diagnosis = d.String()
	}
	return out
}
