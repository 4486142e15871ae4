package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cdbtune/internal/simdb"
)

// OfflineTrainOpts is the offline trainer (§2.1.1; the suffix is a name
// the benchmark pins): each episode resets to the default configuration,
// measures T0/L0, then walks StepsPerEpisode try-and-error steps; crashes
// are punished (§5.2.3) and the instance is restarted with defaults so the
// episode's remaining steps still produce samples. It is a work-sharing
// loop where each of opts.Workers workers — the simulator's stand-in for
// the 30 training servers of §5.1 — repeatedly claims the next episode
// index, runs it on a fresh environment from mkEnv, and folds the outcome
// into one shared report. Gradient updates are serialized on the agent
// lock, but the other two hot-path agent operations scale past it: with
// Workers ≥ 2 an inference batcher folds concurrent action requests (up
// to one per worker) into one shared forward pass, and with
// Config.MemoryShards ≥ 2 workers store transitions into the lock-striped
// replay pool without touching the agent lock at all. The stress tests —
// the expensive part in real life — always run concurrently.
//
// The serial training semantics are preserved at any worker count:
//
//   - mkEnv(ep) is called exactly once per episode index, in order, plus
//     one extra call with the same index per best-policy snapshot probe
//     (Config.SnapshotEvery). Exceptions: an episode interrupted by a lost
//     worker, or in flight when a resumed run was killed, re-runs, so
//     mkEnv sees that index again.
//   - Exploration noise decays once per *completed episode* on one shared
//     schedule, so sigma after N episodes matches serial training no
//     matter how many workers ran them. Each worker explores with its own
//     fork of the noise process, keeping OU temporal correlation within,
//     not across, concurrent episodes. A respawned worker forks from the
//     canonical process, so it rejoins the same schedule.
//   - Convergence (§C.1.1) is detected over episodes in completion order,
//     which for one worker is exactly the serial episode order.
//   - TrainReport.VirtualSeconds sums every environment's clock, snapshot
//     probes included — the single-server cost, without the
//     parallel-worker discount.
//
// Resilience: an episode whose error is an absorbed environment fault
// never reaches this loop (see runEpisode); a worker whose environment
// reports simdb.ErrWorkerLost is respawned (up to
// TrainOptions.MaxWorkerRespawns) and its episode re-queued; any other
// episode error stops the handout of new episodes, in-flight episodes on
// other workers drain, and the error is returned. With
// TrainOptions.Checkpoint set, completed-episode accounting and the full
// learning state persist atomically every Checkpointer.Every episodes,
// and TrainOptions.Resume continues a killed run so its final report
// matches an uninterrupted one's episode accounting.
func (t *Tuner) OfflineTrainOpts(mkEnv EnvFactory, opts TrainOptions) (TrainReport, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	maxRespawns := opts.MaxWorkerRespawns
	if maxRespawns <= 0 {
		maxRespawns = 8
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	var rep TrainReport
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
	// A resumed run's checkpoint carries the prior segment's learner
	// accounting: the supervisor restarts from zero, so its counters are
	// added on top of these.
	priorLearner := rep.Learner

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
		t.agentMu.Lock()
		t.super = newSupervisor(opts.Supervisor, t.agent, qBound)
		t.agentMu.Unlock()
		defer func() { t.super = nil }()
	}

	if workers > 1 {
		t.infer = newInferBatcher(t, workers)
		// Workers have all joined by the time the deferred stop runs, so
		// no request can be in flight.
		defer func() {
			t.infer.stop()
			t.infer = nil
		}()
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		retry []int // episodes interrupted by a lost worker, run next
		fatal error

		// flat and bestSoFar drive the §C.1.1 convergence rule over
		// completed episodes: converged once the best performance seen has
		// not improved by more than ConvergeEps for ConvergeWindow
		// consecutive episodes. A resumed run re-arms the window from the
		// checkpointed best.
		flat      int
		bestSoFar = rep.BestPerf.Throughput
	)
	takeEpisode := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if fatal != nil {
			return 0, false
		}
		if err := ctx.Err(); err != nil {
			// Cancellation is the run's terminal condition, not an episode
			// failure: stop the handout and surface ctx's error.
			fatal = err
			return 0, false
		}
		if len(retry) > 0 {
			ep := retry[0]
			retry = retry[1:]
			return ep, true
		}
		if next >= opts.Episodes {
			return 0, false
		}
		ep := next
		next++
		return ep, true
	}
	checkpoint := func() {
		// Caller holds mu; save takes the agent lock internally (the
		// mu → agentMu order every accounting path uses).
		if opts.Checkpoint == nil {
			return
		}
		every := opts.Checkpoint.Every
		if every < 1 {
			every = 1
		}
		if rep.Episodes%every != 0 && rep.Episodes != opts.Episodes {
			return
		}
		rep.Learner = t.learnerReport(priorLearner)
		if err := opts.Checkpoint.save(t, rep); err != nil && fatal == nil {
			fatal = err
		}
	}
	// Stall watchdog: each worker stamps a heartbeat (real time) before
	// every environment step and clears it while doing accounting; the
	// watchdog goroutine flags any heartbeat older than StallTimeout, once
	// per stuck step.
	var beats []atomic.Int64
	var watchStop, watchDone chan struct{}
	if opts.StallTimeout > 0 {
		beats = make([]atomic.Int64, workers)
		watchStop = make(chan struct{})
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			lastFlag := make([]int64, len(beats))
			period := opts.StallTimeout / 4
			if period < time.Millisecond {
				period = time.Millisecond
			}
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-watchStop:
					return
				case <-tick.C:
					now := time.Now().UnixNano()
					for i := range beats {
						b := beats[i].Load()
						if b == 0 || b == lastFlag[i] || now-b < int64(opts.StallTimeout) {
							continue
						}
						lastFlag[i] = b
						mu.Lock()
						rep.Stalls++
						mu.Unlock()
						if opts.OnStall != nil {
							opts.OnStall(i, time.Duration(now-b))
						}
					}
				}
			}
		}()
	}
	var runWorker func(wk int)
	runWorker = func(wk int) {
		defer wg.Done()
		beat := func() {}
		idle := func() {}
		if beats != nil {
			b := &beats[wk]
			beat = func() { b.Store(time.Now().UnixNano()) }
			idle = func() { b.Store(0) }
			defer idle()
		}
		t.agentMu.Lock()
		noise := t.agent.Noise.Fork()
		t.agentMu.Unlock()
		for {
			ep, ok := takeEpisode()
			if !ok {
				return
			}
			e := mkEnv(ep)
			e.Bind(ctx)
			var st epStats
			var err error
			if e.Cat.Len() != t.cfg.Cat.Len() {
				err = fmt.Errorf("episode env has %d knobs, tuner expects %d", e.Cat.Len(), t.cfg.Cat.Len())
			} else {
				st, err = t.runEpisode(ctx, e, noise, beat)
			}
			seconds := e.Clock.Seconds()
			faults := e.Faults()
			if err == nil && t.cfg.SnapshotEvery > 0 && (ep+1)%t.cfg.SnapshotEvery == 0 {
				pe := mkEnv(ep)
				pe.Bind(ctx)
				beat()
				err = t.maybeSnapshot(pe)
				seconds += pe.Clock.Seconds()
				faults.Add(pe.Faults())
			}
			idle()
			mu.Lock()
			if err != nil {
				if errors.Is(err, simdb.ErrWorkerLost) && fatal == nil {
					// The training server died mid-episode. The partial
					// episode's cost and faults are real; the episode
					// itself re-queues and a replacement worker takes
					// over on the shared annealing schedule.
					rep.WorkerDeaths++
					rep.VirtualSeconds += seconds
					rep.Faults.Add(faults)
					retry = append(retry, ep)
					if rep.WorkerDeaths > maxRespawns {
						fatal = fmt.Errorf("core: lost %d training workers (budget %d): %w", rep.WorkerDeaths, maxRespawns, err)
						mu.Unlock()
						return
					}
					wg.Add(1)
					go runWorker(wk)
					mu.Unlock()
					return
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// Cancelled mid-episode: the partial episode's cost is
					// real and belongs in the report; the run's error is
					// ctx's own, not an episode failure.
					rep.VirtualSeconds += seconds
					rep.Faults.Add(faults)
					if fatal == nil {
						fatal = err
					}
					mu.Unlock()
					return
				}
				if fatal == nil {
					fatal = fmt.Errorf("core: episode %d: %w", ep, err)
				}
				mu.Unlock()
				return
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
			// One decay per completed episode on the canonical process,
			// then sync this worker's fork to the shared schedule.
			t.agentMu.Lock()
			sigma := t.agent.Noise.Decay()
			var sup SupervisorStats
			if t.super != nil {
				sup = t.super.Stats()
			}
			t.agentMu.Unlock()
			noise.SetScale(sigma)
			noise.Reset()
			checkpoint()
			if opts.OnEpisode != nil {
				inferMean := 1.0
				if t.infer != nil {
					inferMean = t.infer.meanBatch()
				}
				opts.OnEpisode(EpisodeStats{
					Episode:        ep,
					Worker:         wk,
					Steps:          st.steps,
					Crashes:        st.crashes,
					BestThroughput: st.best.Throughput,
					MeanReward:     st.meanReward(),
					CriticLoss:     st.updates.meanCritic(),
					ActorLoss:      st.updates.meanActor(),
					NoiseSigma:     sigma,
					VirtualSeconds: seconds,
					InferBatchMean: inferMean,
					MemoryShards:   t.memShards,
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
			mu.Unlock()
		}
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go runWorker(wk)
	}
	wg.Wait()
	if watchStop != nil {
		// Join the watchdog before touching rep: it writes rep.Stalls.
		close(watchStop)
		<-watchDone
	}
	rep.Learner = t.learnerReport(priorLearner)
	rep.Iterations = t.Iterations()
	if fatal != nil {
		return rep, fatal
	}
	if err := t.restoreBest(); err != nil {
		return rep, err
	}
	return rep, nil
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
