package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/reward"
	"cdbtune/internal/rl"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
)

// Wall-clock costs of the model-side stages of one step (§5.1.1); the
// environment-side costs live in simdb.
const (
	ModelUpdateSec = 0.02876
	RecommendSec   = 0.00216
)

// Config assembles a CDBTune tuner.
type Config struct {
	// Cat is the tunable knob subset (the action space).
	Cat *knobs.Catalog

	// DDPG overrides the agent hyperparameters; leave zero-valued to get
	// the paper's Table 4/5 defaults sized for Cat.
	DDPG ddpg.Config

	// RewardKind selects the reward function (RF-CDBTune by default);
	// CT/CL weight throughput vs latency (0.5/0.5 by default, §C.1.2).
	RewardKind reward.Kind
	CT, CL     float64

	// StepsPerEpisode bounds one training episode; UpdatesPerStep is the
	// number of gradient updates after each environment step.
	StepsPerEpisode int
	UpdatesPerStep  int

	// ConvergeWindow and ConvergeEps implement the §C.1.1 convergence
	// rule over completed training episodes: converged once the best
	// performance has not improved by more than ConvergeEps for
	// ConvergeWindow consecutive episodes.
	ConvergeWindow int
	ConvergeEps    float64

	// SnapshotEvery > 0 enables best-policy snapshot selection: every
	// SnapshotEvery training episodes the greedy policy is probed on a
	// fresh environment and the best-performing snapshot is restored when
	// training ends. This is standard early-stopping engineering on top of
	// the paper's algorithm: DDPG's last iterate is not its best one.
	SnapshotEvery int

	// RewardScale, RewardClip and RewardFloor stabilize critic regression:
	// stored rewards are reward·RewardScale clamped into
	// [−RewardFloor, RewardClip]. The paper's reward (Eq. 6) is quadratic
	// in the relative change and reaches the hundreds (negative) when a
	// bad configuration multiplies tail latency; unclamped, a single bad
	// region dominates the critic's squared loss and inverts the learned
	// slope of the knobs that border it. For tuning, *how* bad a bad
	// configuration is carries no useful signal — the floor encodes that.
	RewardScale float64
	RewardClip  float64
	RewardFloor float64

	// CrashPenalty is the stored (post-scale) reward for a crashed step.
	// The paper uses −100 raw; stored at full scale it dominates the
	// squared critic loss and — because crashes co-occur with high values
	// of *several* memory knobs under exploration — inverts the learned
	// value slope of the buffer pool. A modest penalty keeps crash
	// avoidance while preserving the topology of the good region.
	CrashPenalty float64

	Seed int64
}

// DefaultConfig returns the paper's setup for the given knob subset.
func DefaultConfig(cat *knobs.Catalog) Config {
	return Config{
		Cat:             cat,
		DDPG:            ddpg.DefaultConfig(metrics.NumMetrics, cat.Len()),
		RewardKind:      reward.RFCDBTune,
		CT:              0.5,
		CL:              0.5,
		StepsPerEpisode: 20,
		UpdatesPerStep:  2,
		ConvergeWindow:  5,
		ConvergeEps:     0.005,
		SnapshotEvery:   2,
		RewardScale:     0.1,
		RewardClip:      15,
		RewardFloor:     4,
		CrashPenalty:    -3,
		Seed:            1,
	}
}

// Tuner is a CDBTune instance: one trained model serving online tuning
// requests (§2.1: the model is trained once offline, then fine-tuned per
// request).
type Tuner struct {
	cfg   Config
	agent *ddpg.Agent

	// agentMu serializes access to the agent's networks, optimizers, rng
	// and replay memory: action selection, storing transitions, gradient
	// updates, snapshot Save/Load and the self-imitation target. It is what
	// lets concurrent OnlineTune requests share one Tuner (see the package
	// doc for the full concurrency contract).
	agentMu sync.Mutex

	// super, when non-nil, is the learner-health supervisor
	// OfflineTrainOpts installs for the duration of a training run (set
	// before the first episode, cleared when the run returns); trainUpdates
	// consults it under agentMu after every gradient update.
	super *Supervisor

	mu         sync.Mutex
	iterations int

	bestSnapshot *ddpg.WeightSnapshot
	bestEval     float64

	bestActionPerf float64
}

// New builds a tuner from cfg, filling defaults for zero-valued fields.
func New(cfg Config) (*Tuner, error) {
	if cfg.Cat == nil {
		return nil, errors.New("core: Config.Cat is required")
	}
	def := DefaultConfig(cfg.Cat)
	if cfg.DDPG.StateDim == 0 {
		cfg.DDPG = def.DDPG
		cfg.DDPG.Seed = cfg.Seed
	}
	if cfg.CT == 0 && cfg.CL == 0 {
		cfg.CT, cfg.CL = def.CT, def.CL
	}
	if cfg.StepsPerEpisode == 0 {
		cfg.StepsPerEpisode = def.StepsPerEpisode
	}
	if cfg.UpdatesPerStep == 0 {
		cfg.UpdatesPerStep = def.UpdatesPerStep
	}
	if cfg.ConvergeWindow == 0 {
		cfg.ConvergeWindow = def.ConvergeWindow
	}
	if cfg.ConvergeEps == 0 {
		cfg.ConvergeEps = def.ConvergeEps
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = def.SnapshotEvery
	}
	if cfg.RewardScale == 0 {
		cfg.RewardScale = def.RewardScale
	}
	if cfg.RewardClip == 0 {
		cfg.RewardClip = def.RewardClip
	}
	if cfg.RewardFloor == 0 {
		cfg.RewardFloor = def.RewardFloor
	}
	if cfg.CrashPenalty == 0 {
		cfg.CrashPenalty = def.CrashPenalty
	}
	if cfg.DDPG.ActionDim != cfg.Cat.Len() {
		return nil, fmt.Errorf("core: DDPG action dim %d != %d knobs", cfg.DDPG.ActionDim, cfg.Cat.Len())
	}
	return &Tuner{cfg: cfg, agent: ddpg.New(cfg.DDPG)}, nil
}

// Config returns the tuner configuration.
func (t *Tuner) Config() Config { return t.cfg }

// Agent exposes the underlying DDPG agent (diagnostics and tests).
func (t *Tuner) Agent() *ddpg.Agent { return t.agent }

// Iterations reports the total environment steps consumed by training —
// the "number of iterations" metric of Figures 8/14 and Table 6.
func (t *Tuner) Iterations() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.iterations
}

// Save and Load persist the trained model: Save writes the policy, and
// Load also reads a checkpoint's four-network image (ddpg package doc).
func (t *Tuner) Save(w io.Writer) error { return t.agent.Save(w) }
func (t *Tuner) Load(r io.Reader) error { return t.agent.Load(r) }

// TrainReport summarizes an offline training run.
type TrainReport struct {
	Episodes    int
	Iterations  int
	Crashes     int
	Converged   bool
	ConvergedAt int // iteration index of convergence, 0 if never
	// BestPerf is the best stress-test result seen during training.
	BestPerf metrics.External
	// VirtualSeconds is the simulated wall-clock cost summed over every
	// training environment, snapshot probes included.
	VirtualSeconds float64

	// WorkerDeaths counts training servers lost mid-episode
	// (simdb.ErrWorkerLost); each interrupted episode ran again on a fresh
	// environment.
	WorkerDeaths int
	// LostEpisodes counts episodes abandoned after the instance could not
	// be recovered (persistent crash or measurement failure). They still
	// count toward Episodes — the budget was spent — but produced few or
	// no samples.
	LostEpisodes int
	// Faults aggregates the measurement faults every training environment
	// absorbed: transient failures, retries, stalls, metric dropouts.
	Faults env.FaultReport

	// Resumed reports whether this run continued from a checkpoint;
	// ResumedEpisodes is how many completed episodes the checkpoint
	// carried (they are included in Episodes).
	Resumed         bool
	ResumedEpisodes int

	// Learner summarizes the learner-health supervision of the run: heals
	// performed, batches discarded as non-finite, snapshot cadence and the
	// final health signals. Learner.Healthy is false only when the run
	// aborted on an exhausted heal budget (the returned error is then a
	// *DivergenceError carrying the full Diagnosis).
	Learner LearnerReport

	// Stalls counts stall-watchdog flags: the run observed stuck mid-step
	// for longer than TrainOptions.StallTimeout (each distinct stuck step
	// is flagged once).
	Stalls int
}

// LearnerReport is the learner-health section of a TrainReport.
type LearnerReport struct {
	// Supervised reports whether a learner-health supervisor watched the
	// run (see TrainOptions.Supervisor).
	Supervised bool
	// Heals counts divergence rollbacks; Snapshots the in-memory weight
	// snapshots taken; SkippedBatches the non-finite batches discarded
	// before they could touch a weight.
	Heals          int
	Snapshots      int
	SkippedBatches int
	// LRScale is the cumulative learning-rate backoff (1 = never backed
	// off); MeanAbsQ, GradNorm and Saturation the final EMA health
	// signals; MaxWeight the last observed weight magnitude.
	LRScale    float64
	MeanAbsQ   float64
	GradNorm   float64
	Saturation float64
	MaxWeight  float64
	// Healthy is true when the run ended without an unhealed divergence.
	Healthy bool
	// Diagnosis is the rendered post-mortem when Healthy is false.
	Diagnosis string
}

// EnvFactory produces a fresh training environment per episode — the
// workload generator driving standard workloads against a training
// instance (§2.2.1 cold start).
type EnvFactory func(episode int) *env.Env

// maybeSnapshot probes the current greedy policy on a fresh environment
// and keeps a copy of the model when it is the best seen so far. Probe
// steps do not enter the memory pool or the iteration count.
func (t *Tuner) maybeSnapshot(e *env.Env) error {
	base, err := e.Measure()
	if err != nil {
		if benignFault(err) {
			// A probe lost to environment faults skips this snapshot
			// round; the next SnapshotEvery boundary tries again.
			return nil
		}
		return fmt.Errorf("core: snapshot probe: %w", err)
	}
	best := base.Ext.Throughput
	state := metrics.Normalize(base.State)
	probeSteps := 3
	for i := 0; i < probeSteps; i++ {
		action := t.selectAction(state, nil)
		res, err := e.Step(action)
		if err != nil {
			if errors.Is(err, simdb.ErrCrashed) {
				// Restart with defaults and re-measure so the next probe
				// action conditions on the recovered instance, not the
				// stale pre-crash state.
				rec, rerr := recoverEnv(e)
				if rerr != nil {
					if benignFault(rerr) {
						break // probe cut short; snapshot with what we saw
					}
					return fmt.Errorf("core: snapshot probe crash recovery: %w", rerr)
				}
				state = metrics.Normalize(rec.State)
				continue
			}
			if benignFault(err) {
				continue // skipped probe step
			}
			return err
		}
		state = metrics.Normalize(res.State)
		if res.Ext.Throughput > best {
			best = res.Ext.Throughput
		}
	}
	t.agentMu.Lock()
	defer t.agentMu.Unlock()
	if t.bestSnapshot == nil || best > t.bestEval {
		t.bestSnapshot = t.agent.Snapshot()
		t.bestEval = best
	}
	return nil
}

// restoreBest puts the best snapshot taken during training back, under
// Load's contract: a snapshot taken of already-diverged (non-finite)
// weights is refused with the agent untouched, and the optimizers' moments
// are kept (unlike the supervisor's divergence rollback).
func (t *Tuner) restoreBest() error {
	t.agentMu.Lock()
	defer t.agentMu.Unlock()
	if t.bestSnapshot == nil {
		return nil
	}
	if err := t.bestSnapshot.Finite(); err != nil {
		return fmt.Errorf("core: best-policy snapshot: corrupt model: %w", err)
	}
	return t.agent.SetWeights(t.bestSnapshot)
}

// epStats accumulates one episode's outcome and telemetry while it runs.
type epStats struct {
	crashes int
	steps   int
	skipped int  // steps lost to transient/apply failures (no sample)
	lost    bool // episode abandoned: instance unrecoverable
	best    metrics.External

	rewardSum float64
	rewardN   int
	updates   updateTotals
}

// meanReward averages the episode's stored rewards (crash penalties
// included); zero when no step completed.
func (s epStats) meanReward() float64 {
	if s.rewardN == 0 {
		return 0
	}
	return s.rewardSum / float64(s.rewardN)
}

// benignFault reports whether an episode error is an environment fault
// the trainer should absorb (crash, exhausted transient retries, failed
// deployment) rather than a programming or configuration error it must
// surface. A lost training server is NOT benign for the episode — the
// trainer handles it by running the episode again on a fresh environment.
func benignFault(err error) bool {
	if errors.Is(err, simdb.ErrWorkerLost) {
		return false
	}
	var ae *env.ApplyError
	return errors.Is(err, simdb.ErrCrashed) || errors.Is(err, simdb.ErrTransient) || errors.As(err, &ae)
}

// recoverEnv retries the full default-reset recovery a few times; the
// post-reset measurement already retries transients internally, so this
// covers recoveries whose measurement keeps failing (chaos storms,
// instances that crash even on defaults).
func recoverEnv(e *env.Env) (simdb.Result, error) {
	var rec simdb.Result
	var err error
	for i := 0; i < 3; i++ {
		rec, err = e.RecoverDefaults()
		if err == nil {
			return rec, nil
		}
		if !benignFault(err) {
			return rec, err
		}
	}
	return rec, err
}

// runEpisode executes one try-and-error training episode on e: the agent
// explores (drawing from noise) and learns. Environment faults are
// absorbed: transient failures that out-ran env's retries skip the step,
// crashes recover to defaults, and an instance that cannot be recovered
// ends the episode early (st.lost) instead of aborting training. A cancelled ctx ends the episode with its
// error (never absorbed); beat is called before every environment step so
// the stall watchdog can see the run making progress.
func (t *Tuner) runEpisode(ctx context.Context, e *env.Env, noise rl.Noise, beat func()) (epStats, error) {
	var st epStats
	beat()
	base, err := e.Measure()
	if err != nil {
		if errors.Is(err, simdb.ErrCrashed) {
			var rerr error
			base, rerr = recoverEnv(e)
			err = rerr
		}
		if err != nil {
			if benignFault(err) {
				st.lost = true
				return st, nil
			}
			return st, fmt.Errorf("core: measuring initial performance: %w", err)
		}
	}
	rf := reward.New(t.cfg.RewardKind, t.cfg.CT, t.cfg.CL)
	rf.Init(base.Ext.Throughput, base.Ext.Latency99)
	st.best = base.Ext
	state := metrics.Normalize(base.State)

	for step := 0; step < t.cfg.StepsPerEpisode; step++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		beat()
		action := t.selectAction(state, noise)
		e.Clock.Charge(RecommendSec)
		res, err := e.Step(action)
		t.mu.Lock()
		t.iterations++
		t.mu.Unlock()
		st.steps++
		if err != nil {
			if !errors.Is(err, simdb.ErrCrashed) {
				if benignFault(err) {
					// Transient measurement or deployment failure that
					// out-ran env's retries: the step produced no sample,
					// the instance is unchanged, the episode continues.
					st.skipped++
					continue
				}
				return st, err
			}
			st.crashes++
			st.rewardSum += t.cfg.CrashPenalty
			st.rewardN++
			t.observeRaw(rl.Transition{
				State: state, Action: action,
				Reward: t.cfg.CrashPenalty, NextState: state, Done: true,
			})
			u, uerr := t.trainUpdates(e)
			st.updates.add(u)
			if uerr != nil {
				return st, uerr
			}
			// The controller redeploys defaults and the episode continues
			// from the recovered instance — §5.2.3 reports frequent
			// crashes early in training that the negative reward
			// gradually eliminates; each one costs a restart and a
			// re-measurement, not the rest of the episode's samples. An
			// instance that stays down through the recovery retries ends
			// the episode early rather than killing the whole run.
			rec, rerr := recoverEnv(e)
			if rerr != nil {
				if benignFault(rerr) {
					st.lost = true
					return st, nil
				}
				return st, fmt.Errorf("core: re-measuring after crash: %w", rerr)
			}
			state = metrics.Normalize(rec.State)
			continue
		}
		r := rf.Compute(res.Ext.Throughput, res.Ext.Latency99)
		next := metrics.Normalize(res.State)
		st.rewardSum += t.storedReward(r)
		st.rewardN++
		t.observe(rl.Transition{
			State: state, Action: action, Reward: r,
			NextState: next, Done: step == t.cfg.StepsPerEpisode-1,
		})
		u, uerr := t.trainUpdates(e)
		st.updates.add(u)
		if uerr != nil {
			return st, uerr
		}
		state = next
		if res.Ext.Throughput > st.best.Throughput {
			st.best = res.Ext
		}
		t.noteBestAction(action, res.Ext.Throughput)
	}
	return st, nil
}

// selectAction picks the next configuration for a training or probe step:
// µ(s) perturbed by explore (the run's noise fork), or greedy µ(s) when
// explore is nil.
func (t *Tuner) selectAction(state []float64, explore rl.Noise) []float64 {
	t.agentMu.Lock()
	defer t.agentMu.Unlock()
	if explore != nil {
		return t.agent.ActNoisy(state, explore)
	}
	return t.agent.Act(state)
}

// noteBestAction feeds the self-imitation target: the best-throughput
// action observed during training (see ddpg.Config.BCWeight).
func (t *Tuner) noteBestAction(action []float64, tput float64) {
	t.agentMu.Lock()
	defer t.agentMu.Unlock()
	if tput > t.bestActionPerf {
		t.bestActionPerf = tput
		t.agent.SetBCTarget(action)
	}
}

// observeRaw stores a transition whose reward is already in stored scale.
func (t *Tuner) observeRaw(tr rl.Transition) {
	t.agentMu.Lock()
	t.agent.Observe(tr)
	t.agentMu.Unlock()
}

// storedReward maps a raw reward into stored scale: scaled by RewardScale
// and clamped into [−RewardFloor, RewardClip].
func (t *Tuner) storedReward(raw float64) float64 {
	r := raw * t.cfg.RewardScale
	if r > t.cfg.RewardClip {
		r = t.cfg.RewardClip
	}
	if r < -t.cfg.RewardFloor {
		r = -t.cfg.RewardFloor
	}
	return r
}

// observe stores a transition in the memory pool, scaling and clipping
// the reward per Config.RewardScale/RewardClip.
func (t *Tuner) observe(tr rl.Transition) {
	tr.Reward = t.storedReward(tr.Reward)
	t.observeRaw(tr)
}

// updateTotals sums the losses of a batch of gradient updates.
type updateTotals struct {
	criticSum float64
	criticN   int
	actorSum  float64
	actorN    int
}

func (u *updateTotals) add(v updateTotals) {
	u.criticSum += v.criticSum
	u.criticN += v.criticN
	u.actorSum += v.actorSum
	u.actorN += v.actorN
}

// meanCritic and meanActor average the accumulated losses, zero when no
// update of that kind ran.
func (u updateTotals) meanCritic() float64 {
	if u.criticN == 0 {
		return 0
	}
	return u.criticSum / float64(u.criticN)
}

func (u updateTotals) meanActor() float64 {
	if u.actorN == 0 {
		return 0
	}
	return u.actorSum / float64(u.actorN)
}

// trainUpdates performs UpdatesPerStep gradient updates under agentMu,
// feeding each step's health signals to the installed supervisor (when
// any). A non-nil error is fatal to the run: the supervisor's heal budget
// is exhausted (*DivergenceError) or a rollback itself failed.
func (t *Tuner) trainUpdates(e *env.Env) (updateTotals, error) {
	var u updateTotals
	t.agentMu.Lock()
	defer t.agentMu.Unlock()
	for i := 0; i < t.cfg.UpdatesPerStep; i++ {
		info, ok := t.agent.TrainStepInfo()
		if !ok {
			continue
		}
		e.Clock.Charge(ModelUpdateSec)
		if !info.SkippedNonFinite {
			u.criticSum += info.CriticLoss
			u.criticN++
			if info.ActorUpdated {
				u.actorSum += info.ActorLoss
				u.actorN++
			}
		}
		if t.super != nil {
			if err := t.super.observe(info); err != nil {
				return u, err
			}
		}
	}
	return u, nil
}

// TuneResult is the outcome of one online tuning request.
type TuneResult struct {
	Best     []float64
	BestPerf metrics.External
	Initial  metrics.External
	History  []metrics.External
	Crashes  int
	// Seconds is the request's virtual wall-clock cost; Table 2 expects
	// ≈ 25 minutes for the 5-step protocol.
	Seconds float64

	// Reverts counts guardrail reverts to the best-known-good
	// configuration after K consecutive failed steps; Vetoes counts
	// recommendations adjusted away from recorded near-crash regions.
	// Both are zero without a guardrail.
	Reverts int
	Vetoes  int
	// SkippedSteps counts steps lost to transient measurement or
	// deployment failures (no sample produced).
	SkippedSteps int
	// Faults is the environment's fault/retry accounting for the request.
	Faults env.FaultReport
}

// TuneOptions configures one OnlineTune request.
type TuneOptions struct {
	// Steps is the number of recommendation steps (0 means the paper's 5).
	Steps int
	// FineTune updates the model on the observed feedback, with small
	// exploration after the first steps.
	FineTune bool
	// Guard, when non-nil, screens every recommendation against remembered
	// near-crash regions, tracks the request's best-known-good
	// configuration, and reverts the instance to it after K consecutive
	// failed or crashed steps. Nil runs unguarded.
	Guard *Guardrail
}

// OnlineTune serves one tuning request (§2.1.2): replay the user's
// workload (already baked into e), recommend with the trained model for
// opts.Steps steps, fine-tune the model on the observed feedback, and
// return the configuration with the best observed performance. The memory
// pool keeps the new transitions — incremental training (§2.1.1).
// Whatever happens during exploration, the instance ends the request on
// the best configuration actually measured — never on a crashing one.
//
// A cancelled or past-deadline ctx stops recommending promptly (checked
// before every step; the environment is bound to ctx so backoff waits
// abort too), but the request still ends with the best-effort deploy of
// the best configuration measured so far — an abandoned request must not
// leave the instance on an exploratory configuration. The returned error
// is then ctx's error and the TuneResult is valid partial accounting.
func (t *Tuner) OnlineTune(ctx context.Context, e *env.Env, opts TuneOptions) (TuneResult, error) {
	var out TuneResult
	steps, g := opts.Steps, opts.Guard
	if steps <= 0 {
		steps = 5
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.Bind(ctx)
	defer e.Bind(nil)
	start := e.Clock.Seconds()
	base, err := e.Measure()
	if err != nil {
		if errors.Is(err, simdb.ErrCrashed) {
			// The instance is down before tuning even starts; recover it
			// so the request can proceed from defaults.
			var rerr error
			base, rerr = recoverEnv(e)
			err = rerr
		}
		if err != nil {
			return out, fmt.Errorf("core: measuring initial performance: %w", err)
		}
	}
	rf := reward.New(t.cfg.RewardKind, t.cfg.CT, t.cfg.CL)
	rf.Init(base.Ext.Throughput, base.Ext.Latency99)
	out.Initial = base.Ext
	out.BestPerf = base.Ext
	out.Best = e.DB.CurrentKnobs(e.Cat)
	state := metrics.Normalize(base.State)
	if g != nil {
		g.BeginRequest(out.Best, base.Ext.Throughput)
	}

	var cancelErr error
	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		var action []float64
		t.agentMu.Lock()
		if best := t.agent.BCTarget(); step == 0 && best != nil {
			// The memory pool's best-known configuration is the first
			// recommendation — §2.1.2: "those knobs corresponding to the
			// best performance in online tuning will be recommended".
			action = append([]float64(nil), best...)
		} else if opts.FineTune && step > 1 {
			// Small exploration during fine-tuning adapts the standard
			// model to the user's real workload.
			action = t.agent.ActNoisy(state, t.agent.Noise)
		} else {
			action = t.agent.Act(state)
		}
		t.agentMu.Unlock()
		if g != nil {
			if adj, changed := g.Screen(action); changed {
				action = adj
				out.Vetoes++
			}
		}
		e.Clock.Charge(RecommendSec)
		res, err := e.Step(action)
		if err != nil {
			switch {
			case errors.Is(err, simdb.ErrCrashed):
				out.Crashes++
				if g != nil {
					g.NoteCrash(action)
				}
				t.observeRaw(rl.Transition{
					State: state, Action: action,
					Reward: t.cfg.CrashPenalty, NextState: state, Done: true,
				})
				// Restart with defaults and re-measure so the next
				// recommendation conditions on the recovered instance. If
				// the instance stays down through the retries, continue
				// anyway: the guardrail revert below (and the final
				// best-known-good deploy) is the recovery of last resort.
				rec, rerr := recoverEnv(e)
				if rerr == nil {
					state = metrics.Normalize(rec.State)
				} else if !benignFault(rerr) {
					return out, fmt.Errorf("core: re-measuring after crash: %w", rerr)
				}
			case benignFault(err):
				// Transient measurement or deployment failure: the step
				// produced nothing; the instance keeps its configuration.
				out.SkippedSteps++
				if g != nil {
					g.NoteFailure()
				}
			default:
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					// Cancellation surfaced through the bound environment
					// mid-step: stop recommending, but still fall through to
					// the best-known-good deploy below.
					cancelErr = err
					break
				}
				out.Faults = e.Faults()
				return out, err
			}
			if cancelErr != nil {
				break
			}
			if g != nil {
				if target, ok := g.RevertTarget(); ok {
					// K consecutive failed steps: put the instance back on
					// the best configuration this request has measured.
					out.Reverts++
					if _, aerr := e.DB.ApplyKnobs(e.Cat, target); aerr == nil {
						if rec, merr := e.Measure(); merr == nil {
							state = metrics.Normalize(rec.State)
						}
					}
				}
			}
			continue
		}
		r := rf.Compute(res.Ext.Throughput, res.Ext.Latency99)
		next := metrics.Normalize(res.State)
		if g != nil {
			g.NoteGood(action, res.Ext.Throughput)
		}
		t.observe(rl.Transition{
			State: state, Action: action, Reward: r,
			NextState: next, Done: step == steps-1,
		})
		if opts.FineTune {
			if _, uerr := t.trainUpdates(e); uerr != nil {
				out.Faults = e.Faults()
				return out, uerr
			}
		}
		state = next
		out.History = append(out.History, res.Ext)
		if res.Ext.Throughput > out.BestPerf.Throughput {
			out.BestPerf = res.Ext
			out.Best = append([]float64(nil), action...)
		}
	}
	// Deploy the best configuration found (§2.1.2: "those knobs
	// corresponding to the best performance will be recommended"). The
	// deployment itself is retried: ending the request on a half-applied
	// or crashing configuration is the one outcome the guardrail exists
	// to prevent.
	var aerr error
	for attempt := 0; attempt < 3; attempt++ {
		if _, aerr = e.DB.ApplyKnobs(e.Cat, out.Best); aerr == nil {
			break
		}
	}
	out.Faults = e.Faults()
	if aerr != nil {
		return out, fmt.Errorf("core: deploying final configuration: %w", aerr)
	}
	out.Seconds = e.Clock.Seconds() - start
	return out, cancelErr
}
