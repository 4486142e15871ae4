// Package core assembles CDBTune, the paper's end-to-end automatic cloud
// database tuning system (§2): the DDPG agent over the 63-metric state and
// the knob-configuration action space, the reward function of §4.2, the
// experience-replay memory pool, offline training against standard
// workloads (cold start), and the 5-step online tuning protocol with
// fine-tuning on the user's replayed workload.
//
// # Concurrency contract
//
// Each verb has one entry point and one options struct:
// OfflineTrainOpts(mkEnv, TrainOptions) trains and OnlineTune(ctx, env,
// TuneOptions) serves a request (the Opts suffix is the name the frozen
// benchmark harness calls). A Tuner carries one training run or any
// number of concurrent online requests, never both at once.
//
//   - Training is one goroutine: episodes run one after another on the
//     caller's. The stress test is a simulator call and the gradient
//     update is the episode, so there is nothing for a second worker to
//     overlap. The learner-health supervisor is installed before the first
//     episode and cleared when the run returns — plain sequential code; its
//     observe/heal/Stats run right after each TrainStep and in the
//     per-episode accounting. A *DivergenceError returned by observe ends
//     the run as a fatal error; the trainer still finalizes a valid
//     partial TrainReport (episode accounting, learner-health counters,
//     diagnosis) on that path.
//   - agentMu is what makes concurrent online requests safe (the
//     controller serves them on one Tuner): it serializes everything that
//     touches the agent's networks, optimizers, rng or replay memory —
//     action selection, Observe, gradient updates (TrainStep), Save/Load,
//     taking and restoring the best-policy snapshot, and the
//     self-imitation target. The trainer takes it for the same calls, so
//     every agent access in the package follows one rule.
//   - Iterations takes its own small lock, so progress can be read while a
//     run is in flight; TrainOptions.OnEpisode hooks run on the training
//     goroutine, in episode order.
//
// # Cancellation contract
//
// TrainOptions.Ctx bounds a training run; OnlineTune's ctx bounds an
// online request. The context is bound to each episode's environment
// (env.Bind), which checks it on Step/Measure entry and before every retry
// backoff — cancellation is never counted as a measurement fault and never
// retried. A training run observes cancellation at the next step boundary,
// starts no further episode, and returns ctx.Err() alongside a valid
// partial report. The online path deploys the best-known configuration
// before returning on cancellation, so an abandoned request never leaves
// the instance on an experimental config. TrainOptions.StallTimeout arms a
// watchdog goroutine that flags (OnStall, TrainReport.Stalls) a run stuck
// inside one step longer than the timeout; it reads the run's heartbeat
// and never touches the agent.
//
// # Drift detection and dynamic serving
//
// ServeDynamic keeps a tuned instance healthy under a time-varying
// workload (env.Env with a workload.Timeline): short observation
// windows stream the normalized 63-metric state into a DriftDetector,
// which tracks the EWMA of the RMS fingerprint distance from a
// reference state captured right after the last (re-)tune — the same
// distance metric internal/registry uses for nearest-model lookup
// (re-implemented here because registry already imports core). When the
// smoothed distance crosses DriftConfig.Threshold the loop runs an
// in-place guarded re-tune, optionally warm-seeded from a registry
// model via the DynamicOptions.WarmSeed callback.
//
// Threshold semantics: distances are over [0,1]-normalized metrics, so
// they are comparable across workloads and hardware. Against the
// simulator the same-workload noise floor is ~0.002 RMS and benign
// diurnal wobble (±15% load) stays under ~0.005, while real phase
// changes — a 2–3× burst, a write-heavy batch window, an overnight
// trough — measure 0.03–0.15. DefaultDriftThreshold (0.02) therefore
// fires on phase changes within 2–3 observation windows (EWMA α = 0.5)
// and never on noise; raise it toward 0.05 to re-tune only on severe
// shifts, lower it toward 0.01 to chase smaller mix changes at the cost
// of more re-tune churn. Warmup and Cooldown stop the detector from
// firing off a half-filled EWMA or immediately after its own re-tune.
//
// Interaction with the Guardrail and Supervisor: every re-tune runs
// through OnlineTune under one Guardrail that persists across the
// whole serving window, so near-crash regions screened during one burst
// still veto recommendations hours later, and K consecutive failures
// inside any re-tune revert to the window's best-known-good
// configuration. Crashes at the steady serving configuration (outside a
// re-tune) recover to defaults and rebase the detector — the revert of
// last resort — and DynamicReport.Unreverted counts the violations that
// could not be recovered (zero is the safety bar). The learner-health
// Supervisor is orthogonal: it guards gradient updates during offline
// training and fine-tuning re-tunes (FineTune = true), while the drift
// detector guards the serving configuration; a Supervisor heal rolls
// back model weights, a guardrail revert rolls back the database
// config.
//
// # What a snapshot costs
//
// The supervisor's rollback snapshot and the best-policy snapshot are
// ddpg.WeightSnapshots, taken under agentMu. A snapshot of weights that
// nothing has written since the last snapshot or the last Load or restore
// shares that state's tensors and costs a few small allocations; only
// one taken after an update copies the 4.1 MB of a full-size model. So a
// warm session that runs no gradient update — the serving common case —
// copies no model at all: the loaded entry's tensors are the live
// weights, both snapshots share them, and restoreBest of an unchanged
// best policy changes nothing (ddpg package doc, "Copy-on-write learner
// state"). restoreBest still refuses a non-finite snapshot; one decoded
// by Load carries its verification and is not scanned again.
//
// # Buffer ownership under the pooled hot path
//
// The nn layers reuse their output matrices across passes (see the
// internal/nn package doc), so anything the agent returns from a pooled
// buffer would be clobbered by the next forward pass. The agent API this
// package consumes is therefore copy-out by contract: Act and ActNoisy
// return freshly allocated action slices, never views into network-owned
// scratch, so an action stays valid after agentMu is released and another
// request (or a TrainStep) runs the actor again.
package core
