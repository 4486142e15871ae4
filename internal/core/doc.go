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
// benchmark harness calls). A Tuner is safe for one of either at a time,
// never both concurrently. Inside a parallel training run, worker
// goroutines share the agent under this discipline:
//
//   - agentMu serializes everything that touches the agent's networks,
//     optimizers or rng: action selection (Act/ActBatch/Perturb),
//     gradient updates (TrainStep), Save/Load, taking and restoring the
//     best-policy snapshot (Snapshot/SetWeights), and the self-imitation
//     target.
//   - Observe (storing a transition) is serialized by agentMu only when
//     the replay pool is the default single-lock flavor. With
//     Config.MemoryShards ≥ 2 the pool is an rl.ShardedMemory —
//     internally lock-striped and safe for concurrent use — and workers
//     store transitions without taking agentMu at all, so experience
//     ingestion never waits behind another worker's gradient update.
//   - Iterations and the best-snapshot bookkeeping take their own small
//     locks; TrainOptions.OnEpisode hooks run under the trainer's
//     accounting lock, serialized in episode-completion order.
//   - The learner-health supervisor has no locking of its own: it is
//     installed before workers start and cleared after they join (both
//     under agentMu), and observe/heal/Stats are invoked only while
//     agentMu is held — observe immediately after each TrainStep, Stats
//     from the per-episode accounting section. Rollback (agent.Restore),
//     LR backoff and noise backoff therefore never race a concurrent
//     update. A *DivergenceError returned by observe propagates out of
//     the episode as a fatal error; the trainer still finalizes a valid
//     partial TrainReport (episode accounting, learner-health counters,
//     diagnosis) on that path.
//
// # Cancellation contract
//
// TrainOptions.Ctx bounds a training run; OnlineTune's ctx bounds an
// online request. The context is bound to each worker's
// environment (env.Bind), which checks it on Step/Measure entry and
// before every retry backoff — cancellation is never counted as a
// measurement fault and never retried. Workers observe cancellation at
// the next step boundary, the dispatcher stops handing out episodes, and
// the run returns ctx.Err() alongside a valid partial report. The online
// path deploys the best-known configuration before returning on
// cancellation, so an abandoned request never leaves the instance on an
// experimental config. TrainOptions.StallTimeout arms a watchdog that
// flags (OnStall, TrainReport.Stalls) workers stuck inside one step
// longer than the timeout; it observes per-worker heartbeats and never
// touches the agent.
//
// Data flow of one parallel training step, with the batched inference
// front-end the trainer installs when Workers ≥ 2:
//
//	workers ──states──► inferBatcher ──one ActBatch──► agent (agentMu)
//	   ▲                                                  │
//	   └────────────────actions (fan-out)─────────────────┘
//	workers ──transitions──► sharded replay memory (no agentMu)
//	workers ──TrainStep (sample + update)──► agent (agentMu)
//
// The batcher folds every in-flight action request (up to the worker
// count, waiting at most a 200µs latency cap for stragglers) into one
// forward pass, so a lone worker never stalls and N workers pay one lock
// round-trip instead of N. The batcher preserves each worker's own
// request/response ordering — a worker blocks until its action returns —
// but makes no promise about cross-worker interleaving of observations
// in the memory pool; replay sampling is random precisely so that order
// does not matter (§2.2.4).
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
// # Buffer ownership under the pooled hot path
//
// The nn layers reuse their output matrices across passes (see the
// internal/nn package doc), so anything the agent returns from a pooled
// buffer would be clobbered by the next forward pass. The agent API this
// package consumes is therefore copy-out by contract: Act/ActBatch/
// ActNoisy return freshly allocated action slices, never views into
// network-owned scratch. That is what makes it safe for the batcher to
// release agentMu and fan actions out to workers that read them after
// another batch (or a concurrent TrainStep) has already run the actor
// again.
package core
