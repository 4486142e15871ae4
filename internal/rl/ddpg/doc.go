// Package ddpg implements Deep Deterministic Policy Gradient (Lillicrap et
// al. 2015) exactly as CDBTune uses it (paper §4, Algorithm 1, Table 5):
// an actor µ(s|θ^µ) mapping the 63 internal database metrics to a full
// normalized knob configuration, and a critic Q(s, a|θ^Q) scoring the
// configuration, trained from the experience-replay memory pool with soft
// target networks.
//
// # Two model layouts
//
// Agent.Save writes the policy: actor, critic, then the best-action
// target. WeightSnapshot.Save writes all four networks (actor, actor
// target, critic, critic target), the training image checkpoints keep.
// ReadSnapshot tells them apart by tensor count (2(A+C) > A+C+1) and
// starts a policy's targets as its actor and critic, sharing their states.
//
// # Concurrency contract
//
// An Agent is not internally synchronized. Callers that share one agent
// across goroutines (core serves concurrent online tuning requests on one)
// must hold a single lock around every method — all of them touch the
// networks, the optimizers, the agent's rng or the replay memory:
//
//   - Act, ActNoisy (rng and/or network reads that race with parameter
//     updates)
//   - Observe, TrainStep, TrainStepInfo (the replay pool; parameter
//     updates)
//   - Save, Load, ReadSnapshot, Snapshot, SetWeights, Restore,
//     SetBCTarget, BCTarget, QValue
//
// A WeightSnapshot, once taken or decoded, is never written again: it may
// be read (Save, Finite) without the lock. Finite sets no memo field for
// that reason: a snapshot's "verified finite" mark is fixed when
// ReadSnapshot builds it.
//
// # Copy-on-write learner state
//
// An agent pays for learner state only when it needs it, and copies a
// model only to change it. Every bit it computes is the same as if it had
// built everything up front (TestLoadBeforeFirstUseMatchesLoadAfterInit,
// TestTrainStepGoldenDigest).
//
//   - New builds the architecture without weights and defers the Table 4
//     random init. Act, ActNoisy, TrainStepInfo, Save, Snapshot, QValue
//     and Diagnose run it first. If SetWeights or Load lands first, the
//     init never writes a weight. It still takes, and discards, its draws:
//     NormFloat64 per actor weight, then Float64 per critic weight, in
//     Params order, biases and BatchNorm β/γ excepted. The rng therefore
//     ends where an initialized agent's would. A Load that fails
//     validation leaves the init pending and the rng untouched.
//   - SetWeights (and so Load and Restore) adopts the snapshot: its
//     tensors become the live weights and BatchNorm statistics, with no
//     copy (nn.Network.Adopt). Given the snapshot the weights already
//     equal, it changes nothing.
//   - TrainStepInfo is the one write point. Once the memory gate passes,
//     before the critic's train-mode forward (which already writes
//     BatchNorm statistics), adopted tensors are copied out
//     (nn.Network.Own). A batch skipped as non-finite counts as a write.
//   - While nothing has written the weights since the last Snapshot or
//     SetWeights, Snapshot shares that state's network tensors. Only the
//     best-action target is copied, because SetBCTarget changes it
//     independently of the weights.
//   - Gradient buffers come with a network's first backward pass or
//     ZeroGrad, so the target networks never get any. Adam moments come
//     with the first optimizer sweep (internal/nn).
package ddpg
