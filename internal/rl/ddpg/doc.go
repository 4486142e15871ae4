// Package ddpg implements Deep Deterministic Policy Gradient (Lillicrap et
// al. 2015) exactly as CDBTune uses it (paper §4, Algorithm 1, Table 5):
// an actor µ(s|θ^µ) mapping the 63 internal database metrics to a full
// normalized knob configuration, and a critic Q(s, a|θ^Q) scoring the
// configuration, trained from the experience-replay memory pool with soft
// target networks.
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
// be read (Save, Finite) without the lock.
package ddpg
