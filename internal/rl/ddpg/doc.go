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
// across goroutines (core's parallel trainer does) must hold a single
// lock around every method that touches the networks, the optimizers or
// the agent's rng:
//
//   - Act, ActBatch, ActNoisy, ActNoisyFrom, Perturb (rng and/or network
//     reads that race with parameter updates)
//   - TrainStep, TrainStepInfo (parameter updates)
//   - Save, Load, ReadSnapshot, Snapshot, SetWeights, Restore,
//     SetBCTarget, BCTarget, QValue
//
// A WeightSnapshot, once taken or decoded, is never written again: it may
// be read (Save, Finite) without the lock.
//
// Observe is the one exception, and only conditionally: it does nothing
// but Memory.Add, so when the agent was built with Config.MemoryShards
// ≥ 2 — making Memory an rl.ConcurrentMemory — Observe is safe to call
// concurrently with every other method and needs no lock at all. With the
// default single-lock pools it must be serialized with Sample, i.e. with
// TrainStep, under the caller's lock like everything else.
//
// Batched inference exists to shrink that critical section: ActBatch runs
// one eval-mode forward pass (nn.Network.Infer, which writes no backward
// caches) over many states, so N concurrent action requests cost one lock
// acquisition and one network traversal instead of N.
package ddpg
