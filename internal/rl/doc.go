// Package rl provides the reinforcement-learning building blocks shared by
// CDBTune's agents: the experience replay memory pool (uniform and
// prioritized), exploration noise processes, and the transition type.
//
// The paper calls the replay memory the "memory pool" (§2.2.4): each sample
// is a transition (s_t, r_t, a_t, s_{t+1}) and batches are drawn at random
// to break the sequential correlation between consecutive tuning steps.
// §5.1 reports that prioritized experience replay [38] halves the number of
// iterations to convergence, so both variants are provided.
//
// # Concurrency contract
//
// Nothing in this package is safe for concurrent use. Every method of
// UniformMemory and PrioritizedMemory — Add, Sample, UpdatePriorities, Len,
// Transitions, Save, Load — and of the noise processes (OUNoise,
// GaussianNoise) must be externally serialized; core's Tuner guards the
// agent that owns them with its agent lock. A training run that must not
// share OU temporal state with other users of the agent holds its own Fork
// and applies Decay/SetScale to the agent's process under that lock (see
// core.OfflineTrainOpts).
package rl
