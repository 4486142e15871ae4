// Package dqn implements a Deep Q-Network baseline (Mnih et al. 2013).
//
// The paper (§3.3) argues DQN cannot tune databases because discretizing K
// continuous knobs into m levels yields m^K actions. This implementation
// exists to demonstrate exactly that: it is usable for a handful of knobs
// with coarse levels, and the §3.3 ablation bench shows the action-space
// explosion and the resulting performance gap against DDPG.
package dqn
