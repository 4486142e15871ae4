package ddpg

import (
	"fmt"

	"cdbtune/internal/nn"
)

// WeightSnapshot is a cheap in-memory copy of the agent's learnable state:
// the four networks' parameters and BatchNorm statistics plus the
// self-imitation target. It is what the learner-health supervisor rolls
// back to on divergence and what core keeps as the best policy seen so far
// — no serialization, just slice copies, so taking one on a healthy
// cadence costs a memcpy, not an encode or a disk round-trip.
type WeightSnapshot struct {
	nets     []*nn.NetworkState
	bcTarget []float64
}

// Snapshot captures the agent's current weights. Callers must hold the
// same lock that serializes TrainStep.
func (a *Agent) Snapshot() *WeightSnapshot {
	s := &WeightSnapshot{}
	for _, n := range a.networks() {
		s.nets = append(s.nets, n.State())
	}
	if a.bcTarget != nil {
		s.bcTarget = append([]float64(nil), a.bcTarget...)
	}
	return s
}

// checkSnapshot verifies that s is shape-compatible with the agent without
// modifying anything.
func (a *Agent) checkSnapshot(s *WeightSnapshot) error {
	nets := a.networks()
	if len(s.nets) != len(nets) {
		return fmt.Errorf("snapshot has %d networks, want %d", len(s.nets), len(nets))
	}
	for i, n := range nets {
		if err := n.CheckState(s.nets[i]); err != nil {
			return fmt.Errorf("%s: %w", netNames[i], err)
		}
	}
	if s.bcTarget != nil && len(s.bcTarget) != a.cfg.ActionDim {
		return fmt.Errorf("best-action target has %d dims, want %d", len(s.bcTarget), a.cfg.ActionDim)
	}
	return nil
}

// Finite returns a descriptive error if any weight, BatchNorm statistic or
// best-action value in the snapshot is NaN or infinite.
func (s *WeightSnapshot) Finite() error {
	for i, st := range s.nets {
		if err := st.Finite(); err != nil {
			return fmt.Errorf("%s: %w", netNames[i], err)
		}
	}
	for _, v := range s.bcTarget {
		if !finite(v) {
			return fmt.Errorf("best-action target contains non-finite value %v", v)
		}
	}
	return nil
}

// SetWeights copies a snapshot taken from this agent (or one with an
// identical Config) into the agent's networks and self-imitation target,
// checking every shape before touching anything. The optimizers' Adam
// moments, the replay memory, the train-step counter and the noise process
// are left untouched — this is Load without the decoding.
func (a *Agent) SetWeights(s *WeightSnapshot) error {
	if err := a.checkSnapshot(s); err != nil {
		return fmt.Errorf("ddpg: set weights: %w", err)
	}
	for i, n := range a.networks() {
		if err := n.SetState(s.nets[i]); err != nil {
			return fmt.Errorf("ddpg: set weights: %w", err)
		}
	}
	a.bcTarget = nil
	if s.bcTarget != nil {
		a.bcTarget = append([]float64(nil), s.bcTarget...)
	}
	return nil
}

// Restore is SetWeights for a divergence rollback: it additionally resets
// both optimizers' Adam moments — moments estimated on the diverged
// trajectory would push the restored weights straight back toward the
// divergence.
func (a *Agent) Restore(s *WeightSnapshot) error {
	if err := a.SetWeights(s); err != nil {
		return err
	}
	a.actorOpt.Reset()
	a.criticOpt.Reset()
	return nil
}

// ScaleLR multiplies both optimizers' learning rates by f — the
// supervisor's backoff after a rollback. It returns the critic's new rate
// for logging.
func (a *Agent) ScaleLR(f float64) float64 {
	a.actorOpt.LR *= f
	a.criticOpt.LR *= f
	return a.criticOpt.LR
}

// networks lists the four networks in Save/Load order.
func (a *Agent) networks() []*nn.Network {
	return []*nn.Network{a.actor, a.actorTarget, a.critic.net(), a.critTarget.net()}
}
