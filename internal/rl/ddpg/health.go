package ddpg

import (
	"fmt"

	"cdbtune/internal/nn"
)

// WeightSnapshot is a cheap in-memory image of the agent's learnable
// state: the four networks' parameters and BatchNorm statistics plus the
// self-imitation target. It is what the learner-health supervisor rolls
// back to on divergence and what core keeps as the best policy seen so far
// — no serialization: taking one costs at most a memcpy, and nothing while
// the weights are unchanged since the last one (see Snapshot).
type WeightSnapshot struct {
	nets     []*nn.NetworkState
	bcTarget []float64
	// netsFinite records that ReadSnapshot verified every network value
	// finite. It is set when the snapshot is built, never by a read, so
	// lock-free readers stay race-free.
	netsFinite bool
}

// Snapshot captures the agent's current weights. While nothing has
// written them since the last Snapshot or SetWeights, the new snapshot
// shares that one's network tensors — snapshots are never written — and
// only the best-action target, which SetBCTarget changes on its own, is
// copied. Callers must hold the same lock that serializes TrainStep.
func (a *Agent) Snapshot() *WeightSnapshot {
	a.ensureInit()
	if a.clean == nil {
		a.clean = &WeightSnapshot{}
		for _, n := range a.networks() {
			a.clean.nets = append(a.clean.nets, n.State())
		}
	}
	s := &WeightSnapshot{nets: a.clean.nets, netsFinite: a.clean.netsFinite}
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
// best-action value in the snapshot is NaN or infinite. Networks that
// ReadSnapshot already verified are not scanned again.
func (s *WeightSnapshot) Finite() error {
	if !s.netsFinite {
		for i, st := range s.nets {
			if err := st.Finite(); err != nil {
				return fmt.Errorf("%s: %w", netNames[i], err)
			}
		}
	}
	for _, v := range s.bcTarget {
		if !finite(v) {
			return fmt.Errorf("best-action target contains non-finite value %v", v)
		}
	}
	return nil
}

// SetWeights makes a snapshot taken from this agent (or one with an
// identical Config) the agent's weights and self-imitation target,
// checking every shape before touching anything. The snapshot's tensors
// become the live weights without a copy (nn.Network.Adopt; the first
// update copies them out), a snapshot the weights already equal changes
// nothing, and a pending random init is skipped. The optimizers' Adam
// moments, the replay memory, the train-step counter and the noise process
// are left untouched — this is Load without the decoding.
func (a *Agent) SetWeights(s *WeightSnapshot) error {
	if err := a.checkSnapshot(s); err != nil {
		return fmt.Errorf("ddpg: set weights: %w", err)
	}
	a.skipInit()
	if !a.equals(s) {
		for i, n := range a.networks() {
			if err := n.Adopt(s.nets[i]); err != nil {
				return fmt.Errorf("ddpg: set weights: %w", err)
			}
		}
		a.clean = s
	}
	a.bcTarget = nil
	if s.bcTarget != nil {
		a.bcTarget = append([]float64(nil), s.bcTarget...)
	}
	return nil
}

// equals reports whether the live weights are s's network tensors: both
// share the tensors of the snapshot nothing has written since.
func (a *Agent) equals(s *WeightSnapshot) bool {
	if a.clean == nil {
		return false
	}
	for i, st := range a.clean.nets {
		if s.nets[i] != st {
			return false
		}
	}
	return true
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
