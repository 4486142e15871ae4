package qlearn

import (
	"fmt"
	"math/rand"
)

// Config holds the Q-Learning hyperparameters of Eq. 1.
type Config struct {
	NumActions int
	Alpha      float64 // learning rate
	Gamma      float64 // discount factor

	// StateBins is the number of discretization bins per state dimension
	// used by DiscretizeState.
	StateBins int

	EpsilonStart float64
	EpsilonEnd   float64
	EpsilonDecay float64

	Seed int64
}

// DefaultConfig mirrors the paper's α = 0.001 learning rate and γ = 0.99
// discount (Table 4) with a more practical tabular learning rate.
func DefaultConfig(numActions int) Config {
	return Config{
		NumActions:   numActions,
		Alpha:        0.1,
		Gamma:        0.99,
		StateBins:    4,
		EpsilonStart: 1.0,
		EpsilonEnd:   0.05,
		EpsilonDecay: 0.995,
		Seed:         1,
	}
}

// Agent is a tabular Q-learner keyed by discretized state strings.
type Agent struct {
	cfg     Config
	rng     *rand.Rand
	table   map[string][]float64
	Epsilon float64
}

// New builds a tabular Q-learning agent.
func New(cfg Config) *Agent {
	return &Agent{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		table:   make(map[string][]float64),
		Epsilon: cfg.EpsilonStart,
	}
}

// DiscretizeState maps a normalized state vector (values in [0,1]) to a
// table key by binning each dimension into cfg.StateBins levels.
func (a *Agent) DiscretizeState(state []float64) string {
	key := make([]byte, len(state))
	for i, v := range state {
		b := int(v * float64(a.cfg.StateBins))
		if b >= a.cfg.StateBins {
			b = a.cfg.StateBins - 1
		}
		if b < 0 {
			b = 0
		}
		key[i] = byte('0' + b)
	}
	return string(key)
}

func (a *Agent) row(key string) []float64 {
	if q, ok := a.table[key]; ok {
		return q
	}
	q := make([]float64, a.cfg.NumActions)
	a.table[key] = q
	return q
}

// Act returns the greedy action for the discretized state.
func (a *Agent) Act(state []float64) int {
	q := a.row(a.DiscretizeState(state))
	best := 0
	for i, v := range q {
		if v > q[best] {
			best = i
		}
	}
	return best
}

// ActEpsilonGreedy explores with probability Epsilon, then decays it.
func (a *Agent) ActEpsilonGreedy(state []float64) int {
	eps := a.Epsilon
	a.Epsilon = a.Epsilon * a.cfg.EpsilonDecay
	if a.Epsilon < a.cfg.EpsilonEnd {
		a.Epsilon = a.cfg.EpsilonEnd
	}
	if a.rng.Float64() < eps {
		return a.rng.Intn(a.cfg.NumActions)
	}
	return a.Act(state)
}

// Update applies the Eq. 1 Bellman backup:
//
//	Q(s,a) ← Q(s,a) + α[r + γ·max_a' Q(s',a') − Q(s,a)]
func (a *Agent) Update(state []float64, action int, reward float64, next []float64, done bool) {
	if action < 0 || action >= a.cfg.NumActions {
		panic(fmt.Sprintf("qlearn: action %d out of range [0,%d)", action, a.cfg.NumActions))
	}
	q := a.row(a.DiscretizeState(state))
	var maxNext float64
	if !done {
		nq := a.row(a.DiscretizeState(next))
		maxNext = nq[0]
		for _, v := range nq[1:] {
			if v > maxNext {
				maxNext = v
			}
		}
	}
	td := reward + a.cfg.Gamma*maxNext - q[action]
	q[action] += a.cfg.Alpha * td
}

// TableSize reports the number of distinct discretized states seen, the
// quantity whose explosion §3.3 is about.
func (a *Agent) TableSize() int { return len(a.table) }
