package dqn

import (
	"math"
	"math/rand"

	"cdbtune/internal/mat"
	"cdbtune/internal/nn"
	"cdbtune/internal/rl"
)

// Config selects the DQN architecture and hyperparameters.
type Config struct {
	StateDim   int
	NumActions int
	Hidden     []int

	LR    float64
	Gamma float64

	BatchSize      int
	MemoryCapacity int
	MinMemory      int

	// Epsilon-greedy exploration schedule.
	EpsilonStart float64
	EpsilonEnd   float64
	EpsilonDecay float64

	// TargetSync is the number of training steps between hard target
	// network synchronizations.
	TargetSync int

	Seed int64
}

// DefaultConfig returns sensible defaults for stateDim inputs and
// numActions discrete outputs.
func DefaultConfig(stateDim, numActions int) Config {
	return Config{
		StateDim:       stateDim,
		NumActions:     numActions,
		Hidden:         []int{128, 64},
		LR:             1e-3,
		Gamma:          0.99,
		BatchSize:      32,
		MemoryCapacity: 50000,
		MinMemory:      64,
		EpsilonStart:   1.0,
		EpsilonEnd:     0.05,
		EpsilonDecay:   0.995,
		TargetSync:     100,
		Seed:           1,
	}
}

// Agent is a DQN learner over a discrete action set. Actions are indices
// into an action table the caller maintains (e.g. enumerated knob levels).
type Agent struct {
	cfg Config
	rng *rand.Rand

	net    *nn.Network
	target *nn.Network
	opt    *nn.Adam

	Memory  *rl.UniformMemory
	Epsilon float64

	trainSteps int
}

// New builds a DQN agent from cfg.
func New(cfg Config) *Agent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	build := func() *nn.Network {
		var layers []nn.Layer
		in := cfg.StateDim
		for _, h := range cfg.Hidden {
			layers = append(layers, nn.NewDense(in, h), nn.NewReLU())
			in = h
		}
		layers = append(layers, nn.NewDense(in, cfg.NumActions))
		return nn.NewNetwork(layers...)
	}
	a := &Agent{
		cfg:     cfg,
		rng:     rng,
		net:     build(),
		target:  build(),
		Memory:  rl.NewUniformMemory(cfg.MemoryCapacity),
		Epsilon: cfg.EpsilonStart,
	}
	a.net.InitUniform(rng, 0.1)
	a.net.CopyTo(a.target)
	a.opt = nn.NewAdam(a.net, cfg.LR)
	return a
}

// QValues returns the Q estimate for every action in state s.
func (a *Agent) QValues(state []float64) []float64 {
	x := mat.FromSlice(1, a.cfg.StateDim, append([]float64(nil), state...))
	out := a.net.Forward(x, false)
	return append([]float64(nil), out.Data...)
}

// Act returns the greedy action for state s.
func (a *Agent) Act(state []float64) int { return mat.ArgMax(a.QValues(state)) }

// ActEpsilonGreedy explores with probability Epsilon, then decays it.
func (a *Agent) ActEpsilonGreedy(state []float64) int {
	defer func() {
		a.Epsilon = math.Max(a.cfg.EpsilonEnd, a.Epsilon*a.cfg.EpsilonDecay)
	}()
	if a.rng.Float64() < a.Epsilon {
		return a.rng.Intn(a.cfg.NumActions)
	}
	return a.Act(state)
}

// Observe stores a transition whose Action slice holds the single action
// index in Action[0].
func (a *Agent) Observe(state []float64, action int, reward float64, next []float64, done bool) {
	a.Memory.Add(rl.Transition{
		State:     state,
		Action:    []float64{float64(action)},
		Reward:    reward,
		NextState: next,
		Done:      done,
	})
}

// TrainStep performs one gradient update from a replayed batch, returning
// the Huber loss, or ok=false if the memory is too small.
func (a *Agent) TrainStep() (loss float64, ok bool) {
	if a.Memory.Len() < a.cfg.MinMemory || a.Memory.Len() < a.cfg.BatchSize {
		return 0, false
	}
	n := a.cfg.BatchSize
	batch, _, _ := a.Memory.Sample(a.rng, n)

	states := mat.New(n, a.cfg.StateDim)
	next := mat.New(n, a.cfg.StateDim)
	for i, t := range batch {
		copy(states.Row(i), t.State)
		copy(next.Row(i), t.NextState)
	}
	nextQ := a.target.Forward(next, false)
	q := a.net.Forward(states, true)

	// Build targets equal to predictions except at the taken action, so
	// the gradient flows only through Q(s, a_taken).
	target := q.Clone()
	for i, t := range batch {
		act := int(t.Action[0])
		y := t.Reward
		if !t.Done {
			maxNext := nextQ.Row(i)[mat.ArgMax(nextQ.Row(i))]
			y += a.cfg.Gamma * maxNext
		}
		target.Set(i, act, y)
	}
	a.net.ZeroGrad()
	l, grad := nn.HuberLoss(q, target, 1)
	a.net.Backward(grad)
	_, scale := a.net.ClipScale(5)
	a.opt.Sweep(scale, nil, 0)

	a.trainSteps++
	if a.trainSteps%a.cfg.TargetSync == 0 {
		a.net.CopyTo(a.target)
	}
	return l, true
}

// TrainSteps reports the number of gradient updates applied.
func (a *Agent) TrainSteps() int { return a.trainSteps }
