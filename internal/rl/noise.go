package rl

import "math/rand"

// Noise perturbs a deterministic action for exploration.
type Noise interface {
	// Sample returns a perturbation vector of dimension dim.
	Sample(rng *rand.Rand, dim int) []float64
	// Reset clears any internal state at an episode boundary.
	Reset()
	// Decay reduces the noise scale after an episode; it returns the new
	// scale so callers can log it.
	Decay() float64
	// Scale reports the current noise scale (sigma).
	Scale() float64
	// SetScale overrides the noise scale: a checkpoint restores it, a
	// learner-health heal backs it off, and a fork is synced to the
	// process it was forked from.
	SetScale(sigma float64)
	// Fork returns an independent process with the same parameters and a
	// fresh temporal state. A training run explores with a fork of the
	// agent's process, so temporally correlated noise (OU) is not shared
	// with online requests drawing from the agent's own.
	Fork() Noise
}

// OUNoise is an Ornstein-Uhlenbeck process, the exploration noise used by
// the original DDPG paper: temporally correlated perturbations suited to
// control problems where consecutive actions should not jump wildly — a
// good match for step-by-step knob adjustment.
type OUNoise struct {
	Theta float64
	Sigma float64
	Mu    float64
	// DecayRate multiplies Sigma after each Decay call; MinSigma bounds it.
	DecayRate float64
	MinSigma  float64

	state []float64
}

// NewOUNoise returns an OU process with the standard DDPG parameters
// (theta 0.15, sigma as given, mu 0).
func NewOUNoise(sigma float64) *OUNoise {
	return &OUNoise{Theta: 0.15, Sigma: sigma, DecayRate: 0.99, MinSigma: 0.01}
}

// Sample implements Noise.
func (o *OUNoise) Sample(rng *rand.Rand, dim int) []float64 {
	if len(o.state) != dim {
		o.state = make([]float64, dim)
	}
	out := make([]float64, dim)
	for i := range o.state {
		o.state[i] += o.Theta*(o.Mu-o.state[i]) + o.Sigma*rng.NormFloat64()
		out[i] = o.state[i]
	}
	return out
}

// Reset implements Noise.
func (o *OUNoise) Reset() { o.state = nil }

// Decay implements Noise.
func (o *OUNoise) Decay() float64 {
	o.Sigma *= o.DecayRate
	if o.Sigma < o.MinSigma {
		o.Sigma = o.MinSigma
	}
	return o.Sigma
}

// Scale implements Noise.
func (o *OUNoise) Scale() float64 { return o.Sigma }

// SetScale implements Noise.
func (o *OUNoise) SetScale(sigma float64) { o.Sigma = sigma }

// Fork implements Noise.
func (o *OUNoise) Fork() Noise {
	c := *o
	c.state = nil
	return &c
}

// GaussianNoise draws i.i.d. Normal(0, sigma) perturbations.
type GaussianNoise struct {
	Sigma     float64
	DecayRate float64
	MinSigma  float64
}

// NewGaussianNoise returns uncorrelated Gaussian exploration noise.
func NewGaussianNoise(sigma float64) *GaussianNoise {
	return &GaussianNoise{Sigma: sigma, DecayRate: 0.99, MinSigma: 0.01}
}

// Sample implements Noise.
func (g *GaussianNoise) Sample(rng *rand.Rand, dim int) []float64 {
	out := make([]float64, dim)
	for i := range out {
		out[i] = g.Sigma * rng.NormFloat64()
	}
	return out
}

// Reset implements Noise.
func (g *GaussianNoise) Reset() {}

// Decay implements Noise.
func (g *GaussianNoise) Decay() float64 {
	g.Sigma *= g.DecayRate
	if g.Sigma < g.MinSigma {
		g.Sigma = g.MinSigma
	}
	return g.Sigma
}

// Scale implements Noise.
func (g *GaussianNoise) Scale() float64 { return g.Sigma }

// SetScale implements Noise.
func (g *GaussianNoise) SetScale(sigma float64) { g.Sigma = sigma }

// Fork implements Noise.
func (g *GaussianNoise) Fork() Noise {
	c := *g
	return &c
}
