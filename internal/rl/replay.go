package rl

import (
	"math"
	"math/rand"
)

// Transition is one experience-replay sample: the database state before the
// action, the normalized knob vector applied, the scalar reward, the state
// after, and whether the episode terminated (e.g. the instance crashed).
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}

// Memory is the interface shared by the replay pools. Neither
// implementation is safe for concurrent use: callers serialize every
// method (core's Tuner does, under its agent lock).
type Memory interface {
	// Add stores a transition, evicting the oldest when full.
	Add(t Transition)
	// Sample draws a batch of n transitions. The returned indices identify
	// the samples for UpdatePriorities; weights are importance-sampling
	// corrections (all 1 for uniform replay).
	Sample(rng *rand.Rand, n int) (batch []Transition, indices []int, weights []float64)
	// UpdatePriorities records new TD errors for previously sampled items.
	// Uniform replay ignores it.
	UpdatePriorities(indices []int, tdErrors []float64)
	// Len reports the number of stored transitions.
	Len() int
	// Transitions returns a copy of the stored transitions oldest-first,
	// for diagnostics and tests.
	Transitions() []Transition
}

// UniformMemory is a fixed-capacity ring buffer with uniform sampling.
type UniformMemory struct {
	capacity int
	buf      []Transition
	next     int
	full     bool
}

// NewUniformMemory returns a replay pool holding at most capacity
// transitions.
func NewUniformMemory(capacity int) *UniformMemory {
	if capacity <= 0 {
		panic("rl: memory capacity must be positive")
	}
	return &UniformMemory{capacity: capacity} // buf grows with the pool, like PrioritizedMemory.data
}

// Add implements Memory.
func (m *UniformMemory) Add(t Transition) {
	if len(m.buf) < m.capacity {
		m.buf = append(m.buf, t)
		return
	}
	m.buf[m.next] = t
	m.next = (m.next + 1) % m.capacity
	m.full = true
}

// Sample implements Memory.
func (m *UniformMemory) Sample(rng *rand.Rand, n int) ([]Transition, []int, []float64) {
	if len(m.buf) == 0 {
		return nil, nil, nil
	}
	batch := make([]Transition, n)
	indices := make([]int, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(len(m.buf))
		batch[i] = m.buf[j]
		indices[i] = j
		weights[i] = 1
	}
	return batch, indices, weights
}

// UpdatePriorities implements Memory (no-op for uniform sampling).
func (m *UniformMemory) UpdatePriorities([]int, []float64) {}

// Len implements Memory.
func (m *UniformMemory) Len() int { return len(m.buf) }

// Transitions implements Memory.
func (m *UniformMemory) Transitions() []Transition { return m.ordered() }

// PrioritizedMemory implements proportional prioritized experience replay
// (Schaul et al. 2015) with a sum tree. New transitions enter with maximal
// priority so they are sampled at least once; sampled transitions are
// re-weighted by importance sampling with exponent beta.
type PrioritizedMemory struct {
	capacity int
	alpha    float64
	beta     float64
	eps      float64

	tree  []float64    // binary sum tree over leaf priorities
	data  []Transition // len ≤ capacity, grown by Add
	next  int
	size  int
	maxPr float64
}

// NewPrioritizedMemory returns a prioritized pool with the usual exponents
// (alpha 0.6, beta 0.4).
func NewPrioritizedMemory(capacity int) *PrioritizedMemory {
	if capacity <= 0 {
		panic("rl: memory capacity must be positive")
	}
	return &PrioritizedMemory{
		capacity: capacity,
		alpha:    0.6,
		beta:     0.4,
		eps:      1e-3,
		tree:     make([]float64, 2*capacity),
		maxPr:    1,
	}
}

func (m *PrioritizedMemory) setPriority(leaf int, p float64) {
	i := leaf + m.capacity
	delta := p - m.tree[i]
	for ; i >= 1; i /= 2 {
		m.tree[i] += delta
	}
}

func (m *PrioritizedMemory) find(v float64) int {
	i := 1
	for i < m.capacity {
		left := 2 * i
		if v <= m.tree[left] || m.tree[left+1] == 0 {
			i = left
		} else {
			v -= m.tree[left]
			i = left + 1
		}
	}
	return i - m.capacity
}

// Add implements Memory.
func (m *PrioritizedMemory) Add(t Transition) {
	// data grows with the pool up to capacity (the sum tree is fixed-size):
	// a serving session stores a few dozen transitions, and zero-filling
	// capacity slots up front would be most of what building its agent costs.
	if m.next == len(m.data) {
		m.data = append(m.data, t)
	} else {
		m.data[m.next] = t
	}
	m.setPriority(m.next, m.maxPr)
	m.next = (m.next + 1) % m.capacity
	if m.size < m.capacity {
		m.size++
	}
}

// Sample implements Memory using stratified proportional sampling.
func (m *PrioritizedMemory) Sample(rng *rand.Rand, n int) ([]Transition, []int, []float64) {
	if m.size == 0 {
		return nil, nil, nil
	}
	total := m.tree[1]
	batch := make([]Transition, n)
	indices := make([]int, n)
	weights := make([]float64, n)
	seg := total / float64(n)
	var maxW float64
	for i := 0; i < n; i++ {
		v := seg*float64(i) + rng.Float64()*seg
		leaf := m.find(v)
		if leaf >= m.size { // can happen while filling; clamp
			leaf = rng.Intn(m.size)
		}
		indices[i] = leaf
		batch[i] = m.data[leaf]
		pr := m.tree[leaf+m.capacity] / total
		w := math.Pow(float64(m.size)*pr, -m.beta)
		weights[i] = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range weights {
			weights[i] /= maxW
		}
	}
	return batch, indices, weights
}

// UpdatePriorities implements Memory.
func (m *PrioritizedMemory) UpdatePriorities(indices []int, tdErrors []float64) {
	for i, idx := range indices {
		p := math.Pow(math.Abs(tdErrors[i])+m.eps, m.alpha)
		if p > m.maxPr {
			m.maxPr = p
		}
		m.setPriority(idx, p)
	}
}

// Len implements Memory.
func (m *PrioritizedMemory) Len() int { return m.size }

// Transitions implements Memory.
func (m *PrioritizedMemory) Transitions() []Transition { return m.ordered() }

// TotalPriority exposes the root of the sum tree for testing.
func (m *PrioritizedMemory) TotalPriority() float64 { return m.tree[1] }
