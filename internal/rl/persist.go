package rl

import (
	"encoding/gob"
	"fmt"
	"io"
)

// memoryState is the serialized form of a replay pool: the transitions in
// oldest-to-newest order. Priorities are not persisted — a reloaded pool
// re-ranks as training resumes (fresh transitions get max priority, so
// the prioritization warms back up within one batch round).
type memoryState struct {
	Transitions []Transition
}

// Save writes the pool's transitions to w in gob format. The paper's
// memory pool (§2.2.4) accumulates experience across tuning requests;
// persisting it lets a restarted tuning service keep its accumulated
// try-and-error history ("incremental training", §2.1.1).
func (m *UniformMemory) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(memoryState{Transitions: m.ordered()})
}

// Load replaces the pool contents with transitions previously written by
// Save (either pool flavor).
func (m *UniformMemory) Load(r io.Reader) error {
	var st memoryState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("rl: decode memory: %w", err)
	}
	m.buf = m.buf[:0]
	m.next = 0
	m.full = false
	for _, t := range st.Transitions {
		m.Add(t)
	}
	return nil
}

// ordered returns the buffer oldest-first.
func (m *UniformMemory) ordered() []Transition {
	if !m.full {
		return append([]Transition(nil), m.buf...)
	}
	out := make([]Transition, 0, len(m.buf))
	out = append(out, m.buf[m.next:]...)
	out = append(out, m.buf[:m.next]...)
	return out
}

// Save writes the pool's transitions (oldest first) to w.
func (m *PrioritizedMemory) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(memoryState{Transitions: m.ordered()})
}

// Load replaces the pool contents with transitions previously written by
// Save; every reloaded transition enters at maximal priority.
func (m *PrioritizedMemory) Load(r io.Reader) error {
	var st memoryState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("rl: decode memory: %w", err)
	}
	for i := 0; i < m.size; i++ {
		m.setPriority(i, 0)
	}
	m.next = 0
	m.size = 0
	m.maxPr = 1
	for _, t := range st.Transitions {
		m.Add(t)
	}
	return nil
}

// ordered returns stored transitions oldest-first.
func (m *PrioritizedMemory) ordered() []Transition {
	out := make([]Transition, 0, m.size)
	if m.size < m.capacity {
		out = append(out, m.data[:m.size]...)
		return out
	}
	out = append(out, m.data[m.next:]...)
	out = append(out, m.data[:m.next]...)
	return out
}
