package rl

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func fill(m Memory, n int) {
	for i := 0; i < n; i++ {
		m.Add(tr(float64(i)))
	}
}

func TestUniformMemorySaveLoadRoundTrip(t *testing.T) {
	src := NewUniformMemory(8)
	fill(src, 5)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewUniformMemory(8)
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 5 {
		t.Fatalf("Len = %d, want 5", dst.Len())
	}
	got := dst.ordered()
	for i, tx := range got {
		if tx.Reward != float64(i) {
			t.Fatalf("transition %d reward %v, want %v (order lost)", i, tx.Reward, i)
		}
	}
}

func TestUniformMemoryOrderedAfterWrap(t *testing.T) {
	m := NewUniformMemory(3)
	fill(m, 5) // holds 2, 3, 4
	got := m.ordered()
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i].Reward != want[i] {
			t.Fatalf("ordered[%d] = %v, want %v", i, got[i].Reward, want[i])
		}
	}
}

func TestPrioritizedMemorySaveLoadRoundTrip(t *testing.T) {
	src := NewPrioritizedMemory(8)
	fill(src, 10) // wraps: holds 2..9
	src.UpdatePriorities([]int{0, 1}, []float64{5, 0.001})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewPrioritizedMemory(8)
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 8 {
		t.Fatalf("Len = %d, want 8", dst.Len())
	}
	// Sum tree rebuilt consistently: sampling works and only live
	// transitions appear.
	rng := rand.New(rand.NewSource(1))
	batch, _, _ := dst.Sample(rng, 64)
	for _, b := range batch {
		if b.Reward < 2 || b.Reward > 9 {
			t.Fatalf("sampled stale transition %v", b.Reward)
		}
	}
	// Round trip across flavors: prioritized save → uniform load.
	var buf2 bytes.Buffer
	if err := src.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	u := NewUniformMemory(16)
	if err := u.Load(&buf2); err != nil {
		t.Fatal(err)
	}
	if u.Len() != 8 {
		t.Fatalf("cross-flavor Len = %d", u.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := NewUniformMemory(4)
	if err := m.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage input must error")
	}
	p := NewPrioritizedMemory(4)
	if err := p.Load(bytes.NewReader([]byte{0x01})); err == nil {
		t.Fatal("garbage input must error")
	}
}

func TestLoadSmallerThanCapacity(t *testing.T) {
	src := NewUniformMemory(4)
	fill(src, 3)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewPrioritizedMemory(16)
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 {
		t.Fatalf("Len = %d, want 3", dst.Len())
	}
}

// TestPrioritizedLazyGrowthMatchesEagerPool pins the prioritized pool's
// grow-on-Add storage to the pool it replaced: a reference whose data slice
// is allocated to capacity up front (so every Add is the old in-place
// store) is driven through the same seeded script — fills, wrap-around
// eviction, priority updates, a Save/Load cycle into a pool that already
// held data — and must agree on every sampled index, weight and transition,
// on Len, on Transitions() order and on the serialized bytes.
func TestPrioritizedLazyGrowthMatchesEagerPool(t *testing.T) {
	const capacity = 37
	lazy, eager := NewPrioritizedMemory(capacity), NewPrioritizedMemory(capacity)
	eager.data = make([]Transition, capacity)

	mkT := func(i int) Transition {
		f := float64(i)
		return Transition{State: []float64{f, f + 0.5}, Action: []float64{-f}, Reward: f / 7, NextState: []float64{f + 1, f}, Done: i%5 == 0}
	}
	same := func(step string) {
		t.Helper()
		if lazy.Len() != eager.Len() || lazy.TotalPriority() != eager.TotalPriority() {
			t.Fatalf("%s: len %d/%d, mass %v/%v", step, lazy.Len(), eager.Len(), lazy.TotalPriority(), eager.TotalPriority())
		}
		if !reflect.DeepEqual(lazy.Transitions(), eager.Transitions()) {
			t.Fatalf("%s: Transitions() differ", step)
		}
		var lb, eb bytes.Buffer
		if err := lazy.Save(&lb); err != nil {
			t.Fatal(err)
		}
		if err := eager.Save(&eb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb.Bytes(), eb.Bytes()) {
			t.Fatalf("%s: Save wrote different bytes", step)
		}
	}
	lrng, erng := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	next := 0
	round := func(step string, adds int) {
		t.Helper()
		for i := 0; i < adds; i++ {
			lazy.Add(mkT(next))
			eager.Add(mkT(next))
			next++
		}
		lb, li, lw := lazy.Sample(lrng, 8)
		eb, ei, ew := eager.Sample(erng, 8)
		if !reflect.DeepEqual(li, ei) || !reflect.DeepEqual(lw, ew) || !reflect.DeepEqual(lb, eb) {
			t.Fatalf("%s: same-seed samples differ: indices %v vs %v", step, li, ei)
		}
		td := make([]float64, len(li))
		for i := range td {
			td[i] = lrng.NormFloat64()
			erng.NormFloat64()
		}
		lazy.UpdatePriorities(li, td)
		eager.UpdatePriorities(ei, td)
		same(step)
	}
	round("first add", 1)
	round("partial fill", 9)
	round("one short of full", capacity-11)
	round("exactly full", 1)
	round("wrapped", 14)
	round("wrapped twice", 2*capacity+3)

	// Reload a shorter history into the used pools (Load resets the ring but
	// keeps the storage), then keep going past capacity again.
	small := NewPrioritizedMemory(capacity)
	for i := 0; i < 5; i++ {
		small.Add(mkT(1000 + i))
	}
	var saved bytes.Buffer
	if err := small.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := eager.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	same("reloaded")
	round("after reload", 3)
	round("after reload, wrapped", capacity)

	// Loading more than a barely-used pool has grown to grows it.
	lazy, eager = NewPrioritizedMemory(capacity), NewPrioritizedMemory(capacity)
	eager.data = make([]Transition, capacity)
	round("second pair", 2)
	if err := lazy.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := eager.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	same("reloaded past the grown length")
	round("after growing reload", 4)

	if fresh := NewPrioritizedMemory(100000); cap(fresh.data) != 0 {
		t.Fatalf("a new pool pre-allocates %d transition slots", cap(fresh.data))
	}
}
