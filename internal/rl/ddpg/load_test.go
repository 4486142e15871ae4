package ddpg

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func loadTestConfig() Config {
	cfg := DefaultConfig(8, 4)
	cfg.ActorHidden = []int{16, 16}
	cfg.CriticHidden = []int{32, 16}
	cfg.Seed = 3
	return cfg
}

// TestLoadRejectsMismatchedDimensions: a model saved under one
// architecture must not load into an agent built for another, and the
// failed load must leave the destination agent exactly as it was.
func TestLoadRejectsMismatchedDimensions(t *testing.T) {
	src := New(loadTestConfig())
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	other := loadTestConfig()
	other.ActionDim = 6 // different knob count
	dst := New(other)
	before := dst.Snapshot()
	err := dst.Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("loading a 4-action model into a 6-action agent must fail")
	}
	if !strings.Contains(err.Error(), "does not match Config") {
		t.Fatalf("dimension mismatch error should say so, got: %v", err)
	}
	after := dst.Snapshot()
	for i := range before.nets {
		for j, p := range before.nets[i].Params {
			for k, v := range p {
				if after.nets[i].Params[j][k] != v {
					t.Fatalf("failed Load modified network %d param %d[%d]", i, j, k)
				}
			}
		}
	}
}

// TestLoadRejectsNonFiniteWeights: a saved model carrying NaN/Inf weights
// (a divergence that escaped to disk, or on-disk corruption that still
// decodes) is rejected with a descriptive error before any weight is applied.
func TestLoadRejectsNonFiniteWeights(t *testing.T) {
	src := New(loadTestConfig())
	// Poison one actor weight, then save.
	src.ensureInit()
	src.actor.Layers[0].Params()[0].Value.Data[0] = math.NaN()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New(loadTestConfig())
	err := dst.Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("loading a NaN-weight model must fail")
	}
	if !strings.Contains(err.Error(), "corrupt model") || !strings.Contains(err.Error(), "actor") {
		t.Fatalf("non-finite weight error should name the network and corruption, got: %v", err)
	}
	if w := maxOrNaN(dst.actor.MaxAbsWeight(), dst.critic.net().MaxAbsWeight()); math.IsNaN(w) {
		t.Fatal("failed Load leaked NaN into the destination agent")
	}
}

// TestLoadRejectsBadBCTarget: the stored self-imitation target is
// validated like everything else.
func TestLoadRejectsBadBCTarget(t *testing.T) {
	src := New(loadTestConfig())
	src.SetBCTarget([]float64{0.1, 0.2, math.Inf(1), 0.4})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(loadTestConfig())
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading an Inf best-action target must fail")
	}
}

// TestLoadRoundTrip: the validation path still accepts a healthy model.
func TestLoadRoundTrip(t *testing.T) {
	src := New(loadTestConfig())
	src.SetBCTarget([]float64{0.1, 0.2, 0.3, 0.4})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(loadTestConfig())
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	state := []float64{0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4}
	a, b := src.Act(state), dst.Act(state)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("round-tripped policy differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
