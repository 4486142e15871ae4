package core

import (
	"math"
	"sync"
)

// Guardrail is the online-tuning safety net OnlineTune consults:
// it tracks the best-known-good configuration of the current request,
// reverts the instance to it after K consecutive failed or crashed steps,
// and remembers near-crash knob regions — across requests — so a
// recommendation proposing to re-enter one is pulled back toward known
// good territory before deployment. This is the OnlineTune-style safety
// contract ("Towards Dynamic and Safe Configuration Tuning for Cloud
// Databases") grafted onto CDBTune's recommendation loop: exploration may
// fail, but a production tenant is never left running a crashing
// configuration.
type Guardrail struct {
	// K is the consecutive-failure budget before a revert (default 3).
	K int
	// Radius is the normalized RMS knob distance under which a proposal
	// counts as re-entering a recorded crash region (default 0.05).
	Radius float64
	// MaxRegions caps the remembered crash centers, oldest evicted first
	// (default 64).
	MaxRegions int

	mu       sync.Mutex
	centers  [][]float64 // crash regions, persisted across requests
	best     []float64   // best-known-good normalized configuration
	bestPerf float64
	consec   int // consecutive failed/crashed steps
	reverts  int
	vetoes   int
}

// NewGuardrail returns a guardrail with the given failure budget and
// crash-region radius; zero values pick the defaults.
func NewGuardrail(k int, radius float64) *Guardrail {
	g := &Guardrail{K: k, Radius: radius}
	if g.K <= 0 {
		g.K = 3
	}
	if g.Radius <= 0 {
		g.Radius = 0.05
	}
	if g.MaxRegions <= 0 {
		g.MaxRegions = 64
	}
	return g
}

// BeginRequest resets the per-request state: the current configuration
// becomes the best-known-good with the measured baseline performance.
// Crash regions recorded by earlier requests are kept.
func (g *Guardrail) BeginRequest(current []float64, perf float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.best = append([]float64(nil), current...)
	g.bestPerf = perf
	g.consec = 0
}

// Screen inspects a proposed configuration before deployment. A proposal
// inside a recorded crash region is pulled back toward the best-known-good
// configuration (halving the distance until it leaves every region) and
// the veto is counted. The returned bool reports whether the proposal was
// adjusted.
func (g *Guardrail) Screen(action []float64) ([]float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.best == nil || !g.nearCrashLocked(action) {
		return action, false
	}
	adj := append([]float64(nil), action...)
	for i := 0; i < 8 && g.nearCrashLocked(adj); i++ {
		for j := range adj {
			adj[j] = 0.5*adj[j] + 0.5*g.best[j]
		}
	}
	g.vetoes++
	return adj, true
}

// NoteGood records a successfully measured configuration, resetting the
// consecutive-failure count and updating the best-known-good when the
// performance improved.
func (g *Guardrail) NoteGood(action []float64, perf float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.consec = 0
	if perf > g.bestPerf || g.best == nil {
		g.best = append([]float64(nil), action...)
		g.bestPerf = perf
	}
}

// NoteCrash records a crashing configuration as a crash region and counts
// the failed step.
func (g *Guardrail) NoteCrash(action []float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.consec++
	g.centers = append(g.centers, append([]float64(nil), action...))
	if len(g.centers) > g.MaxRegions {
		g.centers = g.centers[len(g.centers)-g.MaxRegions:]
	}
}

// NoteFailure counts a failed (but non-crashing) step: a transient
// measurement failure that exhausted its retries, or a deployment that
// never took.
func (g *Guardrail) NoteFailure() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.consec++
}

// RevertTarget reports whether the consecutive-failure budget is spent
// and, if so, returns the configuration to revert to, resetting the
// counter and counting the revert.
func (g *Guardrail) RevertTarget() ([]float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.best == nil || g.consec < g.K {
		return nil, false
	}
	g.consec = 0
	g.reverts++
	return append([]float64(nil), g.best...), true
}

// Best returns the best-known-good configuration and its performance.
func (g *Guardrail) Best() ([]float64, float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]float64(nil), g.best...), g.bestPerf
}

// Stats reports the lifetime revert and veto counts and the number of
// remembered crash regions.
func (g *Guardrail) Stats() (reverts, vetoes, regions int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reverts, g.vetoes, len(g.centers)
}

// nearCrashLocked reports whether x lies within Radius (normalized RMS
// distance) of any recorded crash center. Caller holds g.mu.
func (g *Guardrail) nearCrashLocked(x []float64) bool {
	for _, c := range g.centers {
		if len(c) != len(x) {
			continue
		}
		var ss float64
		for i := range x {
			d := x[i] - c[i]
			ss += d * d
		}
		if math.Sqrt(ss/float64(len(x))) < g.Radius {
			return true
		}
	}
	return false
}
