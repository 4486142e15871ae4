package reward

import "fmt"

// Kind selects the reward formulation.
type Kind int

// Reward-function variants from Appendix C.1.1.
const (
	// RFCDBTune is the paper's reward (Eq. 6 plus the zeroing rule: a
	// positive reward with a regression against the previous step is
	// clamped to 0).
	RFCDBTune Kind = iota
	// RFA compares only against the previous step.
	RFA
	// RFB compares only against the initial settings.
	RFB
	// RFC is Eq. 6 without the zeroing rule.
	RFC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RFCDBTune:
		return "RF-CDBTune"
	case RFA:
		return "RF-A"
	case RFB:
		return "RF-B"
	case RFC:
		return "RF-C"
	default:
		return fmt.Sprintf("RF(%d)", int(k))
	}
}

// CrashReward is the punishment for configurations that crash the
// instance; §5.2.3 reports using a large negative reward (−100) rather
// than constraining the knob ranges.
const CrashReward = -100

// Calc computes rewards across one tuning episode.
type Calc struct {
	Kind   Kind
	CT, CL float64

	t0, l0     float64
	prevT      float64
	prevL      float64
	initalized bool
}

// New returns a reward calculator. ct and cl weight throughput and latency
// and must sum to 1; the paper defaults to 0.5/0.5.
func New(kind Kind, ct, cl float64) *Calc {
	if ct < 0 || cl < 0 || ct+cl < 0.999 || ct+cl > 1.001 {
		panic(fmt.Sprintf("reward: CT=%v CL=%v must be non-negative and sum to 1", ct, cl))
	}
	return &Calc{Kind: kind, CT: ct, CL: cl}
}

// Init records the performance of the initial configuration (T0, L0).
func (c *Calc) Init(t0, l0 float64) {
	c.t0, c.l0 = t0, l0
	c.prevT, c.prevL = t0, l0
	c.initalized = true
}

// Compute returns the reward for the performance observed after the
// current tuning step and advances the previous-step state.
func (c *Calc) Compute(t, l float64) float64 {
	if !c.initalized {
		panic("reward: Compute before Init")
	}
	// Eq. 4: throughput deltas (higher is better).
	dT0 := (t - c.t0) / c.t0
	dTt := (t - c.prevT) / c.prevT
	// Eq. 5: latency deltas (lower is better, hence the sign flips).
	dL0 := (-l + c.l0) / c.l0
	dLt := (-l + c.prevL) / c.prevL

	rT := c.partial(dT0, dTt)
	rL := c.partial(dL0, dLt)
	c.prevT, c.prevL = t, l
	return c.CT*rT + c.CL*rL
}

// partial evaluates Eq. 6 for one metric given its initial-relative and
// previous-relative deltas, honoring the variant's comparison rule.
func (c *Calc) partial(d0, dt float64) float64 {
	switch c.Kind {
	case RFA:
		d0 = dt // only the previous step matters
	case RFB:
		dt = d0 // only the initial settings matter
	}
	var r float64
	if d0 > 0 {
		r = ((1+d0)*(1+d0) - 1) * abs(1+dt)
		// The paper's refinement: a positive reward is zeroed when the
		// step regressed against the previous one, to stop the agent
		// farming reward from oscillation. RF-C omits this rule.
		if c.Kind != RFC && c.Kind != RFB && dt < 0 {
			r = 0
		}
	} else {
		r = -((1-d0)*(1-d0) - 1) * abs(1-dt)
	}
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
