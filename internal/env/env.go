package env

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/simdb"
	"cdbtune/internal/simdb/lsm"
	"cdbtune/internal/workload"
)

// Clock is a virtual wall clock measured in seconds.
type Clock struct{ seconds float64 }

// Charge advances the clock.
func (c *Clock) Charge(sec float64) { c.seconds += sec }

// Seconds reports elapsed virtual time.
func (c *Clock) Seconds() float64 { return c.seconds }

// Minutes reports elapsed virtual time in minutes.
func (c *Clock) Minutes() float64 { return c.seconds / 60 }

// Database is the measurement-path surface the environment drives —
// exactly what Env uses of *simdb.DB. Extracting it lets the chaos layer
// interpose fault injection between the environment and the simulator
// without the tuners noticing.
type Database interface {
	// ApplyKnobs deploys a normalized configuration over the knobs of cat,
	// reporting whether a restart was needed.
	ApplyKnobs(cat *knobs.Catalog, x []float64) (restarted bool, err error)
	// RunWorkload stress-tests the instance and collects metrics.
	RunWorkload(w workload.Workload, durationSec float64) (simdb.Result, error)
	// ResetDefaults restores every knob to its default value.
	ResetDefaults()
	// CurrentKnobs returns the normalized current values of cat's knobs.
	CurrentKnobs(cat *knobs.Catalog) []float64
	// Instance reports the hardware instance.
	Instance() simdb.Instance
	// KnobValue returns the actual value of the named knob.
	KnobValue(name string) (float64, bool)
	// Runs reports how many stress tests have been executed.
	Runs() int
}

// compile-time check: the instance shell every engine family shares
// satisfies the extracted surface and banks write stalls.
var (
	_ Database = (*simdb.DB)(nil)
	_ Staller  = (*simdb.DB)(nil)
)

// OpenEngine constructs a database of the requested engine family on the
// given hardware: EngineLSM is served by the LSM simulator, every other
// engine by the buffer-pool simulator. This is the single dispatch point
// the CLI, the server and the experiment drivers share.
func OpenEngine(e knobs.Engine, inst simdb.Instance, seed int64) Database {
	if e == knobs.EngineLSM {
		return lsm.New(inst, seed)
	}
	return simdb.New(e, inst, seed)
}

// Staller is optionally implemented by fault-injecting databases whose
// last operation stalled: TakeStallSeconds returns (and clears) the extra
// virtual time the stall cost, which the environment charges to its clock.
type Staller interface {
	TakeStallSeconds() float64
}

// ApplyError marks a failure in the knob-deployment stage of a Step, as
// opposed to a crash or measurement failure during the stress test itself.
// Callers distinguish the stages with errors.As; the chained cause stays
// reachable through Unwrap (chaos-injected restart failures chain to
// simdb.ErrTransient, so retry-aware callers can treat them as skippable).
type ApplyError struct{ Err error }

// Error implements error.
func (e *ApplyError) Error() string { return "apply: " + e.Err.Error() }

// Unwrap exposes the underlying deployment failure.
func (e *ApplyError) Unwrap() error { return e.Err }

// FaultReport counts the measurement faults an environment absorbed. All
// counters are cumulative over the environment's lifetime.
type FaultReport struct {
	// Transients counts transient measurement failures observed (each
	// retry attempt that failed counts once).
	Transients int
	// Retries counts backoff-and-retry rounds performed; RetrySec is the
	// virtual backoff time they charged.
	Retries  int
	RetrySec float64
	// Stalls counts latency-spike/stall outcomes; StallSec is the extra
	// virtual time they charged.
	Stalls   int
	StallSec float64
	// Dropouts counts metric vectors that contained non-finite entries and
	// were sanitized before reaching an agent.
	Dropouts int
}

// Add accumulates another report into f.
func (f *FaultReport) Add(o FaultReport) {
	f.Transients += o.Transients
	f.Retries += o.Retries
	f.RetrySec += o.RetrySec
	f.Stalls += o.Stalls
	f.StallSec += o.StallSec
	f.Dropouts += o.Dropouts
}

// Any reports whether any fault was recorded.
func (f FaultReport) Any() bool {
	return f.Transients+f.Retries+f.Stalls+f.Dropouts > 0
}

// Env is one tuning session's environment.
type Env struct {
	DB  Database
	Cat *knobs.Catalog // the tunable subset exposed to the tuner
	W   workload.Workload

	// Timeline, when non-nil, makes the measured workload time-varying:
	// each measurement runs Timeline.At(Hour()) instead of the stationary
	// W (which stays the base profile). See the package doc.
	Timeline *workload.Timeline

	// DurationSec is the stress-test length per evaluation; the paper
	// replays ~150 s of workload (§2.1.2).
	DurationSec float64

	// DeltaScale, when positive, switches the environment to incremental
	// actions: Step input x is a per-knob adjustment and the deployed
	// configuration is current + (x−0.5)·2·DeltaScale, clamped to [0,1].
	// §3.2 notes CDBTune's action adjusts all knobs at a time; the delta
	// mode exists for the DESIGN.md action-representation ablation.
	DeltaScale float64

	// MaxRetries bounds how many times a transient measurement failure is
	// retried before Step/Measure give up and return it; RetryBaseSec is
	// the first backoff delay, doubled per retry with multiplicative
	// jitter, every delay charged to the Clock.
	MaxRetries   int
	RetryBaseSec float64

	Clock *Clock
	steps int

	faults FaultReport
	rng    *rand.Rand      // retry jitter; seeded so runs stay reproducible
	ctx    context.Context // nil = unbound; see Bind
}

// New builds an environment over db, exposing the knobs of cat, driving
// workload w.
func New(db Database, cat *knobs.Catalog, w workload.Workload) *Env {
	return &Env{
		DB: db, Cat: cat, W: w,
		DurationSec:  simdb.StressTestSec,
		MaxRetries:   3,
		RetryBaseSec: 5,
		Clock:        &Clock{},
		rng:          rand.New(rand.NewSource(1)),
	}
}

// Bind attaches a context to the environment's measurement path: Step,
// Measure and RecoverDefaults fail fast with ctx.Err() once the context is
// cancelled or past its deadline, checked on entry and before every retry
// backoff — a stress test mid-flight is never interrupted (the simulator
// is synchronous), but no new measurement or backoff wait starts after
// cancellation. The cancellation error is not a transient fault: it does
// not touch the FaultReport and hardened callers must not retry it. A nil
// ctx unbinds the environment.
func (e *Env) Bind(ctx context.Context) { e.ctx = ctx }

// ctxErr reports the bound context's cancellation state (nil when
// unbound).
func (e *Env) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Dim is the tunable knob count.
func (e *Env) Dim() int { return e.Cat.Len() }

// Steps reports how many evaluations have been charged.
func (e *Env) Steps() int { return e.steps }

// Faults reports the measurement faults absorbed so far.
func (e *Env) Faults() FaultReport { return e.faults }

// Hour reports the simulated timeline hour the virtual clock currently
// maps to (0 when no timeline is set).
func (e *Env) Hour() float64 {
	if e.Timeline == nil {
		return 0
	}
	return e.Timeline.HourAt(e.Clock.Seconds())
}

// PhaseName reports the timeline segment active right now ("" when no
// timeline is set).
func (e *Env) PhaseName() string {
	if e.Timeline == nil {
		return ""
	}
	return e.Timeline.SegmentAt(e.Hour()).Name
}

// CurrentWorkload is the workload a measurement starting now would run:
// the timeline's effective workload at the current simulated hour, or
// the stationary W without a timeline.
func (e *Env) CurrentWorkload() workload.Workload {
	if e.Timeline == nil {
		return e.W
	}
	return e.Timeline.At(e.Hour())
}

// Default returns the normalized default configuration for this
// environment's hardware.
func (e *Env) Default() []float64 {
	hw := e.DB.Instance().HW
	return e.Cat.Defaults(hw.RAMGB, hw.DiskGB)
}

// Step deploys the normalized configuration x, stress-tests the workload
// and returns the result, charging the virtual clock for deployment,
// restart (when needed), stress testing and metric collection. A failure
// in the deployment stage is wrapped in *ApplyError; a crash returns
// simdb.ErrCrashed (the clock is still charged — the run happened);
// transient measurement failures are retried with backoff before being
// returned.
func (e *Env) Step(x []float64) (simdb.Result, error) {
	if err := e.ctxErr(); err != nil {
		return simdb.Result{}, err
	}
	e.steps++
	if e.DeltaScale > 0 {
		cur := e.DB.CurrentKnobs(e.Cat)
		adj := make([]float64, len(x))
		for i := range x {
			v := cur[i] + (x[i]-0.5)*2*e.DeltaScale
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			adj[i] = v
		}
		x = adj
	}
	restarted, err := e.DB.ApplyKnobs(e.Cat, x)
	if err != nil {
		return simdb.Result{}, &ApplyError{Err: err}
	}
	e.Clock.Charge(simdb.DeploySec)
	if restarted {
		e.Clock.Charge(simdb.RestartSec)
	}
	res, err := e.measure()
	if err != nil {
		if errors.Is(err, simdb.ErrCrashed) {
			// Crashed instances are restarted with the previous sane
			// configuration before the next step.
			e.Clock.Charge(simdb.RestartSec)
		}
		return simdb.Result{}, err
	}
	return res, nil
}

// Measure runs the workload under the current configuration without
// changing knobs (used to observe T0/L0 and the initial state). Transient
// failures are retried like in Step.
func (e *Env) Measure() (simdb.Result, error) {
	return e.measure()
}

// measure runs one stress test, charging the clock, retrying transient
// failures with exponential backoff + jitter, charging stall time, and
// sanitizing the returned state vector.
func (e *Env) measure() (simdb.Result, error) {
	backoff := e.RetryBaseSec
	for attempt := 0; ; attempt++ {
		if err := e.ctxErr(); err != nil {
			return simdb.Result{}, err
		}
		// The workload is sampled at the start of each measurement window
		// and held for its duration; retries re-sample, since their
		// backoff has advanced the clock (and so the timeline).
		res, err := e.DB.RunWorkload(e.CurrentWorkload(), e.DurationSec)
		e.Clock.Charge(e.DurationSec + simdb.MetricsCollectSec)
		if s, ok := e.DB.(Staller); ok {
			if extra := s.TakeStallSeconds(); extra > 0 {
				e.Clock.Charge(extra)
				e.faults.Stalls++
				e.faults.StallSec += extra
			}
		}
		if err == nil && !finiteExternal(res.Ext) {
			// A non-finite throughput/latency reading is useless and, fed
			// to a reward function, poisons the memory pool — treat it as
			// one more flavor of transient measurement failure.
			err = fmt.Errorf("%w: non-finite external metrics", simdb.ErrTransient)
		}
		if err == nil {
			e.sanitizeState(res.State)
			return res, nil
		}
		if !errors.Is(err, simdb.ErrTransient) {
			return simdb.Result{}, err
		}
		e.faults.Transients++
		if attempt >= e.MaxRetries {
			return simdb.Result{}, err
		}
		// Exponential backoff with multiplicative jitter in [1, 1.5),
		// charged to the virtual clock: waiting out a flaky collector
		// costs real time on a real platform.
		wait := backoff * (1 + 0.5*e.rng.Float64())
		e.Clock.Charge(wait)
		e.faults.Retries++
		e.faults.RetrySec += wait
		backoff *= 2
	}
}

// sanitizeState replaces non-finite entries (metric dropouts) with zero so
// downstream normalization and network forward passes stay finite.
func (e *Env) sanitizeState(s []float64) {
	bad := false
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s[i] = 0
			bad = true
		}
	}
	if bad {
		e.faults.Dropouts++
	}
}

func finiteExternal(ext metrics.External) bool {
	ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return ok(ext.Throughput) && ok(ext.Latency99)
}

// RecoverDefaults restarts a crashed instance with the default
// configuration and re-measures it, charging the clock for the
// measurement. Tuners call it after a crash so the next action conditions
// on the recovered instance's state rather than the stale pre-crash one.
// The post-reset measurement inherits Measure's transient-retry policy;
// when even that fails the error is returned and the caller decides
// whether to retry the whole recovery or abandon the episode.
func (e *Env) RecoverDefaults() (simdb.Result, error) {
	e.DB.ResetDefaults()
	return e.Measure()
}

// NormalizedState converts a raw collector state into the [0,1] vector the
// agents consume.
func NormalizedState(raw []float64) []float64 { return metrics.Normalize(raw) }
