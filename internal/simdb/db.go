package simdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/workload"
)

// ErrCrashed is returned by RunWorkload when the configuration makes the
// instance fall over mid-run — the paper's example is the redo-log group
// outgrowing the disk (§5.2.3), and memory over-subscription does the same.
var ErrCrashed = errors.New("simdb: instance crashed under this configuration")

// ErrTransient marks a measurement failure that did not change the
// instance: a dropped stress-test connection, a metric-collection timeout,
// a restart that must be retried. The simulator itself never fails this
// way; the chaos layer injects it, and env.Step/Measure retry it with
// backoff before giving up.
var ErrTransient = errors.New("simdb: transient measurement failure")

// ErrWorkerLost marks the training server behind an environment becoming
// unreachable mid-episode — the machine died, not the database
// configuration. The chaos layer injects it; the trainer responds by
// running the interrupted episode again on a fresh environment.
var ErrWorkerLost = errors.New("simdb: training server lost")

// Nominal wall-clock costs of one tuning step, from §5.1.1. The simulator
// completes instantly; the virtual clock in internal/core charges these.
const (
	StressTestSec     = 152.88
	MetricsCollectSec = 0.00086
	DeploySec         = 16.68
	RestartSec        = 120
	SamplePeriodSec   = 5 // external/internal metric sampling cadence

	// ObserveSec is the short observation window the dynamic-serving loop
	// uses between re-tunes: long enough for a handful of metric samples,
	// cheap enough to poll a timeline many times per simulated day.
	ObserveSec = 30
)

// Inputs is everything a cost model may read. It carries no RNG and no
// counters, so a Model is RNG-free by construction.
type Inputs struct {
	Engine knobs.Engine
	HW     Hardware
	// Knob returns the current actual value of the first knob carrying
	// the role, or def when the engine catalog lacks it.
	Knob func(r knobs.Role, def float64) float64
	// AuxFactor is the minor-knob throughput factor under the workload.
	AuxFactor float64
}

// Rates is what a cost model hands the shell for one configuration under
// one workload, all noise-free.
type Rates struct {
	TPS         float64
	LatencyMS   float64
	Crashed     bool
	CrashReason string
	// StallFrac is the fraction of wall time writers spend fully stalled
	// (0 for engines without write stalls).
	StallFrac float64
	// Metrics holds, in metrics.Defs order, a per-second rate for every
	// counter and an instantaneous value for every gauge.
	Metrics [metrics.NumMetrics]float64
}

// Set records the rate (counter) or value (gauge) of the named canonical
// metric. An unknown name is a bug in the engine's mapping.
func (r *Rates) Set(name string, v float64) {
	i := metrics.Index(name)
	if i < 0 {
		panic("simdb: unknown metric " + name)
	}
	r.Metrics[i] = v
}

// Model is all an engine family supplies: a pure cost model from knob
// values, hardware and workload to Rates.
type Model func(in Inputs, w workload.Workload) Rates

// DB is one simulated database instance: the shell every engine family
// shares (knob store, run/restart counters, seeded noise, sample loop,
// metric accumulation, stall banking). doc.go states its draw order.
type DB struct {
	inst    Instance
	catalog *knobs.Catalog // full engine catalog
	values  []float64      // actual knob values, aligned with catalog
	aux     *AuxSurface
	model   Model
	rng     *rand.Rand

	cum      [metrics.NumMetrics]float64 // cumulative counter state
	restarts int
	runs     int

	mu           sync.Mutex
	pendingStall float64 // stall seconds not yet drained via TakeStallSeconds
}

// New creates an instance of the given buffer-pool engine on the given
// hardware with every knob at its default. seed fixes the run-to-run
// measurement noise. The LSM engine family lives in simdb/lsm
// (env.OpenEngine dispatches); this package cannot import its model.
func New(engine knobs.Engine, inst Instance, seed int64) *DB {
	if engine == knobs.EngineLSM {
		panic("simdb: EngineLSM is served by simdb/lsm (use lsm.New or env.OpenEngine)")
	}
	return NewEngine(engine, inst, seed, bufferPoolModel)
}

// NewEngine wraps the shared instance shell around an engine family's
// cost model, with every knob of the engine's catalog at its default.
func NewEngine(engine knobs.Engine, inst Instance, seed int64, model Model) *DB {
	cat := knobs.ForEngine(engine)
	db := &DB{
		inst:    inst,
		catalog: cat,
		aux:     NewAuxSurface(cat),
		model:   model,
		rng:     rand.New(rand.NewSource(seed)),
	}
	db.values = db.defaults()
	return db
}

func (db *DB) defaults() []float64 {
	hw := db.inst.HW
	return db.catalog.Denormalize(db.catalog.Defaults(hw.RAMGB, hw.DiskGB), hw.RAMGB, hw.DiskGB)
}

// Instance reports the hardware instance.
func (db *DB) Instance() Instance { return db.inst }

// Catalog returns the full knob catalog of the engine.
func (db *DB) Catalog() *knobs.Catalog { return db.catalog }

// Restarts reports how many knob deployments required a restart.
func (db *DB) Restarts() int { return db.restarts }

// Runs reports how many stress tests have been executed.
func (db *DB) Runs() int { return db.runs }

// TakeStallSeconds implements env.Staller: it returns and clears the extra
// virtual time write stalls cost during the last stress tests. Engines
// whose model never reports a StallFrac always return 0.
func (db *DB) TakeStallSeconds() float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.pendingStall
	db.pendingStall = 0
	return s
}

// ApplyKnobs deploys a normalized configuration over the knobs of cat
// (which may be a subset of the full catalog); knobs outside cat keep
// their current values. It reports whether the deployment needed a
// restart (§5.1.1 charges 2 minutes for restarts). The new values land
// together or not at all: an error leaves the instance untouched.
func (db *DB) ApplyKnobs(cat *knobs.Catalog, x []float64) (restarted bool, err error) {
	if cat.Engine != db.catalog.Engine {
		return false, fmt.Errorf("simdb: catalog engine %v does not match instance engine %v", cat.Engine, db.catalog.Engine)
	}
	if len(x) != cat.Len() {
		return false, fmt.Errorf("simdb: got %d knob values for %d knobs", len(x), cat.Len())
	}
	next := append([]float64(nil), db.values...)
	for i, k := range cat.Knobs {
		full := db.catalog.Index(k.Name)
		if full < 0 {
			return false, fmt.Errorf("simdb: knob %q not in engine catalog", k.Name)
		}
		v := k.Value(x[i], db.inst.HW.RAMGB, db.inst.HW.DiskGB)
		if v != next[full] && k.Restart {
			restarted = true
		}
		next[full] = v
	}
	db.values = next
	if restarted {
		db.restarts++
	}
	return restarted, nil
}

// ResetDefaults restores every knob to its default value.
func (db *DB) ResetDefaults() {
	db.values = db.defaults()
	db.restarts++
}

// CurrentKnobs returns the normalized current values of the knobs in cat.
func (db *DB) CurrentKnobs(cat *knobs.Catalog) []float64 {
	x := make([]float64, cat.Len())
	for i, k := range cat.Knobs {
		if v, ok := db.KnobValue(k.Name); ok {
			x[i] = k.Normalize(v, db.inst.HW.RAMGB, db.inst.HW.DiskGB)
		}
	}
	return x
}

// KnobValue returns the actual value of the named knob.
func (db *DB) KnobValue(name string) (float64, bool) {
	i := db.catalog.Index(name)
	if i < 0 {
		return 0, false
	}
	return db.values[i], true
}

// roleValue returns the current actual value of the first knob carrying
// the role, or def when the engine catalog lacks it.
func (db *DB) roleValue(r knobs.Role, def float64) float64 {
	i := db.catalog.RoleIndex(r)
	if i < 0 {
		return def
	}
	return db.values[i]
}

// Inputs returns what the cost model sees of the instance under w.
func (db *DB) Inputs(w workload.Workload) Inputs {
	return Inputs{
		Engine:    db.catalog.Engine,
		HW:        db.inst.HW,
		Knob:      db.roleValue,
		AuxFactor: db.aux.Factor(db.values, db.inst.HW, w),
	}
}

// Result is the outcome of one stress test: the averaged external metrics
// and the collector-reduced raw internal state vector.
type Result struct {
	Ext   metrics.External
	State []float64 // 63 raw internal metrics (collector output)
}

// RunWorkload stress-tests the instance under w for durationSec seconds of
// virtual time, sampling internal and external metrics every 5 seconds
// (§2.2.2). On a crash it returns ErrCrashed; the caller translates that
// into the paper's large negative reward. Write-stall time the model
// reports is banked for the environment to drain via TakeStallSeconds.
func (db *DB) RunWorkload(w workload.Workload, durationSec float64) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	db.runs++
	p := db.model(db.Inputs(w), w)
	if p.Crashed {
		// A crash still moves the clock and leaves the counters as they
		// were; there is nothing meaningful to collect.
		return Result{}, fmt.Errorf("%w: %s", ErrCrashed, p.CrashReason)
	}
	n := int(durationSec / SamplePeriodSec)
	if n < 2 {
		n = 2
	}
	col := metrics.NewCollector()
	ext := make([]metrics.External, 0, n)
	for i := 0; i < n; i++ {
		db.advance(&p, SamplePeriodSec)
		col.Add(db.snapshot(&p))
		ext = append(ext, metrics.External{
			Throughput: p.TPS * db.noise(0.015),
			Latency99:  p.LatencyMS * db.noise(0.03),
		})
	}
	if stall := p.StallFrac * durationSec; stall > 0 {
		db.mu.Lock()
		db.pendingStall += stall * db.noise(0.1)
		db.mu.Unlock()
	}
	return Result{Ext: metrics.MeanExternal(ext), State: col.State()}, nil
}

// ShowStatus returns an instantaneous raw snapshot, the "show status"
// command a DBA runs by hand: the accumulated counters plus the gauges of
// the current configuration under w.
func (db *DB) ShowStatus(w workload.Workload) metrics.Snapshot {
	p := db.model(db.Inputs(w), w)
	return db.snapshot(&p)
}

// advance accumulates dt seconds of counter activity at the rates the
// cost model produced, with per-counter sampling noise.
func (db *DB) advance(p *Rates, dt float64) {
	for i := metrics.NumGauges; i < metrics.NumMetrics; i++ {
		v := p.Metrics[i] * dt * db.noise(0.02)
		if v < 0 {
			v = 0
		}
		db.cum[i] += v
	}
}

// snapshot materializes the instantaneous gauge values on top of the
// accumulated counters.
func (db *DB) snapshot(p *Rates) metrics.Snapshot {
	s := metrics.Snapshot{Values: db.cum}
	for i := 0; i < metrics.NumGauges; i++ {
		v := p.Metrics[i]
		if v < 0 {
			v = 0
		}
		s.Values[i] = v * db.noise(0.01)
	}
	return s
}

// noise draws a multiplicative 1±σ measurement perturbation.
func (db *DB) noise(sigma float64) float64 {
	f := 1 + sigma*db.rng.NormFloat64()
	if f < 0.5 {
		f = 0.5
	}
	return f
}
