package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"cdbtune/internal/controller"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// ErrQueueFull rejects a submission when the admission queue is at
// capacity; the HTTP layer maps it to 429 with a Retry-After header.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrTenantBusy rejects a submission when one tenant already has its full
// per-tenant share of the queue — admission control that keeps a single
// noisy tenant from starving the rest of the fleet's SLO.
var ErrTenantBusy = errors.New("server: tenant at its pending-job limit")

// ErrDraining rejects submissions while the manager drains for shutdown;
// the HTTP layer maps it to 503 so clients fail over to another process.
var ErrDraining = errors.New("server: draining")

// RetryAfterSec is the base backoff the service suggests to a rejected
// client; RetryAfterJitterSec is the jitter spread added on top so a
// synchronized client herd does not re-arrive on the same second.
const (
	RetryAfterSec       = 2
	RetryAfterJitterSec = 3
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Warm-start paths.
const (
	PathWarm    = "warm"
	PathScratch = "scratch"
)

// Config assembles a Manager. The zero value (plus a Registry) serves the
// full CDB knob catalog against the simulator with the paper's protocol.
type Config struct {
	// Registry is the model collection behind warm starts. Required. A
	// *registry.Registry serves one process; a *registry.Shared serves a
	// fleet out of one lease-replicated directory.
	Registry registry.Store

	// Workers is the session worker-pool size (default 2); QueueDepth the
	// admission queue bound beyond which Submit rejects (default 16).
	Workers    int
	QueueDepth int

	// MaxPerTenant bounds one tenant's pending (queued + running) jobs;
	// beyond it Submit rejects with ErrTenantBusy (0 = no per-tenant cap).
	MaxPerTenant int

	// IDPrefix namespaces job IDs ("node1" → "node1-job-0000") so IDs stay
	// unique across a fleet of processes.
	IDPrefix string

	// OnJobDone, when set, is called (without the manager lock) with every
	// session's terminal status — the fleet journal hook.
	OnJobDone func(JobStatus)

	// OnlineSteps is the per-request recommendation budget (paper: 5).
	OnlineSteps int

	// Scratch training runs in ChunkEpisodes-sized chunks between greedy
	// probes, for at least MinScratchEpisodes and at most
	// MaxScratchEpisodes; a warm-started session fine-tunes for at most
	// MaxFineTuneEpisodes. Training stops early once a probe fails to beat
	// the best probed throughput by more than ConvergeEps (relative) for
	// Patience consecutive probes. ProbeSteps is the number of greedy
	// actions per probe.
	MinScratchEpisodes  int
	MaxScratchEpisodes  int
	MaxFineTuneEpisodes int
	ChunkEpisodes       int
	Patience            int
	ProbeSteps          int
	ConvergeEps         float64

	// MatchRadius is the fingerprint distance under which a registry entry
	// counts as the same workload class and seeds the session's agent.
	MatchRadius float64

	// TrainWorkers is a name the frozen benchmark harness reads; it
	// selects nothing. A session trains one episode at a time (sessions
	// are concurrent with each other), so 0 and 1 are accepted and
	// NewManager rejects any other value rather than serve serially for an
	// operator who asked for parallel training.
	TrainWorkers int

	// Seed derives every session's deterministic seed stream.
	Seed int64

	// GuardK and GuardRadius configure each session's safety guardrail
	// (see controller.Config).
	GuardK      int
	GuardRadius float64

	// Timeline, when non-empty, appends a dynamic serving window to every
	// session (a per-request JobRequest.Timeline overrides it): after the
	// tuned model is registered, the session keeps serving the named
	// workload timeline (workload.TimelineByName) with the drift detector
	// armed, re-tuning in place whenever the workload fingerprint
	// diverges. ServeHours bounds the window in simulated hours (0 = one
	// timeline cycle), TimeScale overrides the timeline's compression
	// (simulated seconds per virtual second, 0 = the timeline's own), and
	// DriftThreshold overrides the detector threshold (0 = calibrated
	// default).
	Timeline       string
	ServeHours     float64
	TimeScale      float64
	DriftThreshold float64

	// Catalog is the tunable knob subset (default: the full CDB catalog).
	Catalog *knobs.Catalog
	// TunerConfig builds each session's tuner configuration (default
	// core.DefaultConfig). Tests swap in a small fast network.
	TunerConfig func(cat *knobs.Catalog) core.Config
	// MakeDB builds database instances — the user instance under tuning
	// and the fresh training/probe instances (default: the simulator).
	MakeDB func(inst simdb.Instance, seed int64) env.Database

	// Logf receives the manager's log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Registry == nil {
		return errors.New("server: Config.Registry is required")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.OnlineSteps <= 0 {
		c.OnlineSteps = 5
	}
	if c.MinScratchEpisodes <= 0 {
		c.MinScratchEpisodes = 4
	}
	if c.MaxScratchEpisodes <= 0 {
		c.MaxScratchEpisodes = 8
	}
	if c.MaxScratchEpisodes < c.MinScratchEpisodes {
		c.MaxScratchEpisodes = c.MinScratchEpisodes
	}
	if c.MaxFineTuneEpisodes <= 0 {
		c.MaxFineTuneEpisodes = 2
	}
	if c.ChunkEpisodes <= 0 {
		c.ChunkEpisodes = 2
	}
	if c.Patience <= 0 {
		c.Patience = 1
	}
	if c.ProbeSteps <= 0 {
		c.ProbeSteps = 2
	}
	if c.ConvergeEps <= 0 {
		c.ConvergeEps = 0.01
	}
	if c.MatchRadius <= 0 {
		c.MatchRadius = 0.1
	}
	if c.TrainWorkers > 1 {
		return fmt.Errorf("server: Config.TrainWorkers = %d: sessions train one episode at a time; the field accepts only 0 or 1", c.TrainWorkers)
	}
	if c.Catalog == nil {
		c.Catalog = knobs.MySQL(knobs.EngineCDB)
	}
	if c.TunerConfig == nil {
		c.TunerConfig = core.DefaultConfig
	}
	if c.MakeDB == nil {
		c.MakeDB = func(inst simdb.Instance, seed int64) env.Database {
			return simdb.New(knobs.EngineCDB, inst, seed)
		}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// JobRequest is one user tuning request.
type JobRequest struct {
	// Tenant identifies the requesting tenant for per-tenant admission
	// control and fleet routing ("" = the anonymous tenant).
	Tenant string `json:"tenant,omitempty"`
	// IdemKey is the fleet idempotency key this job was submitted under
	// ("" for direct submissions). It rides on the job itself so the
	// terminal-status hook can journal the outcome without a side table —
	// a session may finish before any post-Submit bookkeeping runs.
	IdemKey string `json:"idem_key,omitempty"`
	// Workload names a standard workload profile (workload.ByName).
	Workload string `json:"workload"`
	// Instance names a Table 1 instance (default CDB-A).
	Instance string `json:"instance,omitempty"`
	// Seed seeds the user instance's simulator (0 = derived).
	Seed int64 `json:"seed,omitempty"`
	// Timeline names a workload timeline to keep serving after the tune
	// ("" = Config.Timeline; "none" suppresses a config-level default).
	Timeline string `json:"timeline,omitempty"`
	// ServeHours bounds the dynamic window in simulated hours (0 =
	// Config.ServeHours, then one timeline cycle).
	ServeHours float64 `json:"serve_hours,omitempty"`
}

// JobStatus is a session's externally visible state.
type JobStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	IdemKey  string `json:"idem_key,omitempty"`
	Workload string `json:"workload"`
	Instance string `json:"instance"`
	State    string `json:"state"`

	// Path reports which serving path the session took: "warm" (a
	// registry model within MatchRadius seeded the agent, training was a
	// fine-tune) or "scratch".
	Path          string  `json:"path,omitempty"`
	MatchID       string  `json:"match_id,omitempty"`
	MatchDistance float64 `json:"match_distance,omitempty"`

	// Episodes is the training episodes this session ran; EpisodesSaved
	// how many the warm start avoided versus the matched model's recorded
	// from-scratch cost.
	Episodes      int `json:"episodes"`
	EpisodesSaved int `json:"episodes_saved"`

	// ModelID is the registry entry this session created or updated.
	ModelID string `json:"model_id,omitempty"`

	// Improvement is the deployed configuration's relative throughput gain
	// over the instance's defaults; Approved whether the license step
	// granted deployment.
	Improvement    float64 `json:"improvement"`
	Approved       bool    `json:"approved"`
	BestThroughput float64 `json:"best_throughput"`

	// Dynamic-serving counters, present when the session served a
	// workload timeline after tuning: drift detections, drift-triggered
	// re-tunes, and guardrail/crash reverts during the window.
	Timeline string `json:"timeline,omitempty"`
	Drifts   int    `json:"drifts,omitempty"`
	Retunes  int    `json:"retunes,omitempty"`
	Reverts  int    `json:"reverts,omitempty"`

	QueueWaitMs float64 `json:"queue_wait_ms"`
	Error       string  `json:"error,omitempty"`
}

// Event is one line of a session's progress stream.
type Event struct {
	Seq     int    `json:"seq"`
	UnixMs  int64  `json:"unix_ms"`
	Stage   string `json:"stage"`
	Message string `json:"message"`
}

// Metrics is the service-level snapshot behind GET /metrics.
type Metrics struct {
	Submitted int `json:"submitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Active    int `json:"active"`
	Queued    int `json:"queued"`

	WarmHits   int `json:"warm_hits"`
	WarmMisses int `json:"warm_misses"`

	EpisodesTrained int `json:"episodes_trained"`
	EpisodesSaved   int `json:"episodes_saved"`

	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP95Ms float64 `json:"queue_wait_p95_ms"`

	// Submit-to-deploy latency over completed sessions: the queue SLO the
	// fleet harness asserts on.
	SubmitToDeployP50Ms float64 `json:"submit_to_deploy_p50_ms"`
	SubmitToDeployP99Ms float64 `json:"submit_to_deploy_p99_ms"`

	RegistryEntries int `json:"registry_entries"`
	RegistryCorrupt int `json:"registry_corrupt"`
}

// session is one tuning request moving through the pipeline.
type session struct {
	req JobRequest

	w        workload.Workload
	inst     simdb.Instance
	baseSeed int64

	submitted time.Time

	// Everything below is guarded by the manager's mutex. The embedded
	// JobStatus is the session's externally visible state — a status
	// snapshot is a copy of it; its ID, Tenant, IdemKey, Workload,
	// Instance and Timeline are fixed at submission and readable without
	// the lock.
	JobStatus
	events   []Event
	notify   chan struct{}
	cancel   context.CancelFunc
	canceled bool
}

// Manager runs the multi-tenant serving pipeline: a bounded worker pool
// draining an admission queue of tuning sessions.
type Manager struct {
	cfg Config
	reg registry.Store

	queue chan *session
	wg    sync.WaitGroup

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	draining bool
	jobs     map[string]*session
	order    []string
	nextID   int
	active   int
	// inflight counts sessions admitted but not yet terminal. Unlike
	// active+len(queue) it has no blind spot: a session a worker has
	// dequeued but not yet started is still in flight, so Drain cannot
	// return while one is about to run.
	inflight int
	pending  map[string]int // tenant → queued + running jobs

	submitted, rejected, completed, failed, canceled int
	warmHits, warmMisses                             int
	episodesTrained, episodesSaved                   int
	waitsMs, deployMs                                []float64
}

// NewManager validates cfg, fills defaults and starts the worker pool.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		reg:        cfg.Registry,
		queue:      make(chan *session, cfg.QueueDepth),
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*session),
		pending:    make(map[string]int),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close cancels every running session, drains the pool and waits for it.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.rootCancel()
	close(m.queue)
	m.wg.Wait()
}

// Submit validates and enqueues a tuning request. It fails fast with
// ErrQueueFull when the admission queue is at capacity — backpressure
// instead of unbounded latency — and with a validation error for an
// unknown workload or instance.
func (m *Manager) Submit(req JobRequest) (JobStatus, error) {
	w, err := workload.ByName(req.Workload)
	if err != nil {
		return JobStatus{}, fmt.Errorf("server: %w", err)
	}
	inst := simdb.CDBA
	if req.Instance != "" {
		var ok bool
		if inst, ok = simdb.ByName(req.Instance); !ok {
			return JobStatus{}, fmt.Errorf("server: unknown instance %q", req.Instance)
		}
	}
	// Resolve the dynamic serving window up front so an unknown timeline
	// is rejected at submission, not hours into the session.
	tlName := req.Timeline
	if tlName == "" {
		tlName = m.cfg.Timeline
	}
	if tlName == "none" {
		tlName = ""
	}
	if tlName != "" {
		if _, err := workload.TimelineByName(tlName, w); err != nil {
			return JobStatus{}, fmt.Errorf("server: %w", err)
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, errors.New("server: manager closed")
	}
	if m.draining {
		m.rejected++
		m.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if m.cfg.MaxPerTenant > 0 && m.pending[req.Tenant] >= m.cfg.MaxPerTenant {
		m.rejected++
		m.mu.Unlock()
		return JobStatus{}, ErrTenantBusy
	}
	id := fmt.Sprintf("job-%04d", m.nextID)
	if m.cfg.IDPrefix != "" {
		id = m.cfg.IDPrefix + "-" + id
	}
	s := &session{
		req:       req,
		w:         w,
		inst:      inst,
		baseSeed:  m.cfg.Seed + int64(m.nextID)*1_000_003,
		submitted: time.Now(),
		JobStatus: JobStatus{
			ID: id, Tenant: req.Tenant, IdemKey: req.IdemKey,
			Workload: w.Name, Instance: inst.Name,
			State: StateQueued, Timeline: tlName,
		},
		notify: make(chan struct{}),
	}
	m.nextID++

	select {
	case m.queue <- s:
	default:
		m.rejected++
		m.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	m.submitted++
	m.inflight++
	m.pending[s.Tenant]++
	m.jobs[s.ID] = s
	m.order = append(m.order, s.ID)
	m.eventLocked(s, "queued", "request queued (workload %s, instance %s)", w.Name, inst.Name)
	st := s.JobStatus
	m.mu.Unlock()
	return st, nil
}

// Job returns one session's status.
func (m *Manager) Job(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.JobStatus, true
}

// Jobs returns every session's status in submission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].JobStatus)
	}
	return out
}

// Cancel stops a session: a queued session is skipped when a worker picks
// it up, a running one has its context cancelled (the controller rolls the
// instance back).
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("server: no job %q", id)
	}
	switch s.State {
	case StateDone, StateFailed, StateCanceled:
		return fmt.Errorf("server: job %q already %s", id, s.State)
	}
	s.canceled = true
	if s.cancel != nil {
		s.cancel()
	}
	m.eventLocked(s, "cancel", "cancellation requested")
	return nil
}

// Events returns a session's progress events after the given sequence
// number, plus a channel closed on the next append — the long-poll surface
// behind the streaming endpoint.
func (m *Manager) Events(id string, after int) ([]Event, <-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.jobs[id]
	if !ok {
		return nil, nil, false
	}
	var out []Event
	for _, e := range s.events {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	return out, s.notify, true
}

// Metrics snapshots the service counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Metrics{
		Submitted: m.submitted, Rejected: m.rejected,
		Completed: m.completed, Failed: m.failed, Canceled: m.canceled,
		Active: m.active, Queued: len(m.queue),
		WarmHits: m.warmHits, WarmMisses: m.warmMisses,
		EpisodesTrained: m.episodesTrained, EpisodesSaved: m.episodesSaved,
		QueueWaitP50Ms:      percentile(m.waitsMs, 0.50),
		QueueWaitP95Ms:      percentile(m.waitsMs, 0.95),
		SubmitToDeployP50Ms: percentile(m.deployMs, 0.50),
		SubmitToDeployP99Ms: percentile(m.deployMs, 0.99),
		RegistryEntries:     m.reg.Len(), RegistryCorrupt: len(m.reg.Corrupt()),
	}
}

// Drain stops admitting new sessions (Submit returns ErrDraining) and
// waits for every queued and running session to reach a terminal state,
// or for ctx to expire. It does not cancel work — pair with Cancel or a
// deadline when sessions must be cut short.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		m.mu.Lock()
		idle := m.inflight == 0
		m.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Workers reports the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Registry exposes the model collection behind the serving layer.
func (m *Manager) Registry() registry.Store { return m.reg }

// percentile reports the q-quantile (nearest-rank on the sorted copy) of
// samples, 0 when empty.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// eventLocked appends a progress event and wakes streamers; callers hold
// m.mu.
func (m *Manager) eventLocked(s *session, stage, format string, args ...any) {
	e := Event{
		Seq:     len(s.events) + 1,
		UnixMs:  time.Now().UnixMilli(),
		Stage:   stage,
		Message: fmt.Sprintf(format, args...),
	}
	s.events = append(s.events, e)
	close(s.notify)
	s.notify = make(chan struct{})
	m.cfg.Logf("server: %s [%s] %s", s.ID, stage, e.Message)
}

func (m *Manager) event(s *session, stage, format string, args ...any) {
	m.mu.Lock()
	m.eventLocked(s, stage, format, args...)
	m.mu.Unlock()
}

// worker drains the admission queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for s := range m.queue {
		m.run(s)
	}
}

// finish is the one terminal path of every session, started or not: it
// records the terminal state, releases the tenant's admission slot and
// fires the terminal-status hook.
func (m *Manager) finish(s *session, state string, err error) {
	m.mu.Lock()
	s.State = state
	switch state {
	case StateDone:
		m.completed++
		// Submit-to-deploy latency: the full span the tenant waited for a
		// deployed configuration.
		m.deployMs = append(m.deployMs, float64(time.Since(s.submitted))/float64(time.Millisecond))
		if len(m.deployMs) > 512 {
			m.deployMs = m.deployMs[len(m.deployMs)-512:]
		}
	case StateFailed:
		m.failed++
	case StateCanceled:
		m.canceled++
	}
	switch {
	case err != nil:
		s.Error = err.Error()
		m.eventLocked(s, state, "%v", err)
	case state == StateCanceled:
		// A started session is canceled through its context and carries
		// the context's error; only one that never ran has none.
		m.eventLocked(s, state, "canceled before start")
	default:
		m.eventLocked(s, state, "session %s", state)
	}
	m.inflight--
	if m.pending[s.Tenant] <= 1 {
		delete(m.pending, s.Tenant)
	} else {
		m.pending[s.Tenant]--
	}
	st := s.JobStatus
	m.mu.Unlock()
	if m.cfg.OnJobDone != nil {
		m.cfg.OnJobDone(st)
	}
}

// run executes one session end to end: fingerprint, registry match, warm
// or scratch training, guarded online tuning, registry write-back.
func (m *Manager) run(s *session) {
	ctx, cancel := context.WithCancel(m.rootCtx)
	defer cancel()

	m.mu.Lock()
	if s.canceled || m.rootCtx.Err() != nil {
		m.mu.Unlock()
		m.finish(s, StateCanceled, nil)
		return
	}
	s.State = StateRunning
	s.cancel = cancel
	s.QueueWaitMs = float64(time.Since(s.submitted)) / float64(time.Millisecond)
	m.waitsMs = append(m.waitsMs, s.QueueWaitMs)
	if len(m.waitsMs) > 256 {
		m.waitsMs = m.waitsMs[len(m.waitsMs)-256:]
	}
	m.active++
	m.eventLocked(s, "start", "session started after %.0f ms in queue", s.QueueWaitMs)
	m.mu.Unlock()

	err := m.serve(ctx, s)
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
	switch {
	case err == nil:
		m.finish(s, StateDone, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.finish(s, StateCanceled, err)
	default:
		m.finish(s, StateFailed, err)
	}
}

func (m *Manager) serve(ctx context.Context, s *session) error {
	cfg := m.cfg

	// The user's instance. Its default-configuration measurement doubles
	// as the workload fingerprint (§5: match the new tuning request
	// against previously trained models).
	userSeed := s.req.Seed
	if userSeed == 0 {
		userSeed = s.baseSeed + 17
	}
	userDB := cfg.MakeDB(s.inst, userSeed)
	base, err := env.New(userDB, cfg.Catalog, s.w).Measure()
	if err != nil {
		return fmt.Errorf("fingerprinting %s on defaults: %w", s.w.Name, err)
	}
	fp := registry.Fingerprint(base.State, s.w, s.inst.HW)
	m.event(s, "fingerprint", "measured defaults: %.1f tx/s; fingerprint dim %d", base.Ext.Throughput, len(fp))

	tn, err := core.New(cfg.TunerConfig(cfg.Catalog))
	if err != nil {
		return fmt.Errorf("building session tuner: %w", err)
	}

	// Registry match: a close-enough model seeds the agent and training
	// becomes a fine-tune.
	warm := false
	var match registry.Match
	if mt, ok := m.reg.Nearest(fp); ok && mt.Distance <= cfg.MatchRadius {
		if lerr := tn.Load(bytes.NewReader(mt.Model)); lerr != nil {
			m.event(s, "match", "model %s matched (d=%.4f) but failed to load (%v); training from scratch", mt.Meta.ID, mt.Distance, lerr)
		} else {
			warm, match = true, mt
		}
	}
	m.mu.Lock()
	if warm {
		s.Path, s.MatchID, s.MatchDistance = PathWarm, match.Meta.ID, match.Distance
		m.warmHits++
		m.eventLocked(s, "match", "warm start from %s (workload %s, d=%.4f, %d scratch episodes on record)",
			match.Meta.ID, match.Meta.Workload, match.Distance, match.Meta.ScratchEpisodes)
	} else {
		s.Path = PathScratch
		m.warmMisses++
		m.eventLocked(s, "match", "no model within radius %.3f; training from scratch", cfg.MatchRadius)
	}
	m.mu.Unlock()

	episodes, err := m.train(ctx, s, tn, warm)
	m.mu.Lock()
	s.Episodes = episodes
	m.episodesTrained += episodes
	if warm {
		if saved := match.Meta.ScratchEpisodes - episodes; saved > 0 {
			s.EpisodesSaved = saved
			m.episodesSaved += saved
		}
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	m.event(s, "train", "%s training converged after %d episodes", s.Path, episodes)

	// Online tuning through the controller: capture, replay, recommend,
	// license, deploy-or-rollback — under the session guardrail.
	ctrl, err := controller.New(controller.Config{
		Tuner: tn, Seed: s.baseSeed,
		OnlineSteps: cfg.OnlineSteps,
		GuardK:      cfg.GuardK, GuardRadius: cfg.GuardRadius,
	})
	if err != nil {
		return err
	}
	res, err := ctrl.HandleTuningRequestCtx(ctx, userDB, s.w)
	if err != nil {
		return fmt.Errorf("tuning request: %w", err)
	}
	m.mu.Lock()
	s.Improvement = res.Improvement
	s.Approved = res.Approved
	s.BestThroughput = res.BestPerf.Throughput
	m.eventLocked(s, "tune", "online tuning: %.1f → %.1f tx/s (%+.1f%%), approved=%v",
		res.Initial.Throughput, res.BestPerf.Throughput, res.Improvement*100, res.Approved)
	m.mu.Unlock()

	// Write the tuned model back: a warm session updates its matched entry
	// in place (version bump), a scratch session registers a new one.
	meta := registry.Meta{
		Workload: s.w.Name, Instance: s.inst.Name, Fingerprint: fp,
		Episodes: episodes, BestThroughput: res.BestPerf.Throughput,
	}
	if warm {
		meta.ID = match.Meta.ID
		meta.Episodes = match.Meta.Episodes + episodes
		if match.Meta.BestThroughput > meta.BestThroughput {
			meta.BestThroughput = match.Meta.BestThroughput
		}
	} else {
		meta.ScratchEpisodes = episodes
	}
	stored, err := m.putModel(tn, meta)
	if err != nil {
		return fmt.Errorf("registering tuned model: %w", err)
	}
	m.mu.Lock()
	s.ModelID = stored.ID
	m.eventLocked(s, "registry", "model %s v%d stored (%d cumulative episodes)", stored.ID, stored.Version, stored.Episodes)
	m.mu.Unlock()

	if s.Timeline == "" {
		return nil
	}
	return m.serveDynamic(ctx, s, tn, userDB, stored)
}

// putModel serializes tn's model and writes it to the registry under meta.
func (m *Manager) putModel(tn *core.Tuner, meta registry.Meta) (registry.Meta, error) {
	var buf bytes.Buffer
	if err := tn.Save(&buf); err != nil {
		return meta, fmt.Errorf("serializing model: %w", err)
	}
	return m.reg.Put(meta, buf.Bytes())
}

// serveDynamic keeps the tuned session alive under a time-varying
// workload: the drift detector watches the streaming fingerprint, each
// drift triggers an in-place guarded re-tune warm-seeded from the
// registry's nearest model (skipping the session's own entry), and every
// drift/re-tune/revert lands in the session's NDJSON event stream. The
// fine-tuned model is written back to the registry when the window ends.
func (m *Manager) serveDynamic(ctx context.Context, s *session, tn *core.Tuner, userDB env.Database, stored registry.Meta) error {
	cfg := m.cfg
	tl, err := workload.TimelineByName(s.Timeline, s.w)
	if err != nil {
		return fmt.Errorf("dynamic window: %w", err)
	}
	if cfg.TimeScale > 0 {
		tl.TimeScale = cfg.TimeScale
	}
	e := env.New(userDB, cfg.Catalog, s.w)
	e.Timeline = tl
	hours := s.req.ServeHours
	if hours <= 0 {
		hours = cfg.ServeHours
	}
	m.event(s, "dynamic", "serving timeline %s for %.0fh (drift threshold %.3f)",
		tl.Name, nonZero(hours, tl.TotalHours()), nonZero(cfg.DriftThreshold, core.DefaultDriftThreshold))

	rep, derr := tn.ServeDynamic(e, core.DynamicOptions{
		HorizonHours: hours,
		Drift:        core.DriftConfig{Threshold: cfg.DriftThreshold},
		Guard:        core.NewGuardrail(cfg.GuardK, cfg.GuardRadius),
		FineTune:     true,
		Ctx:          ctx,
		WarmSeed: func(state []float64, w workload.Workload) (string, bool) {
			fp := registry.Fingerprint(state, w, s.inst.HW)
			mt, ok := m.reg.NearestWithin(fp, cfg.MatchRadius)
			if !ok || mt.Meta.ID == stored.ID {
				// No model closer than the radius, or the nearest is this
				// session's own entry — keep re-tuning with the weights
				// already loaded.
				return "", false
			}
			if lerr := tn.Load(bytes.NewReader(mt.Model)); lerr != nil {
				m.event(s, "drift", "warm seed %s failed to load (%v); re-tuning in place", mt.Meta.ID, lerr)
				return "", false
			}
			return mt.Meta.ID, true
		},
		OnEvent: func(ev core.DynamicEvent) {
			m.mu.Lock()
			switch ev.Kind {
			case "drift":
				s.Drifts++
			case "retune":
				s.Retunes++
			case "revert":
				s.Reverts++
			}
			m.eventLocked(s, ev.Kind, "%s", ev.String())
			m.mu.Unlock()
		},
	})
	// Partial accounting is valid even when the window errored; surface
	// it before deciding the session's fate.
	m.mu.Lock()
	if rep.Final.Throughput > s.BestThroughput {
		s.BestThroughput = rep.Final.Throughput
	}
	m.eventLocked(s, "dynamic", "window closed: %.1fh served, %d drifts, %d retunes, %d reverts, %d crashes, mean %.1f tx/s",
		rep.Hours, rep.Drifts, len(rep.Retunes), rep.Reverts, rep.Crashes, rep.MeanThroughput())
	m.mu.Unlock()
	if derr != nil {
		return fmt.Errorf("dynamic window: %w", derr)
	}

	// Registry fine-tune write-back: the drift re-tunes updated the
	// model; persist the new version in place.
	if len(rep.Retunes) > 0 {
		meta := registry.Meta{
			ID: stored.ID, Workload: s.w.Name, Instance: s.inst.Name,
			Fingerprint: stored.Fingerprint,
			Episodes:    stored.Episodes + len(rep.Retunes),
		}
		meta.BestThroughput = stored.BestThroughput
		if rep.Final.Throughput > meta.BestThroughput {
			meta.BestThroughput = rep.Final.Throughput
		}
		upd, err := m.putModel(tn, meta)
		if err != nil {
			return fmt.Errorf("re-registering fine-tuned model: %w", err)
		}
		m.event(s, "registry", "model %s v%d updated from %d drift re-tunes", upd.ID, upd.Version, len(rep.Retunes))
	}
	return nil
}

func nonZero(v, fallback float64) float64 {
	if v > 0 {
		return v
	}
	return fallback
}

// train runs chunked offline training until the greedy policy's probed
// throughput plateaus: after each chunk the current policy is probed with
// ProbeSteps greedy steps on a fresh instance (no exploration, nothing
// enters the replay memory), and training stops once the probe fails to
// beat the best probed throughput by more than ConvergeEps for Patience
// consecutive probes. A warm-started session is probed before any
// training, so an already-converged model stops after a single chunk;
// scratch training runs at least MinScratchEpisodes.
func (m *Manager) train(ctx context.Context, s *session, tn *core.Tuner, warm bool) (int, error) {
	cfg := m.cfg
	maxEp, minEp := cfg.MaxScratchEpisodes, cfg.MinScratchEpisodes
	if warm {
		maxEp, minEp = cfg.MaxFineTuneEpisodes, 0
	}

	episodes := 0
	best := 0.0
	if warm {
		if p, err := m.probe(ctx, s, tn, 0); err == nil {
			best = p
			m.event(s, "probe", "warm model probes at %.1f tx/s before fine-tuning", p)
		} else if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}

	flat := 0
	for episodes < maxEp {
		n := cfg.ChunkEpisodes
		if episodes+n > maxEp {
			n = maxEp - episodes
		}
		chunkBase := s.baseSeed + int64(episodes)*101
		mk := func(ep int) *env.Env {
			db := cfg.MakeDB(s.inst, chunkBase+int64(ep))
			return env.New(db, cfg.Catalog, s.w)
		}
		rep, err := tn.OfflineTrainOpts(mk, core.TrainOptions{Episodes: n, Ctx: ctx})
		episodes += rep.Episodes
		if err != nil {
			return episodes, fmt.Errorf("training episode %d: %w", episodes, err)
		}

		p, perr := m.probe(ctx, s, tn, episodes)
		if perr != nil {
			if ctx.Err() != nil {
				return episodes, ctx.Err()
			}
			// A probe lost to environment faults neither stops nor extends
			// training; the next chunk's probe decides.
			m.event(s, "probe", "probe after episode %d failed (%v); continuing", episodes, perr)
			continue
		}
		m.event(s, "probe", "episode %d: greedy policy probes at %.1f tx/s (best %.1f)", episodes, p, best)
		if episodes >= minEp && best > 0 && p <= best*(1+cfg.ConvergeEps) {
			flat++
			if flat >= cfg.Patience {
				break
			}
		} else {
			flat = 0
		}
		if p > best {
			best = p
		}
	}
	return episodes, nil
}

// probe measures the current greedy policy on a fresh instance: reset to
// defaults, then ProbeSteps greedy actions, best throughput wins. Probe
// steps bypass the replay memory — they evaluate, never train.
func (m *Manager) probe(ctx context.Context, s *session, tn *core.Tuner, afterEpisodes int) (float64, error) {
	db := m.cfg.MakeDB(s.inst, s.baseSeed+9_000_000+int64(afterEpisodes))
	e := env.New(db, m.cfg.Catalog, s.w)
	e.Bind(ctx)
	defer e.Bind(nil)
	base, err := e.Measure()
	if err != nil {
		return 0, err
	}
	best := base.Ext.Throughput
	state := metrics.Normalize(base.State)
	for i := 0; i < m.cfg.ProbeSteps; i++ {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		res, err := e.Step(tn.Agent().Act(state))
		if err != nil {
			// Crashed or flaky probe instance: the probe reports what it
			// saw; recovery is the trainer's business, not the prober's.
			break
		}
		state = metrics.Normalize(res.State)
		if res.Ext.Throughput > best {
			best = res.Ext.Throughput
		}
	}
	return best, nil
}
