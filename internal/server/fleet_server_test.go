package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
)

// blockingConfig holds every session at its first instance build until
// the returned release func is called — the pattern TestBackpressure429
// uses, shared here for the admission tests.
func blockingConfig(t *testing.T) (Config, func()) {
	t.Helper()
	cfg := testConfig(t)
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	t.Cleanup(release)
	inner := cfg.MakeDB
	if inner == nil {
		inner = func(inst simdb.Instance, seed int64) env.Database {
			return simdb.New(knobs.EngineCDB, inst, seed)
		}
	}
	cfg.MakeDB = func(inst simdb.Instance, seed int64) env.Database {
		<-block
		return inner(inst, seed)
	}
	return cfg, release
}

// TestTenantAdmissionCap pins per-tenant admission control: with
// MaxPerTenant=1 a tenant's second submission is rejected with
// ErrTenantBusy (HTTP 429 + Retry-After) while another tenant is still
// admitted, and finishing the first job frees the slot.
func TestTenantAdmissionCap(t *testing.T) {
	cfg, release := blockingConfig(t)
	cfg.Workers = 2
	cfg.QueueDepth = 8
	cfg.MaxPerTenant = 1
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	submit := func(tenant string) *http.Response {
		body, _ := json.Marshal(JobRequest{Tenant: tenant, Workload: "sysbench-ro"})
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := submit("acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("acme job 1: %d", resp.StatusCode)
	}
	resp := submit("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("acme job 2 = %d, want 429 (tenant cap)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant-cap 429 must carry Retry-After")
	}
	// Another tenant is not starved by acme's cap.
	if resp := submit("globex"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("globex job: %d", resp.StatusCode)
	}
	if _, err := m.Submit(JobRequest{Tenant: "acme", Workload: "sysbench-ro"}); err != ErrTenantBusy {
		t.Fatalf("Submit err = %v, want ErrTenantBusy", err)
	}

	// Finishing acme's job frees the slot.
	release()
	waitFor(t, func() bool { return m.Metrics().Completed >= 2 })
	if resp := submit("acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("acme after release: %d", resp.StatusCode)
	}
}

// TestDrainRejectsNewWork pins the drain contract: after Drain starts,
// Submit fails with ErrDraining and the HTTP layer answers 503; an idle
// manager drains immediately.
func TestDrainRejectsNewWork(t *testing.T) {
	cfg := testConfig(t)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewServer(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if _, err := m.Submit(JobRequest{Workload: "sysbench-ro"}); err != ErrDraining {
		t.Fatalf("Submit during drain = %v, want ErrDraining", err)
	}
	body, _ := json.Marshal(JobRequest{Workload: "sysbench-ro"})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
}

// TestGracefulCloseFinishesRunningJob pins the Server.Close satellite: a
// session running when Close is called finishes (done, not canceled)
// because Close drains before stopping the worker pool.
func TestGracefulCloseFinishesRunningJob(t *testing.T) {
	cfg, release := blockingConfig(t)
	cfg.Workers = 1
	var doneMu sync.Mutex
	var finals []JobStatus
	cfg.OnJobDone = func(st JobStatus) {
		doneMu.Lock()
		finals = append(finals, st)
		doneMu.Unlock()
	}
	cfg.IDPrefix = "n1"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	srv.SetDrainTimeout(2 * time.Minute)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	body, _ := json.Marshal(JobRequest{Tenant: "acme", Workload: "sysbench-ro"})
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(st.ID, "n1-") {
		t.Fatalf("job ID %q missing node prefix", st.ID)
	}
	// The session is parked in MakeDB by the blocking gate, so observing
	// the running state is deterministic; Close starts draining while the
	// job is provably still in flight, and only then is the gate opened.
	waitFor(t, func() bool {
		got, _ := m.Job(st.ID)
		return got.State == StateRunning
	})
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close() }()
	waitFor(t, m.Draining)
	release()
	if err := <-closeErr; err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	got, _ := m.Job(st.ID)
	if got.State != StateDone {
		t.Fatalf("job after graceful close = %s (%s), want done", got.State, got.Error)
	}
	doneMu.Lock()
	defer doneMu.Unlock()
	if len(finals) != 1 || finals[0].ID != st.ID || finals[0].State != StateDone || finals[0].Tenant != "acme" {
		t.Fatalf("OnJobDone saw %+v", finals)
	}
	if mt := m.Metrics(); mt.SubmitToDeployP50Ms <= 0 || mt.SubmitToDeployP99Ms < mt.SubmitToDeployP50Ms {
		t.Fatalf("submit-to-deploy quantiles: %+v", mt)
	}
}

// TestRetryAfterJitter pins the jitter satellite: hints stay inside
// [RetryAfterSec, RetryAfterSec+RetryAfterJitterSec] and are not all the
// same value.
func TestRetryAfterJitter(t *testing.T) {
	cfg := testConfig(t)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewServer(m)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := srv.retryAfter()
		if v < RetryAfterSec || v > RetryAfterSec+RetryAfterJitterSec {
			t.Fatalf("retry-after %d outside [%d, %d]", v, RetryAfterSec, RetryAfterSec+RetryAfterJitterSec)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws produced a single hint %v — jitter is not applied", seen)
	}
}

// TestPromMetricsEndpoint pins the Prometheus exposition: GET /metrics is
// text-format with HELP/TYPE headers and the SetPromExtra hook's samples,
// while GET /metrics.json still serves the JSON snapshot.
func TestPromMetricsEndpoint(t *testing.T) {
	cfg := testConfig(t)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewServer(m)
	srv.SetPromExtra(func() []PromMetric {
		return []PromMetric{{
			Name: "cdbtune_fleet_failovers_total", Help: "Lease steals from dead peers.",
			Type: "counter", Labels: map[string]string{"node": "n1"}, Value: 3,
		}}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	for _, want := range []string{
		"# TYPE cdbtune_queue_depth gauge",
		"# TYPE cdbtune_jobs_submitted_total counter",
		"cdbtune_submit_to_deploy_ms{quantile=\"0.99\"}",
		"cdbtune_fleet_failovers_total{node=\"n1\"} 3",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	var mt Metrics
	getJSON(t, ts.URL+"/metrics.json", &mt)
	if mt.Submitted != 0 || mt.RegistryEntries != 0 {
		t.Fatalf("fresh metrics.json: %+v", mt)
	}
}

// TestDrainWaitsForInFlightSessions pins the drain/worker handoff fix: a
// session a worker has dequeued but not yet marked active is invisible to
// active+len(queue), so Drain now tracks admitted-but-not-terminal work
// and must not return while any of it is pending.
func TestDrainWaitsForInFlightSessions(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(JobRequest{Workload: "sysbench-ro"}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, st := range m.Jobs() {
		if st.State != StateDone {
			t.Fatalf("job %s is %q after Drain returned, want done", st.ID, st.State)
		}
	}
}

// TestCancelWhileQueued pins the terminal path of a session that never
// starts: cancelled while still queued behind a running job, it must end
// canceled with a "canceled before start" event, fire the terminal hook
// exactly once, give its tenant both admission slots back, and leave the
// counters Drain and /metrics read consistent.
func TestCancelWhileQueued(t *testing.T) {
	cfg, release := blockingConfig(t)
	cfg.Workers = 1
	cfg.MaxPerTenant = 2
	var mu sync.Mutex
	hooked := map[string]int{}
	cfg.OnJobDone = func(st JobStatus) {
		mu.Lock()
		hooked[st.ID]++
		mu.Unlock()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	req := JobRequest{Tenant: "acme", Workload: "sysbench-ro"}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.Metrics().Active == 1 })
	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(req); err != ErrTenantBusy {
		t.Fatalf("third submit err = %v, want ErrTenantBusy", err)
	}
	if err := m.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Job(second.ID); st.State != StateQueued {
		t.Fatalf("cancelled job is %q before a worker reaches it, want queued", st.State)
	}

	release()
	waitFor(t, func() bool {
		a, _ := m.Job(first.ID)
		b, _ := m.Job(second.ID)
		mu.Lock()
		defer mu.Unlock()
		return a.State == StateDone && b.State == StateCanceled && len(hooked) == 2
	})
	if st, _ := m.Job(second.ID); st.Error != "" || st.Episodes != 0 {
		t.Fatalf("never-started job carries work or an error: %+v", st)
	}
	events, _, _ := m.Events(second.ID, 0)
	if last := events[len(events)-1]; last.Stage != StateCanceled || last.Message != "canceled before start" {
		t.Fatalf("last event = %+v, want the canceled-before-start line", last)
	}
	if mt := m.Metrics(); mt.Active != 0 || mt.Canceled != 1 || mt.Completed != 1 {
		t.Fatalf("metrics after both jobs ended: %+v", mt)
	}

	// Both of the tenant's slots are free again.
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(req); err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hooked[first.ID] != 1 || hooked[second.ID] != 1 {
		t.Fatalf("OnJobDone calls = %v, want exactly one per job", hooked)
	}
}
