package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
)

// testConfig builds a fast serving configuration: a small knob subset, a
// tiny network, short episodes — the controller-test pattern sized for a
// full warm-vs-scratch comparison in seconds.
func testConfig(t *testing.T) Config {
	t.Helper()
	full := knobs.MySQL(knobs.EngineCDB)
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	cat := full.Subset(idx)
	reg, err := registry.Open(t.TempDir(), registry.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Registry:            reg,
		Workers:             2,
		OnlineSteps:         3,
		MinScratchEpisodes:  4,
		MaxScratchEpisodes:  6,
		MaxFineTuneEpisodes: 2,
		ChunkEpisodes:       2,
		ProbeSteps:          2,
		MatchRadius:         0.25,
		Seed:                11,
		Catalog:             cat,
		TunerConfig: func(cat *knobs.Catalog) core.Config {
			cfg := core.DefaultConfig(cat)
			d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
			d.ActorHidden = []int{24, 24}
			d.CriticHidden = []int{32, 24}
			cfg.DDPG = d
			cfg.StepsPerEpisode = 6
			cfg.UpdatesPerStep = 1
			return cfg
		},
		Logf: t.Logf,
	}
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr
}

func postJob(t *testing.T, base, workload string) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(JobRequest{Workload: workload, Instance: "CDB-A"})
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func waitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestServeSmoke is the end-to-end serving test: a first tuning request
// trains from scratch and registers its model; a second request for the
// same workload must match that model, take the warm-start path, and
// converge in fewer episodes than the first.
func TestServeSmoke(t *testing.T) {
	_, base := startServer(t, testConfig(t))

	// Request 1: empty registry, so this must be a scratch session.
	st1, resp1 := postJob(t, base, "sysbench-rw")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp1.StatusCode)
	}
	st1 = waitJob(t, base, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("job 1: %s (%s)", st1.State, st1.Error)
	}
	if st1.Path != PathScratch {
		t.Fatalf("job 1 path = %q, want scratch", st1.Path)
	}
	if st1.ModelID == "" || st1.Episodes < 4 {
		t.Fatalf("job 1 must register a model after ≥4 episodes: %+v", st1)
	}

	// The registry now holds exactly the scratch model.
	var models struct {
		Models  []registry.Meta   `json:"models"`
		Corrupt map[string]string `json:"corrupt"`
	}
	getJSON(t, base+"/api/v1/models", &models)
	if len(models.Models) != 1 || models.Models[0].ID != st1.ModelID {
		t.Fatalf("registry after job 1: %+v", models.Models)
	}
	if models.Models[0].ScratchEpisodes != st1.Episodes {
		t.Fatalf("scratch cost not recorded: %+v", models.Models[0])
	}

	// Request 2, same workload: must take the warm-start path and converge
	// in fewer episodes than the scratch session.
	st2, _ := postJob(t, base, "sysbench-rw")
	st2 = waitJob(t, base, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("job 2: %s (%s)", st2.State, st2.Error)
	}
	if st2.Path != PathWarm {
		t.Fatalf("job 2 path = %q, want warm (distance %v)", st2.Path, st2.MatchDistance)
	}
	if st2.MatchID != st1.ModelID {
		t.Fatalf("job 2 matched %q, want %q", st2.MatchID, st1.ModelID)
	}
	if st2.Episodes >= st1.Episodes {
		t.Fatalf("warm start must converge in fewer episodes: warm %d vs scratch %d", st2.Episodes, st1.Episodes)
	}
	if st2.EpisodesSaved != st1.Episodes-st2.Episodes {
		t.Fatalf("episodes saved = %d, want %d", st2.EpisodesSaved, st1.Episodes-st2.Episodes)
	}

	// The fine-tune updated the entry in place: one entry, version 2.
	getJSON(t, base+"/api/v1/models", &models)
	if len(models.Models) != 1 {
		t.Fatalf("fine-tune duplicated the model: %+v", models.Models)
	}
	if m := models.Models[0]; m.Version != 2 || m.Episodes != st1.Episodes+st2.Episodes {
		t.Fatalf("fine-tune write-back wrong: %+v", m)
	}

	// Service metrics reflect both paths.
	var mt Metrics
	getJSON(t, base+"/metrics.json", &mt)
	if mt.WarmHits != 1 || mt.WarmMisses != 1 || mt.Completed != 2 {
		t.Fatalf("metrics: %+v", mt)
	}
	if mt.EpisodesSaved != st2.EpisodesSaved {
		t.Fatalf("metrics episodes_saved = %d, want %d", mt.EpisodesSaved, st2.EpisodesSaved)
	}

	// The event stream ends with the terminal status.
	resp, err := http.Get(base + "/api/v1/jobs/" + st2.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, stage := range []string{`"queued"`, `"match"`, `"tune"`, `"final":true`} {
		if !strings.Contains(string(stream), stage) {
			t.Fatalf("event stream missing %s:\n%s", stage, stream)
		}
	}

	// Health endpoint answers.
	var health map[string]any
	getJSON(t, base+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressure429 pins the admission-control contract: with one busy
// worker and a one-deep queue, an extra submission is rejected with 429
// and a Retry-After hint instead of queueing unboundedly.
func TestBackpressure429(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	block := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(block)
		}
	}()
	inner := cfg.MakeDB
	if inner == nil {
		inner = func(inst simdb.Instance, seed int64) env.Database {
			return simdb.New(knobs.EngineCDB, inst, seed)
		}
	}
	cfg.MakeDB = func(inst simdb.Instance, seed int64) env.Database {
		<-block // hold every session at its first instance build
		return inner(inst, seed)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func() *http.Response {
		body, _ := json.Marshal(JobRequest{Workload: "sysbench-ro"})
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Job 1 is picked up by the lone worker (and blocks); give the pickup
	// a moment so job 2 lands in the queue, not the worker.
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return m.Metrics().Active == 1 })
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d", resp.StatusCode)
	}
	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if m.Metrics().Rejected != 1 {
		t.Fatalf("rejected = %d", m.Metrics().Rejected)
	}

	// A bad workload is a 400, not a queue rejection.
	body, _ := json.Marshal(JobRequest{Workload: "no-such-workload"})
	bad, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload = %d, want 400", bad.StatusCode)
	}

	// Unblock and shut down: Close cancels the sessions' contexts, so the
	// held jobs drain without running their full pipelines.
	released = true
	close(block)
	srv.Close()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestCancelRunningJob verifies cancellation reaches a running session's
// context: the job ends canceled, not done.
func TestCancelRunningJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	// A long scratch run leaves plenty of time to cancel mid-training.
	cfg.MinScratchEpisodes = 40
	cfg.MaxScratchEpisodes = 40
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body, _ := json.Marshal(JobRequest{Workload: "tpcc"})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitFor(t, func() bool {
		got, _ := m.Job(st.ID)
		return got.State == StateRunning
	})
	cresp, err := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", cresp.StatusCode)
	}

	waitFor(t, func() bool {
		got, _ := m.Job(st.ID)
		return got.State == StateCanceled
	})
	// Cancelling a finished job conflicts.
	cresp2, _ := http.Post(ts.URL+"/api/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	cresp2.Body.Close()
	if cresp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel = %d, want 409", cresp2.StatusCode)
	}
	if m.Metrics().Canceled != 1 {
		t.Fatalf("canceled = %d", m.Metrics().Canceled)
	}
}

// TestManagerValidation pins Submit's input validation and NewManager's
// required fields.
func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("missing registry must error")
	}
	cfg := testConfig(t)
	cfg.TrainWorkers = 2
	if _, err := NewManager(cfg); err == nil || !strings.Contains(err.Error(), "TrainWorkers") {
		t.Fatalf("TrainWorkers: 2 must be rejected by name (sessions train serially), got %v", err)
	}
	cfg.TrainWorkers = 1 // the value the benchmark harness sets
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(JobRequest{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload must be rejected")
	}
	if _, err := m.Submit(JobRequest{Workload: "tpcc", Instance: "CDB-Z"}); err == nil {
		t.Fatal("unknown instance must be rejected")
	}
	if err := m.Cancel("job-9999"); err == nil {
		t.Fatal("cancel of unknown job must error")
	}
	if _, ok := m.Job("job-9999"); ok {
		t.Fatal("unknown job must not resolve")
	}
}

// TestDynamicServingJob submits a job with a timeline: after the tune the
// session must serve the flash-crowd window, detect at least one drift,
// re-tune in place, and surface the counters in both the job status and
// the NDJSON event stream.
func TestDynamicServingJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	_, base := startServer(t, cfg)

	body, _ := json.Marshal(JobRequest{
		Workload: "sysbench-rw", Instance: "CDB-A",
		Timeline: "flashcrowd", ServeHours: 6,
	})
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	final := waitJob(t, base, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state %s (%s)", final.State, final.Error)
	}
	if final.Timeline != "flashcrowd" {
		t.Errorf("status timeline = %q", final.Timeline)
	}
	if final.Drifts < 1 || final.Retunes < 1 {
		t.Fatalf("drifts %d, retunes %d — want ≥ 1 each", final.Drifts, final.Retunes)
	}

	// The event stream carries the drift/retune stages.
	eresp, err := http.Get(base + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	data, err := io.ReadAll(eresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		stages[ev.Stage]++
	}
	for _, want := range []string{"dynamic", "drift", "retune"} {
		if stages[want] == 0 {
			t.Errorf("event stream has no %q stage (got %v)", want, stages)
		}
	}
}

// TestSubmitRejectsUnknownTimeline pins the fail-fast validation.
func TestSubmitRejectsUnknownTimeline(t *testing.T) {
	cfg := testConfig(t)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(JobRequest{Workload: "sysbench-rw", Timeline: "bogus"}); err == nil {
		t.Fatal("unknown timeline accepted at submit")
	}
	// "none" suppresses a config-level default timeline.
	cfg2 := testConfig(t)
	cfg2.Timeline = "flashcrowd"
	m2, err := NewManager(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st, err := m2.Submit(JobRequest{Workload: "sysbench-rw", Timeline: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Timeline != "" {
		t.Fatalf("timeline = %q, want suppressed", st.Timeline)
	}
}
