package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"cdbtune/internal/fleet"
	"cdbtune/internal/server"
)

// outcome is what a client saw of one request.
type outcome struct {
	idx  int
	spec jobSpec
	// classDone: a job of the same class had finished before this one was
	// submitted, so the registry must have offered it a warm start.
	classDone bool

	submitMs float64 // POST sent -> response decoded
	totalMs  float64 // POST sent -> `"final":true` line read
	status   server.JobStatus
	// dupJobID is the job ID a duplicate-key resubmission was answered
	// with.
	dupJobID string
	err      string // transport or protocol failure, "" when none
}

// driver is the closed-loop load generator: each client sends its next
// request only after the previous job reached a terminal state.
type driver struct {
	w      workloadDef
	base   string
	client *http.Client
	tr     *tracer

	mu         sync.Mutex
	rng        *rand.Rand
	next       func(int) jobSpec
	issued     int
	roundStart time.Time
	keys       int
	done       []outcome       // finished jobs, completion order
	finished   map[string]bool // class -> a job of it has finished
	untimed    time.Duration   // model removals between jobs
}

// newDriver shares one transport among the workload's clients, with as
// many connections as clients.
func newDriver(w workloadDef, base string, seed int64, tr *tracer) *driver {
	rng := rand.New(rand.NewSource(seed))
	return &driver{
		w: w, base: base, tr: tr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     w.clients,
			MaxIdleConnsPerHost: w.clients,
		}},
		rng: rng, next: w.gen(w, rng),
		finished: make(map[string]bool),
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// take hands a client its next request, or ok=false once the run is over:
// maxJobs issued when that is positive, else the deadline passed. A
// workload with rounds only stops between rounds, and starts a round only
// if one as long as the last still fits before the deadline, so every run
// measures the same mix of jobs.
func (d *driver) take(deadline time.Time, maxJobs int) (outcome, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	switch round := d.w.round; {
	case maxJobs > 0:
		if d.issued >= maxJobs {
			return outcome{}, false
		}
	case round > 1 && d.issued%round == 0:
		if d.issued > 0 && now.Add(now.Sub(d.roundStart)).After(deadline) {
			return outcome{}, false
		}
		d.roundStart = now
	case round <= 1 && !now.Before(deadline):
		return outcome{}, false
	}
	o := outcome{idx: d.issued}
	d.issued++
	if d.w.dupShare > 0 && len(d.done) > 0 && d.rng.Float64() < d.w.dupShare {
		// Resubmit the key of a job that has already finished.
		orig := d.done[d.rng.Intn(len(d.done))]
		o.spec = orig.spec
		o.spec.DupOf = orig.idx + 1
		return o, true
	}
	o.spec = d.next(o.idx)
	if d.w.fleet {
		o.spec.Key = fmt.Sprintf("k%06d", d.keys)
		d.keys++
	}
	o.classDone = d.finished[o.spec.class()]
	return o, true
}

func (d *driver) record(o outcome) {
	d.mu.Lock()
	if o.spec.DupOf == 0 && o.err == "" && o.status.State == server.StateDone {
		d.finished[o.spec.class()] = true
		if o.idx >= 0 { // set-up jobs are not resubmitted
			d.done = append(d.done, o)
		}
	}
	d.mu.Unlock()
}

// prepare ends set-up: the workload's seed jobs, each of which must finish
// and leave its model in the registry, then one warm-up job (tpcc, the
// cheapest class) so that the first connection, the first session and the
// first registry write are not charged to the timed interval.
func (d *driver) prepare() error {
	for i, name := range append(append([]string(nil), d.w.seedJobs...), "tpcc") {
		o := outcome{idx: -1 - i, spec: jobSpec{
			Workload: name, Instance: "CDB-A", Seed: jobSeed(d.rng), Timeline: d.w.timeline,
		}}
		if d.w.fleet {
			o.spec.Key = fmt.Sprintf("setup%d", i)
		}
		d.do(&o)
		if o.err != "" || o.status.State != server.StateDone {
			return fmt.Errorf("set-up job %s: %s %s %s", name, o.err, o.status.State, o.status.Error)
		}
		d.record(o)
	}
	return nil
}

// run drives the workload's clients until the deadline (or maxJobs) and
// returns every outcome in issue order, with the wall time spent on jobs.
func (d *driver) run(seconds float64, maxJobs int) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	results := make([][]outcome, d.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				o, ok := d.take(deadline, maxJobs)
				if !ok {
					return
				}
				d.do(&o)
				d.record(o)
				results[c] = append(results[c], o)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start) - d.untimed
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	byIdx := make([]outcome, len(all))
	for _, o := range all {
		byIdx[o.idx] = o
	}
	return byIdx, wall
}

// do submits one request and follows the job's NDJSON event stream to its
// final line.
func (d *driver) do(o *outcome) {
	var body []byte
	url := d.base + "/api/v1/jobs"
	if d.w.fleet {
		body, _ = json.Marshal(fleet.SubmitRequest{Key: o.spec.Key, Request: o.spec.request()})
		url = d.base + "/fleet/jobs"
	} else {
		body, _ = json.Marshal(o.spec.request())
	}
	span := d.tr.begin("client.job", o.idx)
	defer span.end()

	t0 := time.Now()
	sub := span.child("client.submit")
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		sub.end()
		o.err = "submit: " + err.Error()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sub.end()
	o.submitMs = ms(time.Since(t0))
	if err != nil {
		o.err = "submit: " + err.Error()
		return
	}

	jobID := ""
	switch {
	case d.w.fleet && (resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK):
		var rec fleet.Record
		if err := json.Unmarshal(data, &rec); err != nil {
			o.err = "submit: decoding record: " + err.Error()
			return
		}
		jobID = rec.JobID
		if o.spec.DupOf > 0 {
			o.dupJobID = rec.JobID
			o.totalMs = o.submitMs
			// The record may still read "accepted": the session's last
			// event reaches the client before its journal write lands.
			if resp.StatusCode != http.StatusOK {
				o.err = fmt.Sprintf("duplicate key %s answered HTTP %d", o.spec.Key, resp.StatusCode)
			}
			return
		}
	case !d.w.fleet && resp.StatusCode == http.StatusAccepted:
		var st server.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			o.err = "submit: decoding status: " + err.Error()
			return
		}
		jobID = st.ID
	default:
		o.err = fmt.Sprintf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}

	wait := span.child("client.stream")
	st, err := d.follow(jobID)
	wait.end()
	o.totalMs = ms(time.Since(t0))
	if err != nil {
		o.err = "events: " + err.Error()
		return
	}
	o.status = st

	if d.w.dropModel && st.ModelID != "" {
		t := time.Now()
		req, _ := http.NewRequest(http.MethodDelete, d.base+"/api/v1/models/"+st.ModelID, nil)
		resp, err := d.client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		if err != nil {
			o.err = "removing model: " + err.Error()
		}
		d.mu.Lock()
		d.untimed += time.Since(t)
		d.mu.Unlock()
	}
}

var finalPrefix = []byte(`{"final":true`)

// follow reads GET /api/v1/jobs/{id}/events to the terminal line.
func (d *driver) follow(id string) (server.JobStatus, error) {
	resp, err := d.client.Get(d.base + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if bytes.HasPrefix(line, finalPrefix) {
			var fin struct {
				Job server.JobStatus `json:"job"`
			}
			if err := json.Unmarshal(line, &fin); err != nil {
				return server.JobStatus{}, err
			}
			// Drain so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, br)
			return fin.Job, nil
		}
		if err != nil {
			return server.JobStatus{}, fmt.Errorf("stream ended without a final line: %w", err)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
