package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
)

// cmdServe runs the multi-tenant tuning service: the HTTP API over the
// session manager and the workload-fingerprint model registry.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	ename := fs.String("engine", "cdb-mysql", "storage engine served to all sessions (see `cdbtune info`)")
	regDir := fs.String("registry", "registry", "model registry directory")
	workers := fs.Int("workers", 2, "concurrent tuning sessions")
	queue := fs.Int("queue", 16, "admission queue depth (beyond it submissions get 429)")
	maxEntries := fs.Int("max-models", registry.DefaultMaxEntries, "registry bound before eviction")
	matchRadius := fs.Float64("match-radius", 0.1, "fingerprint distance for a warm-start match")
	maxEpisodes := fs.Int("max-episodes", 8, "scratch-training episode cap per session")
	fineTune := fs.Int("fine-tune-episodes", 2, "fine-tune episode cap for warm-started sessions")
	steps := fs.Int("steps", 5, "online tuning steps per request")
	seed := fs.Int64("seed", 1, "random seed")
	timeline := fs.String("timeline", "", "default timeline for dynamic serving after each tune (empty = static jobs)")
	serveHours := fs.Float64("serve-hours", 0, "default simulated hours per dynamic serving window (0 = one timeline cycle)")
	timescale := fs.Float64("timescale", 0, "timeline compression override: simulated seconds per virtual second (0 = timeline default)")
	driftThreshold := fs.Float64("drift-threshold", 0, "EWMA fingerprint distance that triggers a re-tune (0 = calibrated default)")
	fs.Parse(args)

	engine, err := engineByFlag(*ename)
	if err != nil {
		return err
	}
	reg, err := registry.Open(*regDir, registry.WithMaxEntries(*maxEntries))
	if err != nil {
		return err
	}
	m, err := server.NewManager(server.Config{
		Registry: reg,
		Catalog:  knobs.ForEngine(engine),
		MakeDB: func(inst simdb.Instance, seed int64) env.Database {
			return env.OpenEngine(engine, inst, seed)
		},
		Workers:             *workers,
		QueueDepth:          *queue,
		OnlineSteps:         *steps,
		MaxScratchEpisodes:  *maxEpisodes,
		MaxFineTuneEpisodes: *fineTune,
		MatchRadius:         *matchRadius,
		Seed:                *seed,
		Timeline:            *timeline,
		ServeHours:          *serveHours,
		TimeScale:           *timescale,
		DriftThreshold:      *driftThreshold,
	})
	if err != nil {
		return err
	}
	srv := server.NewServer(m)
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("cdbtune serving on http://%s (registry %s: %d models, %d workers, queue %d)\n",
		bound, *regDir, reg.Len(), *workers, *queue)
	fmt.Println("submit with: cdbtune submit -addr http://" + bound + " -workload sysbench-rw")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("shutting down")
	return srv.Close()
}

// cmdSubmit submits one tuning request to a running service, optionally
// following its progress stream to completion.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "service base URL")
	wname := fs.String("workload", "sysbench-rw", "workload name")
	iname := fs.String("instance", "CDB-A", "instance name (Table 1)")
	seed := fs.Int64("seed", 0, "user-instance seed (0 = server-derived)")
	wait := fs.Bool("wait", true, "follow the progress stream until the session finishes")
	timeline := fs.String("timeline", "", "serve this timeline dynamically after tuning ('none' opts out of a server default)")
	serveHours := fs.Float64("serve-hours", 0, "simulated hours for the dynamic serving window (0 = one timeline cycle)")
	fs.Parse(args)

	body, _ := json.Marshal(server.JobRequest{
		Workload: *wname, Instance: *iname, Seed: *seed,
		Timeline: *timeline, ServeHours: *serveHours,
	})
	resp, err := http.Post(strings.TrimRight(*addr, "/")+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return fmt.Errorf("service at capacity; retry after %s s", resp.Header.Get("Retry-After"))
	}
	if resp.StatusCode != http.StatusAccepted {
		return httpError(resp)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Printf("submitted %s: %s on %s\n", st.ID, st.Workload, st.Instance)
	if !*wait {
		return nil
	}
	return followEvents(*addr, st.ID)
}

// followEvents tails a job's NDJSON progress stream, printing each event
// and the terminal summary. A stream that ends without its final event
// (the server shut down or drained mid-job) is an error: the job did not
// finish.
func followEvents(addr, id string) error {
	resp, err := http.Get(strings.TrimRight(addr, "/") + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	last := "none"
	for sc.Scan() {
		var ev struct {
			Stage   string           `json:"stage"`
			Message string           `json:"message"`
			Final   bool             `json:"final"`
			Job     server.JobStatus `json:"job"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		if ev.Final {
			printJob(ev.Job)
			if ev.Job.State != server.StateDone {
				return fmt.Errorf("job %s %s: %s", ev.Job.ID, ev.Job.State, ev.Job.Error)
			}
			return nil
		}
		fmt.Printf("  [%-11s] %s\n", ev.Stage, ev.Message)
		last = ev.Stage
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s: progress stream: %w (last stage %s)", id, err, last)
	}
	return fmt.Errorf("job %s: progress stream closed before the job finished (last stage %s)", id, last)
}

func printJob(st server.JobStatus) {
	fmt.Printf("%s  %-12s %-8s %-8s", st.ID, st.Workload, st.Instance, st.State)
	if st.Path != "" {
		fmt.Printf("  path=%s", st.Path)
		if st.Path == server.PathWarm {
			fmt.Printf(" (match %s, d=%.4f, %d episodes saved)", st.MatchID, st.MatchDistance, st.EpisodesSaved)
		}
	}
	if st.Episodes > 0 {
		fmt.Printf("  episodes=%d", st.Episodes)
	}
	if st.BestThroughput > 0 {
		fmt.Printf("  best=%.1f tx/s (%+.1f%%)", st.BestThroughput, st.Improvement*100)
	}
	if st.Timeline != "" {
		fmt.Printf("  timeline=%s drifts=%d retunes=%d reverts=%d", st.Timeline, st.Drifts, st.Retunes, st.Reverts)
	}
	if st.Error != "" {
		fmt.Printf("  error=%s", st.Error)
	}
	fmt.Println()
}

// cmdStatus lists jobs (or one job) plus the service metrics.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "service base URL")
	fs.Parse(args)
	base := strings.TrimRight(*addr, "/")

	if fs.NArg() > 0 {
		var st server.JobStatus
		if err := getInto(base+"/api/v1/jobs/"+fs.Arg(0), &st); err != nil {
			return err
		}
		printJob(st)
		return nil
	}
	var jobs struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if err := getInto(base+"/api/v1/jobs", &jobs); err != nil {
		return err
	}
	if len(jobs.Jobs) == 0 {
		fmt.Println("no jobs")
	}
	for _, st := range jobs.Jobs {
		printJob(st)
	}
	var mt server.Metrics
	if err := getInto(base+"/metrics.json", &mt); err != nil {
		return err
	}
	fmt.Printf("service: %d submitted, %d rejected, %d done, %d failed, %d canceled; %d active, %d queued\n",
		mt.Submitted, mt.Rejected, mt.Completed, mt.Failed, mt.Canceled, mt.Active, mt.Queued)
	fmt.Printf("warm starts: %d hits / %d misses; %d episodes trained, %d saved; queue wait p50 %.0f ms, p95 %.0f ms\n",
		mt.WarmHits, mt.WarmMisses, mt.EpisodesTrained, mt.EpisodesSaved, mt.QueueWaitP50Ms, mt.QueueWaitP95Ms)
	return nil
}

// cmdModels lists, promotes or deletes registry entries through the API.
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "service base URL")
	promote := fs.String("promote", "", "pin this model ID against eviction (preferred on near-ties)")
	del := fs.String("delete", "", "delete this model ID")
	fs.Parse(args)
	base := strings.TrimRight(*addr, "/")

	if *promote != "" {
		req, _ := http.NewRequest(http.MethodPost, base+"/api/v1/models/"+*promote+"/promote", nil)
		return doSimple(req, "promoted "+*promote)
	}
	if *del != "" {
		req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/models/"+*del, nil)
		return doSimple(req, "deleted "+*del)
	}
	var out struct {
		Models  []registry.Meta   `json:"models"`
		Corrupt map[string]string `json:"corrupt"`
	}
	if err := getInto(base+"/api/v1/models", &out); err != nil {
		return err
	}
	if len(out.Models) == 0 {
		fmt.Println("registry is empty")
	}
	for _, m := range out.Models {
		pin := " "
		if m.Pinned {
			pin = "*"
		}
		fmt.Printf("%s %s v%-3d %-12s %-8s episodes=%-4d scratch=%-4d best=%.1f tx/s\n",
			pin, m.ID, m.Version, m.Workload, m.Instance, m.Episodes, m.ScratchEpisodes, m.BestThroughput)
	}
	for f, why := range out.Corrupt {
		fmt.Printf("! %s CORRUPT: %s\n", f, why)
	}
	return nil
}

func getInto(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func doSimple(req *http.Request, okMsg string) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	fmt.Println(okMsg)
	return nil
}

func httpError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}
