package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cdbtune/internal/fleet"
	"cdbtune/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header is the provenance of one result. Fsync figures mean nothing
// without the filesystem they were taken on.
type header struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	FS         string `json:"fs"`
}

// result is one run of one workload.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Header   header  `json:"header"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Samples is the number of submit-to-deploy latencies behind the
	// median and the tail; TailPct the percentile the tail was read at.
	Samples int     `json:"samples"`
	TailPct float64 `json:"tail_pct"`
	WallS   float64 `json:"wall_s"`
	Digest  string  `json:"result_digest"`

	Metrics map[string]metric `json:"metrics"`
	order   []string

	// e2e holds the client-side figures of the run, whichever pass it was;
	// only an untraced pass reports them as end-to-end metrics.
	e2e   map[string]metric
	spans []span
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{v, unit}
}

// fail records a failed check that belongs to no single request.
func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	r.Failed++
	r.Correct = false
}

// evaluate checks every outcome and the stack's durable state, and
// derives the end-to-end figures from the client-side observations.
func evaluate(w workloadDef, o options, outs []outcome, wallS float64, st *stack) *result {
	r := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Header:  provenance(o.dir),
		Correct: true, Attempted: len(outs), WallS: wallS,
		Metrics: make(map[string]metric),
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.fail("no request was issued")
	}

	var lat []float64
	logGain := 0.0
	episodes, jobs := 0, 0
	digest := sha256.New()
	for _, out := range outs {
		if msg := check(w, out, outs); msg != "" {
			r.Failed++
			if len(r.Failures) < 20 {
				r.Failures = append(r.Failures, fmt.Sprintf("request %d (%s): %s", out.idx, out.spec.class(), msg))
			}
			continue
		}
		if out.spec.DupOf > 0 {
			continue
		}
		s := out.status
		jobs++
		episodes += s.Episodes
		lat = append(lat, out.totalMs)
		logGain += math.Log1p(s.Improvement)
		fmt.Fprintf(digest, "%s|%s|%s|%d|%x|%x\n", s.Workload, s.Instance, s.Path, s.Episodes,
			math.Float64bits(s.Improvement), math.Float64bits(s.BestThroughput))
	}
	r.Digest = hex.EncodeToString(digest.Sum(nil))[:16]
	r.Samples = len(lat)

	// The stack's durable state at exit.
	if c := st.reg.Corrupt(); len(c) > 0 {
		r.fail("registry reports %d corrupt entries: %v", len(c), c)
	}
	if _, c := st.reg.Verify(); len(c) > 0 {
		r.fail("registry verification found %d corrupt files: %v", len(c), c)
	}
	if st.journal != nil {
		for _, msg := range pendingJournal(st.journal) {
			r.fail("%s", msg)
		}
	}
	r.Correct = r.Failed == 0

	sort.Float64s(lat)
	r.TailPct = w.tailPct
	r.e2e = map[string]metric{
		"submit_to_deploy_p50_ms":  {quantileSorted(lat, 0.5), "ms"},
		"submit_to_deploy_tail_ms": {quantileSorted(lat, w.tailPct), "ms"},
		"jobs_per_s":               {float64(jobs) / wallS, "1/s"},
		"episodes_per_s":           {float64(episodes) / wallS, "1/s"},
		"episodes_per_job":         {float64(episodes) / math.Max(1, float64(jobs)), "count"},
		// Deployed over default throughput, as the geometric mean over jobs:
		// classes differ by an order of magnitude in what tuning can gain.
		"deployed_vs_default": {math.Exp(logGain / math.Max(1, float64(jobs))), "ratio"},
	}
	return r
}

// pendingJournal lists the journal records that are not terminal. A
// session's last event reaches its client before the node journals the
// outcome, so the last jobs' records get two seconds to land.
func pendingJournal(j *fleet.Journal) []string {
	var pending []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		recs, err := j.All()
		if err != nil {
			return []string{"reading the journal: " + err.Error()}
		}
		pending = pending[:0]
		for _, rec := range recs {
			if !rec.Terminal() {
				pending = append(pending, fmt.Sprintf("journal record %s is not terminal (%s)", rec.Key, rec.State))
			}
		}
		if len(pending) == 0 || time.Now().After(deadline) {
			return pending
		}
	}
}

// check returns why one request's outcome is wrong, or "".
func check(w workloadDef, out outcome, all []outcome) string {
	if out.err != "" {
		return out.err
	}
	if out.spec.DupOf > 0 {
		orig := all[out.spec.DupOf-1]
		if out.dupJobID != orig.status.ID {
			return fmt.Sprintf("duplicate key answered with job %q, original was %q", out.dupJobID, orig.status.ID)
		}
		return ""
	}
	s := out.status
	switch {
	case s.State != server.StateDone:
		return fmt.Sprintf("state %s: %s", s.State, s.Error)
	case !s.Approved:
		return "deployment was not approved"
	case s.Improvement < 0 || math.IsNaN(s.Improvement):
		return fmt.Sprintf("improvement %g", s.Improvement)
	case s.Workload != out.spec.Workload || s.Instance != out.spec.Instance:
		return fmt.Sprintf("answered for %s@%s", s.Workload, s.Instance)
	case w.wantPath != "" && s.Path != w.wantPath:
		return fmt.Sprintf("path %s, want %s", s.Path, w.wantPath)
	case w.wantPath == "" && out.classDone && s.Path != server.PathWarm:
		return "a finished job of the same class was on record, yet the path was " + s.Path
	case w.timeline != "" && (s.Timeline != w.timeline || s.Retunes < 1):
		return fmt.Sprintf("timeline %q with %d re-tunes", s.Timeline, s.Retunes)
	}
	return ""
}

// endToEnd lists the metrics an untraced pass reports, in print order.
var endToEnd = []string{
	"setup_s", "submit_to_deploy_p50_ms", "submit_to_deploy_tail_ms",
	"jobs_per_s", "episodes_per_s", "episodes_per_job", "deployed_vs_default",
}

// setEndToEnd finishes the client-side figures. A traced pass keeps them
// for its own metrics but does not report them as end-to-end: those come
// from untraced runs only.
func (r *result) setEndToEnd(setupS, rssMB float64) {
	r.e2e["setup_s"] = metric{setupS, "s"}
	r.e2e["peak_rss_mb"] = metric{rssMB, "MB"}
	if r.Trace {
		return
	}
	for _, name := range endToEnd {
		r.set(name, r.e2e[name].Value, r.e2e[name].Unit)
	}
}

// ---- statistics ----

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates linearly between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ---- process and provenance ----

// procSample is the process's cumulative resource use at one instant.
type procSample struct {
	cpuS float64
	mem  runtime.MemStats
}

func (p *procSample) take() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	runtime.ReadMemStats(&p.mem)
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func provenance(dir string) header {
	h := header{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), FS: "unknown"}
	if wd, err := os.Getwd(); err == nil {
		// The ceiling keeps git from looking for a repository above the
		// checkout when the checkout itself is none.
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		h.FS = fsName(int64(st.Type))
	}
	return h
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
