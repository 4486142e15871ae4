// Command benchmark is the repository's end-to-end benchmark: it starts
// the real serving stack in-process, drives it closed-loop over HTTP, and
// reports what a tenant sees of one tuning request (submit to deploy) on
// five serving regimes, plus an outside-in per-layer trace. See README.md
// in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupBudget is how long a run keeps setting up: the stack is built,
// seeded and warmed up from nothing until this much has been spent, and the
// median set-up is reported; timing runs on the last stack. A 10 ms set-up
// repeats a few hundred times, a 1.4 s one three times, and one longer than
// the budget (warm_full's 8 s of training) runs once.
const setupBudget = 3 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// jobs, when positive, replaces the time budget with a fixed number of
	// requests (tests; a time-bounded run cannot repeat its job count).
	jobs  int
	smoke bool
	dir   string
	out   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed interval")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass (per-layer metrics), 0 = end-to-end metrics")
	flag.IntVar(&o.jobs, "jobs", 0, "issue exactly this many requests instead of running for -seconds")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny set-up (one seed job, 20 preloaded entries, one set-up repetition)")
	flag.StringVar(&o.dir, "dir", ".bench_tmp", "directory for the stacks' files (removed at exit)")
	flag.StringVar(&o.out, "out", "", "also write the result (and the trace) as files into this directory")
	flag.Parse()
	o.trace = trace != 0

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload in this process and returns its result.
func run(o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.smoke {
		w = w.smoke()
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	root, err := filepath.Abs(o.dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	root, err = os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var st *stack
	var drv *driver
	var setups []float64
	for loopStart := time.Now(); ; {
		t := time.Now()
		dir, err := os.MkdirTemp(root, "stack-")
		if err != nil {
			return nil, err
		}
		if st, err = w.build(dir, o.seed, tr); err != nil {
			return nil, fmt.Errorf("building %s: %w", w.name, err)
		}
		drv = newDriver(w, st.base, o.seed, tr)
		if err := drv.prepare(); err != nil {
			_ = st.stop()
			return nil, fmt.Errorf("preparing %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if o.smoke || time.Since(loopStart) >= setupBudget {
			break
		}
		drv.close()
		if err := st.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up stack: %w", err)
		}
	}
	setupS := median(setups)

	// Let the writeback that set-up (and the removal of earlier stacks)
	// queued reach the disk before timing starts, so it does not compete
	// with the first seconds of fsyncs.
	syscall.Sync()
	if tr != nil {
		tr.reset()
	}
	var before procSample
	before.take()
	outcomes, wall := drv.run(o.seconds, o.jobs)
	var after procSample
	after.take()
	drv.close()

	res := evaluate(w, o, outcomes, wall.Seconds(), st)
	res.setEndToEnd(setupS, peakRSSMB())
	if tr != nil {
		if err := res.setPerLayer(w, o, tr, st, filepath.Join(root, "probe"), outcomes, before, after); err != nil {
			_ = st.stop()
			return nil, err
		}
	}
	if err := st.stop(); err != nil {
		res.fail("stopping the stack: %v", err)
	}
	if o.out != "" {
		if err := res.write(o.out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "# cdbtune benchmark: workload=%s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h := r.Header
	fmt.Fprintf(f, "# commit=%s go=%s nproc=%d gomaxprocs=%d fs=%s\n", h.Commit, h.Go, h.NProc, h.GOMAXPROCS, h.FS)
	fmt.Fprintf(f, "# jobs=%d samples=%d tail_pct=%.4g wall_s=%.3f result_digest=%s\n", r.Attempted, r.Samples, r.TailPct, r.WallS, r.Digest)
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "# FAILED: %s\n", msg)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(f, "%s\n", line)
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Trace {
		kind = "layers"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result_%s_%s_seed%d_%d.json", kind, r.Workload, r.Seed, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	data, err = json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+r.Workload+".json"), data, 0o644)
}
