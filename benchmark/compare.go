package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json that compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// quartiles are the first quartile, median and third quartile of v.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// runs is what one side's result files say of one workload: each metric's
// value per run, and the requests that were issued and failed their checks
// over all runs.
type runs struct {
	metrics           map[string][]float64
	attempted, failed int
}

// loadResults reads every result file under dir, by workload.
func loadResults(dir string) (map[string]*runs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "result_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result_*.json under %s (run the benchmark with --out)", dir)
	}
	out := make(map[string]*runs)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		w := out[r.Workload]
		if w == nil {
			w = &runs{metrics: make(map[string][]float64)}
			out[r.Workload] = w
		}
		w.attempted += r.Attempted
		w.failed += r.Failed
		for name, m := range r.Metrics {
			w.metrics[name] = append(w.metrics[name], m.Value)
		}
	}
	return out, nil
}

// verdict judges one end-to-end metric on one workload: a are the parent's
// runs, b the change's. The bound is the share of the parent's median by
// which the metric may worsen. Where either side's own spread (quartile
// distance over median) exceeds the bound, the row is unresolved unless
// every run of one side beats every run of the other.
func verdict(a, b []float64, m specMetric) string {
	sign := 1.0 // worse is larger
	if m.Better == "higher" {
		sign = -1
	}
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	worse := sign * (bmed - amed)
	limit := m.Bound * math.Abs(amed)

	amin, amax := slices.Min(a), slices.Max(a)
	bmin, bmax := slices.Min(b), slices.Max(b)
	allWorse := sign*(bmin-amax) > 0 && sign*(bmax-amin) > 0
	allBetter := sign*(bmin-amax) < 0 && sign*(bmax-amin) < 0
	noisy := aq3-aq1 > limit || bq3-bq1 > limit

	switch {
	case worse > limit && (!noisy || allWorse):
		return "regressed"
	case noisy && !allBetter && !allWorse:
		return "unresolved"
	case -worse > aq3-aq1 && -worse > 0:
		return "improved"
	}
	return "unchanged"
}

// compareMain implements `benchmark compare A/ B/`: per workload the share
// of requests that failed their checks, then one row per (metric, workload)
// with each side's median and quartiles; end-to-end rows carry a verdict
// from the bounds in BENCHMARK.json, per-layer rows are reported without
// one. It exits 1 if the change fails more requests than the parent, if an
// end-to-end row regressed, or if one is missing on either side.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	sp, err := readSpec(*specPath)
	var a, b map[string]*runs
	if err == nil {
		a, err = loadResults(fs.Arg(0))
	}
	if err == nil {
		b, err = loadResults(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	return printComparison(os.Stdout, sp, a, b)
}

func printComparison(out io.Writer, sp spec, a, b map[string]*runs) int {
	bad := 0
	none := &runs{}
	side := func(m map[string]*runs, workload string) *runs {
		if r := m[workload]; r != nil {
			return r
		}
		return none
	}

	fmt.Fprintf(out, "%-28s %-14s %-6s %34s %34s %8s  %s\n", "metric", "workload", "unit",
		"parent q1/median/q3", "change q1/median/q3", "change", "verdict")
	for _, w := range sp.Workloads {
		ar, br := side(a, w.Name), side(b, w.Name)
		if ar.attempted == 0 && br.attempted == 0 {
			continue
		}
		// A failed job is left out of the latency and throughput samples, so
		// failing more than the parent is a regression whatever they read.
		as, bs := div(float64(ar.failed), float64(ar.attempted)), div(float64(br.failed), float64(br.attempted))
		v := "unchanged"
		switch {
		case ar.attempted == 0 || br.attempted == 0:
			v = "missing"
			bad++
		case bs > as:
			v = "regressed"
			bad++
		case bs < as:
			v = "improved"
		}
		fmt.Fprintf(out, "%-28s %-14s %-6s %34s %34s %8s  %s\n", "failed_share", w.Name, "ratio",
			fmt.Sprintf("%d/%d", ar.failed, ar.attempted), fmt.Sprintf("%d/%d", br.failed, br.attempted), "", v)
	}
	row := func(m specMetric, gated bool) {
		for _, w := range sp.Workloads {
			av, bv := side(a, w.Name).metrics[m.Name], side(b, w.Name).metrics[m.Name]
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			if len(av) == 0 || len(bv) == 0 {
				// Reported by one side only: never silently dropped.
				if gated {
					bad++
				}
				fmt.Fprintf(out, "%-28s %-14s %-6s %34s %34s %8s  %s\n", m.Name, w.Name, m.Unit,
					fmt.Sprintf("%d runs", len(av)), fmt.Sprintf("%d runs", len(bv)), "", "missing")
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			v := "-"
			if gated {
				if v = verdict(av, bv, m); v == "regressed" {
					bad++
				}
			}
			fmt.Fprintf(out, "%-28s %-14s %-6s %10.4g/%10.4g/%10.4g  %10.4g/%10.4g/%10.4g %+7.1f%%  %s\n",
				m.Name, w.Name, m.Unit, aq1, amed, aq3, bq1, bmed, bq3, 100*div(bmed-amed, math.Abs(amed)), v)
		}
	}
	for _, m := range sp.EndToEnd {
		row(m, true)
	}
	for _, m := range sp.PerLayer {
		row(m, false)
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d rows regressed or are missing\n", bad)
		return 1
	}
	return 0
}
