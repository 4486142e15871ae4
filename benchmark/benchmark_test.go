package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeJobs is each workload's request count at smoke scale, about a
// fiftieth of a full run.
var smokeJobs = map[string]int{
	"scratch_full":  1,
	"warm_full":     3,
	"control_small": 50,
	"fleet_durable": 40,
	"dynamic_lsm":   24,
}

const smokeSeed = 2

func smokeRun(t *testing.T, workload string, seed int64, trace bool, out string) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: seed, seconds: 1, trace: trace,
		jobs: smokeJobs[workload], smoke: true, dir: t.TempDir(), out: out,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s trace=%v: %d of %d requests failed: %v", workload, trace, res.Failed, res.Attempted, res.Failures)
	}
	if res.Attempted != smokeJobs[workload] {
		t.Fatalf("%s: attempted %d requests, want %d", workload, res.Attempted, smokeJobs[workload])
	}
	return res
}

// declared checks a pass's metrics against BENCHMARK.json: every declared
// metric once with its unit, and nothing undeclared.
func declared(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics reported, %d declared", res.Workload, res.Trace, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s trace=%v: declared metric %s is missing", res.Workload, res.Trace, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// holds the output to BENCHMARK.json. On the one-client workloads the two
// passes must also agree on every job's result: same seed, same digest,
// whether or not the decorators (env.Staller forwarding on the LSM engine
// among them) sit in the path.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defs := workloads()
	if len(sp.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(defs))
	}
	for i, w := range defs {
		if sp.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %s in BENCHMARK.json, %s in the program", i, sp.Workloads[i].Name, w.name)
		}
		if testing.Short() && !w.small {
			// scripts/check.sh runs its race pass with -short, and the
			// full-size networks take four minutes under the race detector.
			continue
		}
		plain := smokeRun(t, w.name, smokeSeed, false, "")
		declared(t, plain, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if plain.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %g", w.name, m.Name, plain.Metrics[m.Name].Value)
			}
		}
		out := t.TempDir()
		traced := smokeRun(t, w.name, smokeSeed, true, out)
		declared(t, traced, sp.PerLayer)
		if w.clients == 1 && plain.Digest != traced.Digest {
			t.Errorf("%s: untraced digest %s, traced digest %s", w.name, plain.Digest, traced.Digest)
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		got, err := loadResults(out)
		if err != nil || got[w.name] == nil || len(got[w.name].metrics) != len(sp.PerLayer) ||
			got[w.name].attempted != smokeJobs[w.name] {
			t.Errorf("%s: result file does not read back: %v", w.name, err)
		}
	}
}

// TestDigestFollowsSeed: the digest is a function of the seed.
func TestDigestFollowsSeed(t *testing.T) {
	a := smokeRun(t, "dynamic_lsm", 1, false, "")
	b := smokeRun(t, "dynamic_lsm", 1, false, "")
	c := smokeRun(t, "dynamic_lsm", 2, false, "")
	if a.Digest != b.Digest {
		t.Errorf("seed 1 gave digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 both gave digest %s", a.Digest)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "submit_to_deploy_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 105, 90, 125, 100, 85}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", steady, steady, lower, "unchanged"},
		{"slower latency", steady, shift(1.2), lower, "regressed"},
		{"faster latency", steady, shift(0.8), lower, "improved"},
		{"higher throughput", steady, shift(1.2), higher, "improved"},
		{"lower throughput", steady, shift(0.8), higher, "regressed"},
		{"within bound", steady, shift(1.05), lower, "unchanged"},
		{"spread over bound", noisy, noisy, lower, "unresolved"},
		{"noisy but every run worse", noisy, shift(2), lower, "regressed"},
	} {
		if got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFlagsFailuresAndMissingRows: equal metrics do not hide a change
// that fails more requests than its parent, nor a gated row that only one
// side reports.
func TestCompareFlagsFailuresAndMissingRows(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{
		{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"control_small"})
	side := func(failed int, names ...string) map[string]*runs {
		r := &runs{metrics: make(map[string][]float64), attempted: 100, failed: failed}
		for _, n := range names {
			r.metrics[n] = []float64{100, 101, 99}
		}
		return map[string]*runs{"control_small": r}
	}
	for _, tc := range []struct {
		name string
		a, b map[string]*runs
		code int
		want string
	}{
		{"same", side(0, "jobs_per_s", "setup_s"), side(0, "jobs_per_s", "setup_s"), 0, ""},
		{"change fails requests", side(0, "jobs_per_s", "setup_s"), side(3, "jobs_per_s", "setup_s"), 1, "regressed"},
		{"change drops a gated metric", side(0, "jobs_per_s", "setup_s"), side(0, "setup_s"), 1, "missing"},
	} {
		var out bytes.Buffer
		if code := printComparison(&out, sp, tc.a, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit code %d, want %d with %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
