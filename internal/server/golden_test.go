package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// managerGolden pins a SHA-256 over everything a client can observe of a
// fixed seeded job script run through one single-worker Manager: every
// terminal JobStatus (minus QueueWaitMs, the one wall-clock field), every
// job's event Stage sequence, and the registry's metas afterwards. It was
// generated at commit d889776 (session mirroring JobStatus field by field,
// the train/tune API ladders) and must not change: same seed ⇒ same
// deployed configuration through the whole serving stack. A deliberate
// behaviour change regenerates it from the -v log of this test.
const managerGolden = "e1216ae29978fa68b2df648eb7a73cf3d947e8dac6d954ebc9b7bd416c6a35fa"

// TestManagerGolden runs a scratch job, a same-class warm job, a second
// workload class and a job with a dynamic serving window, each awaited
// before the next is submitted so job numbers, seeds and registry contents
// are a pure function of the script.
func TestManagerGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	h := sha256.New()
	paths := map[string]int{}
	for _, req := range []JobRequest{
		{Workload: "sysbench-rw", Instance: "CDB-A"},
		{Workload: "sysbench-rw", Instance: "CDB-A"},
		{Workload: "tpcc", Instance: "CDB-A"},
		{Workload: "sysbench-wo", Instance: "CDB-A", Timeline: "flashcrowd", ServeHours: 6},
	} {
		st, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			st, _ = m.Job(st.ID)
			return st.State == StateDone || st.State == StateFailed || st.State == StateCanceled
		})
		if st.State != StateDone {
			t.Fatalf("%s: %s (%s)", st.ID, st.State, st.Error)
		}
		paths[st.Path]++
		st.QueueWaitMs = 0
		line, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(line)
		events, _, _ := m.Events(st.ID, 0)
		for _, ev := range events {
			fmt.Fprintf(h, "|%s", ev.Stage)
		}
		if req.Timeline != "" && st.Retunes == 0 {
			t.Error("timeline job never re-tuned: the script no longer reaches serveDynamic's write-back")
		}
	}
	if paths[PathWarm] == 0 || paths[PathScratch] < 2 {
		t.Errorf("script took paths %v, want ≥1 warm and ≥2 scratch", paths)
	}
	for _, meta := range m.Registry().List() {
		fmt.Fprintf(h, "\n%s v%d e%d %x", meta.ID, meta.Version, meta.Episodes, math.Float64bits(meta.BestThroughput))
	}

	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("managerGolden = %q", got)
	if got != managerGolden {
		t.Errorf("digest %s, want %s: observable serving behaviour changed", got, managerGolden)
	}
}
