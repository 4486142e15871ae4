package env

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// goldenDigests pins, per engine, a SHA-256 over everything a tuner can
// observe of a fixed seeded knob/workload script: restart flags, every bit
// of Result.Ext and of the 63 state values, crash outcomes, ShowStatus
// snapshots, run/restart counters and the TakeStallSeconds sequence. The
// digests were generated at commit abf8fda (the forked simdb/lsm shells)
// and must not change: the simulator's RNG draw order is a contract that
// every deployed configuration, fingerprint and registry match depends on.
// A deliberate model change regenerates them from the -v log of this test.
var goldenDigests = map[string]string{
	"cdb-mysql":   "f494de4e4bedfb17abe88b60798d4d02c9e8d976611f09aaf952f56d6888c154",
	"local-mysql": "5191b95ed7d7fe216bd8f8e95ca2e12300672e7b25f82b7e7b5667dc976367b5",
	"mongodb":     "a8af56a63ff00dc5da385e3ec15617afec2c510e3d30e409bd5338e50844c34f",
	"postgres":    "d3ddb39a4e06460e44beae547ae4ceb8838b869fe2878622642ba9ce74bc5e14",
	"lsm":         "72b3ec1c8e3740d9e01c29f677ae447766161c4cea25d6b90a58ee402aa5a7b2",
}

// goldenScript drives one engine through the script and returns the digest
// plus how many crashes and stall charges it saw, so the test can assert
// the script still reaches those paths.
func goldenScript(t *testing.T, e knobs.Engine) (digest string, crashes, stalls int) {
	t.Helper()
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	flag := func(ok bool) {
		if ok {
			put(1)
		} else {
			put(0)
		}
	}

	inst := simdb.CDBB
	db := OpenEngine(e, inst, 20190630)
	cat := knobs.ForEngine(e)
	hw := inst.HW
	rng := rand.New(rand.NewSource(63))
	ws := workload.All()

	run := func(w workload.Workload, dur float64) {
		res, err := db.RunWorkload(w, dur)
		switch {
		case errors.Is(err, simdb.ErrCrashed):
			crashes++
			put(-1)
		case err != nil:
			t.Fatalf("%s: %v", w.Name, err)
		default:
			if len(res.State) != metrics.NumMetrics {
				t.Fatalf("%s: state has %d metrics", w.Name, len(res.State))
			}
			put(res.Ext.Throughput, res.Ext.Latency99)
			put(res.State...)
		}
		stall := 0.0
		if s, ok := db.(Staller); ok {
			stall = s.TakeStallSeconds()
		}
		if stall > 0 {
			stalls++
		}
		put(stall, float64(db.Runs()))
	}
	apply := func(c *knobs.Catalog, x []float64) {
		restarted, err := db.ApplyKnobs(c, x)
		if err != nil {
			t.Fatal(err)
		}
		flag(restarted)
		put(db.CurrentKnobs(cat)...)
	}
	setActual := func(x []float64, name string, v float64) {
		if i := cat.Index(name); i >= 0 {
			x[i] = cat.Knobs[i].Normalize(v, hw.RAMGB, hw.DiskGB)
		}
	}

	// Defaults under every workload, at the two durations the stack uses
	// plus one short enough to hit the two-sample floor.
	for i, w := range ws {
		run(w, []float64{simdb.StressTestSec, simdb.ObserveSec, 3}[i%3])
	}

	// Seeded perturbations of the full catalog: some crash, most do not.
	for step := 0; step < 12; step++ {
		x := cat.Defaults(hw.RAMGB, hw.DiskGB)
		for i := range x {
			if rng.Float64() < 0.3 {
				x[i] = math.Min(1, math.Max(0, x[i]+(rng.Float64()-0.5)*0.5))
			}
		}
		apply(cat, x)
		run(ws[step%len(ws)], simdb.StressTestSec)
	}

	// A subset deployment leaves the other knobs alone.
	sub := cat.Subset([]int{0, 3, 5, cat.Len() - 1})
	apply(sub, []float64{0.9, 0.1, 0.6, 0.4})
	run(workload.SysbenchRW(), simdb.StressTestSec)

	// An instantaneous status read draws gauge noise between runs.
	if s, ok := db.(interface {
		ShowStatus(workload.Workload) metrics.Snapshot
	}); ok {
		snap := s.ShowStatus(workload.TPCC())
		put(snap.Values[:]...)
	} else {
		t.Fatalf("%v: no ShowStatus", e)
	}

	// Reset, then a write-heavy configuration that starves background
	// work: on the LSM engine this banks compaction stall seconds.
	db.ResetDefaults()
	put(db.CurrentKnobs(cat)...)
	x := cat.Defaults(hw.RAMGB, hw.DiskGB)
	setActual(x, "max_background_compactions", 1)
	setActual(x, "level_size_multiplier", 20)
	setActual(x, "level0_slowdown_writes_trigger", 12)
	setActual(x, "level0_stop_writes_trigger", 14)
	setActual(x, "innodb_write_io_threads", 1)
	apply(cat, x)
	for i := 0; i < 3; i++ {
		run(workload.SysbenchWO(), simdb.StressTestSec)
	}

	// A configuration that must crash: nothing is collected, nothing is
	// drawn, and the next run continues the same noise stream.
	apply(cat, crashConfig(cat, hw))
	run(workload.SysbenchRW(), simdb.StressTestSec)
	db.ResetDefaults()
	run(workload.YCSB(), simdb.ObserveSec)

	if r, ok := db.(interface{ Restarts() int }); ok {
		put(float64(r.Restarts()))
	}
	return hex.EncodeToString(h.Sum(nil)), crashes, stalls
}

// TestGoldenDigests proves the engine shell is bit-identical to the one
// the digests were generated with, for all five engines.
func TestGoldenDigests(t *testing.T) {
	for _, name := range knobs.EngineNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			e, _ := knobs.EngineByName(name)
			got, crashes, stalls := goldenScript(t, e)
			t.Logf("%q: %q, // %d crashes, %d stall charges", name, got, crashes, stalls)
			if crashes == 0 {
				t.Error("script never crashed the instance")
			}
			if e == knobs.EngineLSM && stalls == 0 {
				t.Error("script never banked an LSM write stall")
			}
			if want := goldenDigests[name]; got != want {
				t.Errorf("digest %s, want %s: observable behaviour changed", got, want)
			}
		})
	}
}
