package env

import (
	"errors"
	"math"
	"testing"

	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// restarter is the restart counter every simulated engine keeps beside
// the Database surface.
type restarter interface{ Restarts() int }

// crashConfig returns a configuration that over-subscribes memory (and,
// where the engine has a redo log, outgrows the disk) on every engine.
func crashConfig(cat *knobs.Catalog, hw simdb.Hardware) []float64 {
	x := cat.Defaults(hw.RAMGB, hw.DiskGB)
	for _, r := range []knobs.Role{
		knobs.RoleBufferPool, knobs.RoleLogFileSize, knobs.RoleLogFilesInGroup,
		knobs.RoleBlockCache, knobs.RoleMemtableSize, knobs.RoleMemtableCount,
	} {
		if i := cat.RoleIndex(r); i >= 0 {
			x[i] = 1
		}
	}
	return x
}

func sameResult(a, b simdb.Result) bool {
	if a.Ext != b.Ext || len(a.State) != len(b.State) {
		return false
	}
	for i := range a.State {
		if a.State[i] != b.State[i] {
			return false
		}
	}
	return true
}

// TestDatabaseConformance drives one behavioural contract through every
// engine behind OpenEngine: knob store, reset semantics, run and restart
// accounting, all-or-nothing deployment, stress-test shape, and the
// determinism contract must be indistinguishable to a tuner.
func TestDatabaseConformance(t *testing.T) {
	for _, name := range knobs.EngineNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			engine, ok := knobs.EngineByName(name)
			if !ok {
				t.Fatalf("EngineNames lists %q but EngineByName rejects it", name)
			}
			inst := simdb.CDBA
			hw := inst.HW
			cat := knobs.ForEngine(engine)
			defaults := cat.Defaults(hw.RAMGB, hw.DiskGB)
			w := workload.YCSB() // runs at defaults on every engine
			open := func(seed int64) Database { return OpenEngine(engine, inst, seed) }
			atDefaults := func(t *testing.T, db Database, when string) {
				t.Helper()
				cur := db.CurrentKnobs(cat)
				if len(cur) != cat.Len() {
					t.Fatalf("CurrentKnobs returned %d values for %d knobs", len(cur), cat.Len())
				}
				for i := range cur {
					if math.Abs(cur[i]-defaults[i]) > 1e-9 {
						t.Fatalf("%s: knob %s = %v, want default %v", when, cat.Knobs[i].Name, cur[i], defaults[i])
					}
				}
			}
			// tweaked is a non-crashing configuration away from the
			// defaults that moves at least one restart-requiring knob.
			tweaked := append([]float64(nil), defaults...)
			for i := range tweaked {
				if i%7 == 3 {
					tweaked[i] = 0.9*tweaked[i] + 0.05
				}
			}
			for i, k := range cat.Knobs {
				x := math.Min(1, defaults[i]+0.2)
				if k.Restart && k.Value(x, hw.RAMGB, hw.DiskGB) != k.Value(defaults[i], hw.RAMGB, hw.DiskGB) {
					tweaked[i] = x
					break
				}
			}

			t.Run("fresh-at-defaults", func(t *testing.T) {
				db := open(7)
				atDefaults(t, db, "fresh instance")
				if db.Runs() != 0 || db.(restarter).Restarts() != 0 {
					t.Fatalf("fresh instance reports %d runs, %d restarts", db.Runs(), db.(restarter).Restarts())
				}
				if got := db.Instance(); got != inst {
					t.Fatalf("Instance() = %+v, want %+v", got, inst)
				}
			})

			t.Run("knob-round-trip", func(t *testing.T) {
				db := open(7)
				x := append([]float64(nil), defaults...)
				for i := range x {
					x[i] = 0.5 * (x[i] + 0.5)
				}
				if _, err := db.ApplyKnobs(cat, x); err != nil {
					t.Fatal(err)
				}
				got := db.CurrentKnobs(cat)
				for i, k := range cat.Knobs {
					want := k.Normalize(k.Value(x[i], hw.RAMGB, hw.DiskGB), hw.RAMGB, hw.DiskGB)
					if math.Abs(got[i]-want) > 1e-6 {
						t.Fatalf("knob %s did not round-trip: got %v want %v", k.Name, got[i], want)
					}
				}
				k0 := cat.Knobs[0]
				if v, ok := db.KnobValue(k0.Name); !ok || v != k0.Value(x[0], hw.RAMGB, hw.DiskGB) {
					t.Fatalf("KnobValue(%q) = %v, %v", k0.Name, v, ok)
				}
				if _, ok := db.KnobValue("no_such_knob"); ok {
					t.Fatal("KnobValue invented a knob")
				}
				// A subset deployment leaves every other knob alone.
				sub := cat.Subset([]int{1})
				if _, err := db.ApplyKnobs(sub, []float64{defaults[1]}); err != nil {
					t.Fatal(err)
				}
				after := db.CurrentKnobs(cat)
				for i := range after {
					if i != 1 && after[i] != got[i] {
						t.Fatalf("subset deployment moved knob %s", cat.Knobs[i].Name)
					}
				}
			})

			t.Run("reset", func(t *testing.T) {
				db := open(7)
				if _, err := db.ApplyKnobs(cat, tweaked); err != nil {
					t.Fatal(err)
				}
				before := db.(restarter).Restarts()
				db.ResetDefaults()
				atDefaults(t, db, "after ResetDefaults")
				if got := db.(restarter).Restarts(); got != before+1 {
					t.Fatalf("ResetDefaults restarts %d → %d, want one restart", before, got)
				}
			})

			t.Run("run-restart-accounting", func(t *testing.T) {
				db := open(7)
				restarted, err := db.ApplyKnobs(cat, tweaked)
				if err != nil {
					t.Fatal(err)
				}
				if !restarted || db.(restarter).Restarts() != 1 {
					t.Fatalf("changing restart-requiring knobs: restarted=%v, Restarts()=%d", restarted, db.(restarter).Restarts())
				}
				if restarted, _ := db.ApplyKnobs(cat, tweaked); restarted || db.(restarter).Restarts() != 1 {
					t.Fatal("re-deploying the same configuration counted a restart")
				}
				if _, err := db.RunWorkload(w, simdb.StressTestSec); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ApplyKnobs(cat, crashConfig(cat, hw)); err != nil {
					t.Fatal(err)
				}
				if _, err := db.RunWorkload(w, simdb.StressTestSec); !errors.Is(err, simdb.ErrCrashed) {
					t.Fatalf("over-subscribed configuration returned %v, want ErrCrashed", err)
				}
				if db.Runs() != 2 {
					t.Fatalf("Runs() = %d after one clean and one crashed stress test, want 2", db.Runs())
				}
				bad := w
				bad.Threads = 0
				if _, err := db.RunWorkload(bad, simdb.StressTestSec); err == nil || db.Runs() != 2 {
					t.Fatalf("invalid workload: err=%v, Runs()=%d", err, db.Runs())
				}
			})

			t.Run("apply-all-or-nothing", func(t *testing.T) {
				db := open(7)
				// Valid knobs first, an unknown one last: a knob-by-knob
				// deployment would have written the valid ones already.
				ks := append(append([]knobs.Knob(nil), cat.Knobs...), knobs.Knob{Name: "no_such_knob", Max: 1})
				bogus := knobs.NewCatalog(engine, ks)
				if _, err := db.ApplyKnobs(bogus, append(append([]float64(nil), tweaked...), 0.5)); err == nil {
					t.Fatal("unknown knob must error")
				}
				if _, err := db.ApplyKnobs(cat, tweaked[:1]); err == nil {
					t.Fatal("length mismatch must error")
				}
				other := knobs.EngineLSM
				if engine == knobs.EngineLSM {
					other = knobs.EngineCDB
				}
				if _, err := db.ApplyKnobs(knobs.NewCatalog(other, cat.Knobs), tweaked); err == nil {
					t.Fatal("engine mismatch must error")
				}
				atDefaults(t, db, "after failed deployments")
				if got := db.(restarter).Restarts(); got != 0 {
					t.Fatalf("failed deployments counted %d restarts", got)
				}
			})

			t.Run("stress-test-shape", func(t *testing.T) {
				db := open(7)
				res, err := db.RunWorkload(w, simdb.StressTestSec)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.State) != metrics.NumMetrics {
					t.Fatalf("state has %d metrics, want %d", len(res.State), metrics.NumMetrics)
				}
				if res.Ext.Throughput <= 0 || res.Ext.Latency99 <= 0 {
					t.Fatalf("degenerate externals: %+v", res.Ext)
				}
				nonZero := 0
				for _, v := range res.State {
					if v != 0 {
						nonZero++
					}
				}
				if nonZero < metrics.NumMetrics/2 {
					t.Fatalf("only %d/%d metrics move under load", nonZero, metrics.NumMetrics)
				}

				// The environment drives the engine end to end: a default
				// step charges deploy + stress + collection, no restart.
				e := New(open(7), cat, w)
				if _, err := e.Step(e.Default()); err != nil {
					t.Fatal(err)
				}
				want := simdb.DeploySec + simdb.StressTestSec + simdb.MetricsCollectSec
				if math.Abs(e.Clock.Seconds()-want) > 1e-6 {
					t.Fatalf("default step charged %v, want %v", e.Clock.Seconds(), want)
				}
			})

			// Same seed ⇒ bit-identical Result, and only sampling draws
			// noise: b takes a detour through knob operations, a crashed
			// run and a reset that a never sees, yet measures the same.
			t.Run("same-seed", func(t *testing.T) {
				a, b := open(42), open(42)
				if _, err := b.ApplyKnobs(cat, crashConfig(cat, hw)); err != nil {
					t.Fatal(err)
				}
				if _, err := b.RunWorkload(w, simdb.StressTestSec); !errors.Is(err, simdb.ErrCrashed) {
					t.Fatalf("detour run returned %v, want ErrCrashed", err)
				}
				b.CurrentKnobs(cat)
				b.KnobValue(cat.Knobs[0].Name)
				b.ResetDefaults()
				for _, dur := range []float64{simdb.StressTestSec, simdb.ObserveSec} {
					for _, db := range []Database{a, b} {
						if _, err := db.ApplyKnobs(cat, tweaked); err != nil {
							t.Fatal(err)
						}
					}
					ra, err := a.RunWorkload(w, dur)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := b.RunWorkload(w, dur)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(ra, rb) {
						t.Fatalf("same seed, different measurement over %v s:\n%+v\n%+v", dur, ra, rb)
					}
					if a.(Staller).TakeStallSeconds() != b.(Staller).TakeStallSeconds() {
						t.Fatal("same seed, different stall charge")
					}
				}
			})

			t.Run("different-seed", func(t *testing.T) {
				ra, err := open(1).RunWorkload(w, simdb.StressTestSec)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := open(2).RunWorkload(w, simdb.StressTestSec)
				if err != nil {
					t.Fatal(err)
				}
				if ra.Ext == rb.Ext {
					t.Fatal("different seeds produced identical measurements")
				}
				// The noise is bounded measurement jitter, not a different
				// surface.
				if r := ra.Ext.Throughput / rb.Ext.Throughput; r < 0.95 || r > 1.05 {
					t.Fatalf("seeds moved throughput by %v×", r)
				}
			})
		})
	}
}

// TestLSMStallChargesEnvClock: organic compaction stalls surface through
// env.Staller and charge the environment's virtual clock beyond the plain
// step cost, and are counted as stall faults.
func TestLSMStallChargesEnvClock(t *testing.T) {
	cat := knobs.ForEngine(knobs.EngineLSM)
	db := OpenEngine(knobs.EngineLSM, simdb.CDBA, 7)
	e := New(db, cat, workload.SysbenchWO())
	hw := db.Instance().HW

	x := cat.Defaults(hw.RAMGB, hw.DiskGB)
	starve := func(name string, actual float64) {
		i := cat.Index(name)
		if i < 0 {
			t.Fatalf("no knob %q", name)
		}
		x[i] = cat.Knobs[i].Normalize(actual, hw.RAMGB, hw.DiskGB)
	}
	starve("max_background_compactions", 1)
	starve("level_size_multiplier", 20)
	starve("level0_slowdown_writes_trigger", 12)
	starve("level0_stop_writes_trigger", 14)

	if _, err := e.Step(x); err != nil {
		t.Fatal(err)
	}
	base := simdb.DeploySec + simdb.StressTestSec + simdb.MetricsCollectSec
	if e.Clock.Seconds() <= base {
		t.Fatalf("stall charged nothing: clock %v ≤ base %v", e.Clock.Seconds(), base)
	}
	if f := e.Faults(); f.Stalls == 0 || f.StallSec <= 0 {
		t.Fatalf("stall not counted in FaultReport: %+v", f)
	}
}
