package lsm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// set deploys an actual value to a named knob and checks it landed (the
// value must be one the knob's range and type can hold).
func set(t *testing.T, db *simdb.DB, name string, v float64) {
	t.Helper()
	i := db.Catalog().Index(name)
	if i < 0 {
		t.Fatalf("no knob %q in the LSM catalog", name)
	}
	one := db.Catalog().Subset([]int{i})
	hw := db.Instance().HW
	if _, err := db.ApplyKnobs(one, []float64{one.Knobs[0].Normalize(v, hw.RAMGB, hw.DiskGB)}); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.KnobValue(name); math.Abs(got-v) > 1e-9*math.Max(1, math.Abs(v)) {
		t.Fatalf("knob %s holds %v, want %v", name, got, v)
	}
}

// eval runs the LSM cost model on the instance's current knobs, so shape
// tests can read the noise-free model output.
func eval(db *simdb.DB, w workload.Workload) perf { return evaluate(db.Inputs(w), w) }

// Read-amp falls monotonically as bloom bits are added: each bit cuts the
// false-positive rate of every sorted-run probe.
func TestBloomBitsReadAmpMonotone(t *testing.T) {
	db := New(simdb.CDBA, 1)
	w := workload.YCSB()
	prev := math.Inf(1)
	for _, bits := range []float64{0, 4, 8, 12, 16, 20} {
		set(t, db, "bloom_bits_per_key", bits)
		p := eval(db, w)
		if p.Crashed {
			t.Fatalf("crashed at bloom bits %v: %s", bits, p.CrashReason)
		}
		if p.ReadAmp >= prev {
			t.Fatalf("read-amp did not fall with bloom bits: %v bits → %v (prev %v)", bits, p.ReadAmp, prev)
		}
		prev = p.ReadAmp
	}
}

// Read-amp falls monotonically with block cache size (below the swap
// cliff): a bigger cache converts sorted-run probes into memory hits.
func TestBlockCacheReadAmpMonotone(t *testing.T) {
	db := New(simdb.CDBA, 1)
	w := workload.YCSB()
	prev := math.Inf(1)
	prevTput := 0.0
	for _, mb := range []float64{16, 64, 256, 1024, 2048, 4096} {
		set(t, db, "block_cache_size_mb", mb)
		p := eval(db, w)
		if p.Crashed {
			t.Fatalf("crashed at cache %v MB: %s", mb, p.CrashReason)
		}
		if p.ReadAmp >= prev {
			t.Fatalf("read-amp did not fall with block cache: %v MB → %v (prev %v)", mb, p.ReadAmp, prev)
		}
		if p.TPS <= prevTput {
			t.Fatalf("throughput did not rise with block cache below the cliff: %v MB → %v tx/s", mb, p.TPS)
		}
		prev, prevTput = p.ReadAmp, p.TPS
	}
}

// The read-path memory knobs are not free: maxing the block cache plus
// memtables over-subscribes RAM and crashes the instance — the RAM-budget
// side of the amplification triangle.
func TestBlockCacheCostsMemory(t *testing.T) {
	db := New(simdb.CDBA, 1)
	hw := simdb.CDBA.HW
	set(t, db, "block_cache_size_mb", 600*hw.RAMGB) // knob max
	set(t, db, "memtable_size_mb", 48*hw.RAMGB)
	set(t, db, "max_write_buffer_number", 16)
	p := eval(db, workload.YCSB())
	if !p.Crashed {
		t.Fatalf("maxed cache+memtables did not crash (memRatio %v)", p.MemPressure)
	}
	if !strings.Contains(p.CrashReason, "memory") {
		t.Fatalf("wrong crash reason: %s", p.CrashReason)
	}
}

// The L0 slowdown trigger is an inverted-U under compaction pressure:
// too low throttles writers prematurely, too high lets sorted runs pile
// deep enough to tax every read. The optimum is interior.
func TestL0SlowdownTriggerInvertedU(t *testing.T) {
	w := workload.YCSB()
	tput := func(trigger float64) float64 {
		db := New(simdb.CDBA, 1)
		set(t, db, "max_background_compactions", 1) // engineer pressure
		set(t, db, "level0_slowdown_writes_trigger", trigger)
		p := eval(db, w)
		if p.Crashed {
			t.Fatalf("crashed at trigger %v: %s", trigger, p.CrashReason)
		}
		return p.TPS
	}
	triggers := []float64{4, 8, 14, 20, 28, 40, 52, 64}
	vals := make([]float64, len(triggers))
	best, bestIdx := 0.0, 0
	for i, tr := range triggers {
		vals[i] = tput(tr)
		if vals[i] > best {
			best, bestIdx = vals[i], i
		}
	}
	if bestIdx == 0 || bestIdx == len(triggers)-1 {
		t.Fatalf("slowdown-trigger response is monotone, not inverted-U: %v → %v", triggers, vals)
	}
	if best < vals[0]*1.02 || best < vals[len(vals)-1]*1.02 {
		t.Fatalf("inverted-U too shallow: %v → %v", triggers, vals)
	}
}

// Leveled compaction rewrites each byte once per level fan-in; tiered
// defers merging. Write-amp must order leveled > tiered at defaults, and
// space-amp the other way around — the trade that makes compaction style
// a real decision.
func TestCompactionStyleAmplificationOrdering(t *testing.T) {
	w := workload.SysbenchWO()
	leveled := New(simdb.CDBA, 1)
	pl := eval(leveled, w)
	tiered := New(simdb.CDBA, 1)
	set(t, tiered, "compaction_style", 1)
	pt := eval(tiered, w)
	if pl.Crashed || pt.Crashed {
		t.Fatalf("defaults crashed: leveled=%v tiered=%v", pl.CrashReason, pt.CrashReason)
	}
	if pl.WriteAmp <= pt.WriteAmp {
		t.Fatalf("write-amp ordering violated: leveled %v ≤ tiered %v", pl.WriteAmp, pt.WriteAmp)
	}
	if pt.SpaceAmp <= pl.SpaceAmp {
		t.Fatalf("space-amp ordering violated: tiered %v ≤ leveled %v", pt.SpaceAmp, pl.SpaceAmp)
	}
}

// Under leveled compaction, write-amp grows with the level size
// multiplier: each level rewrites its input ~T/2 times before pushing
// down.
func TestWriteAmpGrowsWithLevelMultiplier(t *testing.T) {
	db := New(simdb.CDBA, 1)
	w := workload.SysbenchWO()
	prev := 0.0
	for _, mult := range []float64{4, 6, 8, 10, 14, 20} {
		set(t, db, "level_size_multiplier", mult)
		p := eval(db, w)
		if p.WriteAmp <= prev {
			t.Fatalf("write-amp did not grow with multiplier: %v → %v (prev %v)", mult, p.WriteAmp, prev)
		}
		prev = p.WriteAmp
	}
}

// Tiered compaction with garbage tolerance maxed and compression off runs
// the 35 GB YCSB dataset out of its 100 GB disk — the ENOSPC edge of the
// space-amp axis.
func TestTieredSpaceAmpENOSPC(t *testing.T) {
	db := New(simdb.CDBA, 1)
	set(t, db, "compaction_style", 1)
	set(t, db, "universal_max_size_amp_pct", 400)
	set(t, db, "compression_type", 0)
	set(t, db, "bottommost_compression", 0)
	p := eval(db, workload.YCSB())
	if !p.Crashed {
		t.Fatalf("tiered + no compression + max size-amp did not ENOSPC (spaceAmp %v)", p.SpaceAmp)
	}
	if !strings.Contains(p.CrashReason, "disk") {
		t.Fatalf("wrong crash reason: %s", p.CrashReason)
	}
	// The same configuration survives with compression on.
	db2 := New(simdb.CDBA, 1)
	set(t, db2, "compaction_style", 1)
	set(t, db2, "universal_max_size_amp_pct", 400)
	if p2 := eval(db2, workload.YCSB()); p2.Crashed {
		t.Fatalf("compressed tiered config should survive: %s", p2.CrashReason)
	}
}

// Starving compaction drives utilization past saturation: the stop
// trigger fires and stall time is banked for env.Staller.
func TestCompactionStallChargesStaller(t *testing.T) {
	db := New(simdb.CDBA, 1)
	set(t, db, "max_background_compactions", 1)
	set(t, db, "level_size_multiplier", 20)
	set(t, db, "level0_slowdown_writes_trigger", 12)
	set(t, db, "level0_stop_writes_trigger", 14)
	w := workload.SysbenchWO()
	p := eval(db, w)
	if p.PStop < 0.05 {
		t.Fatalf("starved compaction did not approach the stop trigger: u=%v l0=%v pStop=%v", p.CompactionUtil, p.L0Files, p.PStop)
	}
	if _, err := db.RunWorkload(w, simdb.StressTestSec); err != nil {
		t.Fatal(err)
	}
	if s := db.TakeStallSeconds(); s <= 0 {
		t.Fatalf("no stall seconds banked (pStop %v)", p.PStop)
	}
	if s := db.TakeStallSeconds(); s != 0 {
		t.Fatalf("stall seconds not drained: %v", s)
	}
}

// The WAL sync policy trades durability for write cost: fsync-per-commit
// must be the slowest policy, no-sync the fastest.
func TestWALPolicyOrdering(t *testing.T) {
	w := workload.SysbenchWO()
	tput := func(policy float64) float64 {
		db := New(simdb.CDBA, 1)
		set(t, db, "wal_sync_policy", policy)
		return eval(db, w).TPS
	}
	off, perCommit, periodic := tput(0), tput(1), tput(2)
	if !(off > periodic && periodic > perCommit) {
		t.Fatalf("WAL policy ordering violated: off=%v periodic=%v perCommit=%v", off, periodic, perCommit)
	}
}

// The minor-knob surface is present and interacting, like the other
// engine family's.
func TestAuxSurfacePresent(t *testing.T) {
	db := New(simdb.CDBA, 1)
	w := workload.SysbenchRW()
	base := eval(db, w).TPS
	aux := 0
	cat := db.Catalog()
	x := db.CurrentKnobs(cat)
	for i, k := range cat.Knobs {
		if k.Role == knobs.RoleAux {
			x[i] = 0.05
			aux++
		}
	}
	if _, err := db.ApplyKnobs(cat, x); err != nil {
		t.Fatal(err)
	}
	if aux < 80 {
		t.Fatalf("LSM catalog has only %d minor knobs", aux)
	}
	if moved := eval(db, w).TPS; moved == base {
		t.Fatal("minor knobs have no effect on the LSM engine")
	}
}

// TestEvaluateDeterministic: the LSM cost model is a pure function of
// (hardware, config, workload) — the instance's seed and how much noise it
// has already drawn do not reach it.
func TestEvaluateDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		mk := func(noiseSeed int64) *simdb.DB {
			db := New(simdb.CDBB, noiseSeed)
			cat := db.Catalog()
			x := cat.Defaults(simdb.CDBB.HW.RAMGB, simdb.CDBB.HW.DiskGB)
			r := rand.New(rand.NewSource(seed))
			for i := range x {
				if r.Float64() < 0.2 {
					x[i] = r.Float64() * 0.8
				}
			}
			if _, err := db.ApplyKnobs(cat, x); err != nil {
				t.Fatal(err)
			}
			return db
		}
		a, b := mk(1), mk(2)
		b.RunWorkload(workload.SysbenchRO(), 30) // advance b's noise stream (a crash draws nothing: also fine)
		return eval(a, workload.YCSB()) == eval(b, workload.YCSB())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
