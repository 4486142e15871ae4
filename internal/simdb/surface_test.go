package simdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdbtune/internal/knobs"
	"cdbtune/internal/workload"
)

// evaluate runs the buffer-pool cost model on the instance's current
// knobs, so shape tests can read the noise-free model output.
func (db *DB) evaluate(w workload.Workload) perf { return evaluate(db.Inputs(w), w) }

// TestEvaluateDeterministic: the cost model is a pure function of
// (engine, hardware, config, workload) — the instance's seed and how much
// noise it has already drawn do not reach it.
func TestEvaluateDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		mk := func(noiseSeed int64) *DB {
			db := New(knobs.EngineCDB, CDBB, noiseSeed)
			cat := db.Catalog()
			x := cat.Defaults(12, 100)
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
		return a.evaluate(workload.TPCC()) == b.evaluate(workload.TPCC())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSurfaceNonMonotone reproduces the Figure 1(d) premise: the
// performance surface is not monotone in every direction — there exist
// knobs whose response has an interior optimum.
func TestSurfaceNonMonotone(t *testing.T) {
	db := New(knobs.EngineCDB, CDBA, 1)
	cat := db.Catalog()
	w := workload.SysbenchRW()
	i := cat.Index("innodb_write_io_threads")
	var prev float64
	direction := 0 // +1 rising, -1 falling
	changes := 0
	for _, x := range []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
		cfg := cat.Defaults(8, 100)
		cfg[i] = x
		if _, err := db.ApplyKnobs(cat, cfg); err != nil {
			t.Fatal(err)
		}
		tps := db.evaluate(w).TPS
		if prev != 0 {
			d := 0
			if tps > prev {
				d = 1
			} else if tps < prev {
				d = -1
			}
			if d != 0 && direction != 0 && d != direction {
				changes++
			}
			if d != 0 {
				direction = d
			}
		}
		prev = tps
	}
	if changes == 0 {
		t.Fatal("write IO threads response is monotone; Figure 1(d) requires an interior optimum")
	}
}

// TestAuxInteractionsExist: at least one minor-knob pair interacts — the
// effect of moving knob A depends on where knob B sits.
func TestAuxInteractionsExist(t *testing.T) {
	db := New(knobs.EngineCDB, CDBA, 1)
	s := db.aux
	var pairIdx = -1
	for j, p := range s.pair {
		if p >= 0 && s.g[j] != 0 {
			pairIdx = j
			break
		}
	}
	if pairIdx < 0 {
		t.Fatal("no interacting minor-knob pairs generated")
	}
	w := workload.SysbenchRW()
	partner := s.pair[pairIdx]
	setAux := func(j int, x float64) {
		full := s.idx[j]
		k := db.catalog.Knobs[full]
		db.values[full] = k.Value(x, CDBA.HW.RAMGB, CDBA.HW.DiskGB)
	}
	effectOfA := func(bPos float64) float64 {
		setAux(partner, bPos)
		setAux(pairIdx, 0.1)
		lo := s.Factor(db.values, db.inst.HW, w)
		setAux(pairIdx, 0.9)
		hi := s.Factor(db.values, db.inst.HW, w)
		return hi - lo
	}
	d1 := effectOfA(0.1)
	d2 := effectOfA(0.9)
	if d1 == d2 {
		t.Fatal("knob A's effect is independent of knob B: no interaction")
	}
}

// Property: the aux factor is always positive and bounded (the clamps).
func TestAuxFactorBoundedProperty(t *testing.T) {
	db := New(knobs.EngineCDB, CDBA, 1)
	cat := db.Catalog()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, cat.Len())
		for i := range x {
			x[i] = rng.Float64()
		}
		if _, err := db.ApplyKnobs(cat, x); err != nil {
			return false
		}
		v := db.aux.Factor(db.values, db.inst.HW, workload.TPCC())
		return v > 0.25 && v < 2.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAuxWorkloadAffinity: a minor knob's contribution shifts with the
// read/write mix (the mix term).
func TestAuxWorkloadAffinity(t *testing.T) {
	db := New(knobs.EngineCDB, CDBA, 1)
	ro := db.aux.Factor(db.values, db.inst.HW, workload.SysbenchRO())
	wo := db.aux.Factor(db.values, db.inst.HW, workload.SysbenchWO())
	if ro == wo {
		t.Fatal("aux surface ignores the workload mix")
	}
}

// TestWorkloadsOrderingUnderDefaults: lighter per-transaction workloads
// run at higher transaction rates under identical configurations.
func TestWorkloadsOrderingUnderDefaults(t *testing.T) {
	db := New(knobs.EngineCDB, CDBA, 1)
	ycsb := db.evaluate(workload.YCSB()).TPS     // 1 op/txn
	rw := db.evaluate(workload.SysbenchRW()).TPS // 18 ops/txn
	if ycsb <= rw {
		t.Fatalf("YCSB (%v) should out-rate Sysbench RW (%v) per txn", ycsb, rw)
	}
	tpch := db.evaluate(workload.TPCH()).TPS
	if tpch >= rw {
		t.Fatalf("TPC-H (%v) analytic queries cannot out-rate OLTP (%v)", tpch, rw)
	}
}

// TestPerfFieldsConsistent: derived rates are internally consistent.
func TestPerfFieldsConsistent(t *testing.T) {
	db := New(knobs.EngineCDB, CDBA, 1)
	for _, w := range workload.All() {
		p := db.evaluate(w)
		if p.Crashed {
			t.Fatalf("%s: defaults must not crash", w.Name)
		}
		ops := p.ReadOps + p.WriteOps
		want := p.TPS * w.OpsPerTxn
		if math.Abs(ops-want) > want*1e-6 {
			t.Fatalf("%s: ops %v != tps×opsPerTxn %v", w.Name, ops, want)
		}
		if p.HitRatio <= 0 || p.HitRatio >= 1 {
			t.Fatalf("%s: hit ratio %v out of (0,1)", w.Name, p.HitRatio)
		}
		if p.PageMisses > p.PageReqs {
			t.Fatalf("%s: misses exceed requests", w.Name)
		}
		if w.ReadFraction == 0 && p.ReadOps != 0 {
			t.Fatalf("%s: write-only workload has reads", w.Name)
		}
		if w.ReadFraction == 1 && p.WriteOps != 0 {
			t.Fatalf("%s: read-only workload has writes", w.Name)
		}
	}
}

// TestYCSBVariantShapes: the extension variants respond sensibly — the
// read-only variant benefits from the cache, the scan variant pays for
// scans.
func TestYCSBVariantShapes(t *testing.T) {
	db := New(knobs.EngineCDB, CDBE, 1)
	a := db.evaluate(workload.YCSB()).TPS
	c := db.evaluate(workload.YCSBC()).TPS
	e := db.evaluate(workload.YCSBE()).TPS
	if c <= a {
		t.Fatalf("read-only YCSB-C (%v) should out-run update-heavy A (%v) at defaults", c, a)
	}
	if e >= c {
		t.Fatalf("scan-heavy YCSB-E (%v) should trail point-read C (%v)", e, c)
	}
}
