package knobs

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseConfig: ParseConfig reads operator-supplied files (cdbtune
// benchmark -config). Whatever the bytes, it must not panic; when it
// accepts a file every value must be finite and inside its knob's
// hardware-scaled range, for every engine catalog; and what FormatConfig
// writes of those values must parse back to them.
func FuzzParseConfig(f *testing.F) {
	var engines []Engine
	for _, name := range EngineNames() {
		e, _ := EngineByName(name)
		engines = append(engines, e)
	}
	for _, text := range []string{
		"\n# a comment\n; another comment\n[mysqld]\ninnodb_buffer_pool_size = 2048\n",
		"not_a_real_knob = 5\nwork_mem = 64\n",
		"innodb_log_files_in_group = 99999\n",
		"max_connections = lots\n",
		"just some words\n",
		"setParameter:\n  wiredtiger_cache_size: 8192\n",
		"bloom_bits_per_key = 12\nblock_cache_size_mb = 512\n",
		"innodb_buffer_pool_size = -5\nmax_connections = NaN\nwork_mem = -Inf\n",
	} {
		for i := range engines {
			f.Add(text, uint8(i), uint8(8), uint8(100))
		}
	}
	for i, e := range engines {
		c := ForEngine(e)
		text, err := FormatConfig(c, c.Denormalize(c.Defaults(8, 100), 8, 100), false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text, uint8(i), uint8(8), uint8(100))
	}

	f.Fuzz(func(t *testing.T, text string, engine, ram, disk uint8) {
		c := ForEngine(engines[int(engine)%len(engines)])
		ramGB, diskGB := float64(ram)+1, float64(disk)+1
		values, _, err := ParseConfig(c, strings.NewReader(text), ramGB, diskGB)
		if err != nil {
			return
		}
		if len(values) != c.Len() {
			t.Fatalf("%d values for %d knobs", len(values), c.Len())
		}
		for i, k := range c.Knobs {
			lo, hi := k.Value(0, ramGB, diskGB), k.Value(1, ramGB, diskGB)
			if v := values[i]; !(v >= lo && v <= hi) {
				t.Fatalf("knob %s = %v outside [%v, %v]", k.Name, v, lo, hi)
			}
		}
		out, err := FormatConfig(c, values, false)
		if err != nil {
			t.Fatal(err)
		}
		again, unknown, err := ParseConfig(c, strings.NewReader(out), ramGB, diskGB)
		if err != nil || len(unknown) != 0 {
			t.Fatalf("our own output does not parse: %v, unknown %v", err, unknown)
		}
		for i, k := range c.Knobs {
			// Exact for discrete knobs; continuous ones go through a
			// log/pow round trip and may move by rounding error.
			if d := math.Abs(again[i] - values[i]); d > 1e-9*math.Max(1, math.Abs(values[i])) {
				t.Fatalf("knob %s: %v formatted and parsed back as %v", k.Name, values[i], again[i])
			}
		}
	})
}
