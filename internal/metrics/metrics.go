package metrics

import "fmt"

// Kind distinguishes the two metric families the paper describes.
type Kind int

// Metric kinds.
const (
	Gauge   Kind = iota // "state value": averaged over the window
	Counter             // "cumulative value": differenced over the window
)

// Counts fixed by the paper.
const (
	NumMetrics  = 63
	NumGauges   = 14
	NumCounters = 49
)

// Def describes one internal metric. Scale is the soft normalization
// constant: a raw value v maps to v/(v+Scale) ∈ [0,1). Bound, when
// positive, declares a hard upper bound and the metric maps to v/Bound
// clamped to [0,1] instead (used for ratios and percentages).
type Def struct {
	Name  string
	Kind  Kind
	Scale float64
	Bound float64
}

// Defs lists all 63 metrics in canonical order: gauges first, counters
// after, mirroring the layout of the paper's state vector.
var Defs = buildDefs()

func buildDefs() []Def {
	gauges := []Def{
		{Name: "buffer_pool_pages_data", Kind: Gauge, Scale: 100000},
		{Name: "buffer_pool_pages_dirty", Kind: Gauge, Scale: 20000},
		{Name: "buffer_pool_pages_free", Kind: Gauge, Scale: 100000},
		{Name: "buffer_pool_pages_total", Kind: Gauge, Scale: 100000},
		{Name: "buffer_pool_hit_ratio", Kind: Gauge, Bound: 1},
		{Name: "threads_running", Kind: Gauge, Scale: 64},
		{Name: "threads_connected", Kind: Gauge, Scale: 512},
		{Name: "threads_cached", Kind: Gauge, Scale: 64},
		{Name: "open_tables", Kind: Gauge, Scale: 2048},
		{Name: "row_lock_current_waits", Kind: Gauge, Scale: 32},
		{Name: "data_pending_reads", Kind: Gauge, Scale: 64},
		{Name: "data_pending_writes", Kind: Gauge, Scale: 64},
		{Name: "log_pending_fsyncs", Kind: Gauge, Scale: 16},
		{Name: "dirty_page_ratio", Kind: Gauge, Bound: 1},
	}
	counters := []Def{
		{Name: "bytes_received", Kind: Counter, Scale: 5e7},
		{Name: "bytes_sent", Kind: Counter, Scale: 5e7},
		{Name: "com_select", Kind: Counter, Scale: 20000},
		{Name: "com_insert", Kind: Counter, Scale: 20000},
		{Name: "com_update", Kind: Counter, Scale: 20000},
		{Name: "com_delete", Kind: Counter, Scale: 20000},
		{Name: "com_commit", Kind: Counter, Scale: 20000},
		{Name: "com_rollback", Kind: Counter, Scale: 2000},
		{Name: "questions", Kind: Counter, Scale: 50000},
		{Name: "queries", Kind: Counter, Scale: 50000},
		{Name: "slow_queries", Kind: Counter, Scale: 100},
		{Name: "buffer_pool_read_requests", Kind: Counter, Scale: 500000},
		{Name: "buffer_pool_reads", Kind: Counter, Scale: 50000},
		{Name: "buffer_pool_write_requests", Kind: Counter, Scale: 200000},
		{Name: "buffer_pool_pages_flushed", Kind: Counter, Scale: 50000},
		{Name: "buffer_pool_read_ahead", Kind: Counter, Scale: 20000},
		{Name: "buffer_pool_read_ahead_evicted", Kind: Counter, Scale: 5000},
		{Name: "buffer_pool_wait_free", Kind: Counter, Scale: 1000},
		{Name: "data_reads", Kind: Counter, Scale: 100000},
		{Name: "data_writes", Kind: Counter, Scale: 100000},
		{Name: "data_read_bytes", Kind: Counter, Scale: 1e9},
		{Name: "data_written_bytes", Kind: Counter, Scale: 1e9},
		{Name: "data_fsyncs", Kind: Counter, Scale: 20000},
		{Name: "log_writes", Kind: Counter, Scale: 50000},
		{Name: "log_write_requests", Kind: Counter, Scale: 100000},
		{Name: "os_log_written", Kind: Counter, Scale: 5e8},
		{Name: "os_log_fsyncs", Kind: Counter, Scale: 20000},
		{Name: "log_waits", Kind: Counter, Scale: 1000},
		{Name: "pages_created", Kind: Counter, Scale: 20000},
		{Name: "pages_read", Kind: Counter, Scale: 50000},
		{Name: "pages_written", Kind: Counter, Scale: 50000},
		{Name: "rows_read", Kind: Counter, Scale: 2e6},
		{Name: "rows_inserted", Kind: Counter, Scale: 100000},
		{Name: "rows_updated", Kind: Counter, Scale: 100000},
		{Name: "rows_deleted", Kind: Counter, Scale: 100000},
		{Name: "row_lock_waits", Kind: Counter, Scale: 5000},
		{Name: "row_lock_time_ms", Kind: Counter, Scale: 100000},
		{Name: "lock_timeouts", Kind: Counter, Scale: 500},
		{Name: "created_tmp_tables", Kind: Counter, Scale: 10000},
		{Name: "created_tmp_disk_tables", Kind: Counter, Scale: 2000},
		{Name: "created_tmp_files", Kind: Counter, Scale: 500},
		{Name: "handler_read_first", Kind: Counter, Scale: 10000},
		{Name: "handler_read_key", Kind: Counter, Scale: 1e6},
		{Name: "handler_read_next", Kind: Counter, Scale: 1e6},
		{Name: "handler_read_rnd_next", Kind: Counter, Scale: 1e6},
		{Name: "select_scan", Kind: Counter, Scale: 10000},
		{Name: "sort_merge_passes", Kind: Counter, Scale: 2000},
		{Name: "sort_rows", Kind: Counter, Scale: 500000},
		{Name: "table_locks_waited", Kind: Counter, Scale: 1000},
	}
	defs := append(gauges, counters...)
	if len(gauges) != NumGauges || len(counters) != NumCounters || len(defs) != NumMetrics {
		panic(fmt.Sprintf("metrics: definition counts %d+%d=%d, want %d+%d=%d",
			len(gauges), len(counters), len(defs), NumGauges, NumCounters, NumMetrics))
	}
	return defs
}

// Index returns the canonical position of the named metric, or -1.
func Index(name string) int {
	for i, d := range Defs {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Snapshot is one raw "show status" reading: gauges hold instantaneous
// values, counters hold monotone cumulative totals.
type Snapshot struct {
	Values [NumMetrics]float64
}

// Collector turns a window of periodic snapshots into the paper's state
// vector: gauges are averaged over the window and counters are
// differenced between the last and first snapshot (§2.2.2). It keeps only
// what that needs — the first and last samples and a running sum per
// gauge, added in sample order from zero — not the window itself.
type Collector struct {
	n           int
	first, last Snapshot
	sums        [NumMetrics]float64 // gauges only
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add folds in one periodic sample.
func (c *Collector) Add(s Snapshot) {
	if c.n == 0 {
		c.first = s
	}
	c.last = s
	c.n++
	for i, d := range Defs {
		if d.Kind == Gauge {
			c.sums[i] += s.Values[i]
		}
	}
}

// Reset clears the window.
func (c *Collector) Reset() { *c = Collector{} }

// Count reports the number of samples in the window.
func (c *Collector) Count() int { return c.n }

// State reduces the window to the 63-dimensional raw state vector. It
// panics if no samples were collected.
func (c *Collector) State() []float64 {
	if c.n == 0 {
		panic("metrics: State with empty collector")
	}
	out := make([]float64, NumMetrics)
	n := float64(c.n)
	for i, d := range Defs {
		switch d.Kind {
		case Gauge:
			out[i] = c.sums[i] / n
		case Counter:
			delta := c.last.Values[i] - c.first.Values[i]
			if delta < 0 {
				delta = 0 // counter reset (e.g. after restart)
			}
			out[i] = delta
		}
	}
	return out
}

// Normalize maps a raw state vector into [0,1]^63 for the neural network:
// bounded metrics scale by their bound, unbounded ones through the
// saturating map v/(v+scale).
func Normalize(state []float64) []float64 {
	if len(state) != NumMetrics {
		panic(fmt.Sprintf("metrics: Normalize got %d values, want %d", len(state), NumMetrics))
	}
	out := make([]float64, NumMetrics)
	for i, d := range Defs {
		v := state[i]
		if v < 0 {
			v = 0
		}
		if d.Bound > 0 {
			x := v / d.Bound
			if x > 1 {
				x = 1
			}
			out[i] = x
		} else {
			out[i] = v / (v + d.Scale)
		}
	}
	return out
}

// External captures the two external metrics the reward derives from
// (§2.2.2): throughput in transactions per second and 99th-percentile
// latency in milliseconds.
type External struct {
	Throughput float64
	Latency99  float64
}

// MeanExternal averages periodic external samples, mirroring the
// collector's 5-second sampling and averaging of throughput and latency.
func MeanExternal(samples []External) External {
	if len(samples) == 0 {
		return External{}
	}
	var t, l float64
	for _, s := range samples {
		t += s.Throughput
		l += s.Latency99
	}
	n := float64(len(samples))
	return External{Throughput: t / n, Latency99: l / n}
}
