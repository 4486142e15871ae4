package simdb

import (
	"math"

	"cdbtune/internal/knobs"
	"cdbtune/internal/workload"
)

// bufferPoolModel is the Model of the B-tree engines (CDB, local MySQL,
// MongoDB, Postgres): the cost model, then its mapping onto the 63
// canonical metrics — a per-second rate for every counter, a value for
// every gauge.
func bufferPoolModel(in Inputs, w workload.Workload) Rates {
	p := evaluate(in, w)
	r := p.Rates
	ops := p.ReadOps + p.WriteOps
	commits := 0.0
	if ops > 0 {
		commits = p.TPS
	}
	insertOps := p.WriteOps * 0.45
	deleteOps := p.WriteOps * 0.15
	updateOps := p.WriteOps - insertOps - deleteOps

	// Counters: per-second rates.
	r.Set("bytes_received", ops*180)
	r.Set("bytes_sent", p.ReadOps*900+p.WriteOps*60)
	r.Set("com_select", p.ReadOps)
	r.Set("com_insert", insertOps)
	r.Set("com_update", updateOps)
	r.Set("com_delete", deleteOps)
	r.Set("com_commit", commits)
	r.Set("com_rollback", commits*0.005)
	r.Set("questions", ops+commits)
	r.Set("queries", ops+commits)
	r.Set("slow_queries", p.Scans*0.02+p.TmpDisk*0.05)
	r.Set("buffer_pool_read_requests", p.PageReqs)
	r.Set("buffer_pool_reads", p.PageMisses)
	r.Set("buffer_pool_write_requests", p.WriteOps*3)
	r.Set("buffer_pool_pages_flushed", p.PagesFlushed)
	r.Set("buffer_pool_read_ahead", p.Scans*6)
	r.Set("buffer_pool_read_ahead_evicted", p.Scans*0.8)
	r.Set("buffer_pool_wait_free", p.PageMisses*0.02*p.MemPressure)
	r.Set("data_reads", p.PageMisses+p.TmpDisk*4)
	r.Set("data_writes", p.PagesFlushed+p.LogFsyncs)
	r.Set("data_read_bytes", (p.PageMisses+p.TmpDisk*4)*16384)
	r.Set("data_written_bytes", p.PagesFlushed*16384+p.LogWrites*420)
	r.Set("data_fsyncs", p.LogFsyncs+p.PagesFlushed*0.02)
	r.Set("log_writes", p.LogWrites)
	r.Set("log_write_requests", p.LogWrites*1.6)
	r.Set("os_log_written", p.LogWrites*420)
	r.Set("os_log_fsyncs", p.LogFsyncs)
	r.Set("log_waits", p.LogWrites*0.002)
	r.Set("pages_created", insertOps*0.4)
	r.Set("pages_read", p.PageMisses)
	r.Set("pages_written", p.PagesFlushed)
	r.Set("rows_read", p.ReadOps*3+p.Scans*220)
	r.Set("rows_inserted", insertOps)
	r.Set("rows_updated", updateOps)
	r.Set("rows_deleted", deleteOps)
	r.Set("row_lock_waits", p.LockWaits)
	r.Set("row_lock_time_ms", p.LockWaits*18)
	r.Set("lock_timeouts", p.LockWaits*0.01)
	r.Set("created_tmp_tables", p.TmpTables)
	r.Set("created_tmp_disk_tables", p.TmpDisk)
	r.Set("created_tmp_files", p.TmpDisk*0.2)
	r.Set("handler_read_first", p.Scans)
	r.Set("handler_read_key", p.ReadOps*2.2)
	r.Set("handler_read_next", p.Scans*200)
	r.Set("handler_read_rnd_next", p.Scans*260)
	r.Set("select_scan", p.Scans)
	r.Set("sort_merge_passes", p.TmpDisk*0.6)
	r.Set("sort_rows", p.SortRows)
	r.Set("table_locks_waited", p.LockWaits*0.05)

	// Gauges: instantaneous values.
	free := p.BPPagesTotal - p.BPPagesData
	r.Set("buffer_pool_pages_data", p.BPPagesData)
	r.Set("buffer_pool_pages_dirty", p.BPPagesData*p.DirtyRatio)
	r.Set("buffer_pool_pages_free", free)
	r.Set("buffer_pool_pages_total", p.BPPagesTotal)
	r.Set("buffer_pool_hit_ratio", p.HitRatio)
	r.Set("threads_running", p.Running)
	r.Set("threads_connected", p.ActiveConns)
	r.Set("threads_cached", in.Knob(knobs.RoleThreadCacheSize, 9)*0.6)
	r.Set("open_tables", math.Min(in.Knob(knobs.RoleTableOpenCache, 2000), 4000))
	r.Set("row_lock_current_waits", p.LockWaits*0.05)
	r.Set("data_pending_reads", p.PageMisses*0.004)
	r.Set("data_pending_writes", p.PagesFlushed*0.003)
	r.Set("log_pending_fsyncs", p.LogFsyncs*0.001)
	r.Set("dirty_page_ratio", p.DirtyRatio)
	return r
}
