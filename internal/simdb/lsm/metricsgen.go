package lsm

import (
	"math"

	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// model is the LSM family's simdb.Model: the cost model, then its mapping
// onto the 63 canonical metrics — a per-second rate for every counter, a
// value for every gauge. The names are reinterpreted with LSM semantics —
// block cache → buffer_pool_*, WAL → log_*, flush+compaction → pages
// flushed, write stalls → lock waits, compactions → sort merges — so
// fingerprints keep their shape while encoding a genuinely different
// engine signature.
func model(in simdb.Inputs, w workload.Workload) simdb.Rates {
	p := evaluate(in, w)
	r := p.Rates
	ops := p.ReadOps + p.WriteOps
	commits := 0.0
	if ops > 0 {
		commits = p.TPS
	}
	insertOps := p.WriteOps * 0.5
	deleteOps := p.WriteOps * 0.1
	updateOps := p.WriteOps - insertOps - deleteOps
	flushBlocks := p.FlushMBps * 1024 / 16 // 16 KiB block writes /s
	compactBlocks := p.CompactionMBps * 1024 / 16

	// Counters: per-second rates.
	r.Set("bytes_received", ops*160)
	r.Set("bytes_sent", p.ReadOps*700+p.WriteOps*40)
	r.Set("com_select", p.ReadOps)
	r.Set("com_insert", insertOps)
	r.Set("com_update", updateOps)
	r.Set("com_delete", deleteOps)
	r.Set("com_commit", commits)
	r.Set("com_rollback", commits*0.003)
	r.Set("questions", ops+commits)
	r.Set("queries", ops+commits)
	r.Set("slow_queries", p.Scans*0.03+ops*0.2*p.PStop)
	r.Set("buffer_pool_read_requests", p.BlockReqs)
	r.Set("buffer_pool_reads", p.BlockMisses)
	r.Set("buffer_pool_write_requests", flushBlocks)
	r.Set("buffer_pool_pages_flushed", flushBlocks+compactBlocks)
	r.Set("buffer_pool_read_ahead", compactBlocks*0.8+p.Scans*4)
	r.Set("buffer_pool_read_ahead_evicted", compactBlocks*0.3)
	r.Set("buffer_pool_wait_free", p.BlockMisses*0.02*p.MemPressure)
	r.Set("data_reads", p.BlockMisses+compactBlocks)
	r.Set("data_writes", flushBlocks+compactBlocks+p.WALFsyncs)
	r.Set("data_read_bytes", (p.BlockMisses+compactBlocks)*16384)
	r.Set("data_written_bytes", (flushBlocks+compactBlocks)*16384+p.WALWrites*float64(entryKB*1024))
	r.Set("data_fsyncs", p.WALFsyncs+(flushBlocks+compactBlocks)*0.001)
	r.Set("log_writes", p.WALWrites)
	r.Set("log_write_requests", p.WALWrites*1.3)
	r.Set("os_log_written", p.WALWrites*float64(entryKB*1024))
	r.Set("os_log_fsyncs", p.WALFsyncs)
	r.Set("log_waits", p.WALWrites*0.001*(1+5*p.PSlow))
	r.Set("pages_created", flushBlocks)
	r.Set("pages_read", p.BlockMisses)
	r.Set("pages_written", flushBlocks+compactBlocks)
	r.Set("rows_read", p.ReadOps*2+p.Scans*180)
	r.Set("rows_inserted", insertOps)
	r.Set("rows_updated", updateOps)
	r.Set("rows_deleted", deleteOps)
	r.Set("row_lock_waits", p.StallWaits)
	r.Set("row_lock_time_ms", p.StallWaits*40)
	r.Set("lock_timeouts", p.StallWaits*0.02*p.PStop)
	r.Set("created_tmp_tables", compactBlocks/math.Max(1, 64*64)) // compaction output files
	r.Set("created_tmp_disk_tables", flushBlocks/math.Max(1, 64*64))
	r.Set("created_tmp_files", (flushBlocks+compactBlocks)/math.Max(1, 64*64))
	r.Set("handler_read_first", p.Scans)
	r.Set("handler_read_key", p.ReadOps*(1+p.ReadAmp))
	r.Set("handler_read_next", p.Scans*160*(1+0.05*p.L0Files))
	r.Set("handler_read_rnd_next", p.Scans*200)
	r.Set("select_scan", p.Scans)
	r.Set("sort_merge_passes", p.CompactionMBps/math.Max(1, 55)) // compactions in flight
	r.Set("sort_rows", p.CompactionMBps*1024/float64(entryKB))   // entries merged /s
	r.Set("table_locks_waited", p.StallWaits*0.1)

	// Gauges: instantaneous values.
	cacheBlocks := p.CacheTotalMB * 64 // 16 KiB blocks
	fill := math.Min(1, 0.3+0.7*p.BlockHit)
	r.Set("buffer_pool_pages_data", cacheBlocks*fill)
	r.Set("buffer_pool_pages_dirty", cacheBlocks*fill*0.02) // cache is read-only; memtables are the dirty set
	r.Set("buffer_pool_pages_free", cacheBlocks*(1-fill))
	r.Set("buffer_pool_pages_total", cacheBlocks)
	r.Set("buffer_pool_hit_ratio", p.BlockHit)
	r.Set("threads_running", p.Running)
	r.Set("threads_connected", p.ActiveConns)
	r.Set("threads_cached", in.Knob(knobs.RoleCompactionThreads, 2)+in.Knob(knobs.RoleFlushThreads, 1))
	r.Set("open_tables", math.Min(in.Knob(knobs.RoleMaxOpenFiles, 1024), 4000))
	r.Set("row_lock_current_waits", p.StallWaits*0.2)
	r.Set("data_pending_reads", p.L0Files)
	r.Set("data_pending_writes", p.PendingMB/1024)
	r.Set("log_pending_fsyncs", p.WALFsyncs*0.001)
	r.Set("dirty_page_ratio", math.Min(1, p.MemtableFill*0.7+0.3*math.Min(1, p.L0Files/36)))
	return r
}
