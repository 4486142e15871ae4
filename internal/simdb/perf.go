package simdb

import (
	"math"

	"cdbtune/internal/knobs"
	"cdbtune/internal/workload"
)

// perf is the deterministic output of the performance model for the
// current configuration under one workload. Rates are per second.
type perf struct {
	Rates // externals and crash verdict; bufferPoolModel fills in Metrics

	// Model internals consumed by metric generation.
	HitRatio     float64
	DirtyRatio   float64
	ReadOps      float64 // read operations /s
	WriteOps     float64 // write operations /s
	PageReqs     float64 // buffer pool page requests /s
	PageMisses   float64 // physical page reads /s
	PagesFlushed float64 // dirty page writes /s
	LogWrites    float64 // redo log writes /s
	LogFsyncs    float64 // redo/binlog fsyncs /s
	TmpTables    float64 // temp tables /s
	TmpDisk      float64 // on-disk temp tables /s
	LockWaits    float64 // row lock waits /s
	Scans        float64 // range/full scans /s
	SortRows     float64 // sorted rows /s
	ActiveConns  float64
	Running      float64
	BPPagesTotal float64
	BPPagesData  float64
	MemPressure  float64
}

// gaussResponse is the inverted-U response used for thread-count and
// IO-capacity knobs: 1 at the optimum, decaying log-normally away from it.
func gaussResponse(v, opt, width float64) float64 {
	if v < 1 {
		v = 1
	}
	if opt < 1 {
		opt = 1
	}
	d := math.Log(v) - math.Log(opt)
	return math.Exp(-d * d / (2 * width * width))
}

// engineBase returns the ideal operations-per-second capacity of the
// engine for a workload class, before any cost factors.
func engineBase(e knobs.Engine, class workload.Class) float64 {
	var base float64
	if class == workload.OLAP {
		base = 360 // heavy analytic queries per second at ideal cache
	} else {
		base = 46000 // simple OLTP operations per second
	}
	switch e {
	case knobs.EngineLocalMySQL:
		return base * 0.93
	case knobs.EngineMongoDB:
		return base * 1.08
	case knobs.EnginePostgres:
		return base * 0.88
	default:
		return base
	}
}

// evaluate runs the buffer-pool cost model: it converts the current knob
// values, the workload profile and the hardware into throughput, latency
// and the internal rates that metric generation needs.
func evaluate(in Inputs, w workload.Workload) perf {
	hw := in.HW
	ramMB := hw.RAMGB * 1024
	diskMB := hw.DiskGB * 1024

	bpMB := in.Knob(knobs.RoleBufferPool, 128)
	logFileMB := in.Knob(knobs.RoleLogFileSize, 48)
	logFiles := in.Knob(knobs.RoleLogFilesInGroup, 2)
	flushPolicy := in.Knob(knobs.RoleFlushLogAtCommit, 1)
	syncBinlog := in.Knob(knobs.RoleSyncBinlog, 1)
	readThreads := in.Knob(knobs.RoleReadIOThreads, 4)
	writeThreads := in.Knob(knobs.RoleWriteIOThreads, 4)
	purgeThreads := in.Knob(knobs.RolePurgeThreads, 1)
	threadConc := in.Knob(knobs.RoleThreadConcurrency, 0)
	maxConn := in.Knob(knobs.RoleMaxConnections, 151)
	ioCap := in.Knob(knobs.RoleIOCapacity, 200)
	logBufMB := in.Knob(knobs.RoleLogBufferSize, 8)
	qcacheMB := in.Knob(knobs.RoleQueryCacheSize, 0)
	qcacheType := in.Knob(knobs.RoleQueryCacheType, 0)
	ahi := in.Knob(knobs.RoleAdaptiveHash, 1)
	maxDirty := in.Knob(knobs.RoleMaxDirtyPct, 75)
	doublewrite := in.Knob(knobs.RoleDoublewrite, 1)
	sortBufMB := in.Knob(knobs.RoleSortBufferSize, 0.25)
	joinBufMB := in.Knob(knobs.RoleJoinBufferSize, 0.25)
	tmpTableMB := in.Knob(knobs.RoleTmpTableSize, 16)
	threadCache := in.Knob(knobs.RoleThreadCacheSize, 9)
	tableCache := in.Knob(knobs.RoleTableOpenCache, 2000)
	changeBuf := in.Knob(knobs.RoleChangeBuffering, 5)
	readAhead := in.Knob(knobs.RoleReadAhead, 56)

	var p perf

	// ---- Crash conditions (§5.2.3) -------------------------------------
	logCapMB := logFileMB * logFiles
	if logCapMB > 0.22*diskMB {
		p.Crashed = true
		p.CrashReason = "redo log group exceeds disk budget (innodb_log_files_in_group × innodb_log_file_size too large)"
		return p
	}

	// ---- Memory budget and swap cliff ----------------------------------
	clients := float64(w.Threads)
	activeConns := math.Min(clients, maxConn)
	// Per-connection work buffers are allocated per active operation, not
	// per connection; ~6 % of connections hold one at any instant.
	perConnMB := sortBufMB + joinBufMB + 0.4
	totalMemMB := bpMB + activeConns*perConnMB*0.06 + logBufMB + qcacheMB + 400
	memRatio := totalMemMB / ramMB
	p.MemPressure = memRatio
	if memRatio > 1.35 {
		p.Crashed = true
		p.CrashReason = "memory over-subscription (buffer pool + per-connection buffers exceed RAM)"
		return p
	}
	swapFactor := 1.0
	if over := memRatio - 0.92; over > 0 {
		swapFactor = 1 / (1 + 60*over*over)
	}

	// ---- Buffer pool hit ratio ------------------------------------------
	effWSMB := w.WorkingSetGB * 1024 * (1 - 0.45*w.Skew)
	if w.Class == workload.OLAP {
		effWSMB = (0.35*w.DataSizeGB + 0.65*w.WorkingSetGB) * 1024
	}
	hit := 0.5 + 0.497*(1-math.Exp(-2.2*bpMB/effWSMB))
	hit *= 1 - 0.10*w.ScanFraction*(1-bpMB/(bpMB+effWSMB)) // scan pollution
	if hit > 0.999 {
		hit = 0.999
	}
	p.HitRatio = hit
	miss := 1 - hit
	missCost := 2.6 * hw.DiskSpeedFactor()

	readShare := w.ReadFraction
	writeShare := w.WriteFraction()

	// ---- Read cost -------------------------------------------------------
	readCost := 1 + missCost*miss
	// Query cache: wins on (nearly) read-only workloads, costs on mixed.
	if qcacheType > 0 && qcacheMB > 0 {
		if writeShare < 0.05 {
			readCost *= 1 - 0.12*qcacheMB/(qcacheMB+128)
		} else {
			readCost *= 1.06 // invalidation overhead
		}
	}
	if ahi >= 1 {
		pointShare := 1 - w.ScanFraction
		readCost *= 1 - 0.05*pointShare*hit
	}
	// Read IO threads: optimum rises with miss pressure.
	readOpt := 2 + 44*miss*readShare
	readCost *= 1 + 0.28*(1-gaussResponse(readThreads, readOpt, 0.8))
	// Read-ahead threshold helps scans; inverted-U around 24.
	if w.ScanFraction > 0 {
		readCost *= 1 - 0.08*w.ScanFraction*gaussResponse(readAhead+1, 25, 0.7)
	}
	// Sorts / temp tables.
	sortNeedMB := 2 + 28*w.SortFraction
	sortAdeq := sortBufMB / (sortBufMB + sortNeedMB)
	tmpAdeq := tmpTableMB / (tmpTableMB + 24*(w.SortFraction+0.05))
	sortCost := 1 + 1.5*w.SortFraction*(1-0.5*sortAdeq-0.5*tmpAdeq)
	// Joins.
	joinNeedMB := 1 + 40*w.JoinFraction
	joinAdeq := joinBufMB / (joinBufMB + joinNeedMB)
	joinCost := 1 + 1.2*w.JoinFraction*(1-joinAdeq)
	readCost *= sortCost * joinCost

	// ---- Write cost -------------------------------------------------------
	writeCost := 1 + missCost*miss*0.35
	switch int(flushPolicy) {
	case 0:
		writeCost *= 0.70
	case 2:
		writeCost *= 0.78
	}
	switch {
	case syncBinlog == 0:
		writeCost *= 0.88
	case syncBinlog > 1:
		writeCost *= 1 - 0.12*(1-1/syncBinlog)
	}
	checkpointPenalty := 1 + 0.9*math.Exp(-logCapMB/1500)
	writeCost *= checkpointPenalty
	if doublewrite >= 1 {
		writeCost *= 1.12
	}
	dirtyOpt := 62 + 22*writeShare
	dd := (maxDirty - dirtyOpt) / 60
	writeCost *= 1 + 0.10*dd*dd
	ioOpt := 800 + 9000*writeShare/hw.DiskSpeedFactor()
	writeCost *= 1 + 0.20*(1-gaussResponse(ioCap, ioOpt, 0.9))
	writeOpt := 2 + 30*writeShare
	writeCost *= 1 + 0.30*(1-gaussResponse(writeThreads, writeOpt, 0.8))
	purgeOpt := 1 + 20*w.DeleteShare*writeShare
	writeCost *= 1 + 0.16*(1-gaussResponse(purgeThreads, purgeOpt, 0.8))
	writeCost *= 1 + 0.14*(1-logBufMB/(logBufMB+12))
	if changeBuf >= 3 {
		writeCost *= 0.95
	}

	// ---- Concurrency / admission ----------------------------------------
	cores := float64(hw.Cores)
	concAdj := 1.0
	if threadConc > 0 {
		concAdj = 0.78 + 0.22*gaussResponse(threadConc, 2.5*cores, 1.0)
	} else if clients > 6*cores {
		concAdj = 0.93 // unlimited admission thrashes under huge fan-in
	}
	connCap := 1.0
	if maxConn < clients {
		connCap = 0.25 + 0.75*maxConn/clients // rejected connections
	}
	tcAdj := 1 - 0.05*(1-threadCache/(threadCache+clients/8+1))
	tocAdj := 1 - 0.06*(1-tableCache/(tableCache+clients*2))

	// ---- Minor knobs ------------------------------------------------------
	auxFactor := in.AuxFactor

	// ---- Throughput --------------------------------------------------------
	opCost := readShare*readCost + writeShare*writeCost
	base := engineBase(in.Engine, w.Class)
	opsPerSec := base * concAdj * connCap * tcAdj * tocAdj * swapFactor * auxFactor / opCost
	tps := opsPerSec / w.OpsPerTxn
	if tps < 0.1 {
		tps = 0.1
	}
	p.TPS = tps

	// ---- Latency (closed-loop: Little's law + tail inflation) -------------
	// All clients count, admitted or not: a rejected connection retries
	// and its wall-clock wait is part of the observed tail.
	meanLatMS := clients / tps * 1000
	tail := 2.1
	dirtyPressure := math.Min(1, writeShare*(maxDirty/100)*checkpointPenalty/1.6)
	tail += 1.2 * dirtyPressure
	if int(flushPolicy) == 1 {
		tail += 0.5 * writeShare
	}
	if clients > maxConn {
		tail += 1.5 * (1 - maxConn/clients)
	}
	if memRatio > 0.92 {
		tail += 2.5 * (memRatio - 0.92)
	}
	p.LatencyMS = math.Max(0.5, meanLatMS*tail/2.1)

	// ---- Rates for metric generation --------------------------------------
	ops := tps * w.OpsPerTxn
	p.ReadOps = ops * readShare
	p.WriteOps = ops * writeShare
	pagesPerRead := 2.5 + 24*w.ScanFraction
	p.PageReqs = p.ReadOps*pagesPerRead + p.WriteOps*3
	p.PageMisses = p.PageReqs * miss
	p.DirtyRatio = math.Min(maxDirty/100, 0.08+0.9*writeShare) * (0.5 + 0.5*dirtyPressure)
	p.PagesFlushed = p.WriteOps * 1.8 * (0.4 + 0.6*checkpointPenalty/1.9)
	switch int(flushPolicy) {
	case 1:
		p.LogFsyncs = tps
	case 2:
		p.LogFsyncs = 1
	default:
		p.LogFsyncs = 1
	}
	if syncBinlog >= 1 {
		p.LogFsyncs += tps / math.Max(1, syncBinlog)
	}
	p.LogWrites = p.WriteOps
	p.TmpTables = ops * w.SortFraction
	p.TmpDisk = p.TmpTables * (1 - tmpAdeq)
	contention := p.WriteOps * clients / 60000
	p.LockWaits = contention * (0.3 + 0.7*writeShare)
	p.Scans = p.ReadOps * w.ScanFraction
	p.SortRows = p.TmpTables * 800
	p.ActiveConns = activeConns
	limit := clients
	if threadConc > 0 {
		limit = threadConc
	}
	p.Running = math.Min(math.Min(clients, limit), 4*cores*(0.5+0.5*miss))
	p.BPPagesTotal = bpMB * 64 // 16 KiB pages
	fill := math.Min(1, w.DataSizeGB*1024*64/p.BPPagesTotal)
	p.BPPagesData = p.BPPagesTotal * fill * (0.55 + 0.45*hit)
	return p
}
