package lsm

import (
	"math"

	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// perf is the deterministic output of the LSM cost model for the current
// configuration under one workload. Rates are per second.
type perf struct {
	simdb.Rates // externals, crash verdict, StallFrac; model fills in Metrics

	// The amplification triangle.
	WriteAmp float64 // bytes written to disk per byte ingested
	ReadAmp  float64 // expected disk reads per point lookup
	SpaceAmp float64 // on-disk bytes per live byte

	// Stall dynamics.
	CompactionUtil float64 // compaction demand / capacity
	L0Files        float64 // steady-state L0 sorted-run population
	PSlow          float64 // probability a write hits the slowdown regime
	PStop          float64 // probability a write hits a full stop

	// Model internals consumed by metric generation.
	BlockHit       float64 // block cache hit ratio
	MemtableFill   float64 // active memtable fill fraction
	ReadOps        float64 // read operations /s
	WriteOps       float64 // write operations /s
	BlockReqs      float64 // block cache requests /s
	BlockMisses    float64 // block cache misses (disk reads) /s
	FlushMBps      float64 // memtable flush bandwidth
	CompactionMBps float64 // compaction write bandwidth
	WALWrites      float64 // WAL appends /s
	WALFsyncs      float64 // WAL fsyncs /s
	Scans          float64 // range scans /s
	StallWaits     float64 // writer stall waits /s
	ActiveConns    float64
	Running        float64
	CacheTotalMB   float64
	PendingMB      float64 // pending compaction debt
	MemPressure    float64
}

// New creates an LSM instance on the given hardware with every knob at its
// default: the shared simdb instance shell around this package's cost
// model. seed fixes the run-to-run measurement noise; the knob-response
// surface itself is seed-independent, like simdb's.
func New(inst simdb.Instance, seed int64) *simdb.DB {
	return simdb.NewEngine(knobs.EngineLSM, inst, seed, model)
}

// logistic is the smooth trigger response: ~0 well below the threshold,
// ~1 well above, transitioning over ±2·width.
func logistic(x, width float64) float64 {
	return 1 / (1 + math.Exp(-x/width))
}

// sat clamps x into [0, hi].
func sat(x, hi float64) float64 {
	if x < 0 {
		return 0
	}
	if x > hi {
		return hi
	}
	return x
}

// compressionFactor maps a compression_type enum to an on-disk size factor
// and a CPU cost multiplier at level 3; the effort level scales the CPU
// side and sharpens the ratio slightly.
func compressionFactor(typ, level float64) (sizeF, cpuF float64) {
	switch int(typ) {
	case 0:
		return 1.0, 1.0
	case 1: // snappy
		sizeF, cpuF = 0.60, 1.020
	case 2: // lz4
		sizeF, cpuF = 0.55, 1.015
	case 3: // zstd
		sizeF, cpuF = 0.45, 1.060
	default: // zlib
		sizeF, cpuF = 0.50, 1.110
	}
	eff := (level - 3) / 6 // -0.33 at level 1 … +1 at level 9
	sizeF *= 1 - 0.06*eff
	cpuF = 1 + (cpuF-1)*(1+1.2*eff)
	return sizeF, cpuF
}

// entryKB is the modeled average logical entry size: key + value +
// per-entry overhead. DataSizeGB / entryKB gives the live key count.
const entryKB = 0.3

// evaluate runs the LSM cost model: knobs + workload + hardware →
// throughput, latency, the amplification triangle, stall dynamics, and
// the rates metric generation needs. It is a pure function of the current
// knob values (no RNG), so measurements are deterministic up to sampling
// noise.
func evaluate(in simdb.Inputs, w workload.Workload) perf {
	hw := in.HW
	ramMB := hw.RAMGB * 1024
	diskMB := hw.DiskGB * 1024
	diskSpeed := hw.DiskSpeedFactor() // >1 = slower medium

	// ---- Knobs -----------------------------------------------------------
	memtMB := in.Knob(knobs.RoleMemtableSize, 64)
	memtN := in.Knob(knobs.RoleMemtableCount, 2)
	mergeMin := in.Knob(knobs.RoleMemtableMergeMin, 1)
	walPolicy := in.Knob(knobs.RoleWALPolicy, 1)
	walSyncKB := in.Knob(knobs.RoleWALBytesPerSync, 0)
	walCapMB := in.Knob(knobs.RoleWALSizeLimit, 64)
	walBufMB := in.Knob(knobs.RoleLogBufferSize, 8)

	tiered := in.Knob(knobs.RoleCompactionStyle, 0) >= 1
	levelMult := in.Knob(knobs.RoleLevelMultiplier, 10)
	levelBaseMB := in.Knob(knobs.RoleLevelBase, 256)
	numLevels := in.Knob(knobs.RoleNumLevels, 7)
	dynLevel := in.Knob(knobs.RoleDynamicLevelBytes, 0) >= 1
	l0Compact := in.Knob(knobs.RoleL0CompactTrigger, 4)
	l0Slow := in.Knob(knobs.RoleL0SlowdownTrigger, 20)
	l0Stop := in.Knob(knobs.RoleL0StopTrigger, 36)
	targetMB := in.Knob(knobs.RoleTargetFileSize, 64)
	targetMul := in.Knob(knobs.RoleTargetFileMultiplier, 1)
	softPendGB := in.Knob(knobs.RoleSoftPendingLimit, 16)
	hardPendGB := in.Knob(knobs.RoleHardPendingLimit, 64)
	periodicHr := in.Knob(knobs.RolePeriodicCompaction, 0)

	uniRatio := in.Knob(knobs.RoleUniversalSizeRatio, 1)
	uniMerge := in.Knob(knobs.RoleUniversalMinMerge, 2)
	uniMaxAmp := in.Knob(knobs.RoleUniversalMaxSizeAmp, 200)

	compThreads := in.Knob(knobs.RoleCompactionThreads, 2)
	flushThreads := in.Knob(knobs.RoleFlushThreads, 1)
	subcomp := in.Knob(knobs.RoleSubcompactions, 1)
	compReadKB := in.Knob(knobs.RoleCompactionReadahead, 512)
	rateMBps := in.Knob(knobs.RoleRateLimiter, 0)
	delayedMBps := in.Knob(knobs.RoleDelayedWriteRate, 16)
	directIO := in.Knob(knobs.RoleDirectIO, 0) >= 1

	bloomBits := in.Knob(knobs.RoleBloomBits, 10)
	wholeKey := in.Knob(knobs.RoleBloomWholeKey, 1) >= 1
	prefixBloom := in.Knob(knobs.RolePrefixBloom, 0)
	cacheMB := in.Knob(knobs.RoleBlockCache, 32)
	blockKB := in.Knob(knobs.RoleBlockSize, 4)
	cacheIdxFilter := in.Knob(knobs.RoleCacheIndexFilter, 0) >= 1
	pinL0 := in.Knob(knobs.RolePinL0Filter, 0) >= 1
	rowCacheMB := in.Knob(knobs.RoleRowCache, 0)
	optimizeHits := in.Knob(knobs.RoleOptimizeFiltersHits, 0) >= 1
	iterReadKB := in.Knob(knobs.RoleIteratorReadahead, 0)
	maxOpen := in.Knob(knobs.RoleMaxOpenFiles, 1024)
	mmapReads := in.Knob(knobs.RoleMmapRead, 0) >= 1

	compType := in.Knob(knobs.RoleCompressionType, 1)
	compLevel := in.Knob(knobs.RoleCompressionLevel, 3)
	bottomType := in.Knob(knobs.RoleBottommostCompression, 3)

	pipelined := in.Knob(knobs.RolePipelinedWrite, 0) >= 1
	concMemt := in.Knob(knobs.RoleConcurrentMemtable, 1) >= 1
	writeYield := in.Knob(knobs.RoleWriteThreadYield, 100)
	maxConn := in.Knob(knobs.RoleMaxConnections, 1000)
	svcThreads := in.Knob(knobs.RoleThreadConcurrency, 0)

	var p perf

	// ---- Workload facts --------------------------------------------------
	clients := float64(w.Threads)
	dataMB := w.DataSizeGB * 1024
	keysM := dataMB / entryKB / 1e6 // millions of live keys
	readShare := w.ReadFraction
	writeShare := w.WriteFraction()
	cores := float64(hw.Cores)

	// ---- Compression & on-disk geometry ---------------------------------
	topSize, topCPU := compressionFactor(compType, compLevel)
	botSize, botCPU := compressionFactor(bottomType, compLevel)
	// ~70 % of data lives in the bottommost sorted run.
	cf := 0.3*topSize + 0.7*botSize
	cpuComp := 0.3*topCPU + 0.7*botCPU
	onDiskMB := dataMB * cf

	// Sorted runs below L0. Leveled: geometric levels from the L1 base;
	// tiered: runs accumulate until the size-ratio/merge-width policy merges
	// them.
	var levels float64
	if tiered {
		levels = 2 + math.Log(math.Max(2, onDiskMB/math.Max(memtMB, 8)))/
			math.Log(uniMerge+0.5+uniRatio/25)
	} else {
		levels = 1 + math.Log(math.Max(1.01, onDiskMB/levelBaseMB))/math.Log(levelMult)
	}
	levels = sat(levels, numLevels)
	if levels < 1 {
		levels = 1
	}

	// ---- Write amplification --------------------------------------------
	// One WAL write + one flush + the merge cost of the compaction shape.
	var wa float64
	if tiered {
		wa = 2 + 0.55*levels*(1-uniRatio/120)
		wa *= 1 - 0.10*uniMaxAmp/400 // tolerating garbage defers merges
	} else {
		wa = 2 + 0.5*levelMult*(levels-1)
		if dynLevel {
			wa *= 0.93
		}
	}
	// Merging immutable memtables before flush dedups skewed overwrites.
	wa *= 1 - 0.12*w.Skew*(1-1/math.Max(1, mergeMin))
	if wa < 2 {
		wa = 2
	}
	p.WriteAmp = wa

	// ---- Space amplification & ENOSPC -----------------------------------
	var sa, transientMB float64
	if tiered {
		sa = 1 + 0.8*uniMaxAmp/100*0.5
		transientMB = onDiskMB // a full merge transiently doubles the data
	} else {
		sa = 1 + 1/levelMult + 0.12
		if dynLevel {
			sa -= 0.06
		}
		transientMB = 0.15 * onDiskMB
	}
	p.SpaceAmp = sa
	diskUseMB := onDiskMB*sa + transientMB + walCapMB
	if diskUseMB > 0.92*diskMB {
		p.Crashed = true
		p.CrashReason = "out of disk: space amplification (compaction style/garbage tolerance/compression) exceeds the disk budget"
		return p
	}

	// ---- Memory budget & swap cliff -------------------------------------
	bloomMB := bloomBits * keysM / 8
	idxHeapMB := onDiskMB * 0.004
	heapMetaMB := bloomMB + idxHeapMB
	cacheData := cacheMB
	if cacheIdxFilter {
		// Index+filter blocks charge the cache instead of the heap,
		// displacing data blocks (bounded — eviction protects some data).
		charged := math.Min(heapMetaMB, 0.6*cacheMB)
		cacheData = cacheMB - charged
		heapMetaMB -= charged
		if pinL0 {
			cacheData -= 0.02 * cacheMB
		}
	}
	memMB := memtMB*memtN + cacheMB + rowCacheMB + heapMetaMB + walBufMB +
		math.Min(clients, maxConn)*0.05 + 350
	memRatio := memMB / ramMB
	p.MemPressure = memRatio
	if memRatio > 1.32 {
		p.Crashed = true
		p.CrashReason = "memory over-subscription (memtables + block cache + filter/index heap exceed RAM)"
		return p
	}
	swapFactor := 1.0
	if over := memRatio - 0.92; over > 0 {
		swapFactor = 1 / (1 + 60*over*over)
	}

	// ---- Block cache hit ratio ------------------------------------------
	// The OS page cache backstops the block cache (bloom/index heap is
	// excluded from the free-RAM estimate: it is small and effectively
	// pinned); an OS-cache hit is still cheaper than a disk read, so both
	// tiers feed one effective cache size. Direct-IO compaction stops
	// compaction churn from evicting it.
	effWSMB := w.WorkingSetGB * 1024 * (1 - 0.5*w.Skew)
	if w.Class == workload.OLAP {
		effWSMB = (0.35*w.DataSizeGB + 0.65*w.WorkingSetGB) * 1024
	}
	osFreeMB := math.Max(0, ramMB-memtMB*memtN-cacheMB-rowCacheMB-350) * 0.5
	osWeight := 0.35
	if directIO {
		osWeight = 0.42
	}
	effCacheMB := math.Max(1, cacheData) + osWeight*osFreeMB
	hit := 0.5 + 0.497*(1-math.Exp(-2.2*effCacheMB/effWSMB))
	if hit > 0.999 {
		hit = 0.999
	}
	p.BlockHit = hit
	p.CacheTotalMB = cacheMB

	// ---- Ideal operation rate (pre-stall) -------------------------------
	// LSMs ingest faster than B-trees but scan slower (merging iterators).
	var base float64
	if w.Class == workload.OLAP {
		base = 240
	} else {
		base = 52000
	}

	// ---- Read cost -------------------------------------------------------
	// A point lookup probes the memtables, each L0 file and each deeper
	// sorted run; bloom filters short-circuit runs that cannot contain the
	// key. Every probed run costs CPU (filter/index checks) even on a
	// bloom skip; actual disk reads happen on cache misses.
	fpr := 1.0
	if bloomBits > 0 {
		fpr = math.Pow(0.6185, bloomBits)
		if !wholeKey {
			fpr = math.Min(1, fpr*1.6)
		}
		if optimizeHits {
			// No filters on the bottommost run: cheaper memory/CPU, but
			// misses fall through to it.
			fpr *= 0.9
		}
	}
	missCost := 2.4 * diskSpeed
	// Larger blocks read more bytes per point miss; slightly fewer IOs for
	// scans (handled below).
	pointBlockPenalty := 1 + 0.05*math.Log2(math.Max(1, blockKB/4))

	// Compaction debt shows up in reads before it stalls writes: the L0
	// population is probed by every lookup. Computed below; first pass uses
	// the compaction-trigger floor, then feeds back once.
	l0Floor := l0Compact * 0.5
	memtRuns := 1 + (memtN-1)*0.4 + (mergeMin-1)*0.3

	// ---- Write path & compaction debt -----------------------------------
	walCost := 1.0
	switch int(walPolicy) {
	case 0:
		walCost = 0.78
	case 2:
		walCost = 0.88
	}
	if pipelined && int(walPolicy) >= 1 {
		walCost *= 0.95
	}
	if walSyncKB > 0 && int(walPolicy) == 1 {
		walCost *= 0.98 // smoother writeback, marginal throughput
	}
	walCost *= 1 + 0.10*(1-walBufMB/(walBufMB+8))
	if !concMemt && clients > 64 {
		walCost *= 1.08
	}
	// Group-commit leader spin: inverted-U around a concurrency-scaled
	// optimum.
	yieldOpt := 40 + clients/8
	walCost *= 1 + 0.04*math.Abs(math.Log((writeYield+10)/yieldOpt))/3

	writeCost := walCost * cpuComp * (1 + 0.10*32/(memtMB+32)) // flush overhead amortizes with memtable size

	// Ideal throughput before stalls, to size the ingest estimate.
	readCost0 := (1 + missCost*(1-hit)*(1+(memtRuns-1+l0Floor+levels-1)*fpr)*pointBlockPenalty*0.4) * cpuComp
	opCost0 := readShare*readCost0 + writeShare*writeCost
	if opCost0 < 0.2 {
		opCost0 = 0.2
	}
	idealOps := base / opCost0
	ingestMBps := idealOps * writeShare * entryKB / 1024 // ops/s · KB/op → MB/s

	// Forced early flushes when the WAL cap is tight relative to memtable
	// capacity.
	forcedFlush := math.Max(0, memtMB*memtN*1.5-walCapMB) / (memtMB*memtN*1.5 + 1)
	flushMBps := ingestMBps * cf * (1 + 0.7*forcedFlush)

	// Compaction demand vs capacity. Compaction reads and rewrites
	// (WA − WAL − flush stages rewrite the rest): ≈ 1.7 bytes of disk
	// bandwidth per byte of amplified write.
	demandMBps := ingestMBps * cf * (wa - 1) * 1.7
	if periodicHr > 0 {
		demandMBps += onDiskMB / (periodicHr * 3600)
	}
	perThread := 55 / diskSpeed
	capacity := math.Min(compThreads, cores) * perThread
	if !tiered {
		capacity *= 1 + 0.25*math.Log(math.Max(1, subcomp))/math.Log(16)
	}
	capacity *= 1 - 0.10*(1-compReadKB/(compReadKB+512)) // readahead feeds the merge
	if directIO {
		capacity *= 0.95
	}
	if rateMBps > 0 {
		capacity = math.Min(capacity, rateMBps)
	}
	u0 := demandMBps / math.Max(1, capacity)

	// Free-running L0 population: the compaction-trigger floor plus a
	// backlog that grows steeply once utilization saturates (one unrolled
	// efficiency-feedback iteration — a deep L0 makes compaction less
	// incremental). A permissive slowdown trigger lets the pile ride higher
	// before the scheduler prioritizes L0 (the slack term).
	slack := 0.35 + 0.65*l0Slow/64
	backlog0 := 30 * math.Pow(sat((u0-0.6)/0.55, 1.2), 3)
	pileFree := l0Floor + backlog0*slack
	uEff := u0 * (1 + 0.015*pileFree)
	backlog := 30 * math.Pow(sat((uEff-0.6)/0.55, 1.2), 3)
	pileFree = l0Floor + backlog*slack

	// Triggers hold the realized pile near the slowdown trigger (that is
	// their whole point): writers are delayed exactly enough to pin it
	// there, and a stop never lets it run much past. RocksDB requires
	// slowdown ≤ stop; the model repairs an inconsistent pair the way the
	// engine would.
	stopEff := math.Max(l0Stop, l0Slow*1.15)
	l0Pop := math.Min(pileFree, math.Max(l0Floor, 1.06*l0Slow))
	if l0Pop > 1.03*stopEff {
		l0Pop = 1.03 * stopEff
	}
	p.L0Files = l0Pop

	// Trigger pressure is felt on the FREE pile plus bursty transients:
	// compaction arrives in episodes, so a tight trigger throttles on
	// bursts even when the mean pile is fine.
	burst := (2 + 3*math.Min(u0, 1)) * writeShare
	pSlow := logistic(pileFree+burst-l0Slow, 2.5)
	pStop := logistic(pileFree+burst-stopEff, 2.5)

	// Compaction batch efficiency is an inverted-U in the realized pile: a
	// pile pinned low by a tight trigger forces tiny, seek-bound L0→L1
	// merges; a deep pile re-reads L0 over and over. The sweet spot sits in
	// the mid-teens.
	batchEff := (l0Pop + 1.5) / (l0Pop + 6) / (1 + 0.018*math.Max(0, l0Pop-14))
	capEff := capacity * (0.55 + 0.58*batchEff)
	u := demandMBps / math.Max(1, capEff)
	p.CompactionUtil = u

	// Pending-compaction debt accrued across one stress test window.
	excess := math.Max(0, demandMBps-capEff)
	debtGB := excess * 150 / 1024
	p.PendingMB = debtGB * 1024
	pSlow = math.Min(1, pSlow+0.7*logistic(debtGB-softPendGB, math.Max(1, 0.25*softPendGB)))
	pStop = math.Min(1, pStop+0.8*logistic(debtGB-hardPendGB, math.Max(1, 0.25*hardPendGB)))

	// Memtable stalls: ingest outrunning flush capacity, absorbed by spare
	// memtables.
	flushCap := math.Min(flushThreads, cores) * 90 / diskSpeed
	pFlush := logistic(flushMBps-0.85*flushCap, 0.25*flushCap+1) - 0.9*sat((memtN-1)/6, 1)
	if pFlush < 0 {
		pFlush = 0
	}
	pStop = math.Min(1, pStop+0.6*pFlush)
	p.PSlow = pSlow
	p.PStop = pStop

	// ---- Read cost, final (with the real L0 population) ------------------
	runsTotal := memtRuns + l0Pop + (levels - 1)
	probes := 1 + (runsTotal-1)*fpr
	readAmp := probes * (1 - hit) * pointBlockPenalty
	p.ReadAmp = readAmp
	pointShare := 1 - w.ScanFraction
	readCost := 1 + missCost*readAmp*pointShare
	// Range scans merge every sorted run; blooms cannot help them (a
	// memtable prefix bloom trims a little), iterator readahead and bigger
	// blocks do.
	if w.ScanFraction > 0 {
		scanRuns := 1 + 0.18*l0Pop + 0.4*(levels-1)
		scanIO := missCost * (1 - hit) * scanRuns *
			(1 - 0.25*iterReadKB/(iterReadKB+1024)) *
			(1 - 0.15*math.Log2(math.Max(1, blockKB/4))/6) *
			(1 - 0.3*prefixBloom*4*w.Skew)
		readCost += w.ScanFraction * scanIO * 2.2
	}
	// Row cache short-circuits hot point lookups on skewed workloads.
	if rowCacheMB > 0 {
		rowHit := 0.5 * w.Skew * (1 - math.Exp(-rowCacheMB/256))
		readCost *= 1 - 0.3*rowHit*pointShare
	}
	if mmapReads {
		if int(compType) == 0 {
			readCost *= 0.97
		} else {
			readCost *= 1.02
		}
	}
	// Per-run CPU overhead (filter/index checks, merge iterators) is paid
	// even when blooms skip the IO — the read-side cost of a deep L0.
	readCost *= 1 + 0.009*runsTotal
	readCost *= cpuComp
	// Table-handle cache churn when the file population exceeds
	// max_open_files.
	files := onDiskMB/math.Max(4, targetMB*math.Max(1, targetMul*0.5)) + l0Pop
	readCost *= 1 + 0.10*(1-sat(maxOpen/math.Max(1, files), 1))

	// ---- Throughput ------------------------------------------------------
	concAdj := 1.0
	if svcThreads > 0 {
		d := math.Log(svcThreads) - math.Log(2.5*cores)
		concAdj = 0.80 + 0.20*math.Exp(-d*d/2)
	} else if clients > 6*cores {
		concAdj = 0.94
	}
	connCap := 1.0
	if maxConn < clients {
		connCap = 0.25 + 0.75*maxConn/clients
	}
	auxFactor := in.AuxFactor

	opCost := readShare*readCost + writeShare*writeCost
	if opCost < 0.2 {
		opCost = 0.2
	}
	// Overload self-regulates: sustained ingest cannot outrun what the
	// compaction pool drains, so throughput divides smoothly by the excess
	// utilization (monotone in offered load — a faster write path is never
	// slower end to end). Triggers shape HOW the excess is absorbed: smooth
	// slowdown delays cost a little (less with a generous delayed-write
	// rate), jagged full stops cost more.
	delayedRel := delayedMBps / (delayedMBps + math.Max(1, ingestMBps))
	overload := 1 + 0.9*math.Max(0, u-1)
	throttle := (1 - pSlow*writeShare*(0.05+0.18*(1-delayedRel))) * (1 - 0.18*pStop*writeShare) / overload
	opsPerSec := base * concAdj * connCap * swapFactor * auxFactor * throttle / opCost
	tps := opsPerSec / w.OpsPerTxn
	if tps < 0.1 {
		tps = 0.1
	}
	p.TPS = tps

	// Stall time charged to the virtual clock: stop stalls dominate, and a
	// deeper stop trigger means a bigger pile to drain once it fires.
	p.StallFrac = (0.22*math.Max(0, pStop-0.02) + 0.03*math.Max(0, pSlow-0.10)*writeShare) * (0.5 + stopEff/72)

	// ---- Latency (closed loop + stall-driven tail) -----------------------
	meanLatMS := clients / tps * 1000
	tail := 2.0 + 7*pStop + 2.2*pSlow*writeShare
	if int(walPolicy) == 1 {
		tail += 0.4 * writeShare * (1 - 0.3*sat(walSyncKB/4096, 1))
	}
	if clients > maxConn {
		tail += 1.5 * (1 - maxConn/clients)
	}
	if memRatio > 0.92 {
		tail += 2.5 * (memRatio - 0.92)
	}
	p.LatencyMS = math.Max(0.5, meanLatMS*tail/2.0)

	// ---- Rates for metric generation ------------------------------------
	ops := tps * w.OpsPerTxn
	p.ReadOps = ops * readShare
	p.WriteOps = ops * writeShare
	blocksPerRead := 1.2 + 10*w.ScanFraction
	p.BlockReqs = p.ReadOps * blocksPerRead * probes
	p.BlockMisses = p.BlockReqs * (1 - hit)
	realIngest := p.WriteOps * entryKB / 1024
	p.FlushMBps = realIngest * cf * (1 + 0.7*forcedFlush)
	p.CompactionMBps = math.Min(realIngest*cf*(wa-1), capacity)
	p.WALWrites = p.WriteOps
	switch int(walPolicy) {
	case 1:
		p.WALFsyncs = tps
	default:
		p.WALFsyncs = 1
	}
	p.Scans = p.ReadOps * w.ScanFraction
	p.StallWaits = clients * writeShare * (0.05*pSlow + 0.5*pStop)
	p.ActiveConns = math.Min(clients, maxConn)
	limit := clients
	if svcThreads > 0 {
		limit = svcThreads
	}
	p.Running = math.Min(math.Min(clients, limit), 4*cores*(0.5+0.5*(1-hit)))
	p.MemtableFill = 0.3 + 0.5*sat(u, 1)
	return p
}
