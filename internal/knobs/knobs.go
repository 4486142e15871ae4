package knobs

import (
	"fmt"
	"math"
)

// Type describes a knob's value domain.
type Type int

// Knob value domains.
const (
	TypeInt Type = iota
	TypeFloat
	TypeEnum // integer levels 0..Max
	TypeBool // 0 or 1
)

// Role tags the semantic effect a knob has in the performance model.
type Role int

// Semantic roles recognized by the simulator. RoleAux knobs get
// procedurally generated minor effects.
const (
	RoleAux Role = iota
	RoleBufferPool
	RoleLogFileSize
	RoleLogFilesInGroup
	RoleFlushLogAtCommit
	RoleSyncBinlog
	RoleReadIOThreads
	RoleWriteIOThreads
	RolePurgeThreads
	RoleThreadConcurrency
	RoleMaxConnections
	RoleIOCapacity
	RoleBufferPoolInstances
	RoleLogBufferSize
	RoleQueryCacheSize
	RoleQueryCacheType
	RoleAdaptiveHash
	RoleMaxDirtyPct
	RoleDoublewrite
	RoleSortBufferSize
	RoleJoinBufferSize
	RoleTmpTableSize
	RoleThreadCacheSize
	RoleTableOpenCache
	RoleChangeBuffering
	RoleReadAhead
	RoleSpinWaitDelay
	RoleCheckpointTarget

	// LSM-engine roles (EngineLSM). The engine families share roles only
	// where the semantics genuinely coincide (connection caps, admission,
	// log write buffering); everything structurally LSM — memtables,
	// compaction geometry, stall triggers, bloom filters, the block cache —
	// carries its own role so neither cost model can accidentally consume
	// the other family's knobs.
	RoleMemtableSize
	RoleMemtableCount
	RoleMemtableMergeMin
	RoleWALPolicy
	RoleWALBytesPerSync
	RoleWALSizeLimit
	RoleCompactionStyle
	RoleLevelMultiplier
	RoleLevelBase
	RoleL0CompactTrigger
	RoleL0SlowdownTrigger
	RoleL0StopTrigger
	RoleCompactionThreads
	RoleFlushThreads
	RoleSubcompactions
	RoleTargetFileSize
	RoleTargetFileMultiplier
	RoleSoftPendingLimit
	RoleHardPendingLimit
	RoleBloomBits
	RoleBloomWholeKey
	RoleBlockCache
	RoleBlockSize
	RoleCacheIndexFilter
	RolePinL0Filter
	RoleRowCache
	RoleOptimizeFiltersHits
	RoleCompressionType
	RoleCompressionLevel
	RoleBottommostCompression
	RoleMaxOpenFiles
	RoleCompactionReadahead
	RoleRateLimiter
	RoleDelayedWriteRate
	RoleBytesPerSync
	RoleDirectIO
	RoleMmapRead
	RolePipelinedWrite
	RoleConcurrentMemtable
	RoleWriteThreadYield
	RoleNumLevels
	RoleDynamicLevelBytes
	RolePrefixBloom
	RoleUniversalSizeRatio
	RoleUniversalMinMerge
	RoleUniversalMaxSizeAmp
	RolePeriodicCompaction
	RoleIteratorReadahead
)

// Knob is one tunable configuration parameter.
type Knob struct {
	Name    string
	Type    Type
	Role    Role
	Min     float64
	Max     float64
	Default float64

	// LogScale interpolates the normalized value geometrically between Min
	// and Max — appropriate for byte-sized knobs spanning many orders of
	// magnitude.
	LogScale bool

	// MemoryScaled stretches Max in proportion to instance RAM (Max is
	// expressed per GiB of RAM). DiskScaled likewise per GiB of disk.
	MemoryScaled bool
	DiskScaled   bool

	// Restart marks knobs that require a database restart to apply; the
	// simulator charges the §5.1.1 restart time for them.
	Restart bool

	// Desc is a one-line human description shown by the CLI.
	Desc string
}

// Value converts a normalized setting x ∈ [0,1] into the knob's actual
// value for an instance with the given RAM and disk (both in GiB).
func (k *Knob) Value(x, ramGB, diskGB float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	min, max := k.Min, k.Max
	if k.MemoryScaled {
		max *= ramGB
	}
	if k.DiskScaled {
		max *= diskGB
	}
	if max < min {
		max = min
	}
	var v float64
	if k.LogScale && min > 0 {
		v = min * math.Pow(max/min, x)
	} else {
		v = min + x*(max-min)
	}
	switch k.Type {
	case TypeInt, TypeEnum, TypeBool:
		return math.Round(v)
	default:
		return v
	}
}

// Normalize is the inverse of Value: it maps an actual value back into
// [0,1] for the same instance.
func (k *Knob) Normalize(v, ramGB, diskGB float64) float64 {
	min, max := k.Min, k.Max
	if k.MemoryScaled {
		max *= ramGB
	}
	if k.DiskScaled {
		max *= diskGB
	}
	if max <= min {
		return 0
	}
	var x float64
	if k.LogScale && min > 0 {
		x = math.Log(v/min) / math.Log(max/min)
	} else {
		x = (v - min) / (max - min)
	}
	if !(x > 0) { // below the range, or NaN: the log of a non-positive value
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Engine identifies a database engine variant from the paper's evaluation.
type Engine int

// Engines evaluated in the paper.
const (
	EngineCDB Engine = iota // Tencent CDB (MySQL-based), 266 knobs
	EngineLocalMySQL
	EngineMongoDB  // 232 knobs (Appendix C.3)
	EnginePostgres // 169 knobs (Appendix C.3)
	EngineLSM      // LSM-tree storage engine (RocksDB-style), 160 knobs
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineCDB:
		return "cdb-mysql"
	case EngineLocalMySQL:
		return "local-mysql"
	case EngineMongoDB:
		return "mongodb"
	case EnginePostgres:
		return "postgres"
	case EngineLSM:
		return "lsm"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// EngineByName parses an engine name as printed by Engine.String. It is the
// one parser every -engine flag shares, so the accepted spellings cannot
// drift between subcommands.
func EngineByName(name string) (Engine, bool) {
	for _, e := range []Engine{EngineCDB, EngineLocalMySQL, EngineMongoDB, EnginePostgres, EngineLSM} {
		if name == e.String() {
			return e, true
		}
	}
	return 0, false
}

// EngineNames lists the valid -engine flag values, for error messages.
func EngineNames() []string {
	return []string{
		EngineCDB.String(), EngineLocalMySQL.String(), EngineMongoDB.String(),
		EnginePostgres.String(), EngineLSM.String(),
	}
}

// Catalog is an ordered set of tunable knobs for one engine. The order is
// the catalog's canonical order; experiments reorder via Subset.
type Catalog struct {
	Engine Engine
	Knobs  []Knob

	byName map[string]int
}

// NewCatalog builds a catalog, verifying that knob names are unique.
func NewCatalog(engine Engine, ks []Knob) *Catalog {
	c := &Catalog{Engine: engine, Knobs: ks, byName: make(map[string]int, len(ks))}
	for i, k := range ks {
		if _, dup := c.byName[k.Name]; dup {
			panic(fmt.Sprintf("knobs: duplicate knob %q", k.Name))
		}
		c.byName[k.Name] = i
	}
	return c
}

// Len reports the number of knobs.
func (c *Catalog) Len() int { return len(c.Knobs) }

// Index returns the position of the named knob, or -1.
func (c *Catalog) Index(name string) int {
	if i, ok := c.byName[name]; ok {
		return i
	}
	return -1
}

// Defaults returns the normalized default configuration for an instance
// with ramGB RAM and diskGB disk. Hardware matters because memory- and
// disk-scaled knobs normalize against hardware-stretched ranges.
func (c *Catalog) Defaults(ramGB, diskGB float64) []float64 {
	x := make([]float64, len(c.Knobs))
	for i, k := range c.Knobs {
		x[i] = k.Normalize(k.Default, ramGB, diskGB)
	}
	return x
}

// Denormalize converts a normalized vector (len == Len) into actual knob
// values for an instance with ramGB RAM and diskGB disk.
func (c *Catalog) Denormalize(x []float64, ramGB, diskGB float64) []float64 {
	if len(x) != len(c.Knobs) {
		panic(fmt.Sprintf("knobs: Denormalize got %d values for %d knobs", len(x), len(c.Knobs)))
	}
	v := make([]float64, len(x))
	for i := range x {
		v[i] = c.Knobs[i].Value(x[i], ramGB, diskGB)
	}
	return v
}

// Subset returns a new catalog containing the knobs at the given indices,
// in that order. Experiments use it for the Figures 6-8 knob-count sweeps.
func (c *Catalog) Subset(indices []int) *Catalog {
	ks := make([]Knob, len(indices))
	for i, idx := range indices {
		ks[i] = c.Knobs[idx]
	}
	return NewCatalog(c.Engine, ks)
}

// WithoutBlacklist returns a catalog without the named knobs. The paper
// (§5.2) black-lists knobs that must not be tuned; callers pass user- or
// DBA-supplied names.
func (c *Catalog) WithoutBlacklist(names []string) *Catalog {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var ks []Knob
	for _, k := range c.Knobs {
		if !drop[k.Name] {
			ks = append(ks, k)
		}
	}
	return NewCatalog(c.Engine, ks)
}

// RoleIndex returns the catalog position of the first knob with the given
// role, or -1 if the subset does not include it.
func (c *Catalog) RoleIndex(r Role) int {
	for i, k := range c.Knobs {
		if k.Role == r {
			return i
		}
	}
	return -1
}

// TunableKnobCount reports the number of tunable knobs exposed by each CDB
// major version, the data behind Figure 1(c). Versions are 1.0 … 7.0.
func TunableKnobCount(version float64) int {
	counts := map[float64]int{
		1.0: 222, 2.0: 262, 3.0: 291, 4.0: 328, 5.0: 389, 6.0: 462, 7.0: 547,
	}
	if n, ok := counts[version]; ok {
		return n
	}
	return 0
}
