// Package lsm is the second simulated engine family: the cost model of an
// LSM-tree storage engine (RocksDB-style). It supplies a simdb.Model and
// nothing else — the instance shell, its noise and its determinism
// contract are simdb's (see that package's doc) — so it sits behind the
// same env.Database surface as the buffer-pool engines.
//
// Where simdb's own model is a B-tree engine — buffer-pool hit ratios,
// redo-log checkpoint cliffs, dirty-page flushing — this one has the
// levers that make LSM trees different to tune:
//
//   - the amplification triangle: bloom bits and block cache buy read-amp
//     down but cost RAM; the level size multiplier buys space-amp down but
//     write-amp up under leveled compaction; tiered compaction inverts the
//     trade (low write-amp, high space-amp, ENOSPC pressure);
//   - compaction-debt dynamics: when ingest × write-amp outruns the
//     compaction thread pool, L0 files pile up, the slowdown trigger
//     throttles writers (inverted-U: too low throttles prematurely, too
//     high lets sorted runs degrade reads) and the stop trigger stalls
//     them — Rates.StallFrac, which the shell banks for env.Staller;
//   - a WAL with its own sync-policy/size/buffering knobs decoupled from
//     any checkpointing.
//
// The model maps onto the same 63 canonical metrics (see model), so
// registry fingerprints, drift detection and warm-start lookup work
// unchanged.
package lsm
