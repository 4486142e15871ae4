// Package registry implements the model collection behind the paper's
// serving story (§5, "when a new tuning request arrives"): trained agents
// persisted on disk and keyed by a workload fingerprint, so a new tuning
// request can be matched against previously trained models and fine-tune
// the closest one instead of training from scratch.
//
// Each entry is one file (<id>.model): a length-prefixed metadata header,
// then the serialized agent's bytes exactly as Put received them, then the
// same CRC32 integrity footer checkpoints use (DESIGN.md §11 has the
// layout). Put streams the three parts through a checksumming writer into
// an atomic write (nn.WriteAtomic: temp file, fsync, rename, directory
// fsync); every Get and Nearest re-reads the file, verifies the CRC before
// looking at anything else, and returns the model as a sub-slice of the
// verified bytes. A torn or bit-flipped entry — or one left by an older
// format, which fails the footer check the same way — is detected and
// skipped loudly rather than served. Repeated fine-tunes of the same
// model update the entry in place and bump its version instead of
// duplicating it; when the collection outgrows MaxEntries, the
// least-recently-updated unpinned entry is evicted (Promote pins an entry
// against eviction).
//
// Fingerprints are built from the normalized metric state at the default
// configuration (Fingerprint). The dynamic serving loop also matches on
// fingerprints built from the *live* state mid-drift; those approximate
// the canonical default-config fingerprint — the serving configuration
// skews some metrics — but stay in the same normalized space, and the
// NearestWithin radius bounds how wrong an approximate match can be
// before warm-seeding is skipped.
//
// All methods are safe for concurrent use by multiple serving sessions.
//
// # Multi-process sharing
//
// Shared layers file-lease coordination and a write-ahead change log over
// the same directory so N serve processes share one registry. Mutations
// (Put/Promote/Delete and the evictions they trigger) run under the
// registry write lease — a lease file (registry.lease) holding
// owner/epoch/expiry, first published as a complete fsync'd record by a
// non-clobbering link, renewed by atomic replace, and stolen (epoch bump)
// after one TTL of silence — and
// append a CRC-framed record to registry.wal *before* the entry file is
// written. Readers replay the log (Refresh) before lookups; a record
// whose entry file has not caught up with the recorded post-state
// (version for puts, pin for promotions) is retried on later refreshes,
// so a reader never serves a torn view and a promotion is never lost. A
// torn final log frame — a writer crashed mid-append — is skipped by
// readers until complete, and reclaimed (truncated) by the next
// lease-holding appender so the dead bytes can never poison later
// appends. The Store interface abstracts over *Registry (one process)
// and *Shared (a fleet) for the serving layer.
package registry
