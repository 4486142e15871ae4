package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cdbtune/internal/nn"
	"cdbtune/internal/vfs"
)

// DefaultLeaseTTL is the lease lifetime when NewLease is not told
// otherwise. Holders renew well inside it; a lease not renewed within its
// TTL is up for stealing.
const DefaultLeaseTTL = 2 * time.Second

// ErrLeaseLost reports that a renewal found the lease expired or owned by
// someone else: the holder must stop mutating shared state and re-acquire
// (which bumps the epoch) before continuing.
var ErrLeaseLost = errors.New("registry: lease lost")

// corruptEpochJump is added to the best-known epoch when the lease file is
// unreadable at steal time: the corrupt record's epoch cannot be recovered,
// so the replacement leaps far enough ahead that any epoch the damaged
// file plausibly held stays fenced instead of regressing to 1.
const corruptEpochJump = 1 << 20

// LeaseInfo is the on-disk lease record: who holds it, the fencing epoch
// (bumped on every ownership change, including a steal), when it expires,
// and an opaque holder payload (the fleet stores the member's address
// here).
type LeaseInfo struct {
	Owner        string `json:"owner"`
	Epoch        int64  `json:"epoch"`
	ExpiryUnixMs int64  `json:"expiry_unix_ms"`
	Data         string `json:"data,omitempty"`
}

// ExpiredAt reports whether the lease is free game at time t: released
// (blank owner) or past its expiry.
func (li LeaseInfo) ExpiredAt(t time.Time) bool {
	return li.Owner == "" || t.UnixMilli() > li.ExpiryUnixMs
}

// Lease is one process's handle on a file lease. Multiple processes (or
// goroutines) open handles on the same path; at most one holds it at a
// time. Every on-disk transition is fsync'd and atomic: the first acquire
// publishes a finished record with a non-clobbering link, renewals and
// steals replace the file through the atomic-write helper, and steals
// additionally serialize through an exclusive-create steal lock so two
// stealers cannot both win. A crashed
// holder is healed by expiry: once the TTL passes without a renewal, any
// handle may steal the lease, bumping the epoch so the old holder's writes
// are fenceable.
type Lease struct {
	path  string
	owner string
	ttl   time.Duration
	fs    vfs.FS

	// now is the clock; tests and chaos injection override it.
	now func() time.Time

	mu     sync.Mutex
	held   bool
	epoch  int64
	data   string
	steals int
	// seenEpoch is the highest epoch this handle ever observed on disk —
	// the local monotone floor used when a corrupt lease record forces a
	// blind steal.
	seenEpoch int64
}

// NewLease builds a handle on the lease at path for the named owner. A
// ttl <= 0 means DefaultLeaseTTL. Nothing touches the disk until
// TryAcquire.
func NewLease(path, owner string, ttl time.Duration) *Lease {
	return NewLeaseFS(vfs.OS, path, owner, ttl)
}

// NewLeaseFS is NewLease over an explicit filesystem (fault injection,
// crash-consistency exploration).
func NewLeaseFS(fsys vfs.FS, path, owner string, ttl time.Duration) *Lease {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &Lease{path: path, owner: owner, ttl: ttl, fs: fsys, now: time.Now}
}

// SetClock overrides the lease clock (tests, chaos stalls).
func (l *Lease) SetClock(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// SetData attaches an opaque payload written into the lease record on the
// next acquire/renew (the fleet stores the member's serving address).
func (l *Lease) SetData(data string) {
	l.mu.Lock()
	l.data = data
	l.mu.Unlock()
}

// Owner reports the handle's owner name.
func (l *Lease) Owner() string { return l.owner }

// TTL reports the lease lifetime.
func (l *Lease) TTL() time.Duration { return l.ttl }

// Held reports whether this handle believes it holds the lease. The
// belief is only as fresh as the last acquire/renew; an expired holder
// learns the truth on its next Renew.
func (l *Lease) Held() bool {
	l.mu.Lock()
	h := l.held
	l.mu.Unlock()
	return h
}

// Epoch reports the last epoch this handle held (0 before any acquire).
func (l *Lease) Epoch() int64 {
	l.mu.Lock()
	e := l.epoch
	l.mu.Unlock()
	return e
}

// Steals reports how many times this handle took the lease from a
// different (expired) owner — the failover counter.
func (l *Lease) Steals() int {
	l.mu.Lock()
	s := l.steals
	l.mu.Unlock()
	return s
}

// TryAcquire attempts to take the lease: a fresh file is created
// exclusively, an expired or released one is stolen (epoch bump), a live
// one owned by someone else is left alone (false, nil). A handle that
// already holds the lease renews it instead.
func (l *Lease) TryAcquire() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()

	if l.held {
		if err := l.renewLocked(now); err == nil {
			return true, nil
		}
		// Renewal failed (expired or stolen): fall through and compete for
		// the lease like any other handle.
	}

	info, exists, err := l.readLeaseLocked()
	if err != nil {
		// An unreadable lease file is treated as expired: steal it (the
		// steal lock serializes racers) rather than deadlocking the fleet.
		return l.stealLocked(LeaseInfo{Epoch: info.Epoch}, now)
	}
	if !exists {
		ok, err := l.createLocked(now)
		if ok || err != nil {
			return ok, err
		}
		// Lost the create race; re-read and fall through.
		if info, exists, err = l.readLeaseLocked(); err != nil || !exists {
			return false, err
		}
	}
	if !info.ExpiredAt(now) && info.Owner != l.owner {
		return false, nil // live, someone else's
	}
	return l.stealLocked(info, now)
}

// Renew extends a held lease by one TTL. It re-reads the file first: a
// lease that expired or was stolen returns ErrLeaseLost and drops the
// held flag, so a stalled holder cannot fence in after a steal.
func (l *Lease) Renew() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.renewLocked(l.now())
}

func (l *Lease) renewLocked(now time.Time) error {
	if !l.held {
		return ErrLeaseLost
	}
	info, exists, err := l.readLeaseLocked()
	if err != nil {
		return err
	}
	if !exists || info.Owner != l.owner || info.Epoch != l.epoch || info.ExpiredAt(now) {
		// Stolen, released elsewhere, or expired: too late to renew — the
		// next TryAcquire goes through the steal path and bumps the epoch.
		l.held = false
		return ErrLeaseLost
	}
	return l.writeLocked(LeaseInfo{
		Owner: l.owner, Epoch: l.epoch,
		ExpiryUnixMs: now.Add(l.ttl).UnixMilli(), Data: l.data,
	})
}

// Release gives the lease up: the record is tombstoned (blank owner, same
// epoch) rather than removed, so the epoch stays monotone across
// ownership changes. Releasing a lease this handle does not hold is a
// no-op.
func (l *Lease) Release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.held {
		return nil
	}
	l.held = false
	info, exists, err := l.readLeaseLocked()
	if err != nil || !exists || info.Owner != l.owner || info.Epoch != l.epoch {
		return nil // already stolen or gone; nothing to tombstone
	}
	return l.writeLocked(LeaseInfo{Epoch: l.epoch})
}

// createLocked acquires a lease that has never existed. The record is
// written and fsynced under a private temp name first and only then
// published at the lease path with a non-clobbering link, so the path goes
// from absent to a complete record in one step: two racing creators cannot
// both link, and a racer can never read a half-written (empty) record and
// mistake the live lease for a corrupt one to steal.
func (l *Lease) createLocked(now time.Time) (bool, error) {
	info := LeaseInfo{
		Owner: l.owner, Epoch: 1,
		ExpiryUnixMs: now.Add(l.ttl).UnixMilli(), Data: l.data,
	}
	payload, err := json.Marshal(info)
	if err != nil {
		return false, err
	}
	dir := filepath.Dir(l.path)
	f, err := l.fs.CreateTemp(dir, filepath.Base(l.path)+".new-*")
	if err != nil {
		return false, fmt.Errorf("registry: lease create: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(payload)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Link(tmp, l.path)
	}
	// The temp name goes either way; the directory fsync below makes the
	// link and this unlink durable together.
	l.fs.Remove(tmp)
	if os.IsExist(err) {
		return false, nil // lost the create race
	}
	if err != nil {
		return false, fmt.Errorf("registry: lease create: %w", err)
	}
	if err := l.fs.SyncDir(dir); err != nil {
		return false, err
	}
	l.held, l.epoch = true, info.Epoch
	if info.Epoch > l.seenEpoch {
		l.seenEpoch = info.Epoch
	}
	return true, nil
}

// stealLocked takes an expired/released/unreadable lease, serializing
// racing stealers through an exclusive-create steal lock. The epoch is
// bumped past the old record's, fencing the previous holder.
func (l *Lease) stealLocked(old LeaseInfo, now time.Time) (bool, error) {
	lockPath := l.path + ".steal"
	f, err := l.fs.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			// A stealer that crashed mid-steal must not wedge the lease
			// forever; reap its lock (safely — never a live one) and let
			// the next attempt claim the cleared path.
			l.reapStaleStealLock(lockPath, now)
			return false, nil
		}
		return false, fmt.Errorf("registry: lease steal lock: %w", err)
	}
	defer func() {
		// Remove only a lock this handle still owns: a reaper that
		// misjudged it as stale may have cleared the path, and a successor
		// may hold a fresh lock there — deleting that one would reopen the
		// double-steal race. The unlink is made durable (dir fsync): a
		// crash later must not resurrect a finished steal's lock and wedge
		// the next failover until the reap timeout.
		if l.ownsStealLock(f, lockPath) {
			l.fs.Remove(lockPath)
			l.fs.SyncDir(filepath.Dir(lockPath))
		}
		f.Close()
	}()

	// Re-check under the steal lock: a renewal or competing steal may have
	// landed between our read and the lock.
	corrupt := false
	cur, exists, rerr := l.readLeaseLocked()
	switch {
	case rerr != nil:
		corrupt = true
	case exists:
		if !cur.ExpiredAt(now) && cur.Owner != l.owner {
			return false, nil
		}
		old = cur
	}

	// The new epoch must stay monotone even when the current record is
	// unreadable: floor it at the highest epoch this handle ever observed,
	// and leap over anything a corrupt record may have held.
	epoch := old.Epoch
	if l.seenEpoch > epoch {
		epoch = l.seenEpoch
	}
	if corrupt {
		epoch += corruptEpochJump
	}
	info := LeaseInfo{
		Owner: l.owner, Epoch: epoch + 1,
		ExpiryUnixMs: now.Add(l.ttl).UnixMilli(), Data: l.data,
	}

	// Final fencing gate: write the lease only while the lock path still
	// names our inode. If a reaper wrongly renamed our lock away and a
	// competitor claimed the path, exactly one of us passes this check —
	// the one the path names.
	if !l.ownsStealLock(f, lockPath) {
		return false, nil
	}
	if err := l.writeLocked(info); err != nil {
		return false, err
	}
	if old.Owner != "" && old.Owner != l.owner {
		l.steals++
	}
	l.held, l.epoch = true, info.Epoch
	if info.Epoch > l.seenEpoch {
		l.seenEpoch = info.Epoch
	}
	return true, nil
}

// ownsStealLock reports whether lockPath still names the lock file this
// handle created (same inode) — false once a reaper cleared it or a
// successor claimed the path.
func (l *Lease) ownsStealLock(f vfs.File, lockPath string) bool {
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	di, err := l.fs.Stat(lockPath)
	if err != nil {
		return false
	}
	return l.fs.SameFile(fi, di)
}

// reapStaleStealLock clears a steal lock abandoned by a stealer that
// crashed mid-steal, without ever deleting a live competitor's lock out
// from under it (the TOCTOU a blind stat-then-remove has). The stale lock
// is claimed by rename — exactly one reaper wins — and re-verified on the
// renamed inode, which only this owner can touch. If it turns out fresh
// after all (cleared and re-created between our stat and the rename), it
// is restored with a non-clobbering link; whoever's inode ends up at the
// lock path wins its holder's ownsStealLock gate. The reaper itself never
// proceeds to steal: it only clears the path, and a later TryAcquire
// claims it through the normal exclusive create.
func (l *Lease) reapStaleStealLock(lockPath string, now time.Time) {
	st, err := l.fs.Stat(lockPath)
	if err != nil || now.Sub(st.ModTime()) <= l.ttl {
		return
	}
	reaped := lockPath + ".reap-" + l.owner
	if err := l.fs.Rename(lockPath, reaped); err != nil {
		return // another reaper won, or the holder finished and removed it
	}
	if st, err := l.fs.Stat(reaped); err == nil && now.Sub(st.ModTime()) <= l.ttl {
		// Fresh after all: put it back. Link cannot clobber — if an even
		// newer lock already took the path, its holder proceeds and the
		// one we renamed is the loser by the ownsStealLock gate.
		_ = l.fs.Link(reaped, lockPath)
	}
	// Unlink the reaped name durably so a crash cannot resurrect a
	// half-reaped lock file next to the live one.
	l.fs.Remove(reaped)
	l.fs.SyncDir(filepath.Dir(reaped))
}

// readLeaseLocked reads the lease file, recording the highest epoch this
// handle has ever observed. Callers hold l.mu.
func (l *Lease) readLeaseLocked() (LeaseInfo, bool, error) {
	info, exists, err := ReadLeaseFileFS(l.fs, l.path)
	if err == nil && exists && info.Epoch > l.seenEpoch {
		l.seenEpoch = info.Epoch
	}
	return info, exists, err
}

// writeLocked replaces the lease record through the fsync'd atomic-write
// helper: a crash never leaves a torn lease, and the rename is durable
// before the call returns.
func (l *Lease) writeLocked(info LeaseInfo) error {
	payload, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return nn.WriteAtomicFS(l.fs, l.path, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
}

// Read reports the current on-disk lease record without touching it.
// exists is false when no lease file is present.
func (l *Lease) Read() (info LeaseInfo, exists bool, err error) {
	return ReadLeaseFileFS(l.fs, l.path)
}

// ReadLeaseFile parses the lease record at path on the production
// filesystem. A missing file is (zero, false, nil); an unreadable or
// unparsable one is an error.
func ReadLeaseFile(path string) (LeaseInfo, bool, error) {
	return ReadLeaseFileFS(vfs.OS, path)
}

// ReadLeaseFileFS is ReadLeaseFile over an explicit filesystem.
func ReadLeaseFileFS(fsys vfs.FS, path string) (LeaseInfo, bool, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return LeaseInfo{}, false, nil
		}
		return LeaseInfo{}, false, err
	}
	var info LeaseInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return LeaseInfo{}, true, fmt.Errorf("registry: lease %s: %w", filepath.Base(path), err)
	}
	return info, true, nil
}
