package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdbtune/internal/registry"
	"cdbtune/internal/vfs"
)

// Membership advertises this process in the fleet's member directory and
// reads the live member set. Each member owns one lease file
// (members/<id>.lease) renewed on a background loop; its Data field
// carries the member's HTTP address, which is how peers learn where to
// forward sessions. A member whose lease expires — crashed, or stalled
// past the TTL — drops out of Alive and becomes failover prey.
type Membership struct {
	dir  string
	id   string
	addr string
	ttl  time.Duration

	lease *registry.Lease
	logf  func(string, ...any)

	// stallUntil (unix nanos) pauses renewals — the chaos hook that
	// simulates a wedged process without killing it.
	stallUntil atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewMembership prepares (but does not start) a member advertisement.
func NewMembership(dir, id, addr string, ttl time.Duration, logf func(string, ...any)) (*Membership, error) {
	if err := vfs.MkdirAllDurable(vfs.OS, dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: member dir: %w", err)
	}
	if ttl <= 0 {
		ttl = registry.DefaultLeaseTTL
	}
	m := &Membership{
		dir:   dir,
		id:    id,
		addr:  addr,
		ttl:   ttl,
		lease: registry.NewLease(filepath.Join(dir, id+".lease"), id, ttl),
		logf:  logf,
		stop:  make(chan struct{}),
	}
	m.lease.SetData(addr)
	return m, nil
}

// Start claims the member lease (stealing a stale one left by a dead
// prior incarnation) and begins renewing it every TTL/3.
func (m *Membership) Start() error {
	ok, err := m.lease.TryAcquire()
	if err != nil {
		return fmt.Errorf("fleet: member lease: %w", err)
	}
	if !ok {
		// A failover holder has our slot for up to one TTL; the renew loop
		// will reclaim it when it lapses.
		m.logf("fleet: %s: member lease busy at start; reclaiming in background", m.id)
	}
	m.wg.Add(1)
	go m.renewLoop()
	return nil
}

// Stop halts renewals and releases the lease so peers see this member
// leave immediately instead of after a TTL.
func (m *Membership) Stop() {
	close(m.stop)
	m.wg.Wait()
	if err := m.lease.Release(); err != nil {
		m.logf("fleet: %s: releasing member lease: %v", m.id, err)
	}
}

// StallFor pauses lease renewals for d — chaos injection: the member
// keeps running but looks dead once the stall outlives the TTL.
func (m *Membership) StallFor(d time.Duration) {
	m.stallUntil.Store(time.Now().Add(d).UnixNano())
}

// Lease exposes the member lease (epoch and steal counters for metrics).
func (m *Membership) Lease() *registry.Lease { return m.lease }

func (m *Membership) renewLoop() {
	defer m.wg.Done()
	tick := time.NewTicker(m.ttl / 3)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		if time.Now().UnixNano() < m.stallUntil.Load() {
			continue
		}
		// TryAcquire renews when held, steals back when a failover holder's
		// grip has lapsed, and reports busy (not an error) in between.
		if _, err := m.lease.TryAcquire(); err != nil {
			m.logf("fleet: %s: renewing member lease: %v", m.id, err)
		}
	}
}

// Alive scans the member directory and returns id → HTTP address for
// every member with a live lease. A lease stolen by a failover peer
// carries no address and is skipped, so a failed-over member stays
// unroutable until it reclaims its own slot.
func Alive(dir string) (map[string]string, error) {
	ents, err := vfs.OS.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("fleet: scanning members: %w", err)
	}
	now := time.Now()
	out := make(map[string]string)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lease") {
			continue
		}
		info, ok, err := registry.ReadLeaseFile(filepath.Join(dir, e.Name()))
		if err != nil || !ok {
			continue // torn or vanished mid-scan: treat as absent
		}
		if info.ExpiredAt(now) || info.Data == "" {
			continue
		}
		out[info.Owner] = info.Data
	}
	return out, nil
}
