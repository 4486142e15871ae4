package core

import (
	"bytes"
	"crypto/sha256"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"cdbtune/internal/knobs"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/workload"
)

// snapshotDigest hashes a snapshot through its encoder, the same read a
// checkpoint makes outside the agent lock.
func snapshotDigest(t *testing.T, s *ddpg.WeightSnapshot) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestHeldSnapshotsNeverChange: the live weights share tensors with the
// adopted registry entry and with every snapshot taken while they were
// unchanged, so an update that wrote before copying them out would
// corrupt a snapshot someone still holds. A warm-started run that heals
// (each heal adopts the supervisor's snapshot) and trains on, checkpointing
// every episode while another goroutine keeps encoding every held
// snapshot, must leave each of them bit for bit as it was taken.
func TestHeldSnapshotsNeverChange(t *testing.T) {
	cat := testCat(t)
	cfg := divergentConfig(t, cat, 25)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := src.Save(&model); err != nil {
		t.Fatal(err)
	}
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := tn.agent.ReadSnapshot(bytes.NewReader(model.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.agent.SetWeights(entry); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	held := map[*ddpg.WeightSnapshot][sha256.Size]byte{entry: snapshotDigest(t, entry)}
	hold := func(s *ddpg.WeightSnapshot) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := held[s]; s != nil && !ok {
			held[s] = snapshotDigest(t, s)
		}
	}
	stop, encoded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(encoded)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			snaps := make([]*ddpg.WeightSnapshot, 0, len(held))
			for s := range held {
				snaps = append(snaps, s)
			}
			mu.Unlock()
			for _, s := range snaps {
				if err := s.Save(new(bytes.Buffer)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 300), TrainOptions{
		Episodes:   12,
		Checkpoint: &Checkpointer{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 1},
		Supervisor: SupervisorConfig{HealBudget: 20, WarmupSteps: 8, SnapshotEvery: 16, LRBackoff: 0.2},
		OnEpisode: func(EpisodeStats) {
			hold(tn.super.snap)
			hold(tn.bestSnapshot)
		},
	})
	close(stop)
	<-encoded
	if err != nil {
		t.Fatal(err)
	}
	if rep.Learner.Heals == 0 {
		t.Fatal("the run must heal at least once to exercise a rollback")
	}
	if len(held) < 3 {
		t.Fatalf("only %d distinct snapshots held", len(held))
	}
	for s, want := range held {
		if snapshotDigest(t, s) != want {
			t.Fatal("a held snapshot changed after it was taken")
		}
	}
}

// TestZeroUpdateWarmSessionAllocates bounds what a warm session that
// trains nothing costs at the serving size (266 knobs, 4.1 MB model):
// building the tuner, loading the entry, two snapshot rounds and the
// best-policy restore. The decoded model is the only model-sized
// allocation left; the random init, gradient buffers, Adam moments and
// snapshot copies are never made.
func TestZeroUpdateWarmSessionAllocates(t *testing.T) {
	cat := knobs.MySQL(knobs.EngineCDB)
	cfg := DefaultConfig(cat)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := src.Save(&model); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Load(bytes.NewReader(model.Bytes())); err != nil {
		t.Fatal(err)
	}
	rep, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 40), TrainOptions{Episodes: 2})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if steps := tn.Agent().TrainSteps(); steps != 0 || rep.Learner.Snapshots == 0 {
		t.Fatalf("want a session with 0 updates and a supervisor snapshot, got %d updates, %d snapshots",
			steps, rep.Learner.Snapshots)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 8<<20 {
		t.Fatalf("zero-update warm session allocated %.1f MB, want ≤ 8 MB", float64(grew)/(1<<20))
	}
}
