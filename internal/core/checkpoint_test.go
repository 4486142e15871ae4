package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdbtune/internal/workload"
)

// TestCheckpointCRCDetectsCorruption writes a real checkpoint through a
// short training run, then damages it the two ways disk corruption
// presents: a flipped bit mid-payload and a truncated tail. Both must be
// rejected with a descriptive error before any state is restored, and the
// pristine bytes must still load.
func TestCheckpointCRCDetectsCorruption(t *testing.T) {
	cat := testCat(t)
	tn, err := New(testConfig(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	ck := &Checkpointer{Path: path, Every: 1}
	if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 60), TrainOptions{
		Episodes: 2, Checkpoint: ck,
	}); err != nil {
		t.Fatal(err)
	}

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pristine) < 16 {
		t.Fatalf("checkpoint implausibly small: %d bytes", len(pristine))
	}
	if !bytes.Equal(pristine[len(pristine)-8:len(pristine)-4], checkpointMagic[:]) {
		t.Fatal("checkpoint does not end with the integrity footer magic")
	}

	freshTuner := func() *Tuner {
		nt, err := New(testConfig(t, cat))
		if err != nil {
			t.Fatal(err)
		}
		return nt
	}

	// A single flipped bit anywhere in the payload must fail the CRC.
	flipped := append([]byte(nil), pristine...)
	flipped[len(flipped)/3] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Load(freshTuner()); err == nil {
		t.Fatal("bit-flipped checkpoint loaded without error")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("bit-flip error should blame the CRC, got: %v", err)
	}

	// A truncated file (e.g. a partial copy) loses the footer entirely.
	if err := os.WriteFile(path, pristine[:len(pristine)-12], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Load(freshTuner()); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	} else if !strings.Contains(err.Error(), "integrity footer") {
		t.Fatalf("truncation error should mention the footer, got: %v", err)
	}

	// The pristine bytes still restore cleanly.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, found, err := ck.Load(freshTuner())
	if err != nil || !found {
		t.Fatalf("pristine checkpoint must load: found=%v err=%v", found, err)
	}
	if rep.Episodes != 2 {
		t.Fatalf("restored report has %d episodes, want 2", rep.Episodes)
	}
}

// TestRestoreBestKeepsAdamMoments pins what the in-memory best-policy
// snapshot must preserve from the serialized one it replaced: restoreBest
// is Load of the same weights (Adam moments kept, so the next gradient
// update is bit-identical to the one after a Save/Load round trip), the
// supervisor's Restore is not (moments reset, the next update differs), and
// a checkpoint carries the snapshot through the codec unchanged.
func TestRestoreBestKeepsAdamMoments(t *testing.T) {
	cat := testCat(t)
	cfg := testConfig(t, cat)
	cfg.SnapshotEvery = 1
	cfg.DDPG.BatchSize, cfg.DDPG.MinMemory = 8, 8
	trained := func() *Tuner {
		tn, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.OfflineTrainOpts(mkEnvFactory(cat, workload.SysbenchRW(), 70), TrainOptions{Episodes: 3}); err != nil {
			t.Fatal(err)
		}
		if tn.bestSnapshot == nil || tn.agent.TrainSteps() == 0 {
			t.Fatalf("fixture took no snapshot or ran no update (%d steps)", tn.agent.TrainSteps())
		}
		return tn
	}
	// model is the four-network image, the layout the snapshot is encoded
	// in below: Tuner.Save writes the policy alone.
	model := func(tn *Tuner) []byte {
		var buf bytes.Buffer
		if err := tn.agent.Snapshot().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	viaRestoreBest, viaLoad, viaSupervisor := trained(), trained(), trained()
	if !bytes.Equal(model(viaRestoreBest), model(viaLoad)) || !bytes.Equal(model(viaLoad), model(viaSupervisor)) {
		t.Fatal("same-seed serial training runs produced different models")
	}

	var snap bytes.Buffer
	if err := viaLoad.bestSnapshot.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := viaRestoreBest.restoreBest(); err != nil {
		t.Fatal(err)
	}
	if err := viaLoad.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := viaSupervisor.agent.Restore(viaSupervisor.bestSnapshot); err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tuner{viaRestoreBest, viaLoad, viaSupervisor} {
		if !bytes.Equal(model(tn), snap.Bytes()) {
			t.Fatal("restored weights are not the snapshot's")
		}
		for i := 0; i < 2; i++ { // PolicyDelay 2: the second update moves the actor too
			if _, ok := tn.agent.TrainStepInfo(); !ok {
				t.Fatal("train step refused to run")
			}
		}
	}
	if !bytes.Equal(model(viaRestoreBest), model(viaLoad)) {
		t.Fatal("restoreBest changed what the next update does: it must keep the Adam moments, as Load of the same bytes does")
	}
	if bytes.Equal(model(viaSupervisor), model(viaLoad)) {
		t.Fatal("Agent.Restore left the Adam moments in place")
	}

	ck := &Checkpointer{Path: filepath.Join(t.TempDir(), "ckpt"), Every: 1}
	if err := ck.save(viaRestoreBest, TrainReport{Episodes: 3}); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := ck.Load(resumed); err != nil || !found {
		t.Fatalf("checkpoint load: found=%v err=%v", found, err)
	}
	var resumedSnap bytes.Buffer
	if err := resumed.bestSnapshot.Save(&resumedSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedSnap.Bytes(), snap.Bytes()) || !bytes.Equal(model(resumed), model(viaRestoreBest)) {
		t.Fatal("checkpoint round trip changed the agent or its best-policy snapshot")
	}
}
