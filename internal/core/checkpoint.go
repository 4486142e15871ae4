package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"cdbtune/internal/nn"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/vfs"
)

// FrameWriter streams a payload to an underlying writer while accumulating
// its CRC32; Finish then appends the 8-byte integrity footer (4 magic bytes
// + the little-endian IEEE CRC32 of everything written) that checkpoints
// and registry entries end with. ReadFramed verifies and strips the footer
// before any decoding happens, so a truncated or bit-flipped file is
// rejected with a clear error instead of a decode failure (or, worse,
// silently plausible garbage).
type FrameWriter struct {
	w   io.Writer
	crc uint32
}

// NewFrameWriter starts a frame on w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

func (f *FrameWriter) Write(p []byte) (int, error) {
	f.crc = crc32.Update(f.crc, crc32.IEEETable, p)
	return f.w.Write(p)
}

// Finish writes the footer; the frame is complete and f is spent.
func (f *FrameWriter) Finish(magic [4]byte) error {
	var footer [8]byte
	copy(footer[:4], magic[:])
	binary.LittleEndian.PutUint32(footer[4:], f.crc)
	_, err := f.w.Write(footer[:])
	return err
}

// WriteFramed writes payload to w as one complete frame.
func WriteFramed(w io.Writer, payload []byte, magic [4]byte) error {
	f := NewFrameWriter(w)
	if _, err := f.Write(payload); err != nil {
		return err
	}
	return f.Finish(magic)
}

// ReadFramed verifies data's integrity footer against magic and returns
// the payload with the footer stripped. The name argument labels errors.
func ReadFramed(data []byte, magic [4]byte, name string) ([]byte, error) {
	if len(data) < 8 || !bytes.Equal(data[len(data)-8:len(data)-4], magic[:]) {
		return nil, fmt.Errorf("%s: missing integrity footer (truncated file, or written by an older version)", name)
	}
	payload := data[:len(data)-8]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%s: payload CRC %08x does not match footer %08x: file is corrupt", name, got, want)
	}
	return payload, nil
}

// Checkpointer periodically persists a training run so a killed process
// resumes instead of starting over: agent weights, the replay memory
// (§2.2.4 — the accumulated try-and-error history), the best-policy
// snapshot, the episode counter and the noise-annealing schedule. Writes
// are atomic (temp file + rename), so a crash mid-checkpoint leaves the
// previous checkpoint intact.
type Checkpointer struct {
	// Path is the checkpoint file.
	Path string
	// Every is the number of completed episodes between checkpoints;
	// values below 1 checkpoint after every episode.
	Every int
	// FS overrides the filesystem the checkpoint is written through (nil
	// means the production passthrough) — the crash-consistency harness's
	// injection seam.
	FS vfs.FS
}

func (c *Checkpointer) fsys() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS
}

// WriteCheckpointPayload wraps payload in the checkpoint CRC frame and
// writes it atomically (and durably) at path through fsys. It is the
// exact disk path Checkpointer.save takes — exported so the
// crash-consistency harness can drive it without assembling a Tuner.
func WriteCheckpointPayload(fsys vfs.FS, path string, payload []byte) error {
	return nn.WriteAtomicFS(fsys, path, func(w io.Writer) error {
		return WriteFramed(w, payload, checkpointMagic)
	})
}

// ReadCheckpointPayload reads and CRC-verifies the checkpoint file at
// path through fsys, returning the payload with the frame stripped. A
// missing file is (nil, false, nil); a damaged one is an error.
func ReadCheckpointPayload(fsys vfs.FS, path string) ([]byte, bool, error) {
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	payload, err := ReadFramed(data, checkpointMagic, "core: checkpoint "+path)
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// checkpointVersion 3: Agent and BestSnapshot hold the nn tensor-list model
// format (version 2 held gob).
const checkpointVersion = 3

// checkpointMagic tags the 8-byte integrity footer every checkpoint ends
// with: 4 magic bytes + the little-endian IEEE CRC32 of the gob payload.
// Load verifies the footer before decoding a single byte, so a truncated
// or bit-flipped file is rejected with a clear error instead of a gob
// decode failure (or, worse, silently plausible garbage).
var checkpointMagic = [4]byte{'c', 'k', 'p', '2'}

// checkpointBlob is the on-disk format.
type checkpointBlob struct {
	Version        int
	Report         TrainReport // accumulated accounting at checkpoint time
	Iterations     int
	NoiseSigma     float64
	BestEval       float64
	BestActionPerf float64
	Agent          []byte
	Memory         []byte
	BestSnapshot   []byte
}

// persistentMemory is satisfied by every replay-pool flavor.
type persistentMemory interface {
	Save(io.Writer) error
	Load(io.Reader) error
}

// save captures the tuner's training state and writes it atomically. The
// trainer calls it between episodes, so rep is a consistent snapshot of
// completed-episode accounting; the agent state is captured under the
// agent lock.
func (c *Checkpointer) save(t *Tuner, rep TrainReport) error {
	blob := checkpointBlob{Version: checkpointVersion, Report: rep}

	t.agentMu.Lock()
	var agentBuf, bestBuf bytes.Buffer
	err := t.agent.Snapshot().Save(&agentBuf) // all four networks: training state
	if err == nil {
		if pm, ok := t.agent.Memory.(persistentMemory); ok {
			var memBuf bytes.Buffer
			if err = pm.Save(&memBuf); err == nil {
				blob.Memory = memBuf.Bytes()
			}
		}
	}
	blob.Agent = agentBuf.Bytes()
	blob.NoiseSigma = t.agent.Noise.Scale()
	blob.BestEval = t.bestEval
	blob.BestActionPerf = t.bestActionPerf
	best := t.bestSnapshot // immutable once taken: encoded outside the lock
	t.agentMu.Unlock()
	if err == nil && best != nil {
		err = best.Save(&bestBuf)
		blob.BestSnapshot = bestBuf.Bytes()
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	blob.Iterations = t.Iterations()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return WriteCheckpointPayload(c.fsys(), c.Path, buf.Bytes())
}

// Load restores a checkpoint into t: agent weights, replay memory, noise
// scale, iteration counter, and the best-policy snapshot. It returns the
// accounting accumulated up to the checkpoint and whether a checkpoint
// was found (a missing file is not an error — the run simply starts
// fresh).
func (c *Checkpointer) Load(t *Tuner) (TrainReport, bool, error) {
	payload, found, err := ReadCheckpointPayload(c.fsys(), c.Path)
	if err != nil || !found {
		return TrainReport{}, false, err
	}
	var blob checkpointBlob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&blob); err != nil {
		return TrainReport{}, false, fmt.Errorf("core: decoding checkpoint %s: %w", c.Path, err)
	}
	if blob.Version != checkpointVersion {
		return TrainReport{}, false, fmt.Errorf("core: checkpoint %s has version %d, want %d", c.Path, blob.Version, checkpointVersion)
	}

	t.agentMu.Lock()
	err = t.agent.Load(bytes.NewReader(blob.Agent))
	if err == nil && len(blob.Memory) > 0 {
		if pm, ok := t.agent.Memory.(persistentMemory); ok {
			err = pm.Load(bytes.NewReader(blob.Memory))
		}
	}
	var best *ddpg.WeightSnapshot
	if err == nil && len(blob.BestSnapshot) > 0 {
		best, err = t.agent.ReadSnapshot(bytes.NewReader(blob.BestSnapshot))
	}
	if err == nil {
		t.agent.Noise.SetScale(blob.NoiseSigma)
		t.bestEval = blob.BestEval
		t.bestActionPerf = blob.BestActionPerf
		t.bestSnapshot = best
	}
	t.agentMu.Unlock()
	if err != nil {
		return TrainReport{}, false, fmt.Errorf("core: restoring checkpoint: %w", err)
	}
	t.mu.Lock()
	t.iterations = blob.Iterations
	t.mu.Unlock()
	return blob.Report, true, nil
}
