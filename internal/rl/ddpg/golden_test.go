package ddpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/rl"
)

// trainStepGolden is the SHA-256 over every tensor of the four networks
// after 40 updates of the shipped architecture at the serving shape (63
// metrics, 266 knobs). It was generated on the pure-Go kernels before
// the AVX2 path existed; the numeric layer's contract is that no kernel,
// scheduling or dead-work change ever moves it. If it moves, every
// deployed configuration and every benchmark result_digest moves too.
const trainStepGolden = "bec5c5d5f887962baaa40b3374af4a9580bea4340370f7aaca9cd21cab9f7f1f"

func TestTrainStepGoldenDigest(t *testing.T) {
	a := New(DefaultConfig(63, 266))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 256; i++ {
		a.Observe(rl.Transition{
			State:     randUnitSlice(rng, 63),
			Action:    randUnitSlice(rng, 266),
			Reward:    rng.NormFloat64(),
			NextState: randUnitSlice(rng, 63),
			Done:      i%17 == 0,
		})
	}
	a.SetBCTarget(randUnitSlice(rng, 266))
	for i := 0; i < 40; i++ {
		if info, ok := a.TrainStepInfo(); !ok || info.SkippedNonFinite {
			t.Fatalf("update %d: ok=%v info=%+v", i, ok, info)
		}
	}
	h := sha256.New()
	var buf [8]byte
	for _, net := range a.networks() {
		for _, p := range net.Params() {
			for _, v := range p.Value.Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != trainStepGolden {
		t.Fatalf("weight digest after 40 updates = %s, want %s", got, trainStepGolden)
	}
}
