package mat_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"cdbtune/internal/mat"
	"cdbtune/internal/rl"
	"cdbtune/internal/rl/ddpg"
)

// TestTrainStepSameBitsAtEveryLevel is the whole numeric layer's contract
// end to end: a full-size DDPG agent (63 metrics, 266 knobs — the shape
// ddpg's TestTrainStepGoldenDigest pins to a recorded digest at the
// host's own level) trained at every SIMD level the host has ends on the
// same bits in every saved tensor as on the portable Go kernels. Lowering
// the level here lowers it for internal/nn's optimizer sweep too, which
// asks this package. The log names the levels that ran, so a gate on a
// host without AVX-512 cannot pass for one with it.
func TestTrainStepSameBitsAtEveryLevel(t *testing.T) {
	digests := map[string]string{}
	var levels []string
	mat.AtEachSIMDLevel(func(level string) {
		a := ddpg.New(ddpg.DefaultConfig(63, 266))
		rng := rand.New(rand.NewSource(11))
		unit := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.Float64()
			}
			return v
		}
		for i := 0; i < 128; i++ {
			a.Observe(rl.Transition{State: unit(63), Action: unit(266), Reward: rng.NormFloat64(), NextState: unit(63), Done: i%17 == 0})
		}
		a.SetBCTarget(unit(266))
		var maxWeight float64
		for i := 0; i < 16; i++ {
			info, ok := a.TrainStepInfo()
			if !ok || info.SkippedNonFinite {
				t.Fatalf("%s: update %d: ok=%v info=%+v", level, i, ok, info)
			}
			maxWeight = info.MaxWeight
		}
		h := sha256.New()
		if err := a.Save(h); err != nil {
			t.Fatal(err)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(maxWeight))
		h.Write(buf[:])
		digests[level] = hex.EncodeToString(h.Sum(nil))
		levels = append(levels, level)
	})
	for _, level := range levels {
		if digests[level] != digests["portable"] {
			t.Errorf("model after 16 updates at level %s: digest %s, portable %s", level, digests[level], digests["portable"])
		}
	}
	t.Logf("SIMD levels exercised on this host: %v", levels)
}
