package simdb

import (
	"hash/fnv"
	"math"

	"cdbtune/internal/knobs"
	"cdbtune/internal/workload"
)

// AuxSurface is the procedurally generated response surface of the minor
// (RoleAux) knobs. Each minor knob i contributes
//
//	amp_i · (1 − 6·(x_i − p_i)²) · mix_i(w)
//
// where x_i is the knob's normalized value, p_i its (hidden) optimum and
// mix_i a workload affinity; selected pairs add interaction terms
// g_ij·4·(x_i−p_i)·(x_j−p_j). The sum feeds an exponential factor, giving
// the smooth, non-convex, interacting high-dimensional landscape of
// Figure 1(d) and the knob-count behaviour of Figures 6-8. Amplitudes
// follow a power law: a few minor knobs matter, most barely do.
//
// The surface is keyed only on knob names and the catalog, so the shell
// builds one per instance and every engine family gets its own landscape.
type AuxSurface struct {
	cat  *knobs.Catalog
	idx  []int // positions of aux knobs in the full catalog
	peak []float64
	amp  []float64
	read []float64 // read-affinity in [0,1]; write affinity is 1−read
	pair []int     // partner index within idx (-1 = none)
	g    []float64 // interaction strength
}

// auxTotalAmplitude is the target sum of amplitudes. With peaks displaced
// up to ±0.4 from the defaults and the steep quadratic above, a tuner that
// masters every minor knob gains roughly +20-25 % over one that leaves
// them at defaults (the Figure 8 headroom), while uninformed settings —
// midpoint guesses and uniform random samples — land 25-35 % *below* the
// defaults. That asymmetry is what defeats sampling-based search in 266
// dimensions (Figures 6, 7, 9).
const auxTotalAmplitude = 0.6

// NewAuxSurface derives the minor-knob surface for a catalog.
func NewAuxSurface(cat *knobs.Catalog) *AuxSurface {
	s := &AuxSurface{cat: cat}
	for i, k := range cat.Knobs {
		if k.Role == knobs.RoleAux {
			s.idx = append(s.idx, i)
		}
	}
	n := len(s.idx)
	s.peak = make([]float64, n)
	s.amp = make([]float64, n)
	s.read = make([]float64, n)
	s.pair = make([]int, n)
	s.g = make([]float64, n)

	var ampSum float64
	for j, full := range s.idx {
		k := cat.Knobs[full]
		u1, u2, u3, u4 := hash01(k.Name, 1), hash01(k.Name, 2), hash01(k.Name, 3), hash01(k.Name, 4)
		// Peaks are anchored to the default but displaced: defaults are
		// sane, not optimal.
		xd := k.Normalize(k.Default, 1, 1)
		s.peak[j] = clamp01(xd + (u1-0.5)*0.8)
		// Power-law amplitude (u^4): a couple dozen minor knobs carry most
		// of the headroom, the rest are near-noise — matching the paper's
		// observation that knob importance is highly skewed (§5.2).
		s.amp[j] = math.Pow(u2, 4)
		ampSum += s.amp[j]
		s.read[j] = u3
		s.pair[j] = -1
		if u4 < 0.4 && n > 1 { // ~40 % of minor knobs interact with a partner
			s.pair[j] = (j + 7) % n
			s.g[j] = (hash01(k.Name, 5) - 0.5) * 2
		}
	}
	var gSum float64
	for j := range s.g {
		gSum += math.Abs(s.g[j])
	}
	for j := range s.amp {
		s.amp[j] *= auxTotalAmplitude / ampSum
		if gSum > 0 {
			s.g[j] *= 0.25 * auxTotalAmplitude / gSum
		}
	}
	return s
}

// Factor evaluates the minor-knob surface for the given actual knob values
// (aligned with the surface's catalog) under workload w on hardware hw,
// returning a multiplicative throughput factor.
func (s *AuxSurface) Factor(values []float64, hw Hardware, w workload.Workload) float64 {
	readShare := w.ReadFraction
	var sum float64
	dev := make([]float64, len(s.idx))
	for j, full := range s.idx {
		k := s.cat.Knobs[full]
		x := k.Normalize(values[full], hw.RAMGB, hw.DiskGB)
		dev[j] = x - s.peak[j]
	}
	for j := range s.idx {
		mix := s.read[j]*readShare + (1-s.read[j])*(1-readShare)
		sum += s.amp[j] * (1 - 6*dev[j]*dev[j]) * (0.5 + mix)
		if p := s.pair[j]; p >= 0 {
			sum += s.g[j] * 6 * dev[j] * dev[p]
		}
	}
	if sum > 0.8 {
		sum = 0.8
	}
	if sum < -1.2 {
		sum = -1.2
	}
	return math.Exp(sum)
}

// hash01 maps (name, salt) deterministically into [0,1).
func hash01(name string, salt byte) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{salt})
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
