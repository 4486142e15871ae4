package nn

// sweepAVX2 (sweep_amd64.s) is sweepScalar over blocks·4 elements, four
// lanes at a time, returning their max |w| (NaN if any is NaN). tp is nil
// without a target; blocks must be at least 1. Whether it may run is
// mat.HasAVX2's answer — the one CPUID probe lives there.
//
//go:noescape
func sweepAVX2(wp, gp, mp, vp, tp *float64, blocks int, c *sweepConsts) float64
