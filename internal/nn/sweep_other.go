//go:build !amd64

package nn

// Off amd64 mat.HasAVX2 is false: sweepScalar is the only path and
// sweepAVX2 is never reached.
func sweepAVX2(wp, gp, mp, vp, tp *float64, blocks int, c *sweepConsts) float64 {
	panic("nn: no SIMD sweep kernel on this architecture")
}
