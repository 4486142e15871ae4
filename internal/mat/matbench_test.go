package mat

import "testing"

func BenchmarkMul(b *testing.B) {
	a := New(64, 266)
	x := New(266, 128)
	d := New(64, 128)
	for i := range a.Data {
		a.Data[i] = 1.1
	}
	for i := range x.Data {
		x.Data[i] = 0.9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(d, a, x)
	}
}

func BenchmarkMulT(b *testing.B) {
	a := New(64, 256)
	x := New(256, 256)
	d := New(64, 256)
	for i := range a.Data {
		a.Data[i] = 1.1
	}
	for i := range x.Data {
		x.Data[i] = 0.9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulT(d, a, x)
	}
}

func BenchmarkTMul(b *testing.B) {
	a := New(64, 256)
	x := New(64, 256)
	d := New(256, 256)
	for i := range a.Data {
		a.Data[i] = 1.1
	}
	for i := range x.Data {
		x.Data[i] = 0.9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMul(d, a, x)
	}
}

// BenchmarkGEMMPaths times the three products at the critic-trunk shape
// (batch 64, 256→256) at each kernel level the host has, serially, and
// reports GFLOP/s. cmd/benchjson runs it for the "kernels" block of
// BENCH_hotpath.json: only this package can select the path.
func BenchmarkGEMMPaths(b *testing.B) {
	const m, k, n = 64, 256, 256
	a, w, wt := New(m, k), New(k, n), New(n, k)
	ta, tb := New(m, k), New(m, n)
	for _, x := range []*Matrix{a, w, wt, ta, tb} {
		for i := range x.Data {
			x.Data[i] = 1 + float64(i%7)/8
		}
	}
	dst, tdst := New(m, n), New(k, n)
	ops := []struct {
		name string
		run  func()
	}{
		{"mul", func() { Mul(dst, a, w) }},
		{"mult", func() { MulT(dst, a, wt) }},
		{"tmul", func() { TMul(tdst, ta, tb) }},
	}
	defer func(level simdLevel, flops int) { simd, gemmMinParallelFlops = level, flops }(simd, gemmMinParallelFlops)
	host := simd
	gemmMinParallelFlops = 1 << 62
	for _, op := range ops {
		for level := host; level >= simdPortable; level-- {
			b.Run(op.name+"/"+level.String(), func(b *testing.B) {
				simd = level
				for i := 0; i < b.N; i++ {
					op.run()
				}
				b.ReportMetric(2*m*k*n*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
