// Package mat provides the small dense linear-algebra kernels used by
// the neural-network and Gaussian-process packages: row-major float64
// matrices with the handful of operations the rest of the system needs.
//
// # Kernel contract
//
// The GEMM entry points (Mul, MulT, TMul, TMulAdd) are the training and
// inference hot path. Three kernel levels sit under them — portable <
// avx2 < avx512, each able to run everything below it — and produce the
// same bits:
//
//   - The portable Go kernels, the only path off amd64 and on amd64 CPUs
//     without AVX2: k-fused axpy kernels (eight k-terms per pass over a
//     destination row, then four, then one) for Mul/TMul/TMulAdd, and for
//     MulT a four-column inner-product sweep (dot4) with dotUnrolled for
//     the last b.Rows%4 columns.
//   - The AVX2 tile kernels (gemm_amd64.s): a tile is 4 rows × 8 columns
//     of the destination held in YMM registers for the whole k loop. SIMD
//     lanes span output columns j, never k, so each destination element
//     still receives its products one at a time in ascending k, each
//     product rounded before it is added: VMULPD then VADDPD,
//     deliberately not FMA.
//   - The AVX-512 tile kernels: the same tile at 512 bits, 8 rows × 16
//     columns in sixteen of the thirty-two ZMM registers, still VMULPD
//     then VADDPD. They take every full 16-column block of a product;
//     the columns after the last one go to the AVX2 tiles.
//
// Ascending k, product rounded before the add, is the order the portable
// kernels already use. The axpy chain adds ((dst + a₀b₀) + a₁b₁) + …
// left to right for every column it processes in pairs, and dot4 accumulates a·b from +0 in ascending k;
// so Mul, TMul, TMulAdd and MulT are bit-for-bit identical across the
// three levels — ±0, denormals, ±Inf and NaN included (which payload a
// NaN carries when both addends are NaN is pinned by no level). Two
// kinds of column sum in a different order in the portable kernels and
// therefore stay with them on every host: the odd last column of an
// axpy pass (it totals its eight products before adding dst) and MulT's
// b.Rows%4 dotUnrolled columns (four interleaved partial sums). The SIMD
// levels cover columns below n&^3 and hand the rest to the portable
// code. MulT reaches the tile kernels through a transposed copy of one
// tile width of rows of b at a time (8, or 16 at the avx512 level),
// packed into a 16 KiB buffer on the caller's stack; nothing is
// allocated. TestSIMDBitIdenticalToPortable holds every level the host
// has to this over every remainder class, unaligned operands and special
// values, and TestTrainStepSameBitsAtEveryLevel holds a whole DDPG
// update — these kernels and nn's sweep together — to it end to end.
//
// The level is selected once at package init from CPUID and XCR0 (AVX2
// present and YMM state enabled by the OS; for the top level AVX512F and
// the opmask/ZMM state too) and by nothing else — no environment
// variable, build tag or setting. HasAVX2 reports it to internal/nn,
// whose optimizer sweep has an AVX2 kernel of its own, so there is one
// CPUID probe in the module.
//
// FMA would roughly double SIMD throughput again, and is not used: a
// fused multiply-add rounds once where these kernels round twice, so
// every trained weight, every deployed configuration and the benchmark's
// result_digest would change. Trading bits for that speed is a separate
// decision, not a side effect of a kernel. For the same reason the
// contract is stated for the default GOAMD64=v1, which `go test` and
// benchmark/run.sh build with: under GOAMD64=v3 the Go compiler may
// itself fuse the portable kernels' multiply-adds, and the levels then
// differ in the last bit.
//
// A goroutine-parallel row-partitioned variant engages automatically
// when a product exceeds gemmMinParallelFlops of work (a figure that
// follows the kernel level, since the wider the tiles the more flops fit
// in the time a processor takes to wake) and GOMAXPROCS permits. The
// split assigns every destination row to exactly one worker
// running the identical serial kernel, so parallel results are
// bit-for-bit identical to serial ones at any worker count. Against a
// textbook triple loop the kernels differ at most in the columns named
// above, by floating-point summation order (≈1e-12 relative at these
// operand scales; covered by the serial-equivalence tests).
//
// The kernels preserve full IEEE semantics at every level: every product
// a[i][k]·b[k][j] is evaluated, with no sparsity short-circuits, so NaN
// and Inf values propagate through matmuls even when the opposite
// coefficient is zero. The DDPG learner's NaN-batch skip and the
// learner-health Supervisor depend on this guarantee.
//
// # Aliasing and concurrency
//
// GEMM destinations must not alias their operands. Elementwise
// operations (Add, Sub, Hadamard, Scale, ...) may alias freely. Matrix
// values have no internal synchronization: concurrent reads are safe,
// and concurrent GEMM calls are safe when their destinations do not
// overlap (the parallel variant relies on exactly this).
//
// # Buffer reuse
//
// Reuse and ReuseVec recycle backing storage across calls and are the
// pooling primitive behind the nn package's per-layer scratch caches.
// Both return storage with unspecified contents; callers own the
// returned buffer until they next pass it back.
package mat
