package mat

// AtEachSIMDLevel runs f once per SIMD level the host has, lowest first,
// with the package forced to that level, and restores the detected level
// afterwards. It exists for the external tests of this package (which can
// import the packages built on it); nothing outside `go test` of
// internal/mat can reach it.
func AtEachSIMDLevel(f func(level string)) {
	host := simd
	defer func() { simd = host }()
	for l := simdPortable; l <= host; l++ {
		simd = l
		f(l.String())
	}
}
