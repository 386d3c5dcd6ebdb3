// Package cpu reports the processor features the assembly kernels of
// internal/nn and internal/index need. It holds the tree's one CPUID
// probe.
package cpu

// AVX reports whether AVX instructions may be executed: CPUID says the
// CPU has them and the OS uses XSAVE, and XCR0 says the OS saves the YMM
// registers across context switches. It is decided once, at start-up, and
// is always false off amd64.
var AVX = hasAVX()
