// Package cpufeat reports the x86 vector extensions the numeric kernels of
// internal/ml, internal/sim, internal/planner and internal/fit may use. It probes the CPU
// once, at package initialisation; there is no switch. On other
// architectures every feature is false and the kernels run their portable
// Go loops.
package cpufeat

// AVX and AVX2 report whether the CPU has the extension and the operating
// system saves the YMM registers. They are set once at package
// initialisation and never written again; AVX2 implies AVX.
var AVX, AVX2 = probe()
