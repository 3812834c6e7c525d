package gemm

// kernel8 is strip8 in SSE2 (strip_amd64.s): the eight columns of C sit
// in two XMM registers, and each term multiplies a broadcast of
// arow[x] into the eight B values with MULPS, then adds with ADDPS.
// It does no bounds checks: the caller guarantees len(cs) >= 8
// and, unless arow is empty, len(b) >= (len(arow)-1)·n + 8.
//
//go:noescape
func kernel8(cs, arow, b []float32, n int)
