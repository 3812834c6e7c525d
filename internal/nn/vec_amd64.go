package nn

// The layer kernels below are SSE2 (vec_amd64.s) and give the bits of
// the Go loops in vec_other.go, the kernels on every other GOARCH. None
// does bounds checks: the caller guarantees len(src) >= len(dst),
// usually by passing src[:len(dst)].

// maxInto sets dst[i] = max(dst[i], src[i]) with one MAXPS per four
// lanes and MAXSS for the rest. On maxSafe data it returns the builtin
// max's bits.
//
//go:noescape
func maxInto(dst, src []float32)

// relu sets dst[i] = src[i] if src[i] > 0, else +0. MAXPS returns its
// source operand, here a zeroed register, whenever dest > source is
// false, so NaN, −0 and +0 all give +0, with no branch.
//
//go:noescape
func relu(dst, src []float32)

// maxSafeQuads is maxSafe over the first len(data)&^3 values: per four
// lanes, PAND with 0x7fffffff and PCMPGTL against +Inf find the NaNs,
// PCMPEQL against 0x80000000 finds −0, and one PMOVMSKB of the ORed
// masks gives the answer.
//
//go:noescape
func maxSafeQuads(data []float32) bool
