// Package gemm implements the single precision matrix multiply that
// backs every convolution (via im2col) and the MDK GEMM study.
//
// The paper's CPU baseline is Caffe linked against Intel MKL; this
// package is the stdlib-only stand-in. It is not competitive with MKL,
// but it uses every core and keeps its accumulators in registers, and
// it is deterministic, which is what the functional experiments
// (Fig. 7) need: the *timing* of each device comes from the calibrated
// models in internal/devsim and internal/vpu, never from wall-clock
// measurements of this kernel.
//
// Mul splits C into tiles of blockM rows by blockN columns and hands
// the tiles to up to GOMAXPROCS goroutines, so a product with few rows
// (every micro-GoogLeNet conv has at most 32 output channels) still
// splits across its columns. Within a tile the micro-kernel holds a
// 1×8 strip of C in registers across a run of k and stores it once,
// instead of loading and storing C for every term.
//
// On amd64 the micro-kernel is SSE2 assembly (strip_amd64.s): the
// strip is two 4-lane XMM registers, and each term broadcasts a[i][x]
// and updates all eight columns with one MULPS and one ADDPS per
// register. SSE2 is the amd64 baseline, so there is no feature check.
// Every other GOARCH runs the same loop in Go (strip8).
//
// Bit-exactness contract: each element of C is the float32 sum of its
// terms a[i][x]·b[x][j] in ascending x, starting from +0, with each
// product and each addition rounded to float32 (no fused multiply-add),
// and with every term whose a[i][x] is zero (+0 or -0) skipped. The
// skip is observable: it keeps an Inf or NaN in B out of the sum. The
// result is therefore independent of the tiling, the strip width and
// the number of goroutines, and matches the plain triple loop bit for
// bit.
//
// When two NaNs meet, the first operand's payload wins: a NaN in A over
// one in B, and a NaN sum over a NaN product. Go leaves the operand
// order of a commutative operation to the compiler, so the Go loops
// (dot, and strip8 through it) check for NaNs to keep these rules.
//
// The SSE2 kernel keeps that contract: a packed MULPS or ADDPS rounds
// each lane exactly as the scalar MULSS or ADDSS does, the kernel
// orders its operands a·b and c+product, and the zero skip tests
// a[i][x] with UCOMISS so that a NaN in A is not skipped. It uses no
// fused multiply-add, which would round each product and sum once
// instead of twice, and no AVX, which would need a CPU feature check.
package gemm

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Tile sizes tuned for typical L1/L2 sizes; correctness does not
// depend on them (tests sweep odd sizes around the boundaries).
const (
	blockM = 64
	blockN = 64
	blockK = 256
	strip  = 8 // columns of C the micro-kernel holds in registers

	// minParallelMACs keeps products too small to repay a goroutine
	// on the calling one.
	minParallelMACs = 1 << 15

	// quietBit is the float32 mantissa bit that marks a NaN quiet: an
	// arithmetic result sets it on the NaN operand it passes on.
	quietBit = 1 << 22
)

// Mul computes C = A·B for row-major matrices: A is m×k, B is k×n and
// C is m×n. C is fully overwritten. It panics when the slice lengths
// do not match the stated dimensions.
func Mul(c, a, b []float32, m, k, n int) {
	if m < 0 || k < 0 || n < 0 {
		panic("gemm: negative dimension")
	}
	if m == 0 || n == 0 {
		return
	}
	if len(c) < m*n {
		panic("gemm: buffer too small for stated dimensions")
	}
	clear(c[:m*n])
	if k == 0 {
		return
	}
	if len(a) < m*k || len(b) < k*n {
		panic("gemm: buffer too small for stated dimensions")
	}
	mul(c, a, b, m, k, n, runtime.GOMAXPROCS(0))
}

// mul adds A·B to C tile by tile on up to workers goroutines, the
// calling one included. Tiles cover disjoint parts of C, so the
// workers need no synchronisation beyond claiming the next tile.
func mul(c, a, b []float32, m, k, n, workers int) {
	cols := (n + blockN - 1) / blockN
	tiles := (m + blockM - 1) / blockM * cols
	tile := func(t int) {
		i0, j0 := t/cols*blockM, t%cols*blockN
		mulTile(c, a, b, i0, min(i0+blockM, m), j0, min(j0+blockN, n), k, n)
	}
	workers = min(workers, tiles)
	if m*k*n < minParallelMACs {
		workers = 1
	}
	var next atomic.Int64
	work := func() {
		for t := int(next.Add(1) - 1); t < tiles; t = int(next.Add(1) - 1) {
			tile(t)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// mulTile adds A·B to rows [i0, i1) and columns [j0, j1) of C, blockK
// terms at a time: full strips go through the micro-kernel and the
// last j1-j0 mod 8 columns through its one-column form.
func mulTile(c, a, b []float32, i0, i1, j0, j1, k, n int) {
	jStrips := j0 + (j1-j0)/strip*strip
	for kk := 0; kk < k; kk += blockK {
		kMax := min(kk+blockK, k)
		bk := b[kk*n:]
		for i := i0; i < i1; i++ {
			arow := a[i*k+kk : i*k+kMax]
			crow := c[i*n : i*n+n]
			for j := j0; j < jStrips; j += strip {
				// kernel8 reads C[j:j+8] and the eight B values of
				// every term unchecked, so check the last of each.
				_ = crow[j+strip-1]
				_ = bk[j+(len(arow)-1)*n+strip-1]
				kernel8(crow[j:], arow, bk[j:], n)
			}
			for j := jStrips; j < j1; j++ {
				crow[j] = dot(crow[j], arow, bk[j:], n)
			}
		}
	}
}

// strip8 adds Σ_x arow[x]·b[x·n : x·n+8] to the eight values of cs,
// holding them in locals across the whole run of arow. It is kernel8
// on every GOARCH but amd64, and the reference kernel8 is tested
// against there.
func strip8(cs, arow, b []float32, n int) {
	cs = cs[:strip]
	c0, c1, c2, c3, c4, c5, c6, c7 := cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6], cs[7]
	off := 0
	for _, av := range arow {
		if av != 0 {
			br := b[off : off+strip : off+strip]
			// The float32 conversions round each product on its own, so
			// no target may fuse it with the add.
			c0 += float32(av * br[0])
			c1 += float32(av * br[1])
			c2 += float32(av * br[2])
			c3 += float32(av * br[3])
			c4 += float32(av * br[4])
			c5 += float32(av * br[5])
			c6 += float32(av * br[6])
			c7 += float32(av * br[7])
		}
		off += n
	}
	// Go leaves the operand order of a commutative operation to the
	// compiler, and the order decides which payload survives when two
	// NaNs meet. A lane that never met a NaN is exact in any order; a
	// NaN lane is summed again by dot, which follows the contract.
	for j, c := range [strip]float32{c0, c1, c2, c3, c4, c5, c6, c7} {
		if c != c {
			c = dot(cs[j], arow, b[j:], n)
		}
		cs[j] = c
	}
}

// dot is strip8 for a single column: it returns acc + Σ_x arow[x]·b[x·n].
// It states the contract's NaN rules outright: a NaN in A is its
// product's payload whatever B holds, and a NaN sum keeps its own.
func dot(acc float32, arow, b []float32, n int) float32 {
	off := 0
	for _, av := range arow {
		if acc != acc {
			break
		}
		if av != av {
			acc = math.Float32frombits(math.Float32bits(av) | quietBit)
		} else if av != 0 {
			acc += float32(av * b[off])
		}
		off += n
	}
	return acc
}

// MatVec computes y = A·x for a row-major m×k matrix. It is the
// degenerate n=1 GEMM used by fully connected layers at batch 1.
func MatVec(y, a, x []float32, m, k int) {
	if len(a) < m*k || len(x) < k || len(y) < m {
		panic("gemm: MatVec buffer too small")
	}
	for i := 0; i < m; i++ {
		row := a[i*k : i*k+k]
		var acc float32
		for j, v := range row {
			acc += v * x[j]
		}
		y[i] = acc
	}
}
