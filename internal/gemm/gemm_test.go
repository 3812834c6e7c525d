package gemm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// mulNaive is the reference implementation the blocked kernel is
// checked against.
func mulNaive(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for x := 0; x < k; x++ {
				acc += float64(a[i*k+x]) * float64(b[x*n+j])
			}
			c[i*n+j] = float32(acc)
		}
	}
}

func randMat(src *rng.Source, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = src.NormFloat32()
	}
	return m
}

func maxDiff(a, b []float32) float64 {
	var d float64
	for i := range a {
		v := math.Abs(float64(a[i]) - float64(b[i]))
		if v > d {
			d = v
		}
	}
	return d
}

func TestMulIdentity(t *testing.T) {
	n := 7
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	a := randMat(rng.New(1), n*n)
	c := make([]float32, n*n)
	Mul(c, a, id, n, n, n)
	if maxDiff(c, a) != 0 {
		t.Error("A·I != A")
	}
	Mul(c, id, a, n, n, n)
	if maxDiff(c, a) != 0 {
		t.Error("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	// (1 2; 3 4) · (5 6; 7 8) = (19 22; 43 50)
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Mul(c, a, b, 2, 2, 2)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestMulRectangular(t *testing.T) {
	src := rng.New(2)
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 7}, {65, 67, 63}, {128, 256, 64}, {1, 300, 1},
		{blockM + 1, blockK + 1, blockN + 1}, {2 * blockM, 10, 2 * blockN},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randMat(src, m*k)
			b := randMat(src, k*n)
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			Mul(got, a, b, m, k, n)
			mulNaive(want, a, b, m, k, n)
			// Blocked accumulation reorders sums; allow small tolerance
			// scaled by the reduction length.
			tol := 1e-5 * math.Sqrt(float64(k))
			if d := maxDiff(got, want); d > tol {
				t.Errorf("max diff %g > %g", d, tol)
			}
		})
	}
}

func TestMulOverwritesC(t *testing.T) {
	a := []float32{1, 0, 0, 1}
	c := []float32{99, 99, 99, 99}
	Mul(c, a, a, 2, 2, 2)
	want := []float32{1, 0, 0, 1}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("stale C contents leaked: %v", c)
		}
	}
}

func TestMulZeroDims(t *testing.T) {
	// m==0 and n==0 are no-ops; k==0 zeroes C.
	c := []float32{5, 5}
	Mul(c, nil, nil, 0, 3, 2)
	Mul(c, nil, nil, 1, 3, 0)
	if c[0] != 5 {
		t.Error("m/n==0 should not touch C")
	}
	Mul(c, nil, nil, 1, 0, 2)
	if c[0] != 0 || c[1] != 0 {
		t.Error("k==0 should zero C")
	}
}

func TestMulPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Mul(make([]float32, 1), make([]float32, 1), make([]float32, 1), 2, 2, 2) },
		func() { Mul(nil, nil, nil, -1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	src := rng.New(3)
	m, k, n := 200, 150, 170
	a := randMat(src, m*k)
	b := randMat(src, k*n)

	serial := make([]float32, m*n)
	mul(serial, a, b, m, k, n, 1)
	parallel := make([]float32, m*n)
	mul(parallel, a, b, m, k, n, 8)

	// Every element sums its terms in the same order on any worker, so
	// the bits agree.
	if i := firstBitDiff(serial, parallel); i >= 0 {
		t.Errorf("parallel result differs from serial at %d: %g vs %g", i, parallel[i], serial[i])
	}
}

func TestMatVec(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6} // 2x3
	x := []float32{1, 0, -1}
	y := make([]float32, 2)
	MatVec(y, a, x, 2, 3)
	if y[0] != -2 || y[1] != -2 {
		t.Errorf("y = %v, want [-2 -2]", y)
	}
	defer func() {
		if recover() == nil {
			t.Error("short buffer should panic")
		}
	}()
	MatVec(y[:1], a, x, 2, 3)
}

// Property: Mul agrees with the naive reference on random small shapes.
func TestQuickMulMatchesNaive(t *testing.T) {
	f := func(seed uint64, mr, kr, nr uint8) bool {
		m := int(mr)%12 + 1
		k := int(kr)%12 + 1
		n := int(nr)%12 + 1
		src := rng.New(seed)
		a := randMat(src, m*k)
		b := randMat(src, k*n)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Mul(got, a, b, m, k, n)
		mulNaive(want, a, b, m, k, n)
		return maxDiff(got, want) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Mul is linear in A — (αA)·B == α(A·B).
func TestQuickMulLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		m, k, n := 5, 6, 4
		a := randMat(src, m*k)
		b := randMat(src, k*n)
		c1 := make([]float32, m*n)
		Mul(c1, a, b, m, k, n)
		a2 := make([]float32, len(a))
		for i := range a {
			a2[i] = 2 * a[i]
		}
		c2 := make([]float32, m*n)
		Mul(c2, a2, b, m, k, n)
		for i := range c1 {
			if math.Abs(float64(c2[i]-2*c1[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul256(b *testing.B) {
	src := rng.New(1)
	n := 256
	x := randMat(src, n*n)
	y := randMat(src, n*n)
	c := make([]float32, n*n)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(c, x, y, n, n, n)
	}
}

func BenchmarkMulConvShape(b *testing.B) {
	// The 3x3 conv reduction of GoogLeNet's conv2: 192x(64*9) times
	// (64*9)x(56*56) — the canonical im2col GEMM shape.
	src := rng.New(2)
	m, k, n := 192, 576, 3136
	x := randMat(src, m*k)
	y := randMat(src, k*n)
	c := make([]float32, m*n)
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(c, x, y, m, k, n)
	}
}

// mulRef is the bit-exactness contract written as the plain triple
// loop: float32 terms in ascending k from +0, each product rounded on
// its own, and a zero in A skipping its term. Which payload survives
// when two NaNs meet depends on the compiled operand order, which
// differs between builds (a -race build orders them otherwise), so the
// loop states the contract's rules outright: a NaN in A is its
// product's payload whatever B holds, and a NaN sum keeps its own.
func mulRef(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for x := 0; x < k; x++ {
				switch av := a[i*k+x]; {
				case av == 0 || acc != acc:
				case av != av:
					acc = math.Float32frombits(math.Float32bits(av) | quietBit)
				default:
					acc += float32(av * b[x*n+j])
				}
			}
			c[i*n+j] = acc
		}
	}
}

// firstBitDiff returns the first index where got and want differ in
// their bits, or -1.
func firstBitDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkBitExact runs Mul, the single-goroutine kernel and one tile
// spanning all of C, and requires each to match mulRef bit for bit.
func checkBitExact(t *testing.T, a, b []float32, m, k, n int) {
	t.Helper()
	want := make([]float32, m*n)
	mulRef(want, a, b, m, k, n)
	got := make([]float32, m*n)
	Mul(got, a, b, m, k, n)
	serial := make([]float32, m*n)
	mul(serial, a, b, m, k, n, 1)
	whole := make([]float32, m*n)
	mulTile(whole, a, b, 0, m, 0, n, k, n)
	for _, r := range []struct {
		name string
		c    []float32
	}{{"Mul", got}, {"one worker", serial}, {"one tile", whole}} {
		if i := firstBitDiff(r.c, want); i >= 0 {
			t.Fatalf("%s: C[%d] = %g (%#08x), reference %g (%#08x)", r.name,
				i, r.c[i], math.Float32bits(r.c[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// edges returns sizes one either side of each multiple of step up to
// limit, plus 1.
func edges(step, limit int) []int {
	out := []int{1}
	for v := step; v <= limit; v += step {
		out = append(out, v-1, v, v+1)
	}
	return out
}

func TestMulBitExactAtEdges(t *testing.T) {
	src := rng.New(4)
	// Odd m, k and n on both sides of every strip, tile and k-block
	// boundary; the three lists are walked in lockstep so each size of
	// each dimension is met without the full cross product.
	ms := edges(blockM, 2*blockM)
	ks := edges(blockK, 2*blockK)
	ns := append(edges(strip, 2*strip), edges(blockN, 2*blockN)...)
	for r := 0; r < len(ns); r++ {
		m, k, n := ms[r%len(ms)], ks[r%len(ks)], ns[r]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			checkBitExact(t, randMat(src, m*k), randMat(src, k*n), m, k, n)
		})
	}
}

func TestMulBitExactColumnSplit(t *testing.T) {
	// m ≤ blockM leaves one row block, so only the column split can
	// spread these over workers: check that it does, then the bits.
	src := rng.New(5)
	for _, dims := range [][3]int{{16, 27, 1024}, {8, 100, 256}, {24, 108, 256}, {5, 61, 131}, {blockM, 9, 4*blockN + 3}} {
		m, k, n := dims[0], dims[1], dims[2]
		if tiles := (n + blockN - 1) / blockN; tiles < 2 || m*k*n < minParallelMACs {
			t.Fatalf("%v does not take the parallel column split", dims)
		}
		checkBitExact(t, randMat(src, m*k), randMat(src, k*n), m, k, n)
	}
}

func TestMulBitExactSpecialValues(t *testing.T) {
	src := rng.New(6)
	m, k, n := 37, 70, 2*blockN+strip+3
	a := randMat(src, m*k)
	b := randMat(src, k*n)
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	// Zeros and -0 in A, including whole columns of A that meet Inf and
	// NaN rows of B: there the skip must keep the sum finite.
	for i := 0; i < m; i++ {
		a[i*k+3] = 0
		a[i*k+11] = negZero
		if i%3 == 0 {
			a[i*k+20] = 0
		}
		if i%4 == 1 {
			a[i*k+21] = negZero
		}
	}
	for j := 0; j < n; j++ {
		b[3*n+j] = inf
		b[11*n+j] = nan
	}
	b[20*n+5] = -inf
	b[21*n+7] = nan
	b[40*n+9] = inf // meets nonzero A: Inf or NaN in every row

	// Quiet NaNs with distinct payloads and both signs. In rows 2–4 a
	// NaN in A meets finite B in column 0 and a NaN in B in column 1 and
	// the last column, where the product keeps A's payload (a·b). Rows
	// 2 and 4 then add further NaN products to a NaN sum, which keeps
	// its own payload (c+product).
	for i, bits := range []uint32{0x7fc00011, 0xffc00022, 0x7fc00033} {
		a[(2+i)*k+30] = math.Float32frombits(bits)
	}
	b[30*n+1] = math.Float32frombits(0xffc00044)
	b[30*n+n-1] = math.Float32frombits(0xffc00044) // a tail column, outside every strip
	b[31*n+1] = math.Float32frombits(0x7fc00055)
	b[45*n+2] = math.Float32frombits(0xffc00066)
	a[4*k+45] = math.Float32frombits(0x7fc00077)
	// Subnormals in A and B, alone and as each other's factors.
	for x := 50; x < 54; x++ {
		a[5*k+x] = math.Float32frombits(uint32(x) << 12)
		a[6*k+x] = -math.Float32frombits(1)
		b[x*n+4] = math.Float32frombits(0x007fffff)
	}
	// Accumulators that reach ±Inf early and then meet finite terms,
	// one of them an opposite Inf that turns the sum into NaN.
	a[7*k+1], a[8*k+1] = 1, 1
	b[1*n+6] = inf
	b[1*n+8] = -inf
	a[9*k+2], b[2*n+10] = 1, inf
	a[9*k+60], b[60*n+10] = 1, -inf

	want := make([]float32, m*n)
	mulRef(want, a, b, m, k, n)
	if math.IsNaN(float64(want[0])) || math.IsInf(float64(want[0]), 0) || !math.IsInf(float64(want[9]), 0) {
		t.Fatalf("reference C[0] = %g, C[9] = %g: the special values do not exercise the skip", want[0], want[9])
	}
	for _, c := range []struct {
		i, j int
		bits uint32
	}{
		{3, 0, 0xffc00022}, // NaN in A meets finite B
		{2, 1, 0x7fc00011}, // NaN in A meets NaN in B: A's payload
		{2, n - 1, 0x7fc00011},
		{4, 1, 0x7fc00033}, // the NaN sum meets two NaN products: its own
		{7, 6, 0x7f800000}, // +Inf accumulator stays +Inf
		{8, 8, 0xff800000}, // −Inf accumulator stays −Inf
	} {
		if got := math.Float32bits(want[c.i*n+c.j]); got != c.bits {
			t.Errorf("reference C[%d][%d] = %#08x, want %#08x", c.i, c.j, got, c.bits)
		}
	}
	if v := want[9*n+10]; !math.IsNaN(float64(v)) {
		t.Errorf("reference C[9][10] = %g, want NaN from +Inf meeting -Inf", v)
	}
	checkBitExact(t, a, b, m, k, n)
}

// TestKernel8MatchesStrip8 calls the micro-kernel directly, at every
// run length mulTile can give it and at the empty run it never does,
// with B as a bare 8-wide strip and as a strip of a 1024-wide matrix.
// Its bits must equal strip8's, special values included.
func TestKernel8MatchesStrip8(t *testing.T) {
	src := rng.New(8)
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002),
		math.Float32frombits(0x7f800003), math.Float32frombits(0xff800004), // signalling
		math.Float32frombits(1), math.Float32frombits(0x807fffff), 3e38, -3e38,
	}
	fill := func(v []float32) {
		for i := range v {
			if src.Intn(5) == 0 {
				v[i] = specials[src.Intn(len(specials))]
			} else {
				v[i] = src.NormFloat32()
			}
		}
	}
	for _, terms := range []int{0, 1, 7, 8, blockK - 1, blockK, blockK + 1} {
		for _, n := range []int{strip, 1024} {
			arow := make([]float32, terms)
			b := make([]float32, max(terms*n, strip))
			got, want := make([]float32, strip), make([]float32, strip)
			for rep := range 20 {
				fill(arow)
				fill(b)
				// C starts as mulTile gives it: +0, or the sums of a
				// previous k-block, which arithmetic never leaves
				// signalling.
				fill(want)
				for i, v := range want {
					if v != v {
						want[i] = math.Float32frombits(math.Float32bits(v) | quietBit)
					}
				}
				if rep%2 == 0 {
					clear(want)
				}
				copy(got, want)
				kernel8(got, arow, b, n)
				strip8(want, arow, b, n)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%d terms, stride %d: C[%d] = %#08x, strip8 %#08x",
						terms, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// microShapes are the im2col products of NewMicroGoogLeNet's
// convolutions at its default 32×32 input, as OutC × InC·KH·KW ×
// OH·OW; repeats are listed once.
var microShapes = [][3]int{
	// conv1
	{16, 27, 1024},
	// micro_1
	{8, 16, 256}, {16, 72, 256}, {4, 16, 256}, {8, 100, 256},
	// micro_2
	{16, 40, 256}, {12, 40, 256}, {24, 108, 256}, {4, 40, 256}, {12, 100, 256},
	// micro_3
	{24, 64, 64}, {16, 64, 64}, {32, 144, 64}, {8, 64, 64}, {16, 200, 64},
}

// BenchmarkMulMicroShapes times Mul and its single-goroutine kernel on
// every micro-GoogLeNet conv product. Run with -benchmem.
func BenchmarkMulMicroShapes(b *testing.B) {
	src := rng.New(7)
	for _, dims := range microShapes {
		m, k, n := dims[0], dims[1], dims[2]
		x := randMat(src, m*k)
		y := randMat(src, k*n)
		c := make([]float32, m*n)
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		b.Run(name+"/Mul", func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n * 4))
			for i := 0; i < b.N; i++ {
				Mul(c, x, y, m, k, n)
			}
		})
		b.Run(name+"/serial", func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n * 4))
			for i := 0; i < b.N; i++ {
				clear(c)
				mul(c, x, y, m, k, n, 1)
			}
		})
	}
}
