package mdk

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gemm"
	"repro/internal/half"
	"repro/internal/rng"
	"repro/internal/vpu"
)

func TestPlanValidation(t *testing.T) {
	cfg := vpu.DefaultConfig()
	if _, err := NewPlan(cfg, 0, 4, 4, 16, 16, FP32); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewPlan(cfg, 4, 4, 4, 0, 16, FP32); err == nil {
		t.Error("tile 0 accepted")
	}
	// A tile that cannot fit CMX (2 MB): 1024x1024 fp32 C tile alone
	// is 4 MB.
	if _, err := NewPlan(cfg, 2048, 2048, 2048, 1024, 1024, FP32); err == nil {
		t.Error("oversized tile accepted")
	}
}

func TestTilesClampToProblem(t *testing.T) {
	cfg := vpu.DefaultConfig()
	p, err := NewPlan(cfg, 8, 8, 8, 256, 256, FP32)
	if err != nil {
		t.Fatal(err)
	}
	if p.TileM != 8 || p.TileN != 8 {
		t.Errorf("tiles not clamped: %dx%d", p.TileM, p.TileN)
	}
}

func TestGoodTilingIsComputeBound(t *testing.T) {
	cfg := vpu.DefaultConfig()
	good, err := NewPlan(cfg, 512, 512, 512, 128, 128, FP16)
	if err != nil {
		t.Fatal(err)
	}
	if good.Bound != "compute" {
		t.Errorf("128x128 tiling is %s-bound; CMX tiling should make GEMM compute-bound", good.Bound)
	}
	bad, err := NewPlan(cfg, 512, 512, 512, 16, 16, FP16)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Bound != "memory" {
		t.Errorf("16x16 tiling is %s-bound; tiny tiles should be memory-bound", bad.Bound)
	}
	if bad.Duration <= good.Duration {
		t.Errorf("tiny tiles (%v) should be slower than good tiles (%v)", bad.Duration, good.Duration)
	}
	if bad.TrafficBytes <= good.TrafficBytes {
		t.Error("tiny tiles should produce more DDR traffic")
	}
}

func TestGflopsInIonicaRange(t *testing.T) {
	// §VI: Ionica & Gregg report GEMM Gflops and Gflops/W on Myriad.
	// The Myriad 2 fp16 peak is 115.2 Gflops; a well-tiled large GEMM
	// at 75% efficiency should land near 86 Gflops and ~96 Gflops/W
	// at the chip's 0.9 W — an order of magnitude beyond the CPU
	// baseline's ~1.8 Gflops/W.
	cfg := vpu.DefaultConfig()
	p, err := BestTiling(cfg, 1024, 1024, 1024, FP16)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Gflops()
	if g < 60 || g > 115 {
		t.Errorf("fp16 GEMM = %.1f Gflops, expected ~86", g)
	}
	gpw := p.GflopsPerWatt()
	if gpw < 60 || gpw > 130 {
		t.Errorf("fp16 GEMM = %.1f Gflops/W, expected ~96", gpw)
	}
	// CPU comparison: 160 Gflops peak at 80 W TDP = 2 Gflops/W. The
	// VPU must be >20x better.
	cpuGpw := 160.0 * 0.905 / 80
	if gpw/cpuGpw < 20 {
		t.Errorf("VPU %.1f Gflops/W only %.1fx the CPU's %.2f", gpw, gpw/cpuGpw, cpuGpw)
	}
}

func TestFP32HalvesThroughput(t *testing.T) {
	cfg := vpu.DefaultConfig()
	p16, err := BestTiling(cfg, 512, 512, 512, FP16)
	if err != nil {
		t.Fatal(err)
	}
	p32, err := BestTiling(cfg, 512, 512, 512, FP32)
	if err != nil {
		t.Fatal(err)
	}
	r := p16.Gflops() / p32.Gflops()
	if r < 1.8 || r > 2.2 {
		t.Errorf("fp16/fp32 ratio = %.2f, want ~2 (VAU lane width)", r)
	}
}

func TestExecuteFunctional(t *testing.T) {
	cfg := vpu.DefaultConfig()
	m, k, n := 16, 24, 12
	p, err := NewPlan(cfg, m, k, n, 16, 16, FP32)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = src.NormFloat32()
	}
	for i := range b {
		b[i] = src.NormFloat32()
	}
	c := make([]float32, m*n)
	if err := p.Execute(c, a, b); err != nil {
		t.Fatal(err)
	}
	// Check one element against a direct dot product.
	var want float64
	for x := 0; x < k; x++ {
		want += float64(a[3*k+x]) * float64(b[x*n+5])
	}
	if math.Abs(float64(c[3*n+5])-want) > 1e-4 {
		t.Errorf("c[3,5] = %g, want %g", c[3*n+5], want)
	}
	if err := p.Execute(c[:1], a, b); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestExecuteFP16Rounds(t *testing.T) {
	cfg := vpu.DefaultConfig()
	m, k, n := 8, 8, 8
	p, err := NewPlan(cfg, m, k, n, 16, 16, FP16)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = 0.1 // not FP16-exact
	}
	for i := range b {
		b[i] = 1
	}
	c := make([]float32, m*n)
	if err := p.Execute(c, a, b); err != nil {
		t.Fatal(err)
	}
	// 8 * round16(0.1): the rounding must show vs exact 0.8.
	exact := float32(0.8)
	if c[0] == exact {
		t.Error("fp16 execute produced the exact fp32 result; rounding missing")
	}
	if math.Abs(float64(c[0]-exact)) > 1e-3 {
		t.Errorf("fp16 result %g too far from %g", c[0], exact)
	}
}

func TestBestTilingPrefersLargerTiles(t *testing.T) {
	cfg := vpu.DefaultConfig()
	p, err := BestTiling(cfg, 1024, 1024, 1024, FP32)
	if err != nil {
		t.Fatal(err)
	}
	if p.TileM < 64 || p.TileN < 64 {
		t.Errorf("best tiling %dx%d suspiciously small", p.TileM, p.TileN)
	}
	if p.Bound != "compute" {
		t.Errorf("best tiling should be compute-bound, got %s", p.Bound)
	}
	// No valid tiling on an impossibly small CMX.
	tiny := cfg
	tiny.CMXBytes = 256
	if _, err := BestTiling(tiny, 1024, 1024, 1024, FP32); err == nil {
		t.Error("256-byte CMX accepted")
	}
}

func TestDTypeString(t *testing.T) {
	if FP32.String() != "fp32" || FP16.String() != "fp16" {
		t.Error("DType.String")
	}
}

func BenchmarkExecute256(b *testing.B) {
	cfg := vpu.DefaultConfig()
	n := 256
	p, err := NewPlan(cfg, n, n, n, 128, 128, FP32)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	for i := range a {
		a[i] = src.NormFloat32()
		bb[i] = src.NormFloat32()
	}
	c := make([]float32, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Execute(c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// Execute computes C = A·B functionally: row-major A (m×k), B (k×n),
// C (m×n). FP16 plans round inputs through binary16 first and the
// result after, mirroring what the chip's half-precision path returns.
// Virtual time is the caller's concern (use Duration).
func (p *Plan) Execute(c, a, b []float32) error {
	if len(a) < p.M*p.K || len(b) < p.K*p.N || len(c) < p.M*p.N {
		return fmt.Errorf("mdk: buffers too small for %dx%dx%d", p.M, p.K, p.N)
	}
	if p.DType == FP16 {
		ar := half.Rounded(a[:p.M*p.K])
		br := half.Rounded(b[:p.K*p.N])
		gemm.Mul(c, ar, br, p.M, p.K, p.N)
		half.RoundSlice(c[:p.M*p.N])
		return nil
	}
	gemm.Mul(c, a, b, p.M, p.K, p.N)
	return nil
}
