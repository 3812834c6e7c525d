package devsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
)

func googWorkload(t testing.TB) Workload {
	t.Helper()
	return WorkloadOf(nn.NewGoogLeNet(rng.New(1)))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestPeakFlops(t *testing.T) {
	if got := DefaultCPUConfig().PeakFlops(); math.Abs(got-160e9) > 1 {
		t.Errorf("CPU peak = %g, want 160e9", got)
	}
	if got := DefaultGPUConfig().PeakFlops(); math.Abs(got-1.24416e12) > 1 {
		t.Errorf("GPU peak = %g, want 1.24416e12", got)
	}
}

// models builds each baseline's engine with its default config.
var models = []struct {
	name string
	new  func(w Workload, seed *rng.Source) (*Engine, error)
}{
	{"cpu", func(w Workload, seed *rng.Source) (*Engine, error) { return NewCPU(DefaultCPUConfig(), w, seed) }},
	{"gpu", func(w Workload, seed *rng.Source) (*Engine, error) { return NewGPU(DefaultGPUConfig(), w, seed) }},
}

// calibration is one device's measured points from the paper: the
// batch-1 latency, the batch-8 per-image latency, the scaling between
// them and the batch-16 throughput of Fig. 8b.
type calibration struct {
	b1, b1Tol       float64 // ms
	b8, b8Tol       float64 // ms/img
	scaleLo, scaleH float64
	ips16, ips16Tol float64 // img/s
}

func checkCalibration(t *testing.T, e *Engine, want calibration) {
	t.Helper()
	b1 := msOf(e.BaseBatchDuration(1))
	if math.Abs(b1-want.b1) > want.b1Tol {
		t.Errorf("%s batch-1 latency = %.2f ms, want ~%.1f", e.Name(), b1, want.b1)
	}
	b8 := msOf(e.BaseBatchDuration(8)) / 8
	if math.Abs(b8-want.b8) > want.b8Tol {
		t.Errorf("%s batch-8 per-image = %.2f ms, want ~%.1f", e.Name(), b8, want.b8)
	}
	if scaling := b1 / b8; scaling < want.scaleLo || scaling > want.scaleH {
		t.Errorf("%s scaling at 8 = %.2fx, want in [%.2f, %.2f]", e.Name(), scaling, want.scaleLo, want.scaleH)
	}
	if ips := 16 / e.BaseBatchDuration(16).Seconds(); math.Abs(ips-want.ips16) > want.ips16Tol {
		t.Errorf("%s batch-16 throughput = %.1f img/s, paper reports %.1f", e.Name(), ips, want.ips16)
	}
}

// TestCPUCalibration anchors the CPU model to the paper's measured
// points: 26.0 ms at batch 1, 22.7 ms/img at batch 8 (the paper's
// 1.1x) and 44.5 img/s at batch 16.
func TestCPUCalibration(t *testing.T) {
	cpu, err := NewCPU(DefaultCPUConfig(), googWorkload(t), rng.New(0))
	if err != nil {
		t.Fatal(err)
	}
	checkCalibration(t, cpu, calibration{26.0, 0.8, 22.7, 0.7, 1.08, 1.22, 44.5, 1.5})
}

// TestGPUCalibration anchors the GPU model: 25.9 ms at batch 1,
// 13.5 ms/img at batch 8 (1.9x), 79.9 img/s at 16.
func TestGPUCalibration(t *testing.T) {
	gpu, err := NewGPU(DefaultGPUConfig(), googWorkload(t), rng.New(0))
	if err != nil {
		t.Fatal(err)
	}
	checkCalibration(t, gpu, calibration{25.9, 0.8, 13.5, 0.5, 1.82, 2.02, 79.9, 2.5})
}

func TestGPUUtilizationCurveMonotone(t *testing.T) {
	cfg := DefaultGPUConfig()
	prev := 0.0
	for b := 1; b <= 64; b *= 2 {
		u := cfg.Utilization(b)
		if u <= prev {
			t.Errorf("utilization not increasing at batch %d: %g <= %g", b, u, prev)
		}
		if u > cfg.UtilizationMax {
			t.Errorf("utilization %g exceeds max", u)
		}
		prev = u
	}
}

func TestPerImageLatencyMonotoneInBatch(t *testing.T) {
	w := googWorkload(t)
	for _, m := range models {
		e, err := m.new(w, rng.New(0))
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b < 32; b++ {
			p1 := e.BaseBatchDuration(b).Seconds() / float64(b)
			p2 := e.BaseBatchDuration(b+1).Seconds() / float64(b+1)
			if p2 > p1+1e-12 {
				t.Errorf("%s per-image latency increased from batch %d to %d", m.name, b, b+1)
			}
		}
	}
}

// TestJitterDeterminism: two engines from the same seed price the
// same batch stream, and each reports its kind and TDP.
func TestJitterDeterminism(t *testing.T) {
	w := googWorkload(t)
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			a, _ := m.new(w, rng.New(7))
			b, _ := m.new(w, rng.New(7))
			for i := 0; i < 50; i++ {
				if da, db := a.NextBatchDuration(8), b.NextBatchDuration(8); da != db {
					t.Fatalf("jitter stream diverged at %d: %v vs %v", i, da, db)
				}
			}
			if a.Name() != m.name || a.TDPWatts() != 80 {
				t.Errorf("name %q, TDP %g; want %q, 80", a.Name(), a.TDPWatts(), m.name)
			}
		})
	}
}

// TestPricedBatchStreams pins the priced batch stream of each model at
// seed 7: six batches of GoogLeNet, the middle two under a x3
// slowdown window. The figures were recorded from the CPU and GPU
// engines before they became one Engine; any change to a latency
// curve, its float operation order or the jitter seeding moves them.
func TestPricedBatchStreams(t *testing.T) {
	batches := [3]int{1, 8, 32}
	want := map[string][3][6]time.Duration{
		"cpu": {
			{25874863, 26083358, 76981713, 78154599, 25876965, 25596134},
			{180508058, 181962559, 537039351, 545221623, 180522719, 178563587},
			{710679011, 716405533, 2114379822, 2146594281, 710736735, 703023428},
		},
		"gpu": {
			{25299587, 25536115, 80592381, 79063983, 26357511, 25632955},
			{105485901, 106472100, 336027618, 329655000, 109896883, 106875868},
			{380410405, 383966901, 1211805564, 1188824202, 396317587, 385422997},
		},
	}
	w := googWorkload(t)
	for _, m := range models {
		for j, b := range batches {
			e, err := m.new(w, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			for k, d := range want[m.name][j] {
				switch k {
				case 2:
					e.InjectSlowdown(3)
				case 4:
					e.ClearSlowdown()
				}
				if got := e.NextBatchDuration(b); got != d {
					t.Errorf("%s batch %d: batch %d priced %d ns, want %d", m.name, b, k, got, d)
				}
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	w := googWorkload(t)
	badCPU := DefaultCPUConfig()
	badCPU.Efficiency = 0
	if _, err := NewCPU(badCPU, w, rng.New(0)); err == nil {
		t.Error("zero efficiency accepted")
	}
	badCPU = DefaultCPUConfig()
	badCPU.Sockets = 0
	if _, err := NewCPU(badCPU, w, rng.New(0)); err == nil {
		t.Error("zero sockets accepted")
	}
	if _, err := NewCPU(DefaultCPUConfig(), Workload{}, rng.New(0)); err == nil {
		t.Error("empty workload accepted")
	}
	badGPU := DefaultGPUConfig()
	badGPU.UtilizationK = 0
	if _, err := NewGPU(badGPU, w, rng.New(0)); err == nil {
		t.Error("zero K accepted")
	}
	badGPU = DefaultGPUConfig()
	badGPU.PCIeBandwidth = 0
	if _, err := NewGPU(badGPU, w, rng.New(0)); err == nil {
		t.Error("zero PCIe accepted")
	}
	if _, err := NewGPU(DefaultGPUConfig(), Workload{}, rng.New(0)); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestBatchSizePanics(t *testing.T) {
	w := googWorkload(t)
	for _, m := range models {
		e, _ := m.new(w, rng.New(0))
		for _, b := range []int{0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: batch %d did not panic", m.name, b)
					}
				}()
				e.BaseBatchDuration(b)
			}()
		}
	}
}

func TestWorkloadOf(t *testing.T) {
	w := googWorkload(t)
	if w.MACs < 1_500_000_000 || w.MACs > 1_700_000_000 {
		t.Errorf("MACs = %d", w.MACs)
	}
	if w.InputBytes != 3*224*224*4 {
		t.Errorf("InputBytes = %d", w.InputBytes)
	}
}

// TestCrossDeviceShape verifies the paper's §V headline: a single VPU
// inference (~100 ms) is roughly 4x slower than CPU/GPU single-input
// latency (~26 ms). The VPU side is asserted in internal/vpu; here we
// pin the CPU/GPU side of the ratio.
func TestSingleInputLatenciesNearEqual(t *testing.T) {
	w := googWorkload(t)
	cpu, _ := NewCPU(DefaultCPUConfig(), w, rng.New(0))
	gpu, _ := NewGPU(DefaultGPUConfig(), w, rng.New(0))
	c := cpu.BaseBatchDuration(1).Seconds()
	g := gpu.BaseBatchDuration(1).Seconds()
	if math.Abs(c-g)/c > 0.05 {
		t.Errorf("CPU (%.1f ms) and GPU (%.1f ms) single-input latencies should nearly match (paper: 26.0 vs 25.9)",
			c*1e3, g*1e3)
	}
}

// TestInjectSlowdownStretchesBatches: the straggler hook stretches
// subsequent batches on both models; clearing restores the baseline
// (modulo jitter, which the shared seed makes comparable).
func TestInjectSlowdownStretchesBatches(t *testing.T) {
	w := Workload{MACs: 1e9, InputBytes: 1 << 20}
	for _, m := range models {
		e, err := m.new(w, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		base := e.BaseBatchDuration(8)
		e.InjectSlowdown(4)
		if slowed := e.NextBatchDuration(8); slowed < base*3 {
			t.Errorf("%s: slowed batch %v not ~4x the %v base", m.name, slowed, base)
		}
		e.ClearSlowdown()
		if restored := e.NextBatchDuration(8); restored > base*3/2 {
			t.Errorf("%s: batch after clear %v, want near base %v", m.name, restored, base)
		}
	}
}
