package power

import (
	"math"
	"testing"
	"time"
)

func TestImagesPerWattPaperPoints(t *testing.T) {
	// §V: "the throughput is 3.97 img/W when using one VPU" — one NCS
	// at 9.93 img/s (100.7 ms/inference) over 2.5 W.
	got := ImagesPerWatt(1/0.1007, NCSStickPeakWatts)
	if math.Abs(got-3.97) > 0.02 {
		t.Errorf("single-VPU img/W = %.3f, paper reports 3.97", got)
	}
	// "The CPU features a theoretical throughput of 0.55 img/W in the
	// last case" — 44.0 img/s over 80 W.
	if got := ImagesPerWatt(44.0, CPUTDPWatts); math.Abs(got-0.55) > 0.005 {
		t.Errorf("CPU img/W = %.3f, paper reports 0.55", got)
	}
	// "The GPU shows similar results, with 0.93 img/W" — 74.2 over 80.
	if got := ImagesPerWatt(74.2, GPUTDPWatts); math.Abs(got-0.9275) > 0.001 {
		t.Errorf("GPU img/W = %.3f, paper reports 0.93", got)
	}
}

func TestTDPReductionHeadline(t *testing.T) {
	// Abstract: multi-VPU reduces TDP "up to 8x" vs the 80 W devices.
	// 8 sticks x 2.5 W = 20 W missing the 8x? The paper's 8x compares
	// 80 W against 8 sticks' aggregate *chip* behaviour; with the
	// stick figure the reduction is 4x, with chip TDP it is 11x. The
	// defensible claim pinned here: aggregate stick TDP of the full
	// 8-VPU testbed stays at least 4x below either baseline.
	agg := MultiVPUTDP(8)
	if CPUTDPWatts/agg < 4 {
		t.Errorf("TDP reduction = %.1fx, want >= 4x", CPUTDPWatts/agg)
	}
	// And chip-only TDP (the number the abstract quotes against one
	// device) gives > 8x for a single VPU.
	if CPUTDPWatts/VPUChipTDPWatts < 8 {
		t.Errorf("chip TDP ratio = %.1fx, want > 8x", CPUTDPWatts/VPUChipTDPWatts)
	}
}

func TestImagesPerWattPanics(t *testing.T) {
	for _, f := range []func(){
		func() { ImagesPerWatt(1, 0) },
		func() { ImagesPerWatt(-1, 10) },
		func() { MultiVPUTDP(0) },
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

func TestMeterIntegration(t *testing.T) {
	m := NewMeter("ncs0", 1.0)
	m.SetPower(2*time.Second, 2.5)        // 2 s at 1.0 W = 2 J
	m.SetPower(4*time.Second, 1.0)        // 2 s at 2.5 W = 5 J
	j := m.EnergyJoules(10 * time.Second) // 6 s at 1.0 W = 6 J
	if math.Abs(j-13) > 1e-9 {
		t.Errorf("energy = %g J, want 13", j)
	}
	if p := m.AveragePowerWatts(10 * time.Second); math.Abs(p-1.3) > 1e-9 {
		t.Errorf("avg power = %g W, want 1.3", p)
	}
	if m.PeakWatts() != 2.5 {
		t.Errorf("peak = %g", m.PeakWatts())
	}
	if m.Name() != "ncs0" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestMeterMonotonicTime(t *testing.T) {
	m := NewMeter("x", 1)
	m.SetPower(5*time.Second, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on time reversal")
		}
	}()
	m.SetPower(time.Second, 1)
}

func TestMeterZeroTime(t *testing.T) {
	m := NewMeter("x", 3)
	if m.AveragePowerWatts(0) != 0 {
		t.Error("avg power at t=0 should be 0")
	}
	if m.EnergyJoules(0) != 0 {
		t.Error("energy at t=0 should be 0")
	}
}

func TestMeterValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewMeter("x", -1) },
		func() { NewMeter("x", 1).SetPower(0, -2) },
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

// Name returns the meter's device name.
func (m *Meter) Name() string { return m.name }
