// Package power implements the paper's §V power methodology: thermal
// design power (TDP) figures for each device and the throughput-per-
// Watt metric of Eq. (1),
//
//	Throughput/Watt = (images · second⁻¹) / TDP,
//
// plus an energy meter that integrates simulated busy/idle power over
// virtual time — the "actual power measurement" the paper defers to
// future work, available here because the devices are simulated.
package power

import (
	"fmt"
	"time"
)

// TDP values used throughout the paper's §V analysis.
const (
	// CPUTDPWatts is the Intel Xeon E5-2609v2's rated TDP.
	CPUTDPWatts = 80.0
	// GPUTDPWatts is the NVIDIA Quadro K4000's rated TDP.
	GPUTDPWatts = 80.0
	// VPUChipTDPWatts is the Myriad 2 chip's TDP.
	VPUChipTDPWatts = 0.9
	// NCSStickPeakWatts is the full Neural Compute Stick's estimated
	// peak consumption (RISC cores, DDR, USB interface included); the
	// paper's Fig. 8a uses this per-stick figure.
	NCSStickPeakWatts = 2.5
)

// ImagesPerWatt evaluates Eq. (1). It panics on a non-positive TDP:
// TDP tables are static and a bad entry is a programming error.
func ImagesPerWatt(imagesPerSecond, tdpWatts float64) float64 {
	if tdpWatts <= 0 {
		panic(fmt.Sprintf("power: non-positive TDP %g", tdpWatts))
	}
	if imagesPerSecond < 0 {
		panic(fmt.Sprintf("power: negative throughput %g", imagesPerSecond))
	}
	return imagesPerSecond / tdpWatts
}

// MultiVPUTDP returns the aggregate TDP of n NCS sticks, the
// denominator the paper uses for multi-VPU points in Fig. 8a.
func MultiVPUTDP(n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("power: %d sticks", n))
	}
	return float64(n) * NCSStickPeakWatts
}

// Meter integrates a device's power over virtual time through
// piecewise-constant power states. Models call SetPower at state
// transitions; the meter accumulates joules between transitions.
type Meter struct {
	name   string
	now    time.Duration
	watts  float64
	joules float64
	peak   float64
}

// NewMeter creates a meter starting at t=0 in the given state.
func NewMeter(name string, idleWatts float64) *Meter {
	if idleWatts < 0 {
		panic("power: negative idle power")
	}
	return &Meter{name: name, watts: idleWatts, peak: idleWatts}
}

// SetPower records a state transition at virtual time t to the given
// draw. t must not move backwards.
func (m *Meter) SetPower(t time.Duration, watts float64) {
	if watts < 0 {
		panic("power: negative power")
	}
	m.advance(t)
	m.watts = watts
	if watts > m.peak {
		m.peak = watts
	}
}

func (m *Meter) advance(t time.Duration) {
	if t < m.now {
		panic(fmt.Sprintf("power: meter %q time went backwards (%v < %v)", m.name, t, m.now))
	}
	m.joules += m.watts * (t - m.now).Seconds()
	m.now = t
}

// EnergyJoules returns the integral of power through time t.
func (m *Meter) EnergyJoules(t time.Duration) float64 {
	m.advance(t)
	return m.joules
}

// AveragePowerWatts returns energy/time through time t (0 at t=0).
func (m *Meter) AveragePowerWatts(t time.Duration) float64 {
	j := m.EnergyJoules(t)
	if t <= 0 {
		return 0
	}
	return j / t.Seconds()
}

// PeakWatts returns the highest power state seen.
//
//ncsw:allow unusedexport ncs's TestPowerMeterTracksActivity checks a stick's peak draw with it
func (m *Meter) PeakWatts() float64 { return m.peak }
