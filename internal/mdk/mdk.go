// Package mdk models the Movidius Development Kit path the paper
// points at for future work (§II-B, §VII): using the Myriad 2 as a
// conventional vector processor for general-purpose computing through
// the MDK's optimized libraries (LAMA, the linear algebra library).
// The concrete workload is the one the related work measures (Ionica &
// Gregg's custom GEMM with CMX tiling, §VI): a blocked matrix multiply
// whose tiles live in the 2 MB CMX scratchpad while panels stream from
// LPDDR3, reported in Gflops and Gflops/W.
//
// As everywhere in this reproduction, the functional computation is
// real (the host executes the GEMM) while the timing comes from the
// calibrated device model: compute time from the SHAVE array's
// effective MAC rate, memory time from the DDR traffic the chosen
// tiling implies. Bad tilings are visibly memory-bound, good ones
// compute-bound — the effect CMX tiling exists to produce.
package mdk

import (
	"fmt"
	"time"

	"repro/internal/vpu"
)

// DType selects the arithmetic width of a GEMM plan.
type DType int

const (
	// FP32 runs single precision (4 lanes per SHAVE VAU).
	FP32 DType = iota
	// FP16 runs half precision (8 lanes, the headline rate).
	FP16
)

// String names the dtype.
func (d DType) String() string {
	if d == FP16 {
		return "fp16"
	}
	return "fp32"
}

func (d DType) bytes() int {
	if d == FP16 {
		return 2
	}
	return 4
}

// gemmEfficiency is the fraction of peak the hand-tiled LAMA kernels
// sustain on large GEMM — dense matrix multiply schedules much better
// on the VLIW pipeline than im2col convolution (cf. the 0.34 the
// inference engine is calibrated at).
const gemmEfficiency = 0.75

// Plan is a validated tiled-GEMM execution plan with its cost
// breakdown on the modelled chip.
type Plan struct {
	M, K, N      int
	TileM, TileN int
	DType        DType
	cfg          vpu.Config

	// Cost breakdown.
	ComputeTime  time.Duration
	MemoryTime   time.Duration
	Duration     time.Duration
	TrafficBytes int64
	Bound        string // "compute" or "memory"
}

// NewPlan validates a tiling for C = A·B (A is m×k, B is k×n) on the
// given chip and prices it. The C tile (tileM×tileN) plus one A panel
// column block and one B panel row block must fit in CMX.
func NewPlan(cfg vpu.Config, m, k, n, tileM, tileN int, dt DType) (*Plan, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("mdk: invalid GEMM dimensions %dx%dx%d", m, k, n)
	}
	if tileM <= 0 || tileN <= 0 {
		return nil, fmt.Errorf("mdk: invalid tile %dx%d", tileM, tileN)
	}
	if tileM > m {
		tileM = m
	}
	if tileN > n {
		tileN = n
	}
	eb := dt.bytes()
	// CMX residency: the C tile accumulates in CMX; A and B stream
	// through double-buffered panel strips of depth panelK.
	const panelK = 64
	kk := min(panelK, k)
	footprint := (tileM*tileN + 2*(tileM*kk+kk*tileN)) * eb
	if footprint > cfg.CMXBytes {
		return nil, fmt.Errorf("mdk: tile %dx%d needs %d bytes of CMX, chip has %d",
			tileM, tileN, footprint, cfg.CMXBytes)
	}

	lanes := cfg.LanesFP16
	if dt == FP32 {
		lanes /= 2 // the 128-bit VAU holds half as many fp32 lanes
	}
	peakMACs := float64(cfg.NumSHAVEs*lanes) * cfg.ClockHz * gemmEfficiency
	macs := float64(m) * float64(k) * float64(n)
	computeSec := macs / peakMACs

	// DDR traffic: every A panel is re-read once per column of C
	// tiles, every B panel once per row of C tiles, plus writing C.
	tilesM := (m + tileM - 1) / tileM
	tilesN := (n + tileN - 1) / tileN
	trafficElems := int64(m)*int64(k)*int64(tilesN) +
		int64(k)*int64(n)*int64(tilesM) +
		int64(m)*int64(n)
	traffic := trafficElems * int64(eb)
	memSec := float64(traffic) / cfg.DDRBandwidth

	p := &Plan{
		M: m, K: k, N: n,
		TileM: tileM, TileN: tileN,
		DType:        dt,
		cfg:          cfg,
		ComputeTime:  time.Duration(computeSec * float64(time.Second)),
		MemoryTime:   time.Duration(memSec * float64(time.Second)),
		TrafficBytes: traffic,
	}
	if p.ComputeTime >= p.MemoryTime {
		p.Duration = p.ComputeTime
		p.Bound = "compute"
	} else {
		p.Duration = p.MemoryTime
		p.Bound = "memory"
	}
	return p, nil
}

// Gflops returns the plan's modelled throughput (2 flops per MAC).
func (p *Plan) Gflops() float64 {
	return 2 * float64(p.M) * float64(p.K) * float64(p.N) / p.Duration.Seconds() / 1e9
}

// GflopsPerWatt divides Gflops by the chip's active power — the metric
// Ionica & Gregg report (estimated through the TDP).
func (p *Plan) GflopsPerWatt() float64 {
	return p.Gflops() / p.cfg.ActivePowerW
}

// BestTiling searches power-of-two tiles for the fastest valid plan.
func BestTiling(cfg vpu.Config, m, k, n int, dt DType) (*Plan, error) {
	var best *Plan
	for tm := 16; tm <= 1024; tm *= 2 {
		for tn := 16; tn <= 1024; tn *= 2 {
			p, err := NewPlan(cfg, m, k, n, tm, tn, dt)
			if err != nil {
				continue
			}
			if best == nil || p.Duration < best.Duration {
				best = p
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mdk: no valid tiling for %dx%dx%d in %d bytes of CMX", m, k, n, cfg.CMXBytes)
	}
	return best, nil
}
