// Package vpu models the Movidius Myriad 2 VPU (MA2450) of the Neural
// Compute Stick: the 12-SHAVE vector array, the CMX/LPDDR3 memory
// system, the per-layer execution cost, and the power islands.
//
// The model is a calibrated per-layer roofline (DESIGN.md §2): each
// layer costs max(compute, memory) plus a runtime-scheduler overhead,
// where compute comes from the layer's MAC count over the SHAVE
// array's effective FP16 throughput and memory from the activation and
// weight traffic over the DDR interface. The single calibration target
// is the paper's measured single-inference latency for GoogLeNet
// (100.7 ms including USB transfer, ≈96 ms on-device); everything else
// — multi-device scaling, images/Watt, the Fig. 8b projection — must
// emerge from the model.
//
// Functional execution is orthogonal: the engine can also run the
// network numerically in FP16 (via internal/nn) to produce the actual
// classification outputs the accuracy experiments compare.
package vpu

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config describes the chip and the calibrated model constants.
type Config struct {
	// Architecture (Myriad 2 MA2450, §II-A of the paper).
	NumSHAVEs int     // 12 SHAVE VLIW vector processors
	ClockHz   float64 // 600 MHz nominal
	LanesFP16 int     // 128-bit VAU = 8 FP16 MACs per cycle per SHAVE
	CMXBytes  int     // 2 MB Connection Matrix scratchpad
	DDRBytes  int64   // 4 GB LPDDR3 global memory

	// Calibrated model constants.
	//
	// ComputeEfficiency is the achieved fraction of peak SHAVE MAC
	// throughput on convolution workloads (im2col layout overheads,
	// VLLIW schedule gaps, CMX bank conflicts). Calibrated so a full
	// GoogLeNet inference executes in ≈96 ms on-device, matching the
	// paper's 100.7 ms end-to-end single-stick latency once USB
	// transfer and command overhead are added.
	ComputeEfficiency float64
	// DDRBandwidth is effective LPDDR3 streaming bandwidth for
	// activations and weights (bytes/s).
	DDRBandwidth float64
	// LayerOverhead is the runtime scheduler's fixed cost to launch
	// one layer across the SHAVE array.
	LayerOverhead time.Duration
	// JitterSigma is the lognormal sigma applied per inference,
	// modelling DVFS/arbitration noise; it produces the error bars.
	JitterSigma float64

	// ActivePowerW is the chip's draw with all 12 SHAVE islands
	// running (§V: chip TDP 0.9 W), the denominator of mdk's GFLOPS/W.
	// A stick's energy over a run is its ncs power.Meter's, priced
	// from ncs.Config's power states; the engine prices time only.
	ActivePowerW float64
}

// DefaultConfig returns the calibrated MA2450 model.
func DefaultConfig() Config {
	return Config{
		NumSHAVEs:         12,
		ClockHz:           600e6,
		LanesFP16:         8,
		CMXBytes:          2 << 20,
		DDRBytes:          4 << 30,
		ComputeEfficiency: 0.340,
		DDRBandwidth:      2.5e9,
		LayerOverhead:     22 * time.Microsecond,
		JitterSigma:       0.012,
		ActivePowerW:      0.90,
	}
}

func (c Config) validate() error {
	if c.NumSHAVEs <= 0 || c.ClockHz <= 0 || c.LanesFP16 <= 0 {
		return fmt.Errorf("vpu: invalid architecture in %+v", c)
	}
	if c.ComputeEfficiency <= 0 || c.ComputeEfficiency > 1 {
		return fmt.Errorf("vpu: efficiency %g out of (0,1]", c.ComputeEfficiency)
	}
	if c.DDRBandwidth <= 0 {
		return fmt.Errorf("vpu: non-positive DDR bandwidth")
	}
	if c.LayerOverhead < 0 || c.JitterSigma < 0 {
		return fmt.Errorf("vpu: negative overhead or jitter")
	}
	return nil
}

// PeakMACsPerSecond returns the theoretical FP16 MAC throughput of the
// SHAVE array (57.6 GMAC/s for the default config; the "1000 Gflops"
// marketing figure counts differently).
func (c Config) PeakMACsPerSecond() float64 {
	return float64(c.NumSHAVEs) * float64(c.LanesFP16) * c.ClockHz
}

// LayerCost is the modelled execution cost of one layer.
type LayerCost struct {
	Name    string
	Kind    string
	Compute time.Duration // SHAVE array busy time
	Memory  time.Duration // DDR streaming time
	Total   time.Duration // max(compute, memory) + overhead
	Bound   string        // "compute" or "memory"
}

// Engine is one VPU executing one compiled network. It is driven in
// virtual time by the NCS device model and can optionally compute
// results numerically.
type Engine struct {
	cfg    Config
	graph  *nn.Graph
	layers []LayerCost
	base   time.Duration // sum of layer totals, before jitter
	jitter *rng.Source
}

// NewEngine builds the per-layer cost table for g under cfg. The
// graph's weights should already be FP16 (parsed from a graph file);
// functional execution runs in FP16 mode regardless.
func NewEngine(cfg Config, g *nn.Graph, seed *rng.Source) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("vpu: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("vpu: %w", err)
	}
	e := &Engine{cfg: cfg, graph: g, jitter: seed.Derive("vpu-jitter")}
	peak := cfg.PeakMACsPerSecond() * cfg.ComputeEfficiency
	for _, ls := range g.PerLayerStats() {
		comp := time.Duration(float64(ls.Stats.MACs) / peak * float64(time.Second))
		// FP16 activations in and out, plus weights streamed from DDR.
		bytes := 2 * (ls.Stats.InputElems + ls.Stats.OutputElems + ls.Stats.Params)
		mem := time.Duration(float64(bytes) / cfg.DDRBandwidth * float64(time.Second))
		lc := LayerCost{
			Name:    ls.Name,
			Kind:    ls.Kind,
			Compute: comp,
			Memory:  mem,
		}
		if comp >= mem {
			lc.Total = comp + cfg.LayerOverhead
			lc.Bound = "compute"
		} else {
			lc.Total = mem + cfg.LayerOverhead
			lc.Bound = "memory"
		}
		e.layers = append(e.layers, lc)
		e.base += lc.Total
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graph returns the executed network.
func (e *Engine) Graph() *nn.Graph { return e.graph }

// BaseExecDuration returns the jitter-free single-inference execution
// time on the SHAVE array (no USB, no host).
func (e *Engine) BaseExecDuration() time.Duration { return e.base }

// NextExecDuration returns the execution time for the next inference,
// with the deterministic jitter stream applied. Each call consumes one
// jitter sample.
func (e *Engine) NextExecDuration() time.Duration {
	return time.Duration(float64(e.base) * e.jitter.Jitter(e.cfg.JitterSigma))
}

// LayerProfile returns the per-layer cost table (the mvNCProfile
// report).
func (e *Engine) LayerProfile() []LayerCost {
	return append([]LayerCost(nil), e.layers...)
}

// Infer computes the network output for one preprocessed CHW image in
// FP16, returning the class confidence vector. This is the functional
// half of the device; it does not consume virtual time.
func (e *Engine) Infer(img *tensor.T) (*tensor.T, error) {
	in := img.Reshape(append(tensor.Shape{1}, e.graph.InputShape()...)...)
	out, err := e.graph.Forward(in, nn.FP16)
	if err != nil {
		return nil, err
	}
	return out.Reshape(e.graph.OutputShape()...), nil
}
