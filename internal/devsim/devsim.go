// Package devsim models the paper's two baseline devices: the dual
// Xeon E5-2609v2 workstation running the Intel-optimized Caffe-MKL
// fork, and the Quadro K4000 running Caffe-cuDNN. Both are batch
// engines: Caffe resizes the input blob to the batch size and runs the
// whole batch through the network at once (§III), which is exactly why
// their scaling curves differ so sharply from the multi-VPU pipeline.
//
// Both run on one Engine (NewCPU, NewGPU); only the calibrated batch
// latency curve differs. Like the VPU model, each curve is analytic:
//
//   - CPU: the conv GEMMs already saturate all 8 cores at batch 1, so
//     batching only amortizes a fixed per-batch framework overhead —
//     reproducing the paper's 26.0 → 22.7 ms/img (a mere 1.1×).
//   - GPU: a Kepler-class part is occupancy-starved at batch 1; its
//     utilization follows a saturation curve u(b) = Umax·b/(b+k),
//     reproducing 25.9 → 13.5 ms/img (1.9×) and 79.9 img/s at 16.
//
// Calibration targets are the paper's measured single-input latencies
// (26.0 ms CPU, 25.9 ms GPU) and the batch-8 points; the batch-16
// points of Fig. 8b must then emerge.
package devsim

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
)

// CPUConfig models the dual-socket Xeon E5-2609v2 workstation.
type CPUConfig struct {
	Sockets        int
	CoresPerSocket int
	ClockHz        float64
	// FlopsPerCycle is per-core single-precision throughput: Ivy
	// Bridge EP issues one 8-wide AVX multiply and one add per cycle.
	FlopsPerCycle float64
	// Efficiency is the fraction of peak MKL sustains on the conv
	// GEMMs (large SGEMM on MKL runs close to peak; calibrated to the
	// paper's 22.2 ms/img asymptote).
	Efficiency float64
	// BatchOverhead is the fixed per-batch framework cost (blob
	// reshape, layer setup, thread fork/join) — the only thing
	// batching amortizes on this device.
	BatchOverhead time.Duration
	JitterSigma   float64
	TDPWatts      float64
}

// DefaultCPUConfig returns the calibrated Xeon model.
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		Sockets:        2,
		CoresPerSocket: 4,
		ClockHz:        2.5e9,
		FlopsPerCycle:  8,
		Efficiency:     0.905,
		BatchOverhead:  3800 * time.Microsecond,
		JitterSigma:    0.015,
		TDPWatts:       80,
	}
}

// PeakFlops returns the workstation's aggregate peak (160 GFLOP/s for
// the default config).
func (c CPUConfig) PeakFlops() float64 {
	return float64(c.Sockets*c.CoresPerSocket) * c.ClockHz * c.FlopsPerCycle
}

func (c CPUConfig) validate() error {
	if c.Sockets <= 0 || c.CoresPerSocket <= 0 || c.ClockHz <= 0 || c.FlopsPerCycle <= 0 {
		return fmt.Errorf("devsim: invalid CPU architecture %+v", c)
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		return fmt.Errorf("devsim: CPU efficiency %g out of (0,1]", c.Efficiency)
	}
	if c.BatchOverhead < 0 || c.JitterSigma < 0 || c.TDPWatts <= 0 {
		return fmt.Errorf("devsim: invalid CPU overheads %+v", c)
	}
	return nil
}

// GPUConfig models the Quadro K4000 (Kepler GK106, 768 CUDA cores).
type GPUConfig struct {
	CudaCores int
	ClockHz   float64
	// UtilizationMax and UtilizationK define the occupancy curve
	// u(b) = UtilizationMax · b / (b + UtilizationK): small batches
	// cannot fill the SMX array, so per-image time shrinks with batch
	// until the curve saturates.
	UtilizationMax float64
	UtilizationK   float64
	// PCIeBandwidth is host-to-device copy throughput for the input
	// blob (the paper accounts for host→device transfer time).
	PCIeBandwidth float64
	JitterSigma   float64
	TDPWatts      float64
}

// DefaultGPUConfig returns the calibrated K4000 model.
func DefaultGPUConfig() GPUConfig {
	return GPUConfig{
		CudaCores:      768,
		ClockHz:        810e6,
		UtilizationMax: 0.2220,
		UtilizationK:   1.219,
		PCIeBandwidth:  6e9,
		JitterSigma:    0.015,
		TDPWatts:       80,
	}
}

// PeakFlops returns the card's peak single-precision throughput
// (1.244 TFLOP/s for the default config).
func (c GPUConfig) PeakFlops() float64 {
	return float64(c.CudaCores) * c.ClockHz * 2 // FMA
}

func (c GPUConfig) validate() error {
	if c.CudaCores <= 0 || c.ClockHz <= 0 {
		return fmt.Errorf("devsim: invalid GPU architecture %+v", c)
	}
	if c.UtilizationMax <= 0 || c.UtilizationMax > 1 || c.UtilizationK <= 0 {
		return fmt.Errorf("devsim: invalid GPU utilization curve %+v", c)
	}
	if c.PCIeBandwidth <= 0 || c.JitterSigma < 0 || c.TDPWatts <= 0 {
		return fmt.Errorf("devsim: invalid GPU overheads %+v", c)
	}
	return nil
}

// Utilization returns the occupancy model's utilization at batch b.
func (c GPUConfig) Utilization(b int) float64 {
	return c.UtilizationMax * float64(b) / (float64(b) + c.UtilizationK)
}

// Workload is the static description a batch engine prices: the
// network's per-image cost.
type Workload struct {
	MACs       int64 // per image
	InputBytes int64 // per image, at the device's input dtype width
}

// WorkloadOf extracts the Workload from a graph (FP32 input pixels:
// both Caffe baselines feed float32 blobs).
func WorkloadOf(g *nn.Graph) Workload {
	total := g.TotalStats()
	return Workload{
		MACs:       total.MACs,
		InputBytes: int64(g.InputShape().Elems()) * 4,
	}
}

// batchDuration is the CPU's jitter-free latency of one batch of b
// images: the fixed framework overhead plus the batch's FLOPs at the
// sustained MKL rate.
func (c CPUConfig) batchDuration(w Workload, b int) time.Duration {
	flops := 2 * float64(w.MACs) * float64(b)
	exec := flops / (c.PeakFlops() * c.Efficiency)
	return c.BatchOverhead + time.Duration(exec*float64(time.Second))
}

// batchDuration is the GPU's jitter-free latency of one batch of b
// images: the host-to-device copy plus execution at the batch's
// utilization.
func (c GPUConfig) batchDuration(w Workload, b int) time.Duration {
	copySec := float64(w.InputBytes) * float64(b) / c.PCIeBandwidth
	flops := 2 * float64(w.MACs) * float64(b)
	execSec := flops / (c.PeakFlops() * c.Utilization(b))
	return time.Duration((copySec + execSec) * float64(time.Second))
}

// curve is a device's calibrated jitter-free batch latency, the one
// thing the two baselines do not share.
type curve interface {
	batchDuration(w Workload, b int) time.Duration
}

// Engine is a Caffe batch engine: Caffe-MKL on the CPU (NewCPU) or
// Caffe-cuDNN on the GPU (NewGPU). It prices batches in virtual time
// and counts nothing; the consuming target (core.BatchTarget) does.
type Engine struct {
	name   string
	curve  curve
	work   Workload
	sigma  float64
	tdp    float64
	jitter *rng.Source

	slow float64 // fault-injected straggler factor (<=1 = none)
	oom  int     // fault-injected pending batch failures
}

// NewCPU builds the Caffe-MKL engine for the workload.
func NewCPU(cfg CPUConfig, w Workload, seed *rng.Source) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newEngine("cpu", cfg, w, cfg.JitterSigma, cfg.TDPWatts, seed)
}

// NewGPU builds the Caffe-cuDNN engine for the workload.
func NewGPU(cfg GPUConfig, w Workload, seed *rng.Source) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newEngine("gpu", cfg, w, cfg.JitterSigma, cfg.TDPWatts, seed)
}

// newEngine builds an engine named name ("cpu", "gpu"); its jitter
// stream is the seed derived under name+"-jitter".
func newEngine(name string, c curve, w Workload, sigma, tdp float64, seed *rng.Source) (*Engine, error) {
	if w.MACs <= 0 {
		return nil, fmt.Errorf("devsim: empty workload")
	}
	return &Engine{name: name, curve: c, work: w, sigma: sigma, tdp: tdp,
		jitter: seed.Derive(name + "-jitter")}, nil
}

// Name reports the device kind: "cpu" or "gpu".
func (e *Engine) Name() string { return e.name }

// TDPWatts reports the configured thermal design power.
func (e *Engine) TDPWatts() float64 { return e.tdp }

// InjectSlowdown stretches every subsequent batch ×factor — the
// straggler fault hook internal/fault drives (a co-scheduled job, a
// thermal event). ClearSlowdown ends the window.
func (e *Engine) InjectSlowdown(factor float64) {
	if factor > 1 {
		e.slow = factor
	}
}

// ClearSlowdown ends a straggler window.
func (e *Engine) ClearSlowdown() { e.slow = 0 }

// InjectBatchFailures makes the next n batch submissions fail with an
// OOM-style allocator error — the batch-engine fault hook
// internal/fault drives (fault.BatchOOM); cudaMalloc failing on a
// fragmented device is the canonical incident. The consuming target
// splits the failed batch and retries (core.BatchTarget).
func (e *Engine) InjectBatchFailures(n int) {
	if n > 0 {
		e.oom += n
	}
}

// TakeBatchFailure consumes one pending injected batch failure,
// reporting whether the next submission should fail. Deterministic:
// failures fire in submission order, exactly as many as injected.
func (e *Engine) TakeBatchFailure() bool {
	if e.oom > 0 {
		e.oom--
		return true
	}
	return false
}

// BaseBatchDuration is the jitter-free latency of one batch of size b.
func (e *Engine) BaseBatchDuration(b int) time.Duration {
	if b <= 0 {
		panic(fmt.Sprintf("devsim: batch size %d", b))
	}
	return e.curve.batchDuration(e.work, b)
}

// NextBatchDuration prices the next batch with jitter (and any
// fault-injected straggler window) applied.
func (e *Engine) NextBatchDuration(b int) time.Duration {
	d := time.Duration(float64(e.BaseBatchDuration(b)) * e.jitter.Jitter(e.sigma))
	if e.slow > 1 {
		d = time.Duration(float64(d) * e.slow)
	}
	return d
}
