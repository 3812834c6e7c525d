// Package repro is a Go reproduction of "Exploring the Vision
// Processing Unit as Co-processor for Inference" (Rivas-Gomez, Peña,
// Moloney, Laure, Markidis — IPPS 2018): the NCSw inference framework,
// a calibrated discrete-event model of the Movidius Myriad 2 VPU /
// Intel Neural Compute Stick platform it runs on, the GoogLeNet
// workload, CPU and GPU baselines, and the full experiment harness
// that regenerates every figure of the paper's evaluation.
//
// This file is the public facade, so typical programs only import this
// package. It re-exports the types a program needs to write every
// SessionConfig field and read every Report, the Listing-1 NCAPI
// testbed, the scenario API and the experiment harness; the ingress
// and composition pieces a session builds from its config stay
// internal. The building blocks live in internal packages (one per
// subsystem; see DESIGN.md for the inventory).
//
// The primary entry point is the declarative session API: describe
// the dataset and the device groups, and the Session owns the whole
// environment/testbed/compile/collect lifecycle. A heterogeneous run
// — §III's device groups, with a CPU, a GPU and four Neural Compute
// Sticks splitting one validation set — is:
//
//	sess, _ := repro.NewSession(repro.SessionConfig{
//		Images: 400,
//		Groups: []repro.DeviceGroup{
//			{Kind: repro.CPUGroup, Batch: 8},
//			{Kind: repro.GPUGroup, Batch: 8},
//			{Kind: repro.VPUGroup, Devices: 4},
//		},
//		Routing: repro.WeightedByThroughput,
//	})
//	report, _ := sess.Run()
//	fmt.Print(report) // per-group and aggregate throughput, img/W, accuracy
//
// The paper's Listing-1 NCAPI workflow remains available for
// hand-wired sessions:
//
//	env := repro.NewEnv()
//	devices, _ := repro.NewNCSTestbed(env, 1, repro.Seed(1))
//	net := repro.NewMicroGoogLeNet(repro.DefaultMicroConfig(), repro.Seed(42))
//	blob, _ := repro.CompileGraph(net)
//	env.Process("host", func(p *repro.Proc) {
//		dev := devices[0]
//		dev.Open(p)
//		graph, _ := dev.AllocateGraph(p, repro.LoadGraphFile(blob), repro.GraphOptions{Functional: true})
//		graph.LoadTensor(p, img, nil) // returns once queued; host is free
//		res, _ := graph.GetResult(p)  // blocks until the inference lands
//		dev.Close(p)
//		_ = res
//	})
//	env.Run()
//
// Performance numbers come from simulated (virtual) time, so
// experiments are deterministic and machine-independent; functional
// inference is real arithmetic (FP32 or emulated FP16).
package repro

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/ncs"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/usb"
	"repro/internal/vpu"
)

// Simulation kernel.
type (
	// Env is a discrete-event simulation universe.
	Env = sim.Env
	// Proc is a simulated process handle.
	Proc = sim.Proc
)

// NewEnv creates an empty simulation at time zero.
func NewEnv() *Env { return sim.NewEnv() }

// Randomness.

// Rand is the deterministic random source seeding every stochastic
// component (weights, datasets, timing jitter).
type Rand = rng.Source

// Seed returns a deterministic random source.
func Seed(seed uint64) *Rand { return rng.New(seed) }

// Tensors and networks.
type (
	// Tensor is a dense NCHW float32 tensor.
	Tensor = tensor.T
	// Shape is a tensor shape.
	Shape = tensor.Shape
	// Graph is an inference network.
	Graph = nn.Graph
	// Precision selects FP32, FP16 or FP16-strict execution.
	Precision = nn.Precision
	// MicroConfig parameterizes the scaled-down inception network.
	MicroConfig = nn.MicroConfig
)

// Precision modes.
const (
	FP32       = nn.FP32
	FP16       = nn.FP16
	FP16Strict = nn.FP16Strict
)

// NewTensor allocates a zero tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// NewGoogLeNet builds the full BVLC GoogLeNet (Inception-v1)
// architecture with deterministic pseudo-random weights.
func NewGoogLeNet(src *Rand) *Graph { return nn.NewGoogLeNet(src) }

// NewMicroGoogLeNet builds the scaled inception network used by the
// accuracy experiments.
func NewMicroGoogLeNet(cfg MicroConfig, src *Rand) *Graph { return nn.NewMicroGoogLeNet(cfg, src) }

// DefaultMicroConfig returns the experiment defaults (100 classes,
// 32×32 input).
func DefaultMicroConfig() MicroConfig { return nn.DefaultMicroConfig() }

// CompileGraph serializes a network into an NCS graph blob
// (weights converted to FP16), the analogue of mvNCCompile.
func CompileGraph(g *Graph) ([]byte, error) { return graphfile.Compile(g) }

// GraphFile is a graph file as a stick loads it (AllocateGraph).
type GraphFile = graphfile.Handle

// LoadGraphFile hands graph-file bytes, such as CompileGraph's, to
// AllocateGraph. Every allocation checks them in full, CRC included,
// as the stick firmware checks a file it is sent.
func LoadGraphFile(blob []byte) *GraphFile { return graphfile.FromBytes(blob) }

// ParseGraph reconstructs a network from a compiled blob. The network
// decodes its weights from blob when they are first read, so the
// caller must not modify blob afterwards.
func ParseGraph(blob []byte) (*Graph, error) {
	g, _, err := graphfile.Parse(blob)
	return g, err
}

// Neural Compute Stick devices (the NCAPI surface).
type (
	// NCSDevice is one simulated Neural Compute Stick.
	NCSDevice = ncs.Device
	// NCSGraph is a network allocated on a stick.
	NCSGraph = ncs.Graph
	// NCSResult is one completed inference.
	NCSResult = ncs.Result
	// GraphOptions configures AllocateGraph.
	GraphOptions = ncs.GraphOptions
	// NCSConfig models the stick around the VPU.
	NCSConfig = ncs.Config
	// VPUConfig models the Myriad 2 chip.
	VPUConfig = vpu.Config
)

// DefaultNCSConfig returns the calibrated stick model.
func DefaultNCSConfig() NCSConfig { return ncs.DefaultConfig() }

// DefaultVPUConfig returns the calibrated Myriad 2 model.
func DefaultVPUConfig() VPUConfig { return vpu.DefaultConfig() }

// NewNCSTestbed assembles n Neural Compute Sticks on the paper's
// Fig. 5 USB topology (two sticks on motherboard ports, the rest
// behind two USB 3.0 hubs) inside env.
//
// Deprecated: a session with a VPU group owns testbed assembly; use
// this only for hand-wired NCAPI experiments.
func NewNCSTestbed(env *Env, n int, seed *Rand) ([]*NCSDevice, error) {
	_, ports, err := usb.Testbed(env, usb.DefaultConfig(), n)
	if err != nil {
		return nil, err
	}
	devices := make([]*NCSDevice, n)
	for i, port := range ports {
		d, err := ncs.NewDevice(env, port.Name(), port, ncs.DefaultConfig(), seed)
		if err != nil {
			return nil, err
		}
		devices[i] = d
	}
	return devices, nil
}

// The NCSw framework (sources × targets).
type (
	// Item is one unit of classification work.
	Item = core.Item
	// Source produces items.
	Source = core.Source
	// Result is one completed inference with timing and prediction.
	Result = core.Result
	// Target consumes a source on one device configuration.
	Target = core.Target
	// Job tracks a running target.
	Job = core.Job
	// Collector aggregates results.
	Collector = core.Collector
	// VPUOptions configures the multi-VPU target.
	VPUOptions = core.VPUOptions
	// BatchTarget is a Caffe-style CPU/GPU batch device.
	BatchTarget = core.BatchTarget
	// StreamSource is the MPI-stream-style push source.
	StreamSource = core.StreamSource
	// Scheduling selects round-robin or dynamic dispatch.
	Scheduling = core.Scheduling
	// Arrivals is an open-loop arrival process (deterministic,
	// Poisson, bursty, trace replay) for serving-mode runs.
	Arrivals = core.Arrivals
	// LatencySummary is a per-item serving-latency distribution:
	// exact tail quantiles plus the queue-wait/service-time split.
	LatencySummary = core.LatencySummary
	// AdmissionStats counts arrivals, admissions, sheds, expiries and
	// dispatches at the admission edge.
	AdmissionStats = core.AdmissionStats
	// OverloadPolicy selects what a full admission queue does with a
	// new arrival.
	OverloadPolicy = core.OverloadPolicy
	// DropReason says why the admission edge dropped an item.
	DropReason = core.DropReason
	// BatchAssembly configures adaptive batch assembly on a
	// BatchTarget (max-wait partial batches, backlog-sized batches).
	BatchAssembly = core.BatchAssembly
	// HedgeConfig configures speculative hedged requests: trigger
	// (fixed delay or live latency quantile), hedge budget, and the
	// dedup accounting hooks.
	HedgeConfig = core.HedgeConfig
)

// HedgeNever is a hedge trigger that never fires: hedging armed, no
// duplicate ever launched, bit-identical to hedging disabled — the
// control configuration of the hedge experiments.
const HedgeNever = core.HedgeNever

// Overload policies for bounded admission.
const (
	// ShedNewest rejects the arriving item when the queue is full.
	ShedNewest = core.ShedNewest
	// ShedOldest evicts the stalest queued item to admit the arrival.
	ShedOldest = core.ShedOldest
	// BlockOnFull applies backpressure instead of shedding.
	BlockOnFull = core.Block
)

// Drop reasons (RecoveryConfig.OnDrop, Collector.NoteDrop).
const (
	DropShed    = core.DropShed
	DropExpired = core.DropExpired
	// DropFailed marks an item lost to device failure after its
	// redelivery budget ran out.
	DropFailed = core.DropFailed
	// DropQuota marks an arrival rejected by its tenant's quota (max
	// in-flight or admitted-rate) before reaching any queue.
	DropQuota = core.DropQuota
)

// Multi-tenant serving (SessionConfig.Tenants).
type (
	// TenantMuxOptions is a session's multi-tenant description
	// (SessionConfig.Tenants): the admission-edge scheduler plus the
	// tenant lanes in registration order.
	TenantMuxOptions = core.TenantMuxOptions
	// TenantLane declares one tenant (traffic class): weight,
	// priority, SLO deadline, arrivals, queue bound, shed policy,
	// quotas.
	TenantLane = core.TenantLane
	// TenantPolicy selects the admission-edge scheduling policy
	// (TenantFIFO, TenantWeightedFair, TenantStrictPriority).
	TenantPolicy = core.TenantPolicy
	// TenantStats counts one tenant's arrivals, admissions, drops and
	// completions at the scheduling edge.
	TenantStats = core.TenantStats
	// TenantReport is the per-tenant slice of a multi-tenant session
	// Report.
	TenantReport = pipeline.TenantReport
)

// Tenant admission-edge schedulers.
const (
	// TenantFIFO multiplexes every tenant into one shared queue in
	// arrival order — no isolation; the control configuration.
	TenantFIFO = core.TenantFIFO
	// TenantWeightedFair drains per-tenant queues by deficit-round-
	// robin over the tenant weights.
	TenantWeightedFair = core.TenantFair
	// TenantStrictPriority serves lower-priority-class tenants first,
	// deficit-round-robin within a class.
	TenantStrictPriority = core.TenantPriority
)

// Fault injection and self-healing (internal/fault + core recovery).
type (
	// FaultPlan is a deterministic failure scenario: scripted events
	// plus seeded-stochastic fault processes.
	FaultPlan = fault.Plan
	// FaultEvent is one scripted fault (device, kind, instant).
	FaultEvent = fault.Event
	// FaultProcess is a seeded Poisson fault generator over a window.
	FaultProcess = fault.Process
	// FaultKind identifies a fault class (StickHang, LinkDrop,
	// TransientError, Slowdown).
	FaultKind = fault.Kind
	// FaultLog records every fault a driver injected.
	FaultLog = fault.Log
	// RecoveryConfig is the health-monitoring and self-healing policy
	// of the multi-VPU pipeline: completion-timeout detection, reboot-
	// priced recovery (or fail-stop), and a per-item redelivery budget.
	RecoveryConfig = core.RecoveryConfig
)

// Fault kinds.
const (
	// StickHang freezes a device's firmware until the host resets it.
	StickHang = fault.StickHang
	// LinkDrop severs a device's USB link (MVNC_GONE).
	LinkDrop = fault.LinkDrop
	// TransientError fails single inferences recoverably.
	TransientError = fault.TransientError
	// Slowdown stretches a device's service time ×factor for a window.
	Slowdown = fault.Slowdown
	// BatchOOM fails a batch engine's next submissions allocator-style;
	// the batch target splits and retries (items delayed, never lost).
	BatchOOM = fault.BatchOOM
)

// DefaultRecoveryConfig returns the standard self-healing policy (2 s
// completion heartbeat, recovery on, 3 delivery attempts per item).
func DefaultRecoveryConfig() RecoveryConfig { return core.DefaultRecoveryConfig() }

// Scheduling policies (the multi-VPU target's internal dispatch).
const (
	RoundRobin = core.RoundRobin
	Dynamic    = core.Dynamic
)

// Device groups and routing (the Pool composite target).
type (
	// Pool is a Target over N child targets — a composite device
	// group with a pluggable scheduler. Pools nest: a pool of (CPU,
	// pool of VPUs) is just another target.
	Pool = core.Pool
	// PoolOptions configures a Pool.
	PoolOptions = core.PoolOptions
	// Routing selects how work is distributed across device groups.
	Routing = core.Routing
)

// Routing policies for device groups.
const (
	// StaticSplit partitions a finite source into contiguous
	// per-group blocks sized by the weights.
	StaticSplit = core.RouteStatic
	// RoundRobinSplit deals item k to group k mod N — the pool-level
	// analogue of the paper's static multi-VPU scheduling.
	RoundRobinSplit = core.RouteRoundRobin
	// WorkStealing lets every group pull from the shared source;
	// whichever device is free takes the next item.
	WorkStealing = core.RouteWorkStealing
	// WeightedByThroughput deals items in proportion to each group's
	// weight — explicit weights when configured, otherwise weights
	// that adapt to observed completion rates.
	WeightedByThroughput = core.RouteWeighted
	// RouteLatency deals each item to the group expected to finish it
	// soonest (EWMA service time × queued items) — the serving policy
	// for open-loop traffic, minimizing tail latency instead of
	// balancing a deal ratio.
	RouteLatency = core.RouteLatency
)

// NewPool builds a device group over child targets.
func NewPool(children []Target, opts PoolOptions) (*Pool, error) {
	return core.NewPool(children, opts)
}

// Split inference (model parallelism): the Pipeline composite target.
type (
	// Pipeline is a Target over a serial chain of stages: each stage
	// consumes the previous stage's output activations from a bounded
	// in-flight window, with credit-based backpressure end to end.
	// Pipelines nest like pools — a stage can itself be a Pool.
	Pipeline = core.Pipeline
)

// Sessions: the declarative front door.
type (
	// Session owns one classification run end to end: environment,
	// dataset, network, compiled graph, devices, targets, collection.
	Session = pipeline.Session
	// SessionConfig describes a whole session: the workload and its
	// source (the dataset, fixed Items such as LoadFolder's, or a
	// stream), the device groups or stages, and the serving and
	// reliability settings, the fault plan included. NewSession takes
	// one; its zero fields take the documented defaults.
	SessionConfig = pipeline.Config
	// DeviceGroup declares one device group of a session.
	DeviceGroup = pipeline.Group
	// GroupKind identifies a group's device family.
	GroupKind = pipeline.GroupKind
	// StageConfig declares one stage of a split (model-parallel)
	// session: the device group running one network segment and the
	// bounded in-flight window to the next stage. SessionConfig.Stages
	// holds the chain and SessionConfig.Cuts the layer boundaries
	// between its stages.
	StageConfig = pipeline.Stage
	// Report is the unified outcome of a session run.
	Report = pipeline.Report
	// TargetReport is the per-group slice of a Report.
	TargetReport = pipeline.TargetReport
)

// Device group kinds.
const (
	CPUGroup    = pipeline.GroupCPU
	GPUGroup    = pipeline.GroupGPU
	VPUGroup    = pipeline.GroupVPU
	CustomGroup = pipeline.GroupCustom
)

// Session workload networks (SessionConfig.Network). The zero value
// picks NetMicro for functional sessions and NetGoogLeNet otherwise.
const (
	NetGoogLeNet = pipeline.NetGoogLeNet
	NetMicro     = pipeline.NetMicro
)

// NewSession builds a declarative classification session from cfg.
// At least one device group (cfg.Groups) or stage (cfg.Stages) is
// required.
func NewSession(cfg SessionConfig) (*Session, error) { return pipeline.NewFromConfig(cfg) }

// CPUStage declares a split-session stage on the Caffe-MKL CPU at the
// given batch size.
func CPUStage(batch int) StageConfig { return pipeline.CPUStage(batch) }

// GPUStage declares a split-session stage on the Caffe-cuDNN GPU at
// the given batch size.
func GPUStage(batch int) StageConfig { return pipeline.GPUStage(batch) }

// VPUStage declares a split-session stage on n Neural Compute Sticks
// running the parallel NCSw pipeline over the stage's segment.
func VPUStage(n int) StageConfig { return pipeline.VPUStage(n) }

// CustomStage declares a split-session stage on a caller-provided
// target, used as-is with an empty network span (the target prices
// whatever cost model it implements).
func CustomStage(t Target) StageConfig { return pipeline.CustomStage(t) }

// NewCollector creates a result collector; retain keeps every result.
func NewCollector(retain bool) *Collector { return core.NewCollector(retain) }

// DefaultVPUOptions returns the paper-faithful multi-VPU settings.
func DefaultVPUOptions() VPUOptions { return core.DefaultVPUOptions() }

// Open-loop arrival processes for serving-mode runs
// (SessionConfig.Arrivals and TenantLane.Arrivals).

// DeterministicArrivals is a constant-rate arrival process.
func DeterministicArrivals(ratePerSec float64) Arrivals {
	return core.DeterministicArrivals(ratePerSec)
}

// PoissonArrivals is a memoryless arrival process at the given mean
// rate — the standard model for aggregate traffic from many
// independent users.
func PoissonArrivals(ratePerSec float64) Arrivals { return core.PoissonArrivals(ratePerSec) }

// BurstyArrivals alternates deterministic arrivals at ratePerSec for
// on with silence for off.
func BurstyArrivals(ratePerSec float64, on, off time.Duration) Arrivals {
	return core.BurstyArrivals(ratePerSec, on, off)
}

// TraceArrivals replays explicit absolute arrival instants.
func TraceArrivals(instants []time.Duration) Arrivals { return core.TraceArrivals(instants) }

// DelayedArrivals shifts every instant of arr by delay — e.g. to
// start offered load only after a device group's one-time setup.
func DelayedArrivals(arr Arrivals, delay time.Duration) Arrivals {
	return core.DelayedArrivals(arr, delay)
}

// LoadFolder loads .ppm images (with optional .xml annotations) from a
// directory, for SessionConfig.Items.
func LoadFolder(dir string, size int, means []float32, labelOf func(wnid string) (int, bool)) ([]Item, error) {
	return core.LoadFolder(dir, size, means, labelOf)
}

// Dataset: the synthetic ILSVRC stand-in.
type (
	// Dataset is the synthetic validation set.
	Dataset = imagenet.Dataset
	// DatasetConfig parameterizes the dataset.
	DatasetConfig = imagenet.Config
)

// DefaultDatasetConfig mirrors the paper's 50 000-image, 5-subset
// evaluation shape at the calibrated noise level.
func DefaultDatasetConfig() DatasetConfig { return imagenet.DefaultConfig() }

// NewDataset generates a synthetic validation dataset.
func NewDataset(cfg DatasetConfig) (*Dataset, error) { return imagenet.New(cfg) }

// Timeline tracing (Fig. 4).
type Timeline = trace.Timeline

// NewTimeline returns an enabled execution timeline.
func NewTimeline() *Timeline { return trace.New() }

// Declarative scenarios.
type (
	// Scenario is a declarative serving scenario: fleet topology,
	// traffic, faults, SLO and mid-run knob reloads as one JSON file
	// (internal/scenario; the committed corpus lives in scenarios/).
	Scenario = scenario.Scenario
	// ScenarioResult is one scenario run: the scenario plus the
	// session report it produced.
	ScenarioResult = scenario.Result
)

// LoadScenario parses and validates one scenario file.
func LoadScenario(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// LoadScenarios loads a scenario file or every *.json scenario in a
// directory, in name order.
func LoadScenarios(path string) ([]*Scenario, error) { return scenario.LoadPath(path) }

// DefaultScenarioCorpus locates the repository's committed scenarios/
// corpus by walking up from the working directory to go.mod.
func DefaultScenarioCorpus() (string, error) { return scenario.DefaultCorpusDir() }

// Experiments.
type (
	// BenchConfig scales the experiment harness.
	BenchConfig = bench.Config
	// BenchTable is one regenerated figure/table.
	BenchTable = bench.Table
	// Benchmarks is the experiment harness regenerating the paper's
	// figures.
	Benchmarks = bench.Harness
)

// DefaultBenchConfig returns the paper-scale experiment configuration.
func DefaultBenchConfig() BenchConfig { return bench.DefaultConfig() }

// QuickBenchConfig returns a CI-sized experiment configuration.
func QuickBenchConfig() BenchConfig { return bench.QuickConfig() }

// NewBenchmarks builds the experiment harness.
func NewBenchmarks(cfg BenchConfig) (*Benchmarks, error) { return bench.NewHarness(cfg) }

// ExperimentIDs lists the regenerable artefacts.
func ExperimentIDs() []string { return bench.ExperimentIDs() }

// Version identifies this reproduction.
const Version = "1.0.0"

// About returns a one-line description.
func About() string {
	return fmt.Sprintf("ncsw-go %s — reproduction of Rivas-Gomez et al., "+
		"\"Exploring the Vision Processing Unit as Co-processor for Inference\" (IPPS 2018)", Version)
}
