// Package repro is a Go reproduction of "Exploring the Vision
// Processing Unit as Co-processor for Inference" (Rivas-Gomez, Peña,
// Moloney, Laure, Markidis — IPPS 2018): the NCSw inference framework,
// a calibrated discrete-event model of the Movidius Myriad 2 VPU /
// Intel Neural Compute Stick platform it runs on, the GoogLeNet
// workload, CPU and GPU baselines, and the full experiment harness
// that regenerates every figure of the paper's evaluation.
//
// This file is the public facade: it re-exports the pieces a
// downstream user composes, so typical programs only import this
// package. The building blocks live in internal packages (one per
// subsystem; see DESIGN.md for the inventory).
//
// The primary entry point is the declarative session API: describe
// the dataset and the device groups, and the Session owns the whole
// environment/testbed/compile/collect lifecycle. A heterogeneous run
// — §III's device groups, with a CPU, a GPU and four Neural Compute
// Sticks splitting one validation set — is:
//
//	sess, _ := repro.NewSession(
//		repro.WithImages(400),
//		repro.WithCPU(8),
//		repro.WithGPU(8),
//		repro.WithVPUs(4),
//		repro.WithRouting(repro.WeightedByThroughput),
//	)
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

// DefaultClassifierTemperature is the softmax logit scale the accuracy
// experiments were calibrated with (see internal/bench).
const DefaultClassifierTemperature = 150.0

// CalibratePrototypeClassifier rewrites the micro network's classifier
// so it performs nearest-prototype classification over the dataset's
// class prototypes — the reproduction's stand-in for loading
// pre-trained BVLC weights (DESIGN.md §2). Call it once after
// NewMicroGoogLeNet and before CompileGraph.
func CalibratePrototypeClassifier(g *Graph, ds *Dataset, temperature float32) error {
	return nn.CalibrateClassifier(g, nn.MicroClassifierName, nn.MicroPoolName,
		ds.PreprocessedPrototypes(), temperature)
}

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
// Deprecated: NewSession(WithVPUs(n)) owns testbed assembly; use this
// only for hand-wired NCAPI experiments.
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
	// VPUTarget is the parallel multi-VPU pipeline.
	VPUTarget = core.VPUTarget
	// StreamSource is the MPI-stream-style push source.
	StreamSource = core.StreamSource
	// FolderSource serves .ppm images from a directory.
	FolderSource = core.FolderSource
	// Scheduling selects round-robin or dynamic dispatch.
	Scheduling = core.Scheduling
	// Arrivals is an open-loop arrival process (deterministic,
	// Poisson, bursty, trace replay) for serving-mode runs.
	Arrivals = core.Arrivals
	// ArrivalSource makes a wrapped source's items visible only at
	// their arrival instants.
	ArrivalSource = core.ArrivalSource
	// LatencySummary is a per-item serving-latency distribution:
	// exact tail quantiles plus the queue-wait/service-time split.
	LatencySummary = core.LatencySummary
	// AdmissionQueue is a bounded serving ingress: arrivals beyond
	// its depth are handled by an OverloadPolicy, items queued past
	// their deadline are dropped as expired.
	AdmissionQueue = core.AdmissionQueue
	// AdmissionOptions configures an AdmissionQueue.
	AdmissionOptions = core.AdmissionOptions
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
	// HealthAware is implemented by targets that report device-health
	// transitions (VPUTarget, Pool); health-aware admission and
	// failover routing subscribe to it.
	HealthAware = core.HealthAware
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

// Drop reasons (AdmissionOptions.OnDrop, RecoveryConfig.OnDrop,
// Collector.NoteDrop).
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

// Multi-tenant serving (core.TenantMux and its declaration).
type (
	// TenantMuxOptions is the multi-tenant description, for sessions
	// (WithTenants) and hand-wired TenantMuxes alike: the
	// admission-edge scheduler plus the tenant lanes in registration
	// order.
	TenantMuxOptions = core.TenantMuxOptions
	// TenantLane declares one tenant (traffic class): weight,
	// priority, SLO deadline, arrivals, queue bound, shed policy,
	// quotas.
	TenantLane = core.TenantLane
	// TenantPolicy selects the admission-edge scheduling policy
	// (TenantFIFO, TenantWeightedFair, TenantStrictPriority).
	TenantPolicy = core.TenantPolicy
	// TenantMux is the core multi-tenant scheduler for hand-wired
	// experiments: per-tenant arrival pumps over a shared source,
	// deficit-round-robin or priority dispatch, quota gates.
	TenantMux = core.TenantMux
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

// NewTenantMux wraps a source with the multi-tenant scheduler for
// hand-wired experiments; sessions use WithTenants instead. seed
// drives the lanes' arrival processes (nil = seed 1); onDrop, when
// non-nil, observes every shed, expired or quota-rejected item.
func NewTenantMux(env *Env, inner Source, opts TenantMuxOptions, seed *Rand, onDrop func(item Item, reason DropReason, at time.Duration)) (*TenantMux, error) {
	return core.NewTenantMux(env, inner, opts, seed, onDrop)
}

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
	// FaultRegistry maps device names to their injection hooks.
	FaultRegistry = fault.Registry
	// FaultInjection is one applied fault (log/trace record).
	FaultInjection = fault.Injection
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

// ApplyFaults drives a fault plan into registered devices for
// hand-wired experiments; sessions use WithFaults instead. observe
// (optional) sees each injection as it is applied.
func ApplyFaults(env *Env, plan FaultPlan, seed *Rand, reg FaultRegistry, observe func(FaultInjection)) (*FaultLog, error) {
	return fault.Apply(env, plan, seed, reg, observe)
}

// NewAdmissionQueue wraps a source with bounded admission for
// hand-wired serving experiments; sessions use WithAdmission instead.
func NewAdmissionQueue(env *Env, inner Source, opts AdmissionOptions) (*AdmissionQueue, error) {
	return core.NewAdmissionQueue(env, inner, opts)
}

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
	// StageTarget is the streaming stage contract: a Target that also
	// knows how to forward its Results downstream as typed Items.
	// Plain Targets gain the standard hop via AsStage.
	StageTarget = core.StageTarget
	// PipelineOptions configures a Pipeline (per-boundary in-flight
	// windows, per-stage result hooks).
	PipelineOptions = core.PipelineOptions
)

// NewPipeline composes a serial stage chain over the given targets
// (adapted via AsStage as needed). The resulting composite is itself
// a Target: the first stage pulls from the source, the last stage's
// results reach the sink, and a job finishes only when every stage
// has drained.
func NewPipeline(stages []Target, opts PipelineOptions) (*Pipeline, error) {
	return core.NewPipeline(stages, opts)
}

// AsStage adapts a plain Target into a StageTarget using the standard
// activation hop (output tensor becomes the downstream input, arrival
// stamp and label carried through). Targets that already implement
// StageTarget pass through unchanged.
func AsStage(t Target) StageTarget { return core.AsStage(t) }

// Sessions: the declarative front door.
type (
	// Session owns one classification run end to end: environment,
	// dataset, network, compiled graph, devices, targets, collection.
	Session = pipeline.Session
	// SessionConfig is the resolved session description (the options
	// build one; NewSessionFromConfig accepts one directly).
	SessionConfig = pipeline.Config
	// SessionOption customizes a session under construction.
	SessionOption = pipeline.Option
	// DeviceGroup declares one device group of a session.
	DeviceGroup = pipeline.Group
	// GroupKind identifies a group's device family.
	GroupKind = pipeline.GroupKind
	// StageConfig declares one stage of a split (model-parallel)
	// session: the device group running one network segment and the
	// bounded in-flight window to the next stage. Mirrors
	// SessionConfig: WithStages builds the chain, Config.Stages holds
	// it.
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

// NewSession builds a declarative classification session. At least
// one device group option (WithCPU, WithGPU, WithVPUs, WithTarget,
// WithGroup) is required.
func NewSession(opts ...SessionOption) (*Session, error) { return pipeline.New(opts...) }

// NewSessionFromConfig builds a session from an explicit config.
func NewSessionFromConfig(cfg SessionConfig) (*Session, error) { return pipeline.NewFromConfig(cfg) }

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

// Session options — workload. What is classified, which network does
// it, and the seeds that make the run reproducible.

// WithDataset sets the synthetic dataset configuration.
func WithDataset(cfg DatasetConfig) SessionOption { return pipeline.WithDataset(cfg) }

// WithImages limits the run to the first n dataset images.
func WithImages(n int) SessionOption { return pipeline.WithImages(n) }

// WithFunctional toggles real numeric inference (default off: pure
// performance, devices pay full simulated costs but skip arithmetic).
func WithFunctional(on bool) SessionOption { return pipeline.WithFunctional(on) }

// WithGoogLeNet forces the full BVLC GoogLeNet workload.
func WithGoogLeNet() SessionOption { return pipeline.WithGoogLeNet() }

// WithMicroNet forces the scaled-down inception network with the
// given geometry.
func WithMicroNet(cfg MicroConfig) SessionOption { return pipeline.WithMicroNet(cfg) }

// WithNetwork supplies a prebuilt workload network, used as-is (no
// construction or classifier calibration) — share one network across
// several sessions.
func WithNetwork(g *Graph) SessionOption { return pipeline.WithNetwork(g) }

// WithBlob supplies a precompiled NCS graph file for the VPU groups,
// skipping per-session compilation; pair with WithNetwork. Not
// applicable to split sessions, whose stage segments compile
// per stage. The blob may be shared with other live sessions and
// must be treated as read-only.
func WithBlob(blob []byte) SessionOption { return pipeline.WithBlob(blob) }

// WithTemperature overrides the prototype-classifier softmax scale.
func WithTemperature(t float32) SessionOption { return pipeline.WithTemperature(t) }

// WithSeed sets the simulation seed for every stochastic component.
func WithSeed(seed uint64) SessionOption { return pipeline.WithSeed(seed) }

// WithNetSeed sets the network weight seed (default 42).
func WithNetSeed(seed uint64) SessionOption { return pipeline.WithNetSeed(seed) }

// Session options — fleet. Which devices run the workload and how
// work is distributed across them: dealt device groups (every group
// runs whole inferences) or a model-parallel stage chain (each stage
// runs one network segment).

// WithCPU adds a Caffe-MKL CPU group at the given batch size.
func WithCPU(batch int) SessionOption { return pipeline.WithCPU(batch) }

// WithGPU adds a Caffe-cuDNN GPU group at the given batch size.
func WithGPU(batch int) SessionOption { return pipeline.WithGPU(batch) }

// WithVPUs adds a group of n Neural Compute Sticks running the
// parallel NCSw pipeline.
func WithVPUs(n int) SessionOption { return pipeline.WithVPUs(n) }

// WithTarget adds a custom Target as its own device group.
func WithTarget(t Target) SessionOption { return pipeline.WithTarget(t) }

// WithGroup adds a fully specified device group (explicit weights,
// VPU overrides).
func WithGroup(g DeviceGroup) SessionOption { return pipeline.WithGroup(g) }

// WithStages runs the session as a model-parallel pipeline: the
// workload network is split at the WithCut boundaries into one
// segment per stage, each stage runs its segment on its own device
// group (CPUStage/GPUStage/VPUStage/CustomStage), and intermediate
// activations stream between stages under bounded in-flight windows
// with backpressure end to end. Mutually exclusive with the
// device-group options above.
func WithStages(stages ...StageConfig) SessionOption { return pipeline.WithStages(stages...) }

// WithCut sets the whole-network layer boundaries partitioning the
// workload across the WithStages chain (one fewer cut than stages,
// ascending; Graph.ValidCuts enumerates the legal interior
// boundaries). A degenerate cut (0 or the layer count) collapses its
// empty stage, and a single surviving stage runs bit-identical to the
// classic single-group session.
func WithCut(cuts ...int) SessionOption { return pipeline.WithCut(cuts...) }

// WithRouting selects the device-group scheduler (default
// WeightedByThroughput). Pipeline sessions are serial and ignore it.
func WithRouting(r Routing) SessionOption { return pipeline.WithRouting(r) }

// WithQueueDepth bounds the per-group feed queues of the dealt
// routing policies, and the default per-boundary in-flight window of
// a split session (default 2).
func WithQueueDepth(d int) SessionOption { return pipeline.WithQueueDepth(d) }

// Session options — serving. How work arrives and is admitted: open-
// loop arrivals, deadlines, bounded ingress, adaptive batch assembly.

// WithArrivals wraps the session source in an open-loop arrival
// process, turning the run into a serving measurement: items become
// visible at their arrival instants, the report's latency
// distributions measure real queueing against offered load, and
// work conservation holds per arrival rather than per drain.
func WithArrivals(a Arrivals) SessionOption { return pipeline.WithArrivals(a) }

// WithSLO sets the per-item serving deadline the session measures
// goodput against: the report gains per-group and aggregate goodput,
// and a bounded ingress (WithAdmission) drops items whose deadline
// lapses while queued.
func WithSLO(target time.Duration) SessionOption { return pipeline.WithSLO(target) }

// WithAdmission bounds the session ingress with an admission queue of
// the given depth under the overload policy (ShedNewest, ShedOldest,
// BlockOnFull) — tail latency is capped by design instead of growing
// without bound past the saturation knee.
func WithAdmission(depth int, policy OverloadPolicy) SessionOption {
	return pipeline.WithAdmission(depth, policy)
}

// WithAdmissionShrink extends WithAdmission with health-aware depth:
// during a device outage the admission bound shrinks proportionally
// to healthy capacity (floored at minDepth; 0 = 1), so queued work
// cannot all expire waiting for devices that are gone, and restores
// on rejoin.
func WithAdmissionShrink(minDepth int) SessionOption {
	return pipeline.WithAdmissionShrink(minDepth)
}

// WithAdaptiveBatching makes every CPU/GPU group assemble batches
// adaptively: batch size tracks the observed backlog and a partial
// batch closes at most maxWait after its first item was pulled, so
// lightly loaded batch devices serve at single-item latency.
func WithAdaptiveBatching(maxWait time.Duration) SessionOption {
	return pipeline.WithAdaptiveBatching(maxWait)
}

// WithStream replaces the dataset source with a push-style stream of
// the given buffer capacity (0 = unbounded); feed it via
// Session.Stream from a producer process on Session.Env.
func WithStream(capacity int) SessionOption { return pipeline.WithStream(capacity) }

// WithTenants runs the session multi-tenant: each declared lane
// drives its own open-loop arrival process, the configured scheduler
// (TenantFIFO, TenantWeightedFair, TenantStrictPriority) multiplexes
// the per-tenant queues at the admission edge under each tenant's
// quotas and shed policy, and the report gains a per-tenant section
// (Report.Tenants) — throughput, latency tails, goodput against the
// tenant's own SLO (a lane Deadline of 0 inherits WithSLO), sheds,
// expiries, quota rejections. Mutually exclusive with WithArrivals,
// WithAdmission and WithStream, which it subsumes. Options without
// lanes leave the session single-tenant, bit-identical to never
// having called this.
func WithTenants(tc TenantMuxOptions) SessionOption { return pipeline.WithTenants(tc) }

// Session options — reliability. What goes wrong and what the session
// does about it: fault injection, self-healing, hedged requests.

// WithFaults injects a deterministic fault plan into the session's
// devices as the run unfolds: stick hangs, USB link drops, transient
// inference errors, straggler slowdowns — scripted or seeded, always
// bit-for-bit reproducible. Sticks are named "ncs0".."ncsN" in
// testbed port order, batch groups "cpu"/"gpu". The report gains
// availability metrics (outages, MTTR, retries, fault-attributed
// drops, uptime).
func WithFaults(plan FaultPlan) SessionOption { return pipeline.WithFaults(plan) }

// WithRecovery sets the health-monitoring and self-healing policy of
// every VPU group: completion-timeout detection, reboot-priced device
// recovery (or fail-stop abandonment), and a bounded per-item
// redelivery budget whose exhausted items count against goodput. With
// a fault plan that can kill inferences and no explicit policy, the
// session defaults to DefaultRecoveryConfig().
func WithRecovery(rc RecoveryConfig) SessionOption { return pipeline.WithRecovery(rc) }

// WithHedging arms speculative hedged requests — the tail-at-scale
// defense: an item in flight past the trigger (fixed delay, or a live
// latency quantile) is duplicated onto a different healthy device
// group or stick, the first completion wins, and the loser is
// cancelled in-queue or discarded with full dedup accounting
// (Report.Hedged/HedgeWins/HedgeWaste). Not applicable to split
// sessions: hedging duplicates whole inferences, which does not
// compose with serial stages.
func WithHedging(hc HedgeConfig) SessionOption { return pipeline.WithHedging(hc) }

// Session options — observability. What the run records beyond the
// aggregate report.

// WithRetain keeps every per-inference Result on the report.
func WithRetain(on bool) SessionOption { return pipeline.WithRetain(on) }

// WithTimeline attaches a Fig. 4 execution timeline to every group.
func WithTimeline(tl *Timeline) SessionOption { return pipeline.WithTimeline(tl) }

// NewCollector creates a result collector; retain keeps every result.
func NewCollector(retain bool) *Collector { return core.NewCollector(retain) }

// DefaultVPUOptions returns the paper-faithful multi-VPU settings.
func DefaultVPUOptions() VPUOptions { return core.DefaultVPUOptions() }

// NewStreamSource creates a push-style source with the given buffer
// capacity (0 = unbounded).
func NewStreamSource(env *Env, capacity int) *StreamSource {
	return core.NewStreamSource(env, capacity)
}

// Open-loop arrival processes for serving-mode runs (WithArrivals or
// NewArrivalSource).

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

// NewArrivalSource wraps a source with an arrival process for
// hand-wired serving experiments; sessions use WithArrivals instead.
func NewArrivalSource(env *Env, inner Source, arr Arrivals, seed *Rand) (*ArrivalSource, error) {
	return core.NewArrivalSource(env, inner, arr, seed)
}

// NewFolderSource loads .ppm images (with optional .xml annotations)
// from a directory.
func NewFolderSource(dir string, size int, means []float32, labelOf func(wnid string) (int, bool)) (*FolderSource, error) {
	return core.NewFolderSource(dir, size, means, labelOf)
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
