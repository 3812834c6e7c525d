// Package pipeline is the declarative session layer over the NCSw
// framework (internal/core): one Session owns the whole lifecycle
// every caller used to hand-wire — simulation environment, synthetic
// dataset, network construction and calibration, graph compilation,
// USB testbed assembly, target construction, result collection — and
// runs heterogeneous device groups (CPU, GPU, multi-VPU, custom
// targets) over a shared or partitioned source under a pluggable
// routing policy (core.Pool). It returns a unified Report with
// per-target and aggregate statistics.
//
// A heterogeneous run, in full:
//
//	sess, err := pipeline.NewFromConfig(pipeline.Config{
//		Images: 400,
//		Groups: []pipeline.Group{
//			{Kind: pipeline.GroupCPU, Batch: 8},
//			{Kind: pipeline.GroupGPU, Batch: 8},
//			{Kind: pipeline.GroupVPU, Devices: 4},
//		},
//		Routing: core.RouteWeighted,
//	})
//	report, err := sess.Run()
//
// The Config describes the whole run, its source included: the
// dataset, fixed Items (an image folder core.LoadFolder loaded), or a
// stream. The Session builds everything eagerly in NewFromConfig, so
// callers can reach the environment, dataset, network or stream before
// Run — the escape hatch MPI-style producers use.
package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/ncs"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/usb"
)

// GroupKind identifies the device family of a group.
type GroupKind int

const (
	// GroupCPU is the Caffe-MKL batch baseline.
	GroupCPU GroupKind = iota
	// GroupGPU is the Caffe-cuDNN batch baseline.
	GroupGPU
	// GroupVPU is a set of Neural Compute Sticks driven by the
	// parallel NCSw pipeline.
	GroupVPU
	// GroupCustom wraps a caller-provided core.Target.
	GroupCustom
)

// String names the kind.
func (k GroupKind) String() string {
	switch k {
	case GroupCPU:
		return "cpu"
	case GroupGPU:
		return "gpu"
	case GroupVPU:
		return "vpu"
	case GroupCustom:
		return "custom"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Group declares one device group of the session.
type Group struct {
	// Kind selects the device family.
	Kind GroupKind
	// Batch is the CPU/GPU batch size (default 8).
	Batch int
	// Devices is the VPU stick count (default 1).
	Devices int
	// Weight is the group's routing weight for static and weighted
	// routing; 0 means unset. When any group sets a weight, unset
	// groups default to 1.
	Weight float64
	// SeedLabel, when set, derives this group's device seed from the
	// session seed by label — rng.New(Seed).Derive(SeedLabel) — instead
	// of using the session seed directly: the batch engine of a CPU/GPU
	// group, or every stick of a VPU group. The benches decorrelate
	// per-run jitter streams this way ("serving/cpu-b8/run/load1.10").
	SeedLabel string
	// Target is the custom target for GroupCustom.
	Target core.Target
}

// NetworkKind selects which network the session classifies with.
type NetworkKind int

const (
	// NetAuto picks NetMicro for functional sessions (real inference
	// wants the calibrated prototype classifier) and NetGoogLeNet for
	// pure-performance sessions (the paper's timing workload).
	NetAuto NetworkKind = iota
	// NetGoogLeNet is the full BVLC GoogLeNet.
	NetGoogLeNet
	// NetMicro is the scaled-down inception network with the
	// prototype classifier calibrated against the dataset.
	NetMicro
)

// Config is the session description: fill it directly and call
// NewFromConfig. Zero fields take the defaults documented on them.
type Config struct {
	// Dataset parameterizes the synthetic validation set.
	Dataset imagenet.Config
	// Images is how many dataset images to classify (0 = all).
	Images int
	// Items, when non-empty, are classified instead of the dataset
	// images, in order, such as the images core.LoadFolder loads. Each
	// arrives at the pull instant unless Arrivals paces them. The
	// session reads the slice and never writes it, so one Config builds
	// any number of sessions over the same items. Mutually exclusive
	// with Images and StreamCapacity.
	Items []core.Item
	// Functional classifies every completed item after the run (FP16
	// for VPU groups, FP32 for CPU/GPU); the devices pay the same
	// simulated costs either way.
	Functional bool
	// Network selects the workload network.
	Network NetworkKind
	// Net, when set, is used as the workload network as-is (no
	// construction, no classifier calibration) — the inbound escape
	// hatch for sharing one network across several sessions.
	Net *nn.Graph
	// Blob, when set, is used as the compiled NCS graph file instead
	// of compiling Net — pair it with Net when running many sessions
	// over the same workload. The session and its sticks read it for
	// as long as the session lives, as may any session it is shared
	// with: treat it as read-only.
	Blob []byte
	// Micro parameterizes the micro network (zero value = defaults).
	Micro nn.MicroConfig
	// Temperature is the prototype-classifier softmax scale
	// (0 = the calibrated default, 150).
	Temperature float32
	// Seed drives every stochastic component of the run.
	Seed uint64
	// NetSeed seeds the network weights (0 = the conventional 42 the
	// accuracy experiments were calibrated with).
	NetSeed uint64
	// Routing selects the device-group scheduler (default
	// core.RouteWeighted, the adaptive throughput-chasing policy).
	// Split sessions are serial and ignore it.
	Routing core.Routing
	// QueueDepth bounds the per-group feed queues of the dealt routing
	// policies, and is the default in-flight window of a split
	// session's boundaries (0 = default 2).
	QueueDepth int
	// Retain keeps every Result on the report.
	Retain bool
	// Timeline receives Fig. 4 spans when set.
	Timeline *trace.Timeline
	// StreamCapacity, when non-nil, replaces the dataset source with
	// a push-style stream of that buffer capacity (0 = unbounded);
	// drive it through Session.Stream.
	StreamCapacity *int
	// Arrivals, when set, wraps the session source in an open-loop
	// arrival process (core.ArrivalSource): items become visible at
	// their arrival instants instead of on demand, turning the run
	// from a drain-the-dataset throughput measurement into a serving
	// measurement with meaningful queueing delay. Seeded from Seed.
	Arrivals core.Arrivals
	// ArrivalLabel overrides the label the arrival stream's seed is
	// derived under (default "arrivals"): the stream draws from
	// rng.New(Seed).Derive(ArrivalLabel). The benches pin arrival
	// sequences to labels like "slo/cpu-b8/load1.10" so every serving
	// edge faces identical traffic; a scenario can name the same label
	// to replay exactly that traffic.
	ArrivalLabel string
	// SLO is the per-item serving deadline (arrival to completion)
	// goodput is measured against; 0 disables goodput accounting.
	SLO time.Duration
	// Tenants, when it declares any lane, runs the session
	// multi-tenant: each tenant drives its own arrival process, the
	// configured scheduler (FIFO, weighted-fair, strict-priority)
	// multiplexes the per-tenant queues at the admission edge under
	// the tenants' quotas and shed policies, and the report gains
	// per-tenant accounting. A lane's Deadline of 0 inherits SLO.
	// Tenants own the arrival and admission edge, so it is mutually
	// exclusive with Arrivals, AdmissionDepth and StreamCapacity. The
	// zero value keeps the session single-tenant and bit-identical to
	// pre-tenancy runs.
	Tenants core.TenantMuxOptions
	// AdmissionDepth, when positive, bounds the session ingress with
	// an admission queue of that depth between the source and the
	// device groups; arrivals beyond it are handled by
	// AdmissionPolicy, and items queued past the SLO are dropped as
	// expired. 0 leaves ingress unbounded (the pre-admission
	// behavior).
	AdmissionDepth int
	// AdmissionPolicy selects the overload behavior of the bounded
	// ingress (default core.ShedNewest).
	AdmissionPolicy core.OverloadPolicy
	// AdmissionShrink subscribes the bounded ingress to device-pool
	// health: during an outage the effective admission depth shrinks
	// proportionally to healthy capacity (so queued work cannot all
	// expire waiting for devices that are gone) and restores on
	// rejoin. Needs AdmissionDepth > 0; without health monitoring
	// (Recovery/Faults) it never fires and is inert.
	AdmissionShrink bool
	// AdmissionMinDepth floors the health-shrunk effective depth
	// (0 = 1). Only meaningful with AdmissionShrink.
	AdmissionMinDepth int
	// Hedge arms speculative hedged requests (core.HedgeConfig): an
	// item in flight past the hedge trigger is duplicated onto a
	// different healthy device group (or, for a single multi-stick VPU
	// group, a different stick), the first completion wins, and the
	// loser is cancelled or discarded with full dedup accounting. The
	// zero value disables hedging and keeps runs bit-identical to
	// pre-hedging sessions.
	Hedge core.HedgeConfig
	// BatchMaxWait bounds batch assembly on every CPU/GPU group: a
	// partial batch closes when no further item arrives within the
	// wait. 0 keeps the classic fill-to-batch-size gather.
	BatchMaxWait time.Duration
	// AdaptiveBatch sizes every CPU/GPU group's batches from the
	// observed backlog (between 1 and the group's batch size) instead
	// of always assembling full batches.
	AdaptiveBatch bool
	// Faults is the deterministic fault-injection plan driven into the
	// session's devices as the run unfolds (internal/fault). Device
	// names: NCS sticks are "ncs0".."ncsN" in testbed port order;
	// batch groups are "cpu"/"gpu" (numbered "cpu2", "cpu3", … when a
	// kind repeats). The zero value injects nothing.
	Faults fault.Plan
	// Recovery configures health monitoring and self-healing on every
	// VPU group (core.RecoveryConfig; the session wires the hooks into
	// its collectors). Zero value: no health monitoring, so a device
	// error abandons its stick fail-stop. Validate refuses a zero
	// Timeout when Faults contains hang/drop/transient faults: an
	// injected hang would otherwise never be detected.
	Recovery core.RecoveryConfig
	// Groups are the device groups (at least one, unless Stages is
	// set).
	Groups []Group
	// Stages, when set, runs the session as a model-parallel pipeline
	// (core.Pipeline): the network is split at Cuts into one segment
	// per stage, each stage runs its segment on its own device group,
	// and activations stream between stages under bounded in-flight
	// windows. Mutually exclusive with Groups.
	Stages []Stage
	// Cuts are the whole-network layer boundaries partitioning the
	// workload across Stages (len(Stages)-1 ascending indices into
	// [0, Len]; nn.Graph.ValidCuts enumerates the legal interior
	// ones). Degenerate cuts (0 or Len) collapse their empty stage —
	// a single surviving stage runs as the classic single-group
	// session, bit-identical to never having split.
	Cuts []int
}

// DefaultTemperature is the calibrated prototype-classifier softmax
// scale (see internal/bench).
const DefaultTemperature = 150.0

// Session owns one classification run: environment, dataset, network,
// compiled graph, devices and targets, built eagerly so they can be
// inspected before Run.
type Session struct {
	cfg       Config
	env       *sim.Env
	ds        *imagenet.Dataset
	net       *nn.Graph
	blob      *graphfile.Handle
	devices   []*ncs.Device // all sticks, in testbed port order
	targets   []core.Target
	perVPU    [][]*ncs.Device // sticks per group index (nil for non-VPU)
	stream    *core.StreamSource
	admission *core.AdmissionQueue
	released  func() int     // the ingress law's count, set by ingress
	registry  fault.Registry // device name -> injection hooks
	faultLog  *fault.Log
	// pool is the device-group composite of the current run (nil for
	// single-group sessions); the recovery drop hooks consult its
	// hedge state so a lost duplicate is not miscounted as a loss.
	pool *core.Pool
	// stages are the effective pipeline stages after segment
	// resolution (nil for classic group sessions); pipe is their
	// composite, set by Run. The recovery drop hooks release a dropped
	// item's boundary credit through it.
	stages []resolvedStage
	pipe   *core.Pipeline
	// merged/perGroup are set by Run before the simulation starts, so
	// the recovery hooks installed at build time can reach them.
	merged   *core.Collector
	perGroup []*core.Collector
	// Multi-tenant state (nil/empty unless Config.Tenants declares
	// tenants): the admission-edge scheduler, one collector per tenant
	// in registration order, and the ID -> index map the sinks and
	// drop hooks route through.
	tenantMux      *core.TenantMux
	perTenant      []*core.Collector
	perTenantSinks []func(core.Result)
	tenantIdx      map[string]int
	// reloadErrs collects failures of scheduled hot-reloads
	// (ScheduleReload); they fire inside env.Run.
	reloadErrs []error
	done       []completion // a functional run's deliveries, until classify
	ran        bool
}

// NewFromConfig builds a session from an explicit configuration. The
// config is checked by Validate first; the caller's slices are never
// written.
func NewFromConfig(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	cfg = cfg.withDefaults()

	s := &Session{cfg: cfg, env: sim.NewEnv()}

	ds, err := imagenet.New(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("pipeline: dataset: %w", err)
	}
	s.ds = ds
	if cfg.Images == 0 {
		s.cfg.Images = ds.Len()
	} else if cfg.Images > ds.Len() {
		return nil, fmt.Errorf("pipeline: %d images requested, dataset has %d", cfg.Images, ds.Len())
	}

	if err := s.buildNetwork(); err != nil {
		return nil, err
	}
	if err := s.buildTargets(); err != nil {
		return nil, err
	}

	if cfg.StreamCapacity != nil {
		s.stream = core.NewStreamSource(s.env, *cfg.StreamCapacity)
	}
	return s, nil
}

// withDefaults returns the config with every zero knob resolved. The
// group and stage slices are copied before their entries are
// defaulted, so the caller's backing arrays are never written.
func (cfg Config) withDefaults() Config {
	if cfg.Dataset == (imagenet.Config{}) {
		cfg.Dataset = imagenet.DefaultConfig()
	}
	if cfg.Temperature == 0 {
		cfg.Temperature = DefaultTemperature
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.NetSeed == 0 {
		cfg.NetSeed = 42
	}
	if cfg.Micro == (nn.MicroConfig{}) {
		cfg.Micro = nn.DefaultMicroConfig()
	}
	if cfg.Network == NetAuto {
		if cfg.Functional {
			cfg.Network = NetMicro
		} else {
			cfg.Network = NetGoogLeNet
		}
	}
	cfg.Groups = append([]Group(nil), cfg.Groups...)
	for i := range cfg.Groups {
		cfg.Groups[i].applyDefaults()
	}
	cfg.Stages = append([]Stage(nil), cfg.Stages...)
	for i := range cfg.Stages {
		cfg.Stages[i].Group.applyDefaults()
	}
	return cfg
}

// applyDefaults resolves a zero batch size (CPU/GPU, default 8) or
// stick count (VPU, default 1).
func (g *Group) applyDefaults() {
	switch g.Kind {
	case GroupCPU, GroupGPU:
		if g.Batch == 0 {
			g.Batch = 8
		}
	case GroupVPU:
		if g.Devices == 0 {
			g.Devices = 1
		}
	}
}

// Validate checks the config as NewFromConfig will build it: defaults
// are applied to a copy, and the caller's slices are never written.
// It is the one semantic check of a session config (scenario files
// are lowered onto a Config and checked here too). The first broken
// rule is returned as a *field.Error whose Path names the offending
// field in Go syntax: "Groups[1].Weight", "Stages[0].Replicas",
// "Hedge.DynamicBudget", "Tenants.Lanes[2].ID",
// "Faults.Events[0].Factor", "AdmissionMinDepth". A rule that refuses
// a combination names the field it refuses ("Hedge" on a single CPU
// group). Three checks need built artefacts and stay with the
// session: cut geometry against the network and Images against the
// dataset size (NewFromConfig), fault device names (Run).
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case len(c.Stages) > 0 && len(c.Groups) > 0:
		return field.Errorf("Stages", "groups and stages are mutually exclusive (every stage declares its own group)")
	case len(c.Stages) == 0 && len(c.Groups) == 0:
		return field.Errorf("Groups", "needs groups or stages (at least one device group, or a stage chain)")
	case len(c.Stages) > 0 && len(c.Cuts) != len(c.Stages)-1:
		return field.Errorf("Cuts", "%d cuts for %d stages (need stages-1)", len(c.Cuts), len(c.Stages))
	case len(c.Stages) == 0 && len(c.Cuts) > 0:
		return field.Errorf("Cuts", "cuts need stages")
	}
	for i, g := range c.Groups {
		if err := g.validate(); err != nil {
			return field.Under(fmt.Sprintf("Groups[%d]", i), err)
		}
	}
	for i, st := range c.Stages {
		p := fmt.Sprintf("Stages[%d]", i)
		if err := st.Group.validate(); err != nil {
			return field.Under(p+".Group", err)
		}
		if st.Queue < 0 {
			return field.Errorf(p+".Queue", "negative queue bound %d", st.Queue)
		}
		if st.Replicas < 0 {
			return field.Errorf(p+".Replicas", "negative replica count %d", st.Replicas)
		}
		if st.Replicas > 1 && st.Group.Kind == GroupCustom {
			return field.Errorf(p+".Replicas", "a custom stage carries one caller-built Target and cannot be replicated")
		}
	}
	if len(c.Stages) > 0 && c.Functional {
		return field.Errorf("Functional", "split inference is pure-performance; functional stage flows are not supported")
	}
	if len(c.Stages) > 0 && c.Blob != nil {
		return field.Errorf("Blob", "a whole-network graph file cannot serve stages; stage segments are compiled per stage")
	}
	if c.Images < 0 {
		return field.Errorf("Images", "negative image count %d", c.Images)
	}
	if err := c.Dataset.Validate(); err != nil {
		return field.Under("Dataset", err)
	}
	if c.QueueDepth < 0 {
		return field.Errorf("QueueDepth", "negative queue depth %d", c.QueueDepth)
	}
	if c.StreamCapacity != nil && *c.StreamCapacity < 0 {
		return field.Errorf("StreamCapacity", "negative stream capacity %d", *c.StreamCapacity)
	}
	if len(c.Items) > 0 {
		switch {
		case c.StreamCapacity != nil:
			// The session would read the items, and the stream's
			// producer would park for good on a buffer nothing reads.
			return field.Errorf("Items", "items and a stream are mutually exclusive (the session reads one source)")
		case c.Images != 0:
			return field.Errorf("Items", "items and Images are mutually exclusive (the items are the whole run)")
		}
	}
	if c.SLO < 0 {
		return field.Errorf("SLO", "negative deadline %v", c.SLO)
	}
	if len(c.Tenants.Lanes) > 0 {
		if err := c.Tenants.Validate(); err != nil {
			return field.Under("Tenants", err)
		}
		// The tenant scheduler owns both the arrival edge (one relay
		// per tenant lane) and the admission edge (per-tenant queues,
		// quotas, shed policies), so the single-tenant equivalents
		// cannot compose with it.
		switch {
		case c.Arrivals != nil:
			return field.Errorf("Arrivals", "arrivals and tenants are mutually exclusive (tenant lanes carry their own arrival processes)")
		case c.StreamCapacity != nil:
			return field.Errorf("StreamCapacity", "a stream and tenants are mutually exclusive (tenant lanes pace the source themselves)")
		case c.AdmissionDepth > 0:
			return field.Errorf("AdmissionDepth", "admission and tenants are mutually exclusive (the tenant scheduler is the admission edge)")
		}
	}
	switch {
	case c.AdmissionDepth < 0:
		return field.Errorf("AdmissionDepth", "negative depth %d", c.AdmissionDepth)
	case c.AdmissionDepth > 0 && c.Arrivals == nil && c.StreamCapacity == nil:
		// Against an eager closed-loop source the admission relay would
		// drain the whole dataset at t=0 and shed everything beyond
		// the queue depth before any device runs.
		return field.Errorf("AdmissionDepth", "needs a paced source (arrivals or a stream)")
	case c.AdmissionPolicy < core.ShedNewest || c.AdmissionPolicy > core.Block:
		return field.Errorf("AdmissionPolicy", "unknown overload policy %v", c.AdmissionPolicy)
	case c.AdmissionShrink && c.AdmissionDepth == 0:
		return field.Errorf("AdmissionShrink", "needs a bounded ingress (an admission depth)")
	case c.AdmissionMinDepth < 0:
		return field.Errorf("AdmissionMinDepth", "negative floor %d", c.AdmissionMinDepth)
	case c.AdmissionDepth > 0 && c.AdmissionMinDepth > c.AdmissionDepth:
		return field.Errorf("AdmissionMinDepth", "floor %d exceeds depth %d", c.AdmissionMinDepth, c.AdmissionDepth)
	}
	if err := c.Hedge.Validate(); err != nil {
		return field.Under("Hedge", err)
	}
	if c.Hedge.Enabled() {
		switch {
		case len(c.Stages) > 0:
			return field.Errorf("Hedge", "hedging duplicates whole inferences across groups; it does not compose with serial stages")
		case len(c.Groups) == 1 && (c.Groups[0].Kind != GroupVPU || c.Groups[0].Devices < 2):
			return field.Errorf("Hedge", "hedging a single group needs a multi-stick VPU group (got %v)", c.Groups[0].Kind)
		case len(c.Groups) > 1 && c.Routing == core.RouteWorkStealing:
			return field.Errorf("Hedge", "hedging needs per-group feeds; routing %v shares the source directly", c.Routing)
		}
	}
	if c.BatchMaxWait < 0 {
		return field.Errorf("BatchMaxWait", "negative wait %v", c.BatchMaxWait)
	}
	if err := c.Faults.Validate(); err != nil {
		return field.Under("Faults", err)
	}
	if c.Recovery.Timeout < 0 {
		return field.Errorf("Recovery.Timeout", "negative heartbeat %v", c.Recovery.Timeout)
	}
	if c.Recovery.Timeout == 0 && c.Faults.NeedsRecovery() {
		return field.Errorf("Recovery.Timeout", "fault plan can hang or kill a device; it needs health monitoring (a heartbeat > 0)")
	}
	if c.Recovery.MaxAttempts < 0 {
		return field.Errorf("Recovery.MaxAttempts", "negative budget %d", c.Recovery.MaxAttempts)
	}
	return nil
}

// validate checks one defaulted group's own fields (paths relative to
// the group). Defaulting turned a zero batch size or stick count into
// a positive one, so only negatives remain to reject.
func (g Group) validate() error {
	switch {
	case g.Kind < GroupCPU || g.Kind > GroupCustom:
		return field.Errorf("Kind", "unknown kind %v", g.Kind)
	case g.Kind == GroupCustom && g.Target == nil:
		return field.Errorf("Target", "a custom group needs a Target")
	case g.Batch < 0:
		return field.Errorf("Batch", "negative batch size %d", g.Batch)
	case g.Devices < 0:
		return field.Errorf("Devices", "negative device count %d", g.Devices)
	case !(g.Weight >= 0) || math.IsInf(g.Weight, 1):
		return field.Errorf("Weight", "weight %g (need finite >= 0)", g.Weight)
	}
	return nil
}

// buildNetwork constructs (and for the micro network calibrates) the
// workload graph, then compiles the NCS blob when a VPU group needs
// it. A caller-provided Net/Blob short-circuits the respective step.
func (s *Session) buildNetwork() error {
	if s.cfg.Net != nil {
		s.net = s.cfg.Net
	} else {
		switch s.cfg.Network {
		case NetMicro:
			s.net = nn.NewMicroGoogLeNet(s.cfg.Micro, rng.New(s.cfg.NetSeed))
			if err := nn.CalibrateClassifier(s.net, nn.MicroClassifierName, nn.MicroPoolName,
				s.ds.PreprocessedPrototypes(), s.cfg.Temperature); err != nil {
				return fmt.Errorf("pipeline: calibrate classifier: %w", err)
			}
		case NetGoogLeNet:
			s.net = nn.NewGoogLeNet(rng.New(s.cfg.NetSeed))
		default:
			return fmt.Errorf("pipeline: unknown network kind %v", s.cfg.Network)
		}
	}
	if len(s.cfg.Stages) > 0 {
		// Segment resolution happens before any blob or device exists:
		// degenerate cuts collapse here, so a single surviving stage
		// takes the classic path below with nothing extra built.
		if err := s.resolveStages(); err != nil {
			return err
		}
	}
	if !slices.ContainsFunc(s.cfg.Groups, func(g Group) bool { return g.Kind == GroupVPU }) {
		return nil
	}
	if s.cfg.Blob != nil {
		s.blob = graphfile.FromBytes(s.cfg.Blob)
		return nil
	}
	blob, err := s.compileBlob(s.net, 0)
	if err != nil {
		return fmt.Errorf("pipeline: compile graph: %w", err)
	}
	s.blob = blob
	return nil
}

// buildTargets assembles the USB testbed (all sticks of all VPU
// groups share the paper's Fig. 5 topology) and one target per group.
// Each target family is seeded exactly the way the hand-wired
// constructors seed it, so a session run is bit-identical to the
// equivalent manual setup.
func (s *Session) buildTargets() error {
	s.registry = fault.Registry{}
	groups := make([]Group, 0, len(s.cfg.Groups)+len(s.stages))
	if s.stageMode() {
		for _, st := range s.stages {
			groups = append(groups, st.spec.Group)
		}
	} else {
		groups = append(groups, s.cfg.Groups...)
	}
	// A replicated stage occupies one copy of its group per replica
	// (classic sessions and unreplicated stages count once).
	reps := make([]int, len(groups))
	for i := range reps {
		reps[i] = 1
		if s.stageMode() {
			if r := s.stages[i].spec.Replicas; r > 1 {
				reps[i] = r
			}
		}
	}
	// Sticks are laid out on the testbed in group order, each seeded
	// from its group's seed.
	var stickSeeds []*rng.Source
	for i, g := range groups {
		if g.Kind == GroupVPU {
			seed := s.groupSeed(g)
			for k := 0; k < g.Devices*reps[i]; k++ {
				stickSeeds = append(stickSeeds, seed)
			}
		}
	}
	if totalSticks := len(stickSeeds); totalSticks > 0 {
		_, ports, err := usb.Testbed(s.env, usb.DefaultConfig(), totalSticks)
		if err != nil {
			return fmt.Errorf("pipeline: usb testbed: %w", err)
		}
		s.devices = make([]*ncs.Device, totalSticks)
		for i, port := range ports {
			d, err := ncs.NewDevice(s.env, port.Name(), port, ncs.DefaultConfig(), stickSeeds[i])
			if err != nil {
				return fmt.Errorf("pipeline: ncs device: %w", err)
			}
			s.devices[i] = d
			// A stick registers with its port, so a Slowdown degrades
			// both the SHAVE clock and the USB link.
			s.registry.Add(port.Name(), d, port)
		}
	}

	s.targets = make([]core.Target, len(groups))
	s.perVPU = make([][]*ncs.Device, len(groups))
	nextStick := 0
	kindCount := map[GroupKind]int{}
	batchName := func(k GroupKind) string {
		kindCount[k]++
		if kindCount[k] > 1 {
			return fmt.Sprintf("%s%d", k, kindCount[k])
		}
		return k.String()
	}
	for i, g := range groups {
		// Classic sessions run every group over the whole network and
		// the session blob; pipeline stages run their own segment.
		net, blob := s.net, s.blob
		if s.stageMode() {
			net, blob = s.stages[i].seg, s.stages[i].blob
		}
		if reps[i] == 1 {
			t, err := s.buildGroupTarget(i, g, net, blob, &nextStick, batchName)
			if err != nil {
				return err
			}
			s.targets[i] = t
			continue
		}
		// A replicated stage is a health-aware Pool of identical
		// copies of the group, each built exactly like a lone group
		// (same recovery wiring, same accounting index — every
		// replica's retries and drops land on the stage's collector).
		kids := make([]core.Target, reps[i])
		for r := range kids {
			t, err := s.buildGroupTarget(i, g, net, blob, &nextStick, batchName)
			if err != nil {
				return err
			}
			kids[r] = t
		}
		pool, err := core.NewPool(kids, core.PoolOptions{QueueDepth: s.cfg.QueueDepth})
		if err != nil {
			return fmt.Errorf("pipeline: stage %d replica pool: %w", i, err)
		}
		s.targets[i] = pool
	}
	return nil
}

// groupSeed is the device seed of group g: the session seed, or its
// derivation under the group's SeedLabel.
func (s *Session) groupSeed(g Group) *rng.Source {
	if g.SeedLabel != "" {
		return rng.New(s.cfg.Seed).Derive(g.SeedLabel)
	}
	return rng.New(s.cfg.Seed)
}

// buildGroupTarget constructs and returns one target for group i over
// the given network (and, for VPU groups, compiled blob), preserving
// the exact construction and seeding order of the hand-wired
// constructors. A replicated stage calls it once per replica with the
// same group index, so all copies share the stage's collectors and
// recovery accounting.
func (s *Session) buildGroupTarget(i int, g Group, net *nn.Graph, blob *graphfile.Handle, nextStick *int, batchName func(GroupKind) string) (core.Target, error) {
	switch g.Kind {
	case GroupCPU, GroupGPU:
		var eng *devsim.Engine
		var err error
		if g.Kind == GroupCPU {
			eng, err = devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.WorkloadOf(net), s.groupSeed(g))
		} else {
			eng, err = devsim.NewGPU(devsim.DefaultGPUConfig(), devsim.WorkloadOf(net), s.groupSeed(g))
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s engine: %w", g.Kind, err)
		}
		t, err := core.NewBatchTarget(eng, g.Batch)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s target: %w", g.Kind, err)
		}
		t.SetTimeline(s.cfg.Timeline)
		s.applyAssembly(t)
		s.wireBatchRetry(t, i)
		s.registry.Add(batchName(g.Kind), eng)
		return t, nil
	case GroupVPU:
		sticks := s.devices[*nextStick : *nextStick+g.Devices]
		*nextStick += g.Devices
		opts := core.DefaultVPUOptions()
		opts.Timeline = s.cfg.Timeline
		opts.Recovery = s.groupRecovery(i)
		if len(s.cfg.Groups) == 1 && s.cfg.Hedge.Enabled() {
			// A lone multi-stick VPU group hedges across its own
			// sticks; hedge events all belong to group 0.
			opts.Hedge = s.sessionHedge(func(int) int { return 0 })
		}
		t, err := core.NewVPUTarget(sticks, blob, opts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: vpu target: %w", err)
		}
		s.perVPU[i] = append(s.perVPU[i], sticks...)
		return t, nil
	case GroupCustom:
		return g.Target, nil
	}
	return nil, fmt.Errorf("pipeline: unknown group kind %v", g.Kind)
}

// groupRecovery wires the session's recovery policy for one VPU
// group: the user's hooks still fire, and the session's collectors
// account every retry, fault drop and outage so the report's
// availability metrics (and goodput) stay honest.
func (s *Session) groupRecovery(group int) core.RecoveryConfig {
	rc := s.cfg.Recovery
	if rc.Timeout <= 0 {
		return rc
	}
	userRetry, userDrop, userOutage := rc.OnRetry, rc.OnDrop, rc.OnOutage
	rc.OnRetry = func(item core.Item, at time.Duration) {
		s.note(group, (*core.Collector).NoteRetry)
		if userRetry != nil {
			userRetry(item, at)
		}
	}
	rc.OnDrop = func(item core.Item, at time.Duration) {
		// A drop at an interior pipeline stage holds a boundary
		// in-flight credit; release it or the window stays narrowed by
		// every loss (core.Pipeline.StageDropped).
		if s.pipe != nil {
			s.pipe.StageDropped(group)
		}
		// Under pool-level hedging a lost copy is only a loss when no
		// other copy of the item is in flight or delivered.
		if s.pool != nil && !s.pool.HedgeItemLost(item.Index) {
			return
		}
		s.note(group, func(c *core.Collector) { c.NoteDrop(core.DropFailed) })
		s.tenantFault(item)
		if userDrop != nil {
			userDrop(item, at)
		}
	}
	rc.OnOutage = func(device string, from, to time.Duration, recovered bool) {
		s.note(group, func(c *core.Collector) { c.NoteOutage(from, to, recovered) })
		if userOutage != nil {
			userOutage(device, from, to, recovered)
		}
	}
	return rc
}

// sessionHedge wires the session's hedge policy: the user's hooks
// still fire, and the session's collectors account every launched
// duplicate, hedge win and wasted completion. groupOf maps the
// hedger's child index (a pool group, or a VPU worker) to the device
// group charged with the event.
func (s *Session) sessionHedge(groupOf func(child int) int) core.HedgeConfig {
	hc := s.cfg.Hedge
	if !hc.Enabled() {
		return hc
	}
	userHedge, userWin, userWaste := hc.OnHedge, hc.OnWin, hc.OnWaste
	hc.OnHedge = func(item core.Item, child int, at time.Duration) {
		s.note(groupOf(child), (*core.Collector).NoteHedge)
		if userHedge != nil {
			userHedge(item, child, at)
		}
	}
	hc.OnWin = func(item core.Item, child int, at time.Duration) {
		s.note(groupOf(child), (*core.Collector).NoteHedgeWin)
		if userWin != nil {
			userWin(item, child, at)
		}
	}
	hc.OnWaste = func(item core.Item, child int, at time.Duration) {
		s.note(groupOf(child), (*core.Collector).NoteHedgeWaste)
		if userWaste != nil {
			userWaste(item, child, at)
		}
	}
	return hc
}

// wireBatchRetry routes a batch target's OOM re-enqueues
// (fault.BatchOOM split-and-retry) into the session collectors, so
// batch-engine faults show up in the report's retry accounting like
// VPU redeliveries do.
func (s *Session) wireBatchRetry(t *core.BatchTarget, group int) {
	t.SetRetryObserver(func(_ core.Item, _ time.Duration) {
		s.note(group, (*core.Collector).NoteRetry)
	})
}

// note records one serving event on the merged collector and on the
// charged device group's: the one place the report's totals and its
// per-group rows are kept in step. A group outside the session's
// groups charges the total only; before Run publishes the collectors
// there is nothing to record.
func (s *Session) note(group int, event func(*core.Collector)) {
	if s.merged == nil {
		return
	}
	event(s.merged)
	if group >= 0 && group < len(s.perGroup) {
		event(s.perGroup[group])
	}
}

// tenantFault charges a fault-dropped item to its tenant, if any. The
// item never completes, so its in-flight quota credit must be released
// here or the tenant's MaxInFlight budget leaks away one failure at a
// time.
func (s *Session) tenantFault(item core.Item) {
	if s.tenantMux == nil {
		return
	}
	if i, ok := s.tenantIdx[item.Tenant]; ok {
		s.perTenant[i].NoteDrop(core.DropFailed)
	}
	s.tenantMux.Done(item.Tenant)
}

// tenantSLO returns the deadline tenant l is held to: its own, or the
// session SLO when it declares none.
func (s *Session) tenantSLO(l core.TenantLane) time.Duration {
	if l.Deadline > 0 {
		return l.Deadline
	}
	return s.cfg.SLO
}

// applyAssembly configures a batch target's SLO-aware assembly from
// the session config.
func (s *Session) applyAssembly(t *core.BatchTarget) {
	if s.cfg.BatchMaxWait > 0 || s.cfg.AdaptiveBatch {
		t.SetAssembly(core.BatchAssembly{
			MaxWait:  s.cfg.BatchMaxWait,
			Adaptive: s.cfg.AdaptiveBatch,
		})
	}
}

// Env returns the simulation environment (for custom producer
// processes — the MPI-rank pattern).
func (s *Session) Env() *sim.Env { return s.env }

// Dataset returns the synthetic validation set.
func (s *Session) Dataset() *imagenet.Dataset { return s.ds }

// Blob returns the compiled NCS graph file (nil when no VPU group),
// building its payload if no one has yet. Live sessions over the same
// self-built GoogLeNet share one blob, so it must be treated as
// read-only.
func (s *Session) Blob() []byte {
	if s.blob == nil {
		return nil
	}
	return s.blob.Bytes()
}

// Devices returns every Neural Compute Stick of the session, in
// testbed port order.
func (s *Session) Devices() []*ncs.Device { return s.devices }

// Targets returns the constructed group targets, in group order.
func (s *Session) Targets() []core.Target { return s.targets }

// Stream returns the push source when the session was configured with
// a StreamCapacity, nil otherwise.
func (s *Session) Stream() *core.StreamSource { return s.stream }

// Run builds the ingress edge (ingress), starts the device groups on it
// (startFleet), drives the simulation to completion and returns the
// unified report. A session runs once. The error reports a failed job
// or classification, an ingress edge whose counters do not balance at
// the end of the run (checkEdge), a report that does not account for
// every item the ingress released (ingressConserved), or a merged
// collector whose count differs from its parts' (mergedConserved).
func (s *Session) Run() (*Report, error) {
	if s.ran {
		return nil, fmt.Errorf("pipeline: session already ran")
	}
	s.ran = true

	perGroup := make([]*core.Collector, len(s.targets))
	for i := range perGroup {
		perGroup[i] = core.NewCollector(false)
		perGroup[i].SetSLO(s.cfg.SLO)
	}
	// The group collectors store each completion's latency pair once;
	// the merged collector's summary reads their stores.
	merged := core.NewMergedCollector(s.cfg.Retain, s.mergedParts(perGroup)...)
	merged.SetSLO(s.cfg.SLO)
	// Publish the collectors before the simulation starts: the recovery
	// hooks installed at build time reach them through the session.
	s.merged, s.perGroup = merged, perGroup

	src, err := s.ingress()
	if err != nil {
		return nil, err
	}

	if !s.cfg.Faults.Empty() {
		tl := s.cfg.Timeline
		observe := func(inj fault.Injection) {
			tl.Add(inj.Device, trace.Fault, inj.At, inj.Until, inj.Kind.String())
		}
		lg, err := fault.Apply(s.env, s.cfg.Faults, rng.New(s.cfg.Seed).Derive("faults"), s.registry, observe)
		if err != nil {
			return nil, fmt.Errorf("pipeline: faults: %w", err)
		}
		s.faultLog = lg
	}

	job, err := s.startFleet(src)
	if err != nil {
		return nil, err
	}
	s.drainOnFailure(job, src)

	s.env.Run()

	// Every check runs; the first error is returned.
	err = cmp.Or(job.Err, s.classify(), s.checkEdge(),
		ingressConserved(merged.Arrivals(), s.released()),
		mergedConserved(merged, s.mergedParts(perGroup)))
	return s.buildReport(job, s.pool, merged, perGroup), err
}

// startFleet starts the device groups on src: a stage pipeline, a lone
// target, or a pool over the groups.
func (s *Session) startFleet(src core.Source) (*core.Job, error) {
	perGroup := s.perGroup
	// finalSink receives every deduplicated final result; under
	// tenancy it additionally routes the result into the owning
	// tenant's collector and releases the tenant's in-flight quota
	// credit (core.TenantMux.Done).
	finalSink := s.merged.Sink()
	if s.tenantMux != nil {
		base := finalSink
		finalSink = func(r core.Result) {
			base(r)
			if i, ok := s.tenantIdx[r.Tenant]; ok {
				s.perTenantSinks[i](r)
			}
			s.tenantMux.Done(r.Tenant)
		}
	}
	// groupSink(i) receives group i's deliveries, before finalSink. A
	// functional session logs them and holds predictions for classify.
	groupSink := func(i int) func(core.Result) { return perGroup[i].Sink() }
	if s.cfg.Functional {
		final := finalSink
		finalSink = func(r core.Result) {
			r.Pred, r.Confidence = -1, 0
			final(r)
		}
		groupSink = func(i int) func(core.Result) {
			sink := perGroup[i].Sink()
			return func(r core.Result) {
				s.done = append(s.done, completion{r, i})
				r.Pred, r.Confidence = -1, 0
				sink(r)
			}
		}
	}

	if s.stageMode() {
		// Model-parallel pipeline: serial stages, final-stage results
		// to the merged collector, per-stage emissions to the group
		// collectors through the hop observer.
		sinks := make([]func(core.Result), len(s.targets))
		for i := range sinks {
			sinks[i] = perGroup[i].Sink()
		}
		depths := make([]int, len(s.targets)-1)
		for b := range depths {
			d := s.stages[b].spec.Queue
			if d == 0 {
				d = s.cfg.QueueDepth
			}
			if d == 0 {
				d = 2
			}
			// An interior batch stage holds a full batch in flight while
			// it assembles; its downstream window must cover it or the
			// batch can never fill (classic gather would deadlock).
			if g := s.stages[b].spec.Group; (g.Kind == GroupCPU || g.Kind == GroupGPU) && d < g.Batch {
				d = g.Batch
			}
			depths[b] = d
		}
		pipe, err := core.NewPipeline(s.targets, core.PipelineOptions{
			QueueDepths:   depths,
			OnStageResult: func(stage int, r core.Result) { sinks[stage](r) },
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: stages: %w", err)
		}
		s.pipe = pipe
		s.subscribeAdmission(pipe)
		return pipe.Start(s.env, src, finalSink), nil
	}
	if len(s.targets) == 1 {
		// Single group: start directly, bit-identical to hand-wiring.
		s.subscribeAdmission(s.targets[0])
		sink, group := finalSink, groupSink(0)
		return s.targets[0].Start(s.env, src, func(r core.Result) {
			group(r)
			sink(r)
		}), nil
	}
	var weights []float64
	if slices.ContainsFunc(s.cfg.Groups, func(g Group) bool { return g.Weight > 0 }) {
		for _, g := range s.cfg.Groups {
			weights = append(weights, cmp.Or(g.Weight, 1))
		}
	}
	sinks := make([]func(core.Result), len(s.targets))
	for i := range sinks {
		sinks[i] = groupSink(i)
	}
	pool, err := core.NewPool(s.targets, core.PoolOptions{
		Routing:    s.cfg.Routing,
		Weights:    weights,
		QueueDepth: s.cfg.QueueDepth,
		OnResult:   func(child int, r core.Result) { sinks[child](r) },
		Hedge:      s.sessionHedge(func(child int) int { return child }),
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: pool: %w", err)
	}
	s.pool = pool
	s.subscribeAdmission(pool)
	return pool.Start(s.env, src, finalSink), nil
}

// subscribeAdmission makes the admission bound track the healthy
// capacity of t (a pool's aggregate, or a lone health-aware target)
// under AdmissionShrink.
func (s *Session) subscribeAdmission(t core.Target) {
	if !s.cfg.AdmissionShrink || s.admission == nil {
		return
	}
	if ha, ok := t.(core.HealthAware); ok {
		ha.SetHealthObserver(s.admission.ObserveHealth)
	}
}

// mergedParts returns the group collectors whose results are, between
// them, exactly the merged collector's: the last stage's in a stage
// pipeline, whose OnStageResult sees each final result just before the
// final sink; otherwise every group's, since a lone target's group sink
// and a pool's OnResult (after hedge dedup) each see every delivered
// result once, just before the final sink.
func (s *Session) mergedParts(perGroup []*core.Collector) []*core.Collector {
	if s.stageMode() {
		return perGroup[len(perGroup)-1:]
	}
	return perGroup
}
