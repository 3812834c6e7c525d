package pipeline

import (
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/imagenet"
	"repro/internal/nn"
	"repro/internal/trace"
)

// WithDataset sets the synthetic dataset configuration.
func WithDataset(cfg imagenet.Config) Option {
	return func(c *Config) { c.Dataset = cfg }
}

// WithImages limits the run to the first n dataset images.
func WithImages(n int) Option {
	return func(c *Config) { c.Images = n }
}

// WithFunctional toggles real numeric inference (default off: devices
// pay full simulated costs but skip arithmetic).
func WithFunctional(on bool) Option {
	return func(c *Config) { c.Functional = on }
}

// WithSeed sets the simulation seed for every stochastic component.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithNetSeed sets the network weight seed (default 42).
func WithNetSeed(seed uint64) Option {
	return func(c *Config) { c.NetSeed = seed }
}

// WithRouting selects the scheduler distributing items across device
// groups (default core.RouteWeighted).
func WithRouting(r core.Routing) Option {
	return func(c *Config) { c.Routing = r }
}

// WithQueueDepth bounds the per-group feed queues for the dealt
// routing policies.
func WithQueueDepth(d int) Option {
	return func(c *Config) { c.QueueDepth = d }
}

// WithRetain keeps every per-inference Result on the report.
func WithRetain(on bool) Option {
	return func(c *Config) { c.Retain = on }
}

// WithTimeline attaches a Fig. 4 execution timeline to every group.
func WithTimeline(tl *trace.Timeline) Option {
	return func(c *Config) { c.Timeline = tl }
}

// WithCPU adds a Caffe-MKL CPU group at the given batch size.
func WithCPU(batch int) Option {
	return func(c *Config) { c.Groups = append(c.Groups, Group{Kind: GroupCPU, Batch: batch}) }
}

// WithGPU adds a Caffe-cuDNN GPU group at the given batch size.
func WithGPU(batch int) Option {
	return func(c *Config) { c.Groups = append(c.Groups, Group{Kind: GroupGPU, Batch: batch}) }
}

// WithVPUs adds a group of n Neural Compute Sticks running the
// parallel NCSw pipeline.
func WithVPUs(n int) Option {
	return func(c *Config) { c.Groups = append(c.Groups, Group{Kind: GroupVPU, Devices: n}) }
}

// WithTarget adds a custom target as its own device group.
func WithTarget(t core.Target) Option {
	return func(c *Config) { c.Groups = append(c.Groups, Group{Kind: GroupCustom, Target: t}) }
}

// WithGroup adds a fully specified device group (weights, VPU
// overrides).
func WithGroup(g Group) Option {
	return func(c *Config) { c.Groups = append(c.Groups, g) }
}

// WithStages runs the session as a model-parallel pipeline: the
// workload network is split at the WithCut boundaries into one
// segment per stage, each stage runs its segment on its own device
// group (CPUStage/GPUStage/VPUStage/CustomStage), and activations
// stream between stages under bounded in-flight windows with
// backpressure end to end. Mutually exclusive with the device-group
// options; per-stage queue windows come from Stage.Queue.
func WithStages(stages ...Stage) Option {
	return func(c *Config) { c.Stages = append(c.Stages, stages...) }
}

// WithCut sets the whole-network layer boundaries partitioning the
// workload across the WithStages chain (one fewer cut than stages,
// ascending; nn.Graph.ValidCuts enumerates the legal interior
// boundaries). A degenerate cut (0 or the layer count) collapses its
// empty stage, and a single surviving stage runs bit-identical to the
// classic single-group session.
func WithCut(cuts ...int) Option {
	return func(c *Config) { c.Cuts = append(c.Cuts, cuts...) }
}

// WithArrivals wraps the session source in an open-loop arrival
// process (deterministic, Poisson, bursty or trace replay — see the
// core constructors): items become visible at their arrival instants
// instead of on demand, so the report's latency distributions measure
// real queueing under offered load.
func WithArrivals(a core.Arrivals) Option {
	return func(c *Config) { c.Arrivals = a }
}

// WithSLO sets the per-item serving deadline (arrival to completion)
// the session measures goodput against: the report gains per-group
// and aggregate goodput, and a bounded ingress (WithAdmission) drops
// items whose deadline lapses while they queue.
func WithSLO(target time.Duration) Option {
	return func(c *Config) { c.SLO = target }
}

// WithTenants runs the session multi-tenant: each declared lane
// drives its own open-loop arrival process, the configured scheduler
// (core.TenantFIFO, core.TenantFair, core.TenantPriority) multiplexes the
// per-tenant queues at the admission edge under each tenant's quotas
// (max in-flight, admitted rate) and shed policy, and the report
// gains a per-tenant section — throughput, latency tails, goodput
// against the tenant's own SLO (a lane Deadline of 0 inherits the
// session SLO), sheds, expiries and quota rejections. The tenant
// layer owns the arrival and admission edge, so it is mutually
// exclusive with WithArrivals, WithAdmission and WithStream. Options
// without lanes leave the session single-tenant, bit-identical to
// never having called this.
func WithTenants(tc core.TenantMuxOptions) Option {
	return func(c *Config) { c.Tenants = tc }
}

// WithAdmission bounds the session ingress: an admission queue of the
// given depth sits between the source and the device groups, and
// arrivals that find it full are handled by the overload policy
// (core.ShedNewest, core.ShedOldest, core.Block). With an SLO set,
// items queued past it are dropped as expired instead of wasting
// device time. Shed and expired counts land on the report. Requires
// a paced source (WithArrivals or WithStream): against an eager
// closed-loop dataset the pump would drain everything at t=0 and
// shed all but the first depth items.
func WithAdmission(depth int, policy core.OverloadPolicy) Option {
	return func(c *Config) { c.AdmissionDepth = depth; c.AdmissionPolicy = policy }
}

// WithAdmissionShrink extends the bounded ingress (WithAdmission)
// with health-aware depth: the admission queue subscribes to device
// health and shrinks its effective depth proportionally to healthy
// capacity — ceil(depth × healthy/total), floored at minDepth (0 = 1)
// — so during an outage queued work cannot all expire waiting for
// devices that are gone, and the full bound restores on rejoin.
// Already-queued items are never evicted; new arrivals meet the
// smaller bound. Needs WithAdmission; health transitions come from
// the recovery monitor, so without WithRecovery (or a lethal fault
// plan's default) the bound never moves.
func WithAdmissionShrink(minDepth int) Option {
	return func(c *Config) { c.AdmissionShrink = true; c.AdmissionMinDepth = minDepth }
}

// WithHedging arms speculative hedged requests (the tail-at-scale
// defense): an item in flight longer than the hedge trigger — a fixed
// delay, or a live latency quantile once warm — is duplicated onto a
// different healthy device group (for a lone multi-stick VPU group, a
// different stick), the first completion wins, and the loser is
// withdrawn from its queue or discarded on completion. Results are
// deduplicated before every collector and hook, and the report gains
// hedge accounting (launched, wins, wasted completions). A zero
// HedgeConfig disables hedging; core.HedgeNever arms it without ever
// firing — bit-identical to disabled, the experiment control.
func WithHedging(hc core.HedgeConfig) Option {
	return func(c *Config) { c.Hedge = hc }
}

// WithAdaptiveBatching makes every CPU/GPU group assemble batches
// adaptively: batch size tracks the observed backlog (between 1 and
// the group's configured batch size) and a partial batch closes at
// most maxWait after its first item was pulled — so a lightly loaded
// batch device serves at single-item latency while a saturated one
// keeps full-batch throughput.
func WithAdaptiveBatching(maxWait time.Duration) Option {
	return func(c *Config) { c.BatchMaxWait = maxWait; c.AdaptiveBatch = true }
}

// WithFaults injects the deterministic fault plan into the session's
// devices as the run unfolds: stick hangs, USB link drops, transient
// inference errors and straggler slowdowns, scripted or seeded
// (internal/fault). Device names are "ncs0".."ncsN" for the sticks in
// testbed port order and "cpu"/"gpu" for the batch groups. When the
// plan can kill inferences (hang/drop/transient) and no recovery is
// configured, the session defaults to core.DefaultRecoveryConfig() so
// a hang cannot deadlock the run; the report gains availability
// metrics (outages, MTTR, retries, fault-attributed drops, uptime).
func WithFaults(plan fault.Plan) Option {
	return func(c *Config) { c.Faults = plan }
}

// WithRecovery sets the health-monitoring and self-healing policy of
// every VPU group: Timeout is the completion heartbeat that detects a
// hung or vanished device, Recover re-opens it at the real
// firmware-boot cost (false = fail-stop: the device is abandoned and
// survivors absorb the load), and MaxAttempts bounds redeliveries per
// item — exhausted items are dropped and counted against goodput.
func WithRecovery(rc core.RecoveryConfig) Option {
	return func(c *Config) { c.Recovery = rc }
}

// WithStream replaces the dataset source with a push-style stream of
// the given buffer capacity (0 = unbounded); feed it via
// Session.Stream from a producer process.
func WithStream(capacity int) Option {
	return func(c *Config) { cap := capacity; c.StreamCapacity = &cap }
}

// WithGoogLeNet forces the full BVLC GoogLeNet workload.
func WithGoogLeNet() Option {
	return func(c *Config) { c.Network = NetGoogLeNet }
}

// WithNetwork supplies a prebuilt workload network, used as-is (no
// construction or classifier calibration) — share one network across
// several sessions.
func WithNetwork(g *nn.Graph) Option {
	return func(c *Config) { c.Net = g }
}

// WithBlob supplies a precompiled NCS graph file for the VPU groups,
// skipping per-session compilation; pair with WithNetwork. The blob
// may be shared with other live sessions and must be treated as
// read-only.
func WithBlob(blob []byte) Option {
	return func(c *Config) { c.Blob = blob }
}

// WithMicroNet forces the scaled-down inception network with the
// given geometry.
func WithMicroNet(cfg nn.MicroConfig) Option {
	return func(c *Config) { c.Network = NetMicro; c.Micro = cfg }
}

// WithTemperature overrides the prototype-classifier softmax scale.
func WithTemperature(t float32) Option {
	return func(c *Config) { c.Temperature = t }
}
