package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/imagenet"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tenant"
)

// Compilation: a scenario lowers onto pipeline.Config — the same
// struct the benches and options build — so a scenario session is
// indistinguishable from a hand-coded one. Each enum spelling has one
// table below; lowering reads it, and an unknown spelling is a
// validation error. The one piece of late validation lives here: named
// cuts are resolved against the workload network's layer list, which
// only exists once the network kind is known.

var (
	networks = map[string]pipeline.NetworkKind{
		"": pipeline.NetAuto, "auto": pipeline.NetAuto,
		"googlenet": pipeline.NetGoogLeNet, "micro": pipeline.NetMicro,
	}
	groupKinds = map[string]pipeline.GroupKind{
		"cpu": pipeline.GroupCPU, "gpu": pipeline.GroupGPU, "vpu": pipeline.GroupVPU,
	}
	routings = map[string]core.Routing{
		"": core.RouteWeighted, "throughput-weighted": core.RouteWeighted,
		"static-split": core.RouteStatic, "round-robin": core.RouteRoundRobin,
		"work-stealing": core.RouteWorkStealing, "latency-ewma": core.RouteLatency,
	}
	policies = map[string]core.OverloadPolicy{
		"": core.ShedNewest, "shed-newest": core.ShedNewest,
		"shed-oldest": core.ShedOldest, "block": core.Block,
	}
	schedulers = map[string]tenant.Scheduler{
		"": tenant.FIFO, "fifo": tenant.FIFO, "fair": tenant.WeightedFair,
		"weighted-fair": tenant.WeightedFair, "priority": tenant.Priority,
	}
	faultKinds = map[string]fault.Kind{
		"hang": fault.StickHang, "link-drop": fault.LinkDrop, "transient": fault.TransientError,
		"slowdown": fault.Slowdown, "batch-oom": fault.BatchOOM,
	}
)

// enum resolves a spelling through its table. An unknown spelling
// records a field error listing the accepted ones in *errp (the first
// error wins) and yields the zero value, so lowering can carry on.
func enum[T any](errp *error, table map[string]T, path, what, spelling string) T {
	v, ok := table[spelling]
	if !ok && *errp == nil {
		want := make([]string, 0, len(table))
		for k := range table {
			if k != "" {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		*errp = field.Errorf(path, "unknown %s %q (want %s)", what, spelling, strings.Join(want, ", "))
	}
	return v
}

func lowerGroup(errp *error, path string, g GroupSpec) pipeline.Group {
	return pipeline.Group{
		Kind:      enum(errp, groupKinds, path+".kind", "device kind", g.Kind),
		Batch:     g.Batch,
		Devices:   g.Devices,
		Weight:    g.Weight,
		SeedLabel: g.SeedLabel,
	}
}

// compileArrivals lowers a validated arrival spec onto the core
// constructors. validateArrival mirrors every constructor
// precondition, so this can never panic.
func compileArrivals(a *ArrivalSpec) core.Arrivals {
	var arr core.Arrivals
	switch a.Process {
	case "deterministic":
		arr = core.DeterministicArrivals(a.Rate)
	case "poisson":
		arr = core.PoissonArrivals(a.Rate)
	case "bursty":
		arr = core.BurstyArrivals(a.Rate, a.On.Std(), a.Off.Std())
	case "trace":
		instants := make([]time.Duration, len(a.Instants))
		for i, ins := range a.Instants {
			instants[i] = ins.Std()
		}
		arr = core.TraceArrivals(instants)
	case "phased":
		phases := make([]core.Phase, len(a.Phases))
		for i := range a.Phases {
			ph := &a.Phases[i]
			var inner core.Arrivals
			if ph.Process != "silence" {
				inner = compileArrivals(&ph.ArrivalSpec)
			}
			phases[i] = core.Phase{Arrivals: inner, Duration: ph.Duration.Std()}
		}
		arr = core.PhasedArrivals(phases, a.Cycle)
	}
	if a.Delay > 0 {
		arr = core.DelayedArrivals(arr, a.Delay.Std())
	}
	return arr
}

// structureGraph builds a throwaway copy of the workload network for
// cut-name resolution. Only the topology matters — layer names and
// valid cut points are independent of the weights — so the seed is
// arbitrary and the session still constructs its own network exactly
// as a hand-coded config would.
func structureGraph(network string) *nn.Graph {
	if network == "micro" {
		return nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(1))
	}
	return nn.NewGoogLeNet(rng.New(1))
}

// resolveCuts maps declared cuts (layer names or indices) onto
// whole-network cut indices, checking each against the network's
// legal cut points.
func resolveCuts(cuts []Cut, network string) ([]int, error) {
	if len(cuts) == 0 {
		return nil, nil
	}
	g := structureGraph(network)
	names := g.LayerNames()
	valid := make(map[int]bool)
	for _, c := range g.ValidCuts() {
		valid[c] = true
	}
	out := make([]int, len(cuts))
	for i, c := range cuts {
		p := fmt.Sprintf("fleet.cuts[%d]", i)
		idx := c.Index
		if c.Name != "" {
			found := -1
			for j, n := range names {
				if n == c.Name {
					found = j
					break
				}
			}
			if found < 0 {
				return nil, field.Errorf(p, "no layer %q in %s (layers: %s ...)", c.Name, g.Name(), strings.Join(names[:4], ", "))
			}
			idx = found + 1 // cut after the named layer
		}
		if !valid[idx] && idx != 0 && idx != g.Len() {
			if c.Name != "" {
				return nil, field.Errorf(p, "no legal cut after layer %q (cut %d of %s)", c.Name, idx, g.Name())
			}
			return nil, field.Errorf(p, "no legal cut at %d (nn.Graph.ValidCuts enumerates the legal ones)", idx)
		}
		out[i] = idx
	}
	return out, nil
}

// Compile validates the scenario and lowers it onto a
// pipeline.Config ready for pipeline.NewFromConfig. Reloads are not
// part of the config — Run schedules them onto the built session.
func (sc *Scenario) Compile() (pipeline.Config, error) {
	fail := func(err error) (pipeline.Config, error) {
		return pipeline.Config{}, fmt.Errorf("scenario %s: %v", sc.errLabel(), err)
	}
	cfg, err := sc.check()
	if err != nil {
		return fail(err)
	}
	if cfg.Cuts, err = resolveCuts(sc.Fleet.Cuts, sc.Network); err != nil {
		return fail(err)
	}
	return cfg, nil
}

// lower maps the scenario onto a pipeline.Config; the returned error is
// the first unknown enum spelling. Declared cut indices stand in for
// the cuts (Compile resolves names). The arrival specs must already be
// valid: the core constructors panic on bad parameters.
func (sc *Scenario) lower() (pipeline.Config, error) {
	var err error
	cfg := pipeline.Config{
		Seed:    sc.Seed,
		NetSeed: sc.NetSeed,
		Images:  sc.Images,
		SLO:     sc.SLO.Std(),
		Network: enum(&err, networks, "network", "network", sc.Network),
	}
	if d := sc.Dataset; d != nil {
		// Zero keeps the default; anything else, negatives included,
		// is the dataset's to accept or refuse.
		dc := imagenet.DefaultConfig()
		if d.Images != 0 {
			dc.Images = d.Images
		}
		if d.Classes != 0 {
			dc.Classes = d.Classes
		}
		if d.Subsets != 0 {
			dc.Subsets = d.Subsets
		}
		if d.Size != 0 {
			dc.Size = d.Size
		}
		if d.Seed != 0 {
			dc.Seed = d.Seed
		}
		cfg.Dataset = dc
	}
	for i, g := range sc.Fleet.Groups {
		cfg.Groups = append(cfg.Groups, lowerGroup(&err, fmt.Sprintf("fleet.groups[%d]", i), g))
	}
	for i, s := range sc.Fleet.Stages {
		cfg.Stages = append(cfg.Stages, pipeline.Stage{
			Group:    lowerGroup(&err, fmt.Sprintf("fleet.stages[%d]", i), s.GroupSpec),
			Queue:    s.Queue,
			Replicas: s.Replicas,
		})
	}
	for _, c := range sc.Fleet.Cuts {
		cfg.Cuts = append(cfg.Cuts, c.Index)
	}
	cfg.Routing = enum(&err, routings, "fleet.routing", "routing", sc.Fleet.Routing)
	cfg.QueueDepth = sc.Fleet.QueueDepth
	if t := sc.Traffic; t != nil {
		if t.Arrivals != nil {
			cfg.Arrivals = compileArrivals(t.Arrivals)
			cfg.ArrivalLabel = t.ArrivalLabel
		}
		if ts := t.Tenants; ts != nil {
			tc := tenant.Config{
				Scheduler:      enum(&err, schedulers, "traffic.tenants.scheduler", "scheduler", ts.Scheduler),
				SharedDepth:    ts.SharedDepth,
				SharedOverload: enum(&err, policies, "traffic.tenants.shared_overload", "overload policy", ts.SharedOverload),
			}
			for i, tn := range ts.Tenants {
				tc.Tenants = append(tc.Tenants, tenant.Tenant{
					ID:          tn.ID,
					Weight:      tn.Weight,
					Priority:    tn.Priority,
					SLO:         tn.SLO.Std(),
					Arrivals:    compileArrivals(tn.Arrivals),
					QueueDepth:  tn.QueueDepth,
					Overload:    enum(&err, policies, fmt.Sprintf("traffic.tenants.tenants[%d].overload", i), "overload policy", tn.Overload),
					MaxInFlight: tn.MaxInFlight,
					RatePerSec:  tn.RatePerSec,
					Burst:       tn.Burst,
				})
			}
			cfg.Tenants = tc
		}
	}
	if ad := sc.Admission; ad != nil {
		cfg.AdmissionDepth = ad.Depth
		cfg.AdmissionPolicy = enum(&err, policies, "admission.policy", "overload policy", ad.Policy)
		cfg.AdmissionShrink = ad.Shrink
		cfg.AdmissionMinDepth = ad.MinDepth
	}
	if h := sc.Hedge; h != nil {
		cfg.Hedge = core.HedgeConfig{
			Trigger:       h.Trigger.Std(),
			Quantile:      h.Quantile,
			MinSamples:    h.MinSamples,
			Budget:        h.Budget,
			DynamicBudget: h.Dynamic,
		}
	}
	if b := sc.Batching; b != nil {
		cfg.BatchMaxWait = b.MaxWait.Std()
		cfg.AdaptiveBatch = b.Adaptive
	}
	if f := sc.Faults; f != nil {
		for i, e := range f.Events {
			cfg.Faults.Events = append(cfg.Faults.Events, fault.Event{
				Device:   e.Device,
				Kind:     enum(&err, faultKinds, fmt.Sprintf("faults.events[%d].kind", i), "fault kind", e.Kind),
				At:       e.At.Std(),
				Duration: e.Duration.Std(),
				Factor:   e.Factor,
				Count:    e.Count,
			})
		}
		for i, pr := range f.Processes {
			kinds := make([]fault.Kind, len(pr.Kinds))
			for j, k := range pr.Kinds {
				kinds[j] = enum(&err, faultKinds, fmt.Sprintf("faults.processes[%d].kinds[%d]", i, j), "fault kind", k)
			}
			cfg.Faults.Processes = append(cfg.Faults.Processes, fault.Process{
				Devices: pr.Devices,
				Kinds:   kinds,
				Rate:    pr.Rate,
				Start:   pr.Start.Std(),
				End:     pr.End.Std(),
				Factor:  pr.Factor,
				Window:  pr.Window.Std(),
			})
		}
	}
	if r := sc.Recovery; r != nil {
		rc := core.RecoveryConfig{
			Timeout:     r.Timeout.Std(),
			Recover:     true,
			MaxAttempts: r.MaxAttempts,
		}
		if r.Recover != nil {
			rc.Recover = *r.Recover
		}
		cfg.Recovery = rc
	}
	return cfg, err
}
