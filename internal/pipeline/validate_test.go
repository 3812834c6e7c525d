package pipeline

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/field"
)

// TestConfigValidateRules holds one case per Config.Validate rule:
// each mutation of a valid config must be refused with a field.Error
// naming exactly the offending field, by Validate and by
// NewFromConfig alike.
func TestConfigValidateRules(t *testing.T) {
	poisson := core.PoissonArrivals(10)
	lane := func(id string) core.TenantLane { return core.TenantLane{ID: id, Arrivals: poisson} }
	tenants := func(ls ...core.TenantLane) core.TenantMuxOptions { return core.TenantMuxOptions{Lanes: ls} }
	twoStages := func(c *Config) {
		c.Groups = nil
		c.Stages = []Stage{VPUStage(2), GPUStage(8)}
		c.Cuts = []int{10}
	}
	paced := func(c *Config) { c.Arrivals = poisson; c.AdmissionDepth = 4 }
	slowdown := fault.Event{Device: "cpu", Kind: fault.Slowdown, Factor: 2, Duration: time.Second}
	process := fault.Process{Devices: []string{"cpu"}, Kinds: []fault.Kind{fault.Slowdown}, Rate: 1, End: time.Second}
	cases := []struct {
		name   string
		mutate func(*Config)
		path   string
	}{
		{"groups and stages", func(c *Config) { c.Stages = []Stage{CPUStage(8)} }, "Stages"},
		{"no groups", func(c *Config) { c.Groups = nil }, "Groups"},
		{"cut count", func(c *Config) { twoStages(c); c.Cuts = nil }, "Cuts"},
		{"cuts without stages", func(c *Config) { c.Cuts = []int{10} }, "Cuts"},
		{"unknown kind", func(c *Config) { c.Groups[0].Kind = GroupKind(9) }, "Groups[0].Kind"},
		{"custom without target", func(c *Config) { c.Groups[0] = Group{Kind: GroupCustom} }, "Groups[0].Target"},
		{"negative batch", func(c *Config) { c.Groups[0].Batch = -1 }, "Groups[0].Batch"},
		{"negative devices", func(c *Config) { c.Groups[0] = Group{Kind: GroupVPU, Devices: -1} }, "Groups[0].Devices"},
		{"infinite weight", func(c *Config) {
			c.Groups = append(c.Groups, Group{Kind: GroupGPU, Weight: math.Inf(1)})
		}, "Groups[1].Weight"},
		{"stage batch", func(c *Config) { twoStages(c); c.Stages[1].Group.Batch = -1 }, "Stages[1].Group.Batch"},
		{"stage queue", func(c *Config) { twoStages(c); c.Stages[0].Queue = -1 }, "Stages[0].Queue"},
		{"stage replicas", func(c *Config) { twoStages(c); c.Stages[1].Replicas = -1 }, "Stages[1].Replicas"},
		{"replicated custom stage", func(c *Config) {
			twoStages(c)
			c.Stages[0] = CustomStage(&stubCustomTarget{}).Replicated(2)
		}, "Stages[0].Replicas"},
		{"functional stages", func(c *Config) { twoStages(c); c.Functional = true }, "Functional"},
		{"blob with stages", func(c *Config) { twoStages(c); c.Blob = []byte{1} }, "Blob"},
		{"negative images", func(c *Config) { c.Images = -1 }, "Images"},
		{"dataset subsets", func(c *Config) { c.Dataset = smallDataset(4); c.Dataset.Subsets = 8 }, "Dataset.Subsets"},
		{"queue depth", func(c *Config) { c.QueueDepth = -1 }, "QueueDepth"},
		{"stream capacity", func(c *Config) { n := -1; c.StreamCapacity = &n }, "StreamCapacity"},
		{"items and stream", func(c *Config) {
			c.Items = make([]core.Item, 5)
			n := 2
			c.StreamCapacity = &n
		}, "Items"},
		{"items and images", func(c *Config) { c.Items = make([]core.Item, 5); c.Images = 5 }, "Items"},
		{"slo", func(c *Config) { c.SLO = -time.Second }, "SLO"},
		{"tenant scheduler", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Policy = core.TenantPolicy(9)
		}, "Tenants.Policy"},
		{"tenant shared depth", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.SharedDepth = -1
		}, "Tenants.SharedDepth"},
		{"tenant shared overload", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.SharedPolicy = core.OverloadPolicy(9)
		}, "Tenants.SharedPolicy"},
		{"tenant id", func(c *Config) { c.Tenants = tenants(lane("")) }, "Tenants.Lanes[0].ID"},
		{"duplicate tenant", func(c *Config) { c.Tenants = tenants(lane("a"), lane("a")) }, "Tenants.Lanes[1].ID"},
		{"tenant arrivals", func(c *Config) { c.Tenants = tenants(core.TenantLane{ID: "a"}) }, "Tenants.Lanes[0].Arrivals"},
		{"tenant weight", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].Weight = math.NaN()
		}, "Tenants.Lanes[0].Weight"},
		{"tenant slo", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].Deadline = -1
		}, "Tenants.Lanes[0].Deadline"},
		{"tenant queue", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].Depth = -1
		}, "Tenants.Lanes[0].Depth"},
		{"tenant overload", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].Policy = core.OverloadPolicy(9)
		}, "Tenants.Lanes[0].Policy"},
		{"tenant in-flight", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].MaxInFlight = -1
		}, "Tenants.Lanes[0].MaxInFlight"},
		{"tenant rate", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].RatePerSec = math.Inf(1)
		}, "Tenants.Lanes[0].RatePerSec"},
		{"tenant burst", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			c.Tenants.Lanes[0].Burst = -1
		}, "Tenants.Lanes[0].Burst"},
		{"tenants and arrivals", func(c *Config) { c.Tenants = tenants(lane("a")); c.Arrivals = poisson }, "Arrivals"},
		{"tenants and stream", func(c *Config) {
			c.Tenants = tenants(lane("a"))
			n := 4
			c.StreamCapacity = &n
		}, "StreamCapacity"},
		{"tenants and admission", func(c *Config) { c.Tenants = tenants(lane("a")); c.AdmissionDepth = 4 }, "AdmissionDepth"},
		{"negative admission depth", func(c *Config) { c.AdmissionDepth = -1 }, "AdmissionDepth"},
		{"admission without pacing", func(c *Config) { c.AdmissionDepth = 4 }, "AdmissionDepth"},
		{"admission policy", func(c *Config) { paced(c); c.AdmissionPolicy = core.OverloadPolicy(9) }, "AdmissionPolicy"},
		{"admission policy without pacing", func(c *Config) {
			c.AdmissionDepth = 4
			c.AdmissionPolicy = core.OverloadPolicy(9)
		}, "AdmissionDepth"},
		{"shrink without admission", func(c *Config) { c.AdmissionShrink = true }, "AdmissionShrink"},
		{"negative admission floor", func(c *Config) { c.AdmissionMinDepth = -1 }, "AdmissionMinDepth"},
		{"admission floor above depth", func(c *Config) { paced(c); c.AdmissionMinDepth = 8 }, "AdmissionMinDepth"},
		{"hedge trigger", func(c *Config) { c.Hedge.Trigger = -1 }, "Hedge.Trigger"},
		{"hedge quantile", func(c *Config) { c.Hedge.Quantile = 1 }, "Hedge.Quantile"},
		{"hedge warmup", func(c *Config) { c.Hedge.MinSamples = -1 }, "Hedge.MinSamples"},
		{"hedge budget", func(c *Config) { c.Hedge.Budget = math.Inf(1) }, "Hedge.Budget"},
		{"dynamic hedge budget", func(c *Config) { c.Hedge.DynamicBudget = true }, "Hedge.DynamicBudget"},
		{"hedged stages", func(c *Config) { twoStages(c); c.Hedge.Trigger = time.Second }, "Hedge"},
		{"hedged single CPU group", func(c *Config) { c.Hedge.Trigger = time.Second }, "Hedge"},
		{"hedged work-stealing", func(c *Config) {
			c.Groups = append(c.Groups, Group{Kind: GroupGPU})
			c.Routing = core.RouteWorkStealing
			c.Hedge.Trigger = time.Second
		}, "Hedge"},
		{"batch max-wait", func(c *Config) { c.BatchMaxWait = -1 }, "BatchMaxWait"},
		{"adaptive batch max-wait", func(c *Config) { c.AdaptiveBatch = true; c.BatchMaxWait = -time.Millisecond }, "BatchMaxWait"},
		{"fault device", func(c *Config) { c.Faults.Events = []fault.Event{{Kind: fault.StickHang}} }, "Faults.Events[0].Device"},
		{"fault kind", func(c *Config) {
			c.Faults.Events = []fault.Event{{Device: "cpu", Kind: fault.Kind(9)}}
		}, "Faults.Events[0].Kind"},
		{"fault instant", func(c *Config) {
			c.Faults.Events = []fault.Event{{Device: "cpu", Kind: fault.BatchOOM, At: -1}}
		}, "Faults.Events[0].At"},
		{"slowdown factor", func(c *Config) {
			e := slowdown
			e.Factor = math.Inf(1)
			c.Faults.Events = []fault.Event{e}
		}, "Faults.Events[0].Factor"},
		{"slowdown window", func(c *Config) {
			e := slowdown
			e.Duration = 0
			c.Faults.Events = []fault.Event{e}
		}, "Faults.Events[0].Duration"},
		{"fault count", func(c *Config) {
			c.Faults.Events = []fault.Event{{Device: "cpu", Kind: fault.BatchOOM, Count: -1}}
		}, "Faults.Events[0].Count"},
		{"process devices", func(c *Config) {
			p := process
			p.Devices = nil
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Devices"},
		{"process kinds", func(c *Config) {
			p := process
			p.Kinds = nil
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Kinds"},
		{"process kind", func(c *Config) {
			p := process
			p.Kinds = []fault.Kind{fault.Slowdown, fault.Kind(9)}
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Kinds[1]"},
		{"process rate", func(c *Config) {
			p := process
			p.Rate = math.Inf(1)
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Rate"},
		{"process start", func(c *Config) {
			p := process
			p.Start = -1
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Start"},
		{"process end", func(c *Config) {
			p := process
			p.End = 0
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].End"},
		{"process factor", func(c *Config) {
			p := process
			p.Factor = 0.5
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Factor"},
		{"process window", func(c *Config) {
			p := process
			p.Window = -1
			c.Faults.Processes = []fault.Process{p}
		}, "Faults.Processes[0].Window"},
		{"recovery timeout", func(c *Config) { c.Recovery.Timeout = -1 }, "Recovery.Timeout"},
		{"recovery attempts", func(c *Config) { c.Recovery.MaxAttempts = -1 }, "Recovery.MaxAttempts"},
		{"hang without heartbeat", func(c *Config) {
			c.Faults.Events = []fault.Event{{Device: "ncs0", Kind: fault.StickHang}}
		}, "Recovery.Timeout"},
	}
	base := func() Config { return Config{Groups: []Group{{Kind: GroupCPU}}} }
	if err := base().Validate(); err != nil {
		t.Fatalf("base config refused: %v", err)
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		for _, err := range []error{cfg.Validate(), newFromConfigErr(cfg)} {
			var fe *field.Error
			switch {
			case err == nil:
				t.Errorf("%s: accepted", tc.name)
			case !errors.As(err, &fe) || fe.Path == "":
				t.Errorf("%s: error without a field path: %v", tc.name, err)
			case fe.Path != tc.path:
				t.Errorf("%s: path %q, want %q (%v)", tc.name, fe.Path, tc.path, err)
			}
		}
	}
}

func newFromConfigErr(cfg Config) error {
	_, err := NewFromConfig(cfg)
	return err
}

// TestConfigNotAliased: defaulting happens on copies, so neither a
// failed NewFromConfig nor Validate writes the batch or stick defaults
// into the caller's Groups/Stages backing arrays.
func TestConfigNotAliased(t *testing.T) {
	groups := []Group{{Kind: GroupCPU}, {Kind: GroupVPU}}
	stages := []Stage{CPUStage(0), VPUStage(0)}
	check := func(when string) {
		if groups[0].Batch != 0 || groups[1].Devices != 0 ||
			stages[0].Group.Batch != 0 || stages[1].Group.Devices != 0 {
			t.Fatalf("%s wrote defaults into the caller's slices: groups %+v, stages %+v", when, groups, stages)
		}
	}
	if _, err := NewFromConfig(Config{Groups: groups, Images: -1}); err == nil {
		t.Fatal("negative image count accepted")
	}
	if _, err := NewFromConfig(Config{Stages: stages, Cuts: []int{10}, Images: -1}); err == nil {
		t.Fatal("negative image count accepted")
	}
	check("NewFromConfig")
	_ = Config{Groups: groups}.Validate()
	_ = Config{Stages: stages, Cuts: []int{10}}.Validate()
	check("Validate")
}
