package pipeline

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// summarize is the latency summary of rs as a fresh collector of its
// own keeps it: the reference the report's summaries must equal.
func summarize(rs []core.Result) core.LatencySummary {
	c := core.NewCollector(false)
	sink := c.Sink()
	for _, r := range rs {
		sink(r)
	}
	return c.Latency()
}

// TestReportLatencyMatchesRetained: the report's merged summary (a
// view over the group stores) and every group's and tenant's summary
// equal a summary of the retained results, split by the group of each
// result's Device and by Tenant. A stage session's retained results
// are its last stage's, so there the last stage is checked; an
// interior stage's emissions are not retained.
func TestReportLatencyMatchesRetained(t *testing.T) {
	cuts := googleNetCuts(t)
	straggler := fault.Plan{Events: []fault.Event{
		{Device: "ncs1", Kind: fault.Slowdown, At: 5 * time.Second, Factor: 8, Duration: 4 * time.Second},
	}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"vpu group", Config{
			Images:   60,
			Groups:   []Group{{Kind: GroupVPU, Devices: 2}},
			Arrivals: core.PoissonArrivals(15),
		}},
		{"cpu+gpu pool", Config{
			Images:   200,
			Groups:   []Group{{Kind: GroupCPU, Batch: 8}, {Kind: GroupGPU, Batch: 8}},
			Arrivals: core.PoissonArrivals(100),
		}},
		{"hedged pool", Config{
			Images:   120,
			Groups:   []Group{{Kind: GroupVPU, Devices: 2}, {Kind: GroupVPU, Devices: 2}},
			Routing:  core.RouteLatency,
			Arrivals: core.DelayedArrivals(core.PoissonArrivals(30), 9*time.Second),
			SLO:      500 * time.Millisecond,
			Faults:   straggler,
			Recovery: core.DefaultRecoveryConfig(),
			Hedge:    core.HedgeConfig{Trigger: 300 * time.Millisecond},
		}},
		{"two-stage cut", Config{
			Images: 48,
			Stages: []Stage{VPUStage(2), GPUStage(16)},
			Cuts:   []int{cuts[len(cuts)/2]},
		}},
		{"tenants", Config{
			Images:  60,
			Groups:  []Group{{Kind: GroupVPU, Devices: 2}},
			SLO:     time.Second,
			Tenants: tenantMix(),
		}},
		{"functional", Config{
			Functional: true,
			Network:    NetMicro,
			Images:     120,
			Seed:       1,
			Routing:    core.RouteWorkStealing,
			Groups:     []Group{{Kind: GroupVPU, Devices: 2}, {Kind: GroupCPU, Batch: 8}},
			// Arrivals start after the sticks boot, so both groups serve.
			Arrivals: core.DelayedArrivals(core.PoissonArrivals(60), time.Second),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Retain = true
			sess, err := NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) == 0 {
				t.Fatal("no results retained")
			}
			if got, want := rep.Latency, summarize(rep.Results); got != want {
				t.Errorf("merged latency:\n got %+v\nwant %+v", got, want)
			}
			if rep.Pipeline {
				last := rep.Targets[len(rep.Targets)-1]
				if got, want := last.Latency, summarize(rep.Results); got != want {
					t.Errorf("last stage %s latency:\n got %+v\nwant %+v", last.Name, got, want)
				}
			} else {
				group := map[string]int{}
				for i, tgt := range sess.Targets() {
					group[tgt.Name()] = i
					for _, d := range sess.perVPU[i] {
						group[d.Name()] = i
					}
				}
				byGroup := make([][]core.Result, len(rep.Targets))
				for _, r := range rep.Results {
					i, ok := group[r.Device]
					if !ok {
						t.Fatalf("result %d from unknown device %q", r.Index, r.Device)
					}
					byGroup[i] = append(byGroup[i], r)
				}
				for i, tr := range rep.Targets {
					if got, want := tr.Latency, summarize(byGroup[i]); got != want {
						t.Errorf("group %s latency:\n got %+v\nwant %+v", tr.Name, got, want)
					}
				}
			}
			byTenant := map[string][]core.Result{}
			for _, r := range rep.Results {
				byTenant[r.Tenant] = append(byTenant[r.Tenant], r)
			}
			for _, tr := range rep.Tenants {
				if got, want := tr.Latency, summarize(byTenant[tr.ID]); got != want {
					t.Errorf("tenant %s latency:\n got %+v\nwant %+v", tr.ID, got, want)
				}
			}
		})
	}
}
