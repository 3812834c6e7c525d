package pipeline

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/field"
)

// TestSessionFaultInjectionAndRecovery: a session with a scripted
// stick hang under the default recovery policy heals the device,
// completes every image, and surfaces the availability metrics on the
// report.
func TestSessionFaultInjectionAndRecovery(t *testing.T) {
	const n = 30
	plan := fault.Plan{Events: []fault.Event{
		{Device: "ncs0", Kind: fault.StickHang, At: 2200 * time.Millisecond},
	}}
	sess, err := NewFromConfig(Config{
		Images:   n,
		Groups:   []Group{{Kind: GroupVPU, Devices: 2}},
		Faults:   plan,
		Recovery: core.DefaultRecoveryConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sess.Run()
	if err != nil {
		t.Fatalf("recovered session errored: %v", err)
	}
	if report.Images != n {
		t.Errorf("completed %d images, want %d", report.Images, n)
	}
	if report.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", report.FaultsInjected)
	}
	if report.Outages != 1 || report.Recovered != 1 {
		t.Errorf("outages=%d recovered=%d, want 1/1", report.Outages, report.Recovered)
	}
	if report.Retries == 0 {
		t.Error("no retries recorded for the hung stick's in-flight items")
	}
	if report.MTTR <= 0 {
		t.Errorf("MTTR = %v, want > 0", report.MTTR)
	}
	if report.Uptime >= 1 || report.Uptime <= 0 {
		t.Errorf("uptime = %.3f, want inside (0, 1) after an outage", report.Uptime)
	}
	vpu := report.Targets[0]
	if vpu.Outages != 1 || vpu.Downtime <= 0 {
		t.Errorf("per-group availability missing: %+v", vpu)
	}
}

// TestSessionFaultsFailStop: with recovery explicitly set to
// fail-stop, the hung stick is abandoned — the run still terminates,
// drops are accounted, and the job error names the device.
func TestSessionFaultsFailStop(t *testing.T) {
	const n = 30
	plan := fault.Plan{Events: []fault.Event{
		{Device: "ncs0", Kind: fault.StickHang, At: 2200 * time.Millisecond},
	}}
	sess, err := NewFromConfig(Config{
		Images:   n,
		Groups:   []Group{{Kind: GroupVPU, Devices: 2}},
		Faults:   plan,
		Recovery: core.RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sess.Run()
	if err == nil {
		t.Fatal("fail-stop abandonment must surface as a run error")
	}
	if report == nil {
		t.Fatal("fail-stop must still produce a report")
	}
	if report.Images+report.FaultDrops != n {
		t.Errorf("completed %d + dropped %d != %d offered", report.Images, report.FaultDrops, n)
	}
	if report.Recovered != 0 || report.Outages != 1 {
		t.Errorf("outages=%d recovered=%d, want 1/0", report.Outages, report.Recovered)
	}
}

// TestSessionFailStopNeedsHeartbeat: an explicit fail-stop request is
// kept under a plan that can hang a stick. Without a heartbeat the
// hang could never be detected, so the config is refused; with one,
// the hung stick is abandoned, not healed.
func TestSessionFailStopNeedsHeartbeat(t *testing.T) {
	const n = 30
	cfg := Config{
		Images: n,
		Groups: []Group{{Kind: GroupVPU, Devices: 2}},
		Faults: fault.Plan{Events: []fault.Event{
			{Device: "ncs0", Kind: fault.StickHang, At: 2200 * time.Millisecond},
		}},
		Recovery: core.RecoveryConfig{Recover: false},
	}
	var fe *field.Error
	if err := cfg.Validate(); !errors.As(err, &fe) || fe.Path != "Recovery.Timeout" {
		t.Fatalf("zero heartbeat under a hang plan: Validate = %v, want a Recovery.Timeout error", err)
	}
	cfg.Recovery.Timeout = 2 * time.Second
	sess, err := NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sess.Run()
	if err == nil || !strings.Contains(err.Error(), "ncs0") {
		t.Errorf("run error %v, want one naming the abandoned ncs0", err)
	}
	if report == nil {
		t.Fatal("fail-stop must still produce a report")
	}
	if report.Outages != 1 || report.Recovered != 0 {
		t.Errorf("outages=%d recovered=%d, want 1/0 (ncs0 abandoned)", report.Outages, report.Recovered)
	}
	if report.Images+report.FaultDrops != n {
		t.Errorf("completed %d + dropped %d != %d offered", report.Images, report.FaultDrops, n)
	}
}

// TestGroupGoodputIsCompletionBased: a group's goodput is the share of
// its completions that met the SLO. Fault drops are not completions, so
// a fail-stop run whose every completion is on time reports 100%, not
// WithinSLO/(completions+drops).
func TestGroupGoodputIsCompletionBased(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Device: "ncs0", Kind: fault.StickHang, At: 2200 * time.Millisecond},
	}}
	sess, err := NewFromConfig(Config{
		Images:   30,
		Groups:   []Group{{Kind: GroupVPU, Devices: 2}},
		SLO:      10 * time.Second,
		Faults:   plan,
		Recovery: core.RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, _ := sess.Run() // fail-stop abandonment errors the run
	if report == nil {
		t.Fatal("fail-stop must still produce a report")
	}
	vpu := report.Targets[0]
	if vpu.FaultDrops == 0 {
		t.Fatal("the hung stick dropped nothing; the case needs a fault drop")
	}
	if vpu.WithinSLO != vpu.Collector.N {
		t.Fatalf("%d of %d completions met the 10s SLO; the case needs all", vpu.WithinSLO, vpu.Collector.N)
	}
	if vpu.Goodput != 1 {
		t.Errorf("group goodput = %.4f, want 1 (every completion met the SLO)", vpu.Goodput)
	}
}

// TestSessionFaultPlanResolution: a plan naming an unknown device
// fails the run with a descriptive error instead of silently
// injecting nothing.
func TestSessionFaultPlanResolution(t *testing.T) {
	sess, err := NewFromConfig(Config{
		Images:   4,
		Groups:   []Group{{Kind: GroupVPU, Devices: 1}},
		Faults:   fault.Plan{Events: []fault.Event{{Device: "ncs9", Kind: fault.StickHang}}},
		Recovery: core.DefaultRecoveryConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err == nil {
		t.Fatal("plan against an unknown device ran anyway")
	}
}

// TestSessionEmptyPlanMatchesBaseline: monitoring without faults must
// not perturb the simulation — identical throughput and latency to an
// unmonitored session (the resilience experiment's acceptance bar).
func TestSessionEmptyPlanMatchesBaseline(t *testing.T) {
	run := func(rc core.RecoveryConfig) *Report {
		sess, err := NewFromConfig(Config{
			Images:   24,
			Groups:   []Group{{Kind: GroupVPU, Devices: 2}},
			Recovery: rc,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(core.RecoveryConfig{})
	monitored := run(core.DefaultRecoveryConfig())
	if base.Throughput != monitored.Throughput {
		t.Errorf("throughput differs: %.4f vs %.4f", base.Throughput, monitored.Throughput)
	}
	if base.Latency.P99 != monitored.Latency.P99 || base.SimTime != monitored.SimTime {
		t.Errorf("latency/simtime differ: %v/%v vs %v/%v",
			base.Latency.P99, base.SimTime, monitored.Latency.P99, monitored.SimTime)
	}
}

// TestSessionLinkDropBeforeOpen: a link drop that hits a stick before
// the group connects it is an outage like any other. Under recovery
// the group resets and re-opens the stick and serves on both; under
// fail-stop the connect error still ends the VPU group.
func TestSessionLinkDropBeforeOpen(t *testing.T) {
	const n = 40
	run := func(recover bool) (*Report, error) {
		sess, err := NewFromConfig(Config{
			Images: n,
			Groups: []Group{{Kind: GroupVPU, Devices: 2}, {Kind: GroupCPU, Batch: 8}},
			Faults: fault.Plan{Events: []fault.Event{
				{Device: "ncs0", Kind: fault.LinkDrop, At: 0},
			}},
			Recovery: core.RecoveryConfig{Timeout: 2 * time.Second, Recover: recover},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sess.Run()
	}
	rep, err := run(true)
	if err != nil {
		t.Fatalf("recovered session errored: %v", err)
	}
	if rep.Images != n || rep.FaultDrops != 0 {
		t.Errorf("completed %d, dropped %d, want %d and 0", rep.Images, rep.FaultDrops, n)
	}
	if rep.FaultsInjected != 1 || rep.Outages != 1 || rep.Recovered != 1 {
		t.Errorf("injected=%d outages=%d recovered=%d, want 1/1/1", rep.FaultsInjected, rep.Outages, rep.Recovered)
	}
	if vpu := rep.Targets[0]; vpu.Collector.N == 0 {
		t.Error("the VPU group served nothing after re-opening its stick")
	}

	_, err = run(false)
	if err == nil || !strings.Contains(err.Error(), "core: open ncs0: ncs: device closed") {
		t.Errorf("fail-stop error %v, want the connect failure on ncs0", err)
	}
}
