package repro

import (
	"reflect"
	"testing"
	"time"
)

// The root resilience acceptance tests drive the whole stack through
// the public facade: deterministic fault injection
// (SessionConfig.Faults), health monitoring and self-healing
// (SessionConfig.Recovery), availability metrics on the report, and
// the PR's acceptance bar — recovery holds strictly higher goodput
// than fail-stop under the identical fault sequence, and an empty
// plan changes nothing.

// resilienceSession builds the shared serving scenario: 4 sticks,
// Poisson arrivals past warmup, a hang and a link drop mid-run. The
// window (400 images at 25/s ≈ 16 s of arrivals) leaves time after
// the last recovery (~10 s) for the healed capacity to drain the
// outage backlog — that post-recovery tail is where recovery earns
// its goodput edge over fail-stop.
func resilienceSession(t *testing.T, net *Graph, blob []byte, plan FaultPlan, rc RecoveryConfig) *Report {
	t.Helper()
	sess, err := NewSession(SessionConfig{
		Images:   400,
		Groups:   []DeviceGroup{{Kind: VPUGroup, Devices: 4}},
		Net:      net,
		Blob:     blob,
		Arrivals: DelayedArrivals(PoissonArrivals(25), 5*time.Second),
		SLO:      450 * time.Millisecond,
		Faults:   plan,
		Recovery: rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, _ := sess.Run() // fail-stop abandonment errors by design
	if report == nil {
		t.Fatal("no report")
	}
	return report
}

func resilienceWorkload(t *testing.T) (*Graph, []byte) {
	t.Helper()
	net := NewGoogLeNet(Seed(42))
	blob, err := CompileGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	return net, blob
}

var resiliencePlan = FaultPlan{Events: []FaultEvent{
	{Device: "ncs1", Kind: StickHang, At: 7 * time.Second},
	{Device: "ncs2", Kind: LinkDrop, At: 9 * time.Second},
}}

// TestResilienceRecoveryBeatsFailStop is the acceptance criterion:
// under the identical injected fault sequence and arrivals, the
// self-healing pipeline holds strictly higher goodput than fail-stop,
// and the availability metrics tell a coherent story.
func TestResilienceRecoveryBeatsFailStop(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience acceptance skipped in -short mode")
	}
	net, blob := resilienceWorkload(t)
	failStop := resilienceSession(t, net, blob, resiliencePlan,
		RecoveryConfig{Timeout: 2 * time.Second, Recover: false, MaxAttempts: 3})
	healed := resilienceSession(t, net, blob, resiliencePlan,
		RecoveryConfig{Timeout: 2 * time.Second, Recover: true, MaxAttempts: 3})

	if healed.Goodput <= failStop.Goodput {
		t.Errorf("recovery goodput %.3f not strictly above fail-stop %.3f",
			healed.Goodput, failStop.Goodput)
	}
	if healed.Recovered != healed.Outages || healed.Outages != 2 {
		t.Errorf("recovery repaired %d of %d outages, want 2/2", healed.Recovered, healed.Outages)
	}
	if failStop.Recovered != 0 || failStop.Outages != 2 {
		t.Errorf("fail-stop outages %d recovered %d, want 2/0", failStop.Outages, failStop.Recovered)
	}
	if healed.Uptime <= failStop.Uptime {
		t.Errorf("recovery uptime %.3f not above fail-stop %.3f", healed.Uptime, failStop.Uptime)
	}
	if healed.MTTR <= 0 {
		t.Errorf("recovery MTTR %v, want > 0 (detection + reboot)", healed.MTTR)
	}
	// Goodput accounting stays honest: everything offered is either
	// served or an accounted fault drop.
	if failStop.Images+failStop.FaultDrops != 400 {
		t.Errorf("fail-stop served %d + dropped %d != 400 offered",
			failStop.Images, failStop.FaultDrops)
	}
	if healed.Images != 400 {
		t.Errorf("recovery served %d of 400 (drops: %d)", healed.Images, healed.FaultDrops)
	}
}

// TestResilienceEmptyPlanIsBaseline: with an empty plan, a session
// with full monitoring and recovery enabled reports exactly what the
// unconfigured session reports.
func TestResilienceEmptyPlanIsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience acceptance skipped in -short mode")
	}
	net, blob := resilienceWorkload(t)
	base := resilienceSession(t, net, blob, FaultPlan{}, RecoveryConfig{})
	monitored := resilienceSession(t, net, blob, FaultPlan{}, DefaultRecoveryConfig())
	if base.Images != monitored.Images || base.Throughput != monitored.Throughput {
		t.Errorf("images/throughput differ: %d/%.4f vs %d/%.4f",
			base.Images, base.Throughput, monitored.Images, monitored.Throughput)
	}
	if base.Goodput != monitored.Goodput || base.Latency.P99 != monitored.Latency.P99 {
		t.Errorf("goodput/p99 differ: %.4f/%v vs %.4f/%v",
			base.Goodput, base.Latency.P99, monitored.Goodput, monitored.Latency.P99)
	}
	if base.SimTime != monitored.SimTime || base.EnergyJoules != monitored.EnergyJoules {
		t.Errorf("simtime/energy differ: %v/%.4f vs %v/%.4f",
			base.SimTime, base.EnergyJoules, monitored.SimTime, monitored.EnergyJoules)
	}
	if monitored.Outages != 0 || monitored.Retries != 0 || monitored.FaultDrops != 0 {
		t.Errorf("monitored fault-free run reports availability events: %+v",
			[]int{monitored.Outages, monitored.Retries, monitored.FaultDrops})
	}
}

// TestResilienceDeterministic: a faulted, stochastic, self-healing
// run replays bit for bit — identical injections and identical
// serving outcomes across two sessions.
func TestResilienceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience acceptance skipped in -short mode")
	}
	net, blob := resilienceWorkload(t)
	plan := resiliencePlan
	plan.Processes = []FaultProcess{{
		Devices: []string{"ncs0", "ncs3"},
		Kinds:   []FaultKind{TransientError, Slowdown},
		Rate:    0.5,
		Start:   6 * time.Second,
		End:     12 * time.Second,
	}}
	run := func() *Report {
		return resilienceSession(t, net, blob, plan, DefaultRecoveryConfig())
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.FaultLog.Injections, b.FaultLog.Injections) {
		t.Errorf("injected fault sequences differ:\n%v\nvs\n%v",
			a.FaultLog.Injections, b.FaultLog.Injections)
	}
	if a.Images != b.Images || a.Goodput != b.Goodput ||
		a.Latency.P99 != b.Latency.P99 || a.SimTime != b.SimTime ||
		a.Retries != b.Retries || a.Outages != b.Outages {
		t.Errorf("two identical faulted runs diverge:\n%+v\nvs\n%+v", a, b)
	}
}
