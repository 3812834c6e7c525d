package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// recoveryOutcome captures what the recovery hooks observed.
type recoveryOutcome struct {
	retries  int
	drops    int
	outages  int
	repaired int
	downtime time.Duration
}

func recoveryHooks(out *recoveryOutcome) (func(Item, time.Duration), func(Item, time.Duration), func(string, time.Duration, time.Duration, bool)) {
	return func(Item, time.Duration) { out.retries++ },
		func(Item, time.Duration) { out.drops++ },
		func(_ string, from, to time.Duration, recovered bool) {
			out.outages++
			if recovered {
				out.repaired++
				out.downtime += to - from
			}
		}
}

// runFaulted drives images through a VPU target with the given
// recovery policy, running inject at the given instant, and returns
// the job, the per-index completion counts and the hook observations.
func runFaulted(t *testing.T, devices, images int, rc RecoveryConfig, at time.Duration, inject func(tb *testbed)) (*Job, map[int]int, *recoveryOutcome) {
	t.Helper()
	tb := newTestbed(t, devices, nn.NewGoogLeNet(rng.New(1)), images)
	out := &recoveryOutcome{}
	rc.OnRetry, rc.OnDrop, rc.OnOutage = recoveryHooks(out)
	opts := DefaultVPUOptions()
	opts.Recovery = rc
	target, err := NewVPUTarget(tb.devices, tb.blob, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, images)
	if err != nil {
		t.Fatal(err)
	}
	if inject != nil {
		tb.env.At(at, func() { inject(tb) })
	}
	seen := map[int]int{}
	job := target.Start(tb.env, src, func(r Result) { seen[r.Index]++ })
	tb.env.Run()
	return job, seen, out
}

// TestVPURecoveryHealsHang: a stick that hangs mid-run is detected by
// the completion timeout, re-opened at the firmware-boot cost, and its
// in-flight items are redelivered — every item completes exactly once
// and the job carries no error.
func TestVPURecoveryHealsHang(t *testing.T) {
	const n = 30
	rc := RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: true, MaxAttempts: 3}
	job, seen, out := runFaulted(t, 2, n, rc, 2200*time.Millisecond,
		func(tb *testbed) { tb.devices[0].InjectHang() })
	if job.Err != nil {
		t.Fatalf("recovered job errored: %v", job.Err)
	}
	if len(seen) != n {
		t.Fatalf("%d distinct items completed, want %d", len(seen), n)
	}
	for idx, c := range seen {
		if c != 1 {
			t.Errorf("item %d completed %d times", idx, c)
		}
	}
	if out.outages != 1 || out.repaired != 1 {
		t.Errorf("outages=%d repaired=%d, want 1/1", out.outages, out.repaired)
	}
	if out.retries == 0 {
		t.Error("no redeliveries recorded for the hung device's in-flight items")
	}
	if out.drops != 0 {
		t.Errorf("%d items dropped; recovery should redeliver them all", out.drops)
	}
	// The outage costs the detection timeout plus the real re-open
	// (firmware upload + RTOS boot + graph re-allocation ≈ 1.7 s soup
	// to nuts; the recorded span starts at detection).
	if out.downtime < time.Second || out.downtime > 3*time.Second {
		t.Errorf("recorded downtime %v implausible for a reboot-priced recovery", out.downtime)
	}
}

// TestVPUFailStopAbandonsDevice: with recovery off (fail-stop), a hang
// costs the hung device's in-flight items (dropped through OnDrop, so
// goodput accounting stays honest) and the surviving stick absorbs the
// rest of the source.
func TestVPUFailStopAbandonsDevice(t *testing.T) {
	const n = 30
	rc := RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: false}
	job, seen, out := runFaulted(t, 2, n, rc, 2200*time.Millisecond,
		func(tb *testbed) { tb.devices[0].InjectHang() })
	if job.Err == nil {
		t.Fatal("abandoning a device must surface on the job error")
	}
	if out.outages != 1 || out.repaired != 0 {
		t.Errorf("outages=%d repaired=%d, want 1/0", out.outages, out.repaired)
	}
	if out.drops == 0 {
		t.Error("fail-stop dropped nothing; the hung in-flight items must be accounted")
	}
	if got := len(seen) + out.drops; got != n {
		t.Errorf("completed %d + dropped %d = %d items, want %d", len(seen), out.drops, got, n)
	}
	for idx, c := range seen {
		if c != 1 {
			t.Errorf("item %d completed %d times", idx, c)
		}
	}
}

// TestVPULinkDropRecovery: a severed USB link (MVNC_GONE) is detected
// immediately (the blocked GetResult is woken with ErrClosed), the
// device is re-enumerated and re-opened, and the run completes.
func TestVPULinkDropRecovery(t *testing.T) {
	const n = 24
	rc := RecoveryConfig{Timeout: time.Second, Recover: true}
	job, seen, out := runFaulted(t, 2, n, rc, 2200*time.Millisecond,
		func(tb *testbed) { tb.devices[1].InjectLinkDrop() })
	if job.Err != nil {
		t.Fatalf("recovered job errored: %v", job.Err)
	}
	if len(seen) != n {
		t.Fatalf("%d distinct items completed, want %d", len(seen), n)
	}
	if out.outages != 1 || out.repaired != 1 {
		t.Errorf("outages=%d repaired=%d, want 1/1", out.outages, out.repaired)
	}
}

// TestVPUTransientErrorsRedelivered: fault-injected transient
// inference errors are redelivered within the attempt budget — no
// outage, no drops, every item completes.
func TestVPUTransientErrorsRedelivered(t *testing.T) {
	const n = 20
	rc := RecoveryConfig{Timeout: time.Second, Recover: true, MaxAttempts: 3}
	job, seen, out := runFaulted(t, 1, n, rc, 2200*time.Millisecond,
		func(tb *testbed) { tb.devices[0].InjectTransientErrors(2) })
	if job.Err != nil {
		t.Fatalf("job errored: %v", job.Err)
	}
	if len(seen) != n {
		t.Fatalf("%d distinct items completed, want %d", len(seen), n)
	}
	if out.retries != 2 {
		t.Errorf("retries = %d, want 2 (one per injected transient)", out.retries)
	}
	if out.outages != 0 || out.drops != 0 {
		t.Errorf("outages=%d drops=%d; transient errors must not cost the device or the items",
			out.outages, out.drops)
	}
}

// TestVPUTransientBudgetExhausted: with a single delivery allowed, a
// transient error consumes the item's whole budget and it is dropped.
func TestVPUTransientBudgetExhausted(t *testing.T) {
	const n = 20
	rc := RecoveryConfig{Timeout: time.Second, Recover: true, MaxAttempts: 1}
	job, seen, out := runFaulted(t, 1, n, rc, 2200*time.Millisecond,
		func(tb *testbed) { tb.devices[0].InjectTransientErrors(3) })
	if job.Err != nil {
		t.Fatalf("job errored: %v", job.Err)
	}
	if out.drops != 3 {
		t.Errorf("drops = %d, want 3 (budget of 1 delivery)", out.drops)
	}
	if out.retries != 0 {
		t.Errorf("retries = %d, want 0", out.retries)
	}
	if got := len(seen) + out.drops; got != n {
		t.Errorf("completed %d + dropped %d = %d, want %d", len(seen), out.drops, got, n)
	}
}

// TestPoolRoutesAroundUnhealthyChild: in a pool of single-stick
// groups under latency routing, a child whose stick hangs is marked
// unhealthy — its feed is drained back and re-dealt to the healthy
// child — and it rejoins after recovery; every item completes exactly
// once with no pool error.
func TestPoolRoutesAroundUnhealthyChild(t *testing.T) {
	const n = 40
	tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), n)
	rc := RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: true}
	children := make([]Target, 2)
	for i := range children {
		opts := DefaultVPUOptions()
		opts.Recovery = rc
		target, err := NewVPUTarget(tb.devices[i:i+1], tb.blob, opts)
		if err != nil {
			t.Fatal(err)
		}
		children[i] = target
	}
	pool, err := NewPool(children, PoolOptions{Routing: RouteLatency})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	tb.env.At(2200*time.Millisecond, func() { tb.devices[0].InjectHang() })
	seen := map[int]int{}
	job := pool.Start(tb.env, src, func(r Result) { seen[r.Index]++ })
	tb.env.Run()
	if job.Err != nil {
		t.Fatalf("pool job errored: %v", job.Err)
	}
	if len(seen) != n {
		t.Fatalf("%d distinct items completed, want %d", len(seen), n)
	}
	for idx, c := range seen {
		if c != 1 {
			t.Errorf("item %d completed %d times", idx, c)
		}
	}
	jobs := pool.ChildJobs()
	if jobs[1].Images <= jobs[0].Images {
		t.Errorf("healthy child served %d vs hung child's %d; failover should shift the load",
			jobs[1].Images, jobs[0].Images)
	}
}

// TestRecoveryMonitoringFreeWithoutFaults: with no faults injected, a
// health-monitored run must be indistinguishable from an unmonitored
// one — same completions, same virtual-time spans — so the acceptance
// bar "identical to the fault-free baseline under an empty plan"
// holds by construction.
func TestRecoveryMonitoringFreeWithoutFaults(t *testing.T) {
	const n = 24
	run := func(rc RecoveryConfig) (*Job, []Result) {
		tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), n)
		opts := DefaultVPUOptions()
		opts.Recovery = rc
		target, err := NewVPUTarget(tb.devices, tb.blob, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewDatasetSource(tb.ds, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		var results []Result
		job := target.Start(tb.env, src, func(r Result) { results = append(results, r) })
		tb.env.Run()
		if job.Err != nil {
			t.Fatal(job.Err)
		}
		return job, results
	}
	plainJob, plain := run(RecoveryConfig{})
	monJob, monitored := run(DefaultRecoveryConfig())
	if len(plain) != len(monitored) {
		t.Fatalf("result counts differ: %d vs %d", len(plain), len(monitored))
	}
	for i := range plain {
		a, b := plain[i], monitored[i]
		if a.Index != b.Index || a.Start != b.Start || a.End != b.End || a.Device != b.Device {
			t.Fatalf("result %d differs: %+v vs %+v", i, a, b)
		}
	}
	if plainJob.DoneAt != monJob.DoneAt {
		t.Errorf("makespan differs: %v vs %v", plainJob.DoneAt, monJob.DoneAt)
	}
}

// TestVPUEveryStickFailStops: when every stick is abandoned mid-run,
// the dispatcher is left holding an item with no live worker, and the
// workers' queues strand more. Each of those losses must be accounted:
// through Recovery.OnDrop when it is set (every index is served or
// dropped exactly once, and served + dropped + undealt = n), on the
// job error when it is not.
func TestVPUEveryStickFailStops(t *testing.T) {
	const n = 30
	run := func(observe bool) (*Job, map[int]int, map[int]int, int) {
		tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), n)
		dropped := map[int]int{}
		opts := DefaultVPUOptions()
		opts.Recovery = RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: false}
		if observe {
			opts.Recovery.OnDrop = func(it Item, _ time.Duration) { dropped[it.Index]++ }
		}
		target, err := NewVPUTarget(tb.devices, tb.blob, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewDatasetSource(tb.ds, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		tb.env.At(2200*time.Millisecond, func() {
			for _, d := range tb.devices {
				d.InjectHang()
			}
		})
		seen := map[int]int{}
		job := target.Start(tb.env, src, func(r Result) { seen[r.Index]++ })
		tb.env.Run()
		if !job.Done() {
			t.Fatal("job never finished")
		}
		return job, seen, dropped, src.Remaining()
	}

	_, seen, dropped, left := run(true)
	if len(dropped) == 0 {
		t.Fatal("no item dropped although every stick was abandoned")
	}
	for idx, c := range seen {
		if c != 1 || dropped[idx] != 0 {
			t.Errorf("item %d served %d times and dropped %d times", idx, c, dropped[idx])
		}
	}
	for idx, c := range dropped {
		if c != 1 {
			t.Errorf("item %d dropped %d times", idx, c)
		}
	}
	if got := len(seen) + len(dropped) + left; got != n {
		t.Errorf("served %d + dropped %d + undealt %d = %d, want %d", len(seen), len(dropped), left, got, n)
	}

	if job, _, _, _ := run(false); job.Err == nil {
		t.Error("losing every stick without an OnDrop observer must surface on the job error")
	}
}

// TestVPUDeviceErrorWithoutMonitoringFailStops: with health
// monitoring off (a zero Timeout), a device error still abandons the
// stick fail-stop, the way Recover: false does, instead of leaving its
// worker gone while the dealer keeps filling its feed. A link drop
// while ncs0 waits for a result, and one that lands inside a
// LoadTensor transfer, both end the run: every index is served or
// dropped exactly once, ncs0's outage is reported unrecovered, and the
// job error names ncs0 as abandoned.
func TestVPUDeviceErrorWithoutMonitoringFailStops(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		name string
		at   time.Duration
		note string // expected in ncs0's Down span note
	}{
		{"get-result", 2500 * time.Millisecond, "completion timeout or dead link"},
		{"load-tensor", 2545 * time.Millisecond, "load failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), n)
			dropped := map[int]int{}
			var outages []string
			opts := DefaultVPUOptions()
			opts.Timeline = trace.New()
			opts.Recovery = RecoveryConfig{
				OnDrop: func(it Item, _ time.Duration) { dropped[it.Index]++ },
				OnOutage: func(dev string, _, _ time.Duration, recovered bool) {
					outages = append(outages, fmt.Sprintf("%s recovered=%v", dev, recovered))
				},
			}
			target, err := NewVPUTarget(tb.devices, tb.blob, opts)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewDatasetSource(tb.ds, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			tb.env.At(tc.at, func() { tb.devices[0].InjectLinkDrop() })
			seen := map[int]int{}
			job := target.Start(tb.env, src, func(r Result) { seen[r.Index]++ })
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Run panicked after %d of %d items: %v", len(seen), n, r)
					}
				}()
				tb.env.Run()
			}()

			for i := 0; i < n; i++ {
				if seen[i]+dropped[i] != 1 {
					t.Errorf("item %d served %d times and dropped %d times", i, seen[i], dropped[i])
				}
			}
			if got := job.Images + len(dropped); got != n {
				t.Errorf("served %d + dropped %d = %d, want %d", job.Images, len(dropped), got, n)
			}
			if want := []string{"ncs0 recovered=false"}; !slices.Equal(outages, want) {
				t.Errorf("outages %q, want %q", outages, want)
			}
			if job.Err == nil || !strings.Contains(job.Err.Error(), "device ncs0 abandoned") {
				t.Errorf("job error %v, want ncs0 abandoned", job.Err)
			}
			var notes []string
			for _, s := range opts.Timeline.Spans() {
				if s.Kind == trace.Down {
					notes = append(notes, s.Track+": "+s.Note)
				}
			}
			if len(notes) != 1 || !strings.HasPrefix(notes[0], "ncs0: "+tc.note) {
				t.Errorf("Down spans %q, want one on ncs0 noting %q", notes, tc.note)
			}
		})
	}
}
