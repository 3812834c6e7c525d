package repro

import (
	"testing"
	"time"
)

// runServingSession runs the issue's acceptance scenario: open-loop
// Poisson traffic into a heterogeneous CPU + 4-VPU session under
// latency-aware routing.
func runServingSession(t *testing.T, images int) *Report {
	t.Helper()
	sess, err := NewSession(SessionConfig{
		Images:   images,
		Groups:   []DeviceGroup{{Kind: CPUGroup, Batch: 8}, {Kind: VPUGroup, Devices: 4}},
		Arrivals: DelayedArrivals(PoissonArrivals(60), 2*time.Second),
		Routing:  RouteLatency,
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

// TestServingSessionAcceptance: a serving-mode session must classify
// every arrival exactly once and report a coherent per-group latency
// distribution — nonzero tail quantiles ordered p50 <= p95 <= p99 <=
// max, and a queue-wait vs service-time split that adds up to the
// total mean.
func TestServingSessionAcceptance(t *testing.T) {
	const images = 150
	rep := runServingSession(t, images)

	if rep.Images != images {
		t.Errorf("served %d requests, want %d", rep.Images, images)
	}
	check := func(name string, l LatencySummary, n int) {
		if l.N != n {
			t.Errorf("%s: latency over %d items, want %d", name, l.N, n)
		}
		if n == 0 {
			return
		}
		if l.P50 <= 0 || l.P95 < l.P50 || l.P99 < l.P95 || l.Max < l.P99 {
			t.Errorf("%s: inconsistent quantiles %+v", name, l)
		}
		if l.ServiceMean <= 0 {
			t.Errorf("%s: no service time measured", name)
		}
		if diff := l.Mean - (l.QueueMean + l.ServiceMean); diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: mean %v != queue %v + service %v", name, l.Mean, l.QueueMean, l.ServiceMean)
		}
	}
	check("total", rep.Latency, images)
	for _, tr := range rep.Targets {
		check(tr.Name, tr.Latency, tr.Images)
	}
	if rep.Arrivals == nil {
		t.Error("report does not name the arrival process")
	}
}

// TestServingSessionDeterminism: two identically configured serving
// runs must agree bit for bit — same per-group image counts, same
// latency quantiles to the nanosecond. The whole serving stack
// (Poisson arrivals, EWMA routing, device jitter) is driven by seeded
// PRNGs inside the deterministic simulation kernel.
func TestServingSessionDeterminism(t *testing.T) {
	const images = 120
	a := runServingSession(t, images)
	b := runServingSession(t, images)

	if a.Images != b.Images || a.Throughput != b.Throughput || a.SimTime != b.SimTime {
		t.Errorf("aggregate mismatch: %d/%.6f/%v vs %d/%.6f/%v",
			a.Images, a.Throughput, a.SimTime, b.Images, b.Throughput, b.SimTime)
	}
	if a.Latency != b.Latency {
		t.Errorf("merged latency mismatch:\n%+v\n%+v", a.Latency, b.Latency)
	}
	if len(a.Targets) != len(b.Targets) {
		t.Fatalf("group count mismatch: %d vs %d", len(a.Targets), len(b.Targets))
	}
	for i := range a.Targets {
		ta, tb := a.Targets[i], b.Targets[i]
		if ta.Images != tb.Images {
			t.Errorf("group %s: %d vs %d images", ta.Name, ta.Images, tb.Images)
		}
		if ta.Latency != tb.Latency {
			t.Errorf("group %s latency mismatch:\n%+v\n%+v", ta.Name, ta.Latency, tb.Latency)
		}
	}
}
