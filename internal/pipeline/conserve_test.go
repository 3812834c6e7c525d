package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestEdgeConservation checks the end-of-run edge laws as pure
// functions: balanced counters pass, whether the queue drained or
// not, and every deliberately inconsistent value fails with a message
// naming the broken law. A ShedOldest victim is counted as admitted
// and shed, so Admitted never enters the law.
func TestEdgeConservation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		st      core.AdmissionStats
		queued  int
		wantErr string
	}{
		{name: "drained", st: core.AdmissionStats{Arrived: 10, Admitted: 8, Dispatched: 6, Shed: 2, Expired: 2}},
		{name: "shed-oldest victims counted as admitted", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 7, Shed: 3}},
		{name: "items left queued", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 7}, queued: 3},
		{name: "an arrival lost", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 9},
			wantErr: "admission edge not conserved: 10 arrived, but dispatched 9 + shed 0 + expired 0 + queued 0 = 9"},
		{name: "an item counted twice", st: core.AdmissionStats{Arrived: 10, Admitted: 10, Dispatched: 10, Expired: 1},
			wantErr: "= 11"},
	} {
		t.Run("admission/"+tc.name, func(t *testing.T) {
			checkErr(t, admissionConserved(tc.st, tc.queued), tc.wantErr)
		})
	}

	for _, tc := range []struct {
		name    string
		stats   []core.TenantStats
		queued  int
		wantErr string
	}{
		{name: "drained", stats: []core.TenantStats{
			{Arrived: 10, Admitted: 8, Dispatched: 5, Expired: 1, Shed: 2, QuotaRejected: 2},
			{Arrived: 4, Admitted: 4, Dispatched: 4},
		}},
		{name: "items left queued", queued: 3, stats: []core.TenantStats{
			{Arrived: 10, Admitted: 10, Dispatched: 8},
			{Arrived: 4, Admitted: 4, Dispatched: 3},
		}},
		{name: "a lane over-counted", stats: []core.TenantStats{
			{Arrived: 10, Admitted: 10, Dispatched: 10, Shed: 1},
		}, wantErr: `tenant "t0" edge not conserved: 10 arrived, but dispatched 10 + shed 1 + expired 0 + quota 0 = 11`},
		{name: "the queues disagree", queued: 1, stats: []core.TenantStats{
			{Arrived: 10, Admitted: 10, Dispatched: 10},
		}, wantErr: "the lanes hold 0 undispatched arrivals, the queues 1"},
		{name: "one lane's surplus hides another's loss", queued: 1, stats: []core.TenantStats{
			{Arrived: 5, Dispatched: 3},
			{Arrived: 5, Dispatched: 6},
		}, wantErr: `tenant "t1"`},
	} {
		t.Run("tenants/"+tc.name, func(t *testing.T) {
			ids := make([]string, len(tc.stats))
			for i := range ids {
				ids[i] = fmt.Sprint("t", i)
			}
			checkErr(t, tenantsConserved(ids, tc.stats, tc.queued), tc.wantErr)
		})
	}
}

// checkErr requires err to be nil when want is empty, else to contain
// want.
func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("unexpected error: %v", err)
	case want != "" && err == nil:
		t.Errorf("no error, want one containing %q", want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// TestEdgeDrainsWhenFleetFails: an ingress whose whole fleet
// fail-stops must end the run with every arrival accounted for,
// instead of deadlocking a bounded relay or a stream's producer on a
// full queue, or leaving the dataset's remaining images or an arrival
// source's later arrivals counted nowhere. The one stick hangs
// mid-run and is abandoned; every item the edge still holds, or
// receives after that, is counted once as a fault drop, in the report
// and in its tenant's row, and the edge still balances.
func TestEdgeDrainsWhenFleetFails(t *testing.T) {
	const images = 60
	lanes := func(policy core.TenantPolicy) core.TenantMuxOptions {
		return core.TenantMuxOptions{Policy: policy, Lanes: []core.TenantLane{
			{ID: "a", Arrivals: core.DeterministicArrivals(10), Depth: 2},
			{ID: "b", Arrivals: core.DeterministicArrivals(10), Depth: 2, Policy: core.Block},
		}}
	}
	admission := func(policy core.OverloadPolicy) Config {
		return Config{Arrivals: core.DeterministicArrivals(20), AdmissionDepth: 2, AdmissionPolicy: policy}
	}
	streamCapacity := 2
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dataset", Config{}},
		{"arrivals", Config{Arrivals: core.DeterministicArrivals(20)}},
		{"stream", Config{StreamCapacity: &streamCapacity}},
		{"admission/shed-newest", admission(core.ShedNewest)},
		{"admission/shed-oldest", admission(core.ShedOldest)},
		{"admission/block", admission(core.Block)},
		{"tenants/fifo", Config{Tenants: lanes(core.TenantFIFO)}},
		{"tenants/fair", Config{Tenants: lanes(core.TenantFair)}},
		{"foreign/admission", Config{StreamCapacity: &streamCapacity, AdmissionDepth: 2, AdmissionPolicy: core.Block}},
		{"foreign/stream", Config{StreamCapacity: &streamCapacity}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Images = images
			cfg.Groups = []Group{{Kind: GroupVPU, Devices: 1}}
			cfg.Faults = fault.Plan{Events: []fault.Event{
				{Device: "ncs0", Kind: fault.StickHang, At: 2200 * time.Millisecond},
			}}
			cfg.Recovery = core.RecoveryConfig{Timeout: 500 * time.Millisecond, Recover: false}
			sess, err := NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A foreign/ case reads the images from a SetSource source.
			foreign := strings.HasPrefix(tc.name, "foreign/")
			if foreign {
				items := make([]core.Item, images)
				for i := range items {
					items[i] = core.Item{Index: i, Label: -1}
				}
				sess.SetSource(foreignSource{core.NewSliceSource(items)})
			}
			// A stream's producer pushes a frame every 50 ms and must
			// not stay parked on the full buffer once the fleet fails.
			// A SetSource source replaces the stream, so nothing pushes.
			pushed := 0
			if stream := sess.Stream(); stream != nil && !foreign {
				sess.Env().Process("producer", func(p *sim.Proc) {
					for i := 0; i < images; i++ {
						stream.Push(p, core.Item{Index: i, Label: -1})
						pushed++
						p.Sleep(50 * time.Millisecond)
					}
					stream.Close(p)
				})
			}
			rep, err := sess.Run()
			if err == nil || !strings.Contains(err.Error(), "core: device ncs0 abandoned") {
				t.Fatalf("Run error %v, want the abandoned device", err)
			}
			if sess.Stream() != nil && !foreign && pushed != images {
				t.Errorf("producer pushed %d of %d frames", pushed, images)
			}
			if rep == nil {
				t.Fatal("no report")
			}
			if rep.Images == 0 || rep.FaultDrops == 0 {
				t.Errorf("completed %d, fault drops %d: want both before and after the hang", rep.Images, rep.FaultDrops)
			}
			if got := rep.Collector.Arrivals(); got != images {
				t.Errorf("report accounts %d arrivals (completed %d + shed %d + expired %d + fault %d + quota %d), want %d",
					got, rep.Images, rep.Shed, rep.Expired, rep.FaultDrops, rep.QuotaRejected, images)
			}
			if a := sess.admission; a != nil && a.Pending() != 0 {
				t.Errorf("admission queue still holds %d items", a.Pending())
			}
			for _, tr := range rep.Tenants {
				st := tr.Stats
				if st.Arrived != st.Dispatched+st.Shed+st.Expired+st.QuotaRejected {
					t.Errorf("tenant %s holds undispatched arrivals: %+v", tr.ID, st)
				}
				if tr.FaultDrops != st.Dispatched-tr.Completed {
					t.Errorf("tenant %s: %d fault drops, want dispatched %d - completed %d",
						tr.ID, tr.FaultDrops, st.Dispatched, tr.Completed)
				}
			}
		})
	}
}

// TestMergedConserved: the merged collector's count must equal the
// sum of its parts'; a result sunk twice into a part, or into the
// merged collector alone, is an error.
func TestMergedConserved(t *testing.T) {
	a, b := core.NewCollector(false), core.NewCollector(false)
	merged := core.NewMergedCollector(false, a, b)
	res := core.Result{Index: 0, Label: -1, Pred: -1, End: time.Millisecond}
	a.Sink()(res)
	merged.Sink()(res)
	b.Sink()(res)
	merged.Sink()(res)
	if err := mergedConserved(merged, []*core.Collector{a, b}); err != nil {
		t.Fatalf("balanced view: %v", err)
	}
	b.Sink()(res) // sunk twice into b
	err := mergedConserved(merged, []*core.Collector{a, b})
	if want := "merged collector counted 2 results, its parts 3"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want one containing %q", err, want)
	}
	merged.Sink()(res)
	merged.Sink()(res) // sunk into the merged collector alone
	err = mergedConserved(merged, []*core.Collector{a, b})
	if want := "merged collector counted 4 results, its parts 3"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want one containing %q", err, want)
	}
}

// TestIngressConserved: the session law — the report accounts for
// every item the ingress released — holds on every kind of ingress,
// each counting its own releases: a dataset source read directly (its
// Images), an arrival process that ends before the dataset does (its
// arrivals), a stream (its pushes), admission over arrivals and tenant
// lanes (their arrivals). A source passed to SetSource counts nothing,
// so the law is skipped there. The pure check names a lost or doubly
// counted item.
func TestIngressConserved(t *testing.T) {
	checkErr(t, ingressConserved(10, 10), "")
	checkErr(t, ingressConserved(9, 10), "ingress not conserved: the ingress released 10 items, but the report accounts for 9")
	checkErr(t, ingressConserved(11, 10), "accounts for 11")

	const images = 40
	stream := 0
	trace := make([]time.Duration, 25)
	for i := range trace {
		trace[i] = time.Duration(i+1) * 5 * time.Millisecond
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want int // items released; -1: the law is skipped
	}{
		{"dataset", Config{}, images},
		{"arrivals end first", Config{Arrivals: core.TraceArrivals(trace)}, len(trace)},
		{"stream", Config{StreamCapacity: &stream}, 30},
		{"admission", Config{Arrivals: core.DeterministicArrivals(400), AdmissionDepth: 2}, images},
		{"tenants", Config{Tenants: core.TenantMuxOptions{Lanes: []core.TenantLane{
			{ID: "a", Arrivals: core.DeterministicArrivals(300), Depth: 1},
			{ID: "b", Arrivals: core.PoissonArrivals(300), Depth: 1, RatePerSec: 100},
		}}}, images},
		{"foreign source", Config{}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Images = images
			cfg.Groups = []Group{{Kind: GroupCPU, Batch: 4}}
			sess, err := NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := sess.Stream(); st != nil {
				sess.Env().Process("producer", func(p *sim.Proc) {
					for i := 0; i < tc.want; i++ {
						st.Push(p, core.Item{Index: i, Label: -1})
						p.Sleep(time.Millisecond)
					}
					st.Close(p)
				})
			}
			if tc.want < 0 {
				sess.SetSource(foreignSource{core.NewSliceSource(make([]core.Item, 7))})
			}
			rep, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			n, ok := sess.released()
			switch {
			case tc.want < 0 && ok:
				t.Errorf("a foreign source released %d items, want the law skipped", n)
			case tc.want >= 0 && (!ok || n != tc.want):
				t.Errorf("released %d (counted %v), want %d", n, ok, tc.want)
			case ok && rep.Collector.Arrivals() != n:
				t.Errorf("report accounts for %d of %d released items", rep.Collector.Arrivals(), n)
			}
		})
	}
}

// foreignSource is a Source from outside package core.
type foreignSource struct{ core.Source }
