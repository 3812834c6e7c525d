package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/sim"
)

// steadyArrivals is a deterministic always-on arrival process at the
// given rate (a BurstyArrivals with a burst window far beyond any
// test horizon).
func steadyArrivals(ratePerSec float64) Arrivals {
	return BurstyArrivals(ratePerSec, time.Hour, 0)
}

// TestTenantMuxFairWorkConservation: under TenantFair an idle tenant
// reserves nothing — while one lane is backlogged the consumer is
// never left waiting, regardless of how much weight the idle lane
// carries.
func TestTenantMuxFairWorkConservation(t *testing.T) {
	env := sim.NewEnv()
	const items = 40
	// The idle lane holds 9x the weight but offers nothing for an
	// hour; the busy lane must receive the consumer's full attention.
	mux, err := NewTenantMux(env, sliceOf(items), TenantMuxOptions{
		Policy: TenantFair,
		Lanes: []TenantLane{
			{ID: "busy", Weight: 1, Arrivals: steadyArrivals(1000)},
			{ID: "idle", Weight: 9, Arrivals: DelayedArrivals(steadyArrivals(1000), time.Hour)},
		},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const service = 10 * time.Millisecond
	var gaps []time.Duration
	var last time.Duration
	delivered := 0
	env.Process("consumer", func(p *sim.Proc) {
		for {
			item, ok := mux.Next(p)
			if !ok {
				return
			}
			if delivered > 0 {
				gaps = append(gaps, p.Now()-last)
			}
			last = p.Now()
			delivered++
			p.Sleep(service)
			mux.Done(item.Tenant)
		}
	})
	env.Run()
	if delivered != items {
		t.Fatalf("delivered %d items, want %d", delivered, items)
	}
	busy := mux.Stats("busy")
	if busy.Dispatched != items-1 {
		t.Errorf("busy tenant dispatched %d, want %d (idle relay holds exactly one source item)",
			busy.Dispatched, items-1)
	}
	// Work conservation: while the busy lane is backlogged every
	// delivery follows the previous by exactly the service time — the
	// idle lane's 90%% share is redistributed, not reserved. (The last
	// gap is the idle tenant's lone item an hour out; skip it.)
	for i, g := range gaps[:busy.Dispatched-1] {
		if i > 0 && g != service {
			t.Fatalf("gap %d = %v, want %v (consumer starved while work was queued)", i, g, service)
		}
	}
}

// TestTenantMuxWeightProportionalService: under saturation (every
// lane backlogged) deficit-round-robin service converges to the
// weight proportions.
func TestTenantMuxWeightProportionalService(t *testing.T) {
	env := sim.NewEnv()
	const items = 400
	const take = 140 // 7 weight units: expect 20/40/80
	mux, err := NewTenantMux(env, sliceOf(items), TenantMuxOptions{
		Policy: TenantFair,
		Lanes: []TenantLane{
			{ID: "a", Weight: 1, Arrivals: steadyArrivals(1000)},
			{ID: "b", Weight: 2, Arrivals: steadyArrivals(1000)},
			{ID: "c", Weight: 4, Arrivals: steadyArrivals(1000)},
		},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Process("consumer", func(p *sim.Proc) {
		for n := 0; n < take; n++ {
			if _, ok := mux.Next(p); !ok {
				return
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	env.Run()
	got := map[string]int{}
	total := 0
	for _, id := range mux.TenantIDs() {
		got[id] = mux.Stats(id).Dispatched
		total += got[id]
	}
	if total != take {
		t.Fatalf("dispatched %d items, want %d", total, take)
	}
	want := map[string]int{"a": 20, "b": 40, "c": 80}
	for id, w := range want {
		if d := got[id] - w; d < -5 || d > 5 {
			t.Errorf("tenant %s dispatched %d, want %d±5 (weights not honored: %v)", id, got[id], w, got)
		}
	}
}

// TestTenantMuxMaxInFlightQuota: MaxInFlight caps
// admitted-but-uncompleted work. A consumer that never reports
// completions pins the whole tenant to its cap; one that completes
// promptly admits everything.
func TestTenantMuxMaxInFlightQuota(t *testing.T) {
	const items = 60
	run := func(done bool) TenantStats {
		t.Helper()
		env := sim.NewEnv()
		mux, err := NewTenantMux(env, sliceOf(items), TenantMuxOptions{
			Policy: TenantFair,
			Lanes: []TenantLane{
				{ID: "capped", Arrivals: steadyArrivals(1000), MaxInFlight: 2},
			},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.Process("consumer", func(p *sim.Proc) {
			for {
				item, ok := mux.Next(p)
				if !ok {
					return
				}
				if done {
					mux.Done(item.Tenant)
				}
			}
		})
		env.Run()
		return mux.Stats("capped")
	}
	leak := run(false)
	if leak.Admitted != 2 || leak.Dispatched != 2 {
		t.Errorf("without completions: admitted %d dispatched %d, want 2 and 2", leak.Admitted, leak.Dispatched)
	}
	if leak.QuotaRejected != items-2 {
		t.Errorf("without completions: %d quota rejections, want %d", leak.QuotaRejected, items-2)
	}
	ok := run(true)
	if ok.Admitted != items || ok.QuotaRejected != 0 {
		t.Errorf("with completions: admitted %d (quota rejected %d), want all %d admitted", ok.Admitted, ok.QuotaRejected, items)
	}
}

// TestTenantMuxRateQuota: the admitted-rate token bucket paces a
// tenant offering 4x its contracted rate down to roughly the
// contract, and every turned-away arrival is a quota rejection.
func TestTenantMuxRateQuota(t *testing.T) {
	env := sim.NewEnv()
	const items = 100
	mux, err := NewTenantMux(env, sliceOf(items), TenantMuxOptions{
		Policy: TenantFair,
		Lanes: []TenantLane{
			// 200/s offered against a 50/s contract: ~1 in 4 admitted.
			{ID: "paced", Arrivals: steadyArrivals(200), RatePerSec: 50},
		},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Process("consumer", func(p *sim.Proc) {
		for {
			item, ok := mux.Next(p)
			if !ok {
				return
			}
			mux.Done(item.Tenant)
		}
	})
	env.Run()
	st := mux.Stats("paced")
	if st.Arrived != items {
		t.Fatalf("arrived %d, want %d", st.Arrived, items)
	}
	if st.Arrived != st.Admitted+st.Shed+st.QuotaRejected {
		t.Errorf("accounting leak: arrived %d != admitted %d + shed %d + quota %d",
			st.Arrived, st.Admitted, st.Shed, st.QuotaRejected)
	}
	if st.Admitted < items/5 || st.Admitted > items/3 {
		t.Errorf("admitted %d of %d at 4x overload, want roughly a quarter", st.Admitted, items)
	}
	if st.QuotaRejected < items/2 {
		t.Errorf("only %d quota rejections at 4x overload", st.QuotaRejected)
	}
}

// TestTenantMuxFIFOArrivalOrder: the FIFO control policy delivers
// across tenants in true arrival order — the deliberate absence of
// isolation the fair policies are measured against.
func TestTenantMuxFIFOArrivalOrder(t *testing.T) {
	env := sim.NewEnv()
	const items = 60
	mux, err := NewTenantMux(env, sliceOf(items), TenantMuxOptions{
		Policy: TenantFIFO,
		Lanes: []TenantLane{
			{ID: "fast", Arrivals: steadyArrivals(300)},
			{ID: "slow", Arrivals: steadyArrivals(100)},
		},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	seen := map[string]int{}
	env.Process("consumer", func(p *sim.Proc) {
		for {
			item, ok := mux.Next(p)
			if !ok {
				return
			}
			arrivals = append(arrivals, item.ArrivedAt)
			seen[item.Tenant]++
			p.Sleep(2 * time.Millisecond)
		}
	})
	env.Run()
	if len(arrivals) != items {
		t.Fatalf("delivered %d items, want %d", len(arrivals), items)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Fatalf("delivery %d arrived %v after delivery %d arrived %v — FIFO order violated",
				i, arrivals[i], i-1, arrivals[i-1])
		}
	}
	if seen["fast"] == 0 || seen["slow"] == 0 {
		t.Errorf("expected both tenants in the shared stream, got %v", seen)
	}
}

// TestTenantMuxValidation: constructor rejects malformed options,
// each at the path of the rule it breaks.
func TestTenantMuxValidation(t *testing.T) {
	env := sim.NewEnv()
	lane := func(mod func(*TenantLane)) TenantMuxOptions {
		l := TenantLane{ID: "a", Arrivals: steadyArrivals(1)}
		mod(&l)
		return TenantMuxOptions{Lanes: []TenantLane{l}}
	}
	cases := []struct {
		name, path string
		opts       TenantMuxOptions
	}{
		{"unknown scheduler", "Policy", TenantMuxOptions{Policy: 9}},
		{"negative shared depth", "SharedDepth", TenantMuxOptions{SharedDepth: -1,
			Lanes: []TenantLane{{ID: "a", Arrivals: steadyArrivals(1)}}}},
		{"unknown shared policy", "SharedPolicy", TenantMuxOptions{SharedPolicy: 9}},
		{"no lanes", "Lanes", TenantMuxOptions{}},
		{"empty id", "Lanes[0].ID", lane(func(l *TenantLane) { l.ID = "" })},
		{"duplicate id", "Lanes[1].ID", TenantMuxOptions{Lanes: []TenantLane{
			{ID: "a", Arrivals: steadyArrivals(1)}, {ID: "a", Arrivals: steadyArrivals(1)}}}},
		{"no arrivals", "Lanes[0].Arrivals", lane(func(l *TenantLane) { l.Arrivals = nil })},
		{"negative weight", "Lanes[0].Weight", lane(func(l *TenantLane) { l.Weight = -1 })},
		{"negative deadline", "Lanes[0].Deadline", lane(func(l *TenantLane) { l.Deadline = -time.Second })},
		{"negative depth", "Lanes[0].Depth", lane(func(l *TenantLane) { l.Depth = -1 })},
		{"unknown overload policy", "Lanes[0].Policy", lane(func(l *TenantLane) { l.Policy = 9 })},
		{"negative quota", "Lanes[0].MaxInFlight", lane(func(l *TenantLane) { l.MaxInFlight = -1 })},
		{"infinite rate", "Lanes[0].RatePerSec", lane(func(l *TenantLane) { l.RatePerSec = math.Inf(1) })},
		{"negative burst", "Lanes[0].Burst", lane(func(l *TenantLane) { l.Burst = -1 })},
	}
	for _, tc := range cases {
		_, err := NewTenantMux(env, sliceOf(1), tc.opts, nil, nil)
		var fe *field.Error
		if !errors.As(err, &fe) || fe.Path != tc.path {
			t.Errorf("%s: got %v, want a field error at %s", tc.name, err, tc.path)
		}
	}
	if _, err := NewTenantMux(env, nil, TenantMuxOptions{
		Lanes: []TenantLane{{ID: "a", Arrivals: steadyArrivals(1)}}}, nil, nil); err == nil {
		t.Error("nil inner source accepted")
	}
}
