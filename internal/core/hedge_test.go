package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// hedgeCounters collects the hedge hook observations of one run.
type hedgeCounters struct {
	launched, wins, waste int
}

func hedgeHooks(out *hedgeCounters) (h, w, x func(Item, int, time.Duration)) {
	return func(Item, int, time.Duration) { out.launched++ },
		func(Item, int, time.Duration) { out.wins++ },
		func(Item, int, time.Duration) { out.waste++ }
}

// TestPoolHedgeWinAndWaste: a straggler child holds items past the
// trigger while the deal is live, duplicates land on the fast child
// and win, and the straggler's eventual completions are discarded —
// the sink sees every item exactly once. (Hedges launch only while
// the dispatcher is live: enough items keep it busy here.)
func TestPoolHedgeWinAndWaste(t *testing.T) {
	slow := &stubTarget{name: "slow", latency: time.Second}
	fast := &stubTarget{name: "fast", latency: 10 * time.Millisecond}
	out := &hedgeCounters{}
	hc := HedgeConfig{Trigger: 100 * time.Millisecond}
	hc.OnHedge, hc.OnWin, hc.OnWaste = hedgeHooks(out)
	const n = 8
	_, job, seen := runPool(t, []Target{slow, fast},
		PoolOptions{Routing: RouteRoundRobin, Hedge: hc}, n)
	if job.Err != nil {
		t.Fatalf("pool error: %v", job.Err)
	}
	checkConservation(t, seen, n, "hedged pool")
	if out.launched == 0 {
		t.Fatal("no hedge launched for a 1s straggler under a 100ms trigger")
	}
	if out.wins == 0 {
		t.Error("hedge duplicates on the fast child should win against the 1s straggler")
	}
	if out.waste == 0 {
		t.Error("the straggler's in-service completion should be discarded as waste")
	}
	if job.Images != n {
		t.Errorf("job.Images = %d, want %d (duplicates must not double-count)", job.Images, n)
	}
}

// TestPoolHedgeCancelsQueuedLoser: when a duplicate wins while the
// primary copy still sits in the straggler's feed queue, the primary
// is withdrawn — no device serves it and no waste is recorded for it,
// so waste stays strictly below the launch count.
func TestPoolHedgeCancelsQueuedLoser(t *testing.T) {
	slow := &stubTarget{name: "slow", latency: time.Second}
	fast := &stubTarget{name: "fast", latency: 10 * time.Millisecond}
	out := &hedgeCounters{}
	hc := HedgeConfig{Trigger: 100 * time.Millisecond}
	hc.OnHedge, hc.OnWin, hc.OnWaste = hedgeHooks(out)
	// Round-robin sends half the items to the straggler; everything
	// beyond its in-service item waits in the bounded feed, gets
	// hedged, wins on the fast child, and is cancelled out of the
	// straggler's queue.
	const n = 10
	_, job, seen := runPool(t, []Target{slow, fast},
		PoolOptions{Routing: RouteRoundRobin, Hedge: hc}, n)
	if job.Err != nil {
		t.Fatalf("pool error: %v", job.Err)
	}
	checkConservation(t, seen, n, "hedged pool with cancel")
	if out.launched < 2 {
		t.Fatalf("launched = %d, want >= 2", out.launched)
	}
	if out.wins < 2 {
		t.Errorf("wins = %d, want >= 2", out.wins)
	}
	if out.waste == 0 {
		t.Error("the in-service loser should be discarded as waste")
	}
	if out.waste >= out.launched {
		t.Errorf("waste %d not below launched %d: queued losers must be cancelled, not served",
			out.waste, out.launched)
	}
	if job.Images != n {
		t.Errorf("job.Images = %d, want %d", job.Images, n)
	}
}

// TestPoolHedgeNeverBitIdentical: a pool armed with HedgeNever must
// produce exactly the result stream of an unhedged pool — same
// indices, same devices, same timestamps, in the same order.
func TestPoolHedgeNeverBitIdentical(t *testing.T) {
	run := func(hc HedgeConfig) []Result {
		children := []Target{
			&stubTarget{name: "a", latency: 40 * time.Millisecond},
			&stubTarget{name: "b", latency: 15 * time.Millisecond},
		}
		pool, err := NewPool(children, PoolOptions{Routing: RouteLatency, Hedge: hc})
		if err != nil {
			t.Fatal(err)
		}
		env := sim.NewEnv()
		var results []Result
		job := pool.Start(env, sliceOf(40), func(r Result) { results = append(results, r) })
		env.Run()
		if job.Err != nil {
			t.Fatalf("pool error: %v", job.Err)
		}
		return results
	}
	plain := run(HedgeConfig{})
	never := run(HedgeConfig{Trigger: HedgeNever})
	if len(plain) != len(never) {
		t.Fatalf("result counts differ: %d unhedged vs %d trigger=∞", len(plain), len(never))
	}
	for i := range plain {
		if plain[i] != never[i] {
			t.Fatalf("result %d differs: unhedged %+v vs trigger=∞ %+v", i, plain[i], never[i])
		}
	}
}

// TestPoolHedgeBudget: a tiny budget suppresses hedging entirely on a
// small run — the straggler finishes its own work.
func TestPoolHedgeBudget(t *testing.T) {
	slow := &stubTarget{name: "slow", latency: 500 * time.Millisecond}
	fast := &stubTarget{name: "fast", latency: 10 * time.Millisecond}
	out := &hedgeCounters{}
	hc := HedgeConfig{Trigger: 50 * time.Millisecond, Budget: 0.001}
	hc.OnHedge, hc.OnWin, hc.OnWaste = hedgeHooks(out)
	_, job, seen := runPool(t, []Target{slow, fast},
		PoolOptions{Routing: RouteRoundRobin, Hedge: hc}, 6)
	if job.Err != nil {
		t.Fatalf("pool error: %v", job.Err)
	}
	checkConservation(t, seen, 6, "budgeted hedging")
	if out.launched != 0 {
		t.Errorf("launched = %d, want 0 under a 0.1%% budget", out.launched)
	}
}

// TestPoolHedgeQuantileWarmup: a quantile-only trigger launches
// nothing until MinSamples completions have been observed, then
// hedges the stragglers.
func TestPoolHedgeQuantileWarmup(t *testing.T) {
	slow := &stubTarget{name: "slow", latency: 400 * time.Millisecond}
	fast := &stubTarget{name: "fast", latency: 10 * time.Millisecond}
	out := &hedgeCounters{}
	hc := HedgeConfig{Quantile: 0.5, MinSamples: 6}
	hc.OnHedge, hc.OnWin, hc.OnWaste = hedgeHooks(out)
	_, job, seen := runPool(t, []Target{slow, fast},
		PoolOptions{Routing: RouteRoundRobin, Hedge: hc}, 24)
	if job.Err != nil {
		t.Fatalf("pool error: %v", job.Err)
	}
	checkConservation(t, seen, 24, "quantile hedging")
	if out.launched == 0 {
		t.Error("no hedge launched after quantile warmup against a 40x straggler")
	}
	if out.waste > out.launched {
		t.Errorf("waste %d exceeds launched %d", out.waste, out.launched)
	}
}

// TestNewPoolHedgeValidation: hedging rejects work-stealing routing
// and single-child pools.
func TestNewPoolHedgeValidation(t *testing.T) {
	two := []Target{&stubTarget{name: "a"}, &stubTarget{name: "b"}}
	if _, err := NewPool(two, PoolOptions{Routing: RouteWorkStealing,
		Hedge: HedgeConfig{Trigger: time.Second}}); err == nil {
		t.Error("work-stealing + hedging must be rejected (no per-child feeds)")
	}
	if _, err := NewPool(two[:1], PoolOptions{Hedge: HedgeConfig{Trigger: time.Second}}); err == nil {
		t.Error("single-child hedging must be rejected")
	}
	if _, err := NewPool(two, PoolOptions{Hedge: HedgeConfig{Trigger: -1}}); err == nil {
		t.Error("negative trigger must be rejected")
	}
	if _, err := NewPool(two, PoolOptions{Hedge: HedgeConfig{Quantile: 1.5}}); err == nil {
		t.Error("quantile outside [0,1) must be rejected")
	}
}

// TestVPUTargetHedgeUnderSlowdown: a 2-stick NCSw target with one
// stick slowed 20x hedges the straggler's items onto the healthy
// stick; every item completes exactly once and the hedge accounting
// balances.
func TestVPUTargetHedgeUnderSlowdown(t *testing.T) {
	const images = 30
	tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), images)
	out := &hedgeCounters{}
	opts := DefaultVPUOptions()
	opts.Recovery = DefaultRecoveryConfig()
	opts.Recovery.Timeout = 30 * time.Second // detection must not race the hedge in this test
	opts.Hedge = HedgeConfig{Trigger: 400 * time.Millisecond}
	opts.Hedge.OnHedge, opts.Hedge.OnWin, opts.Hedge.OnWaste = hedgeHooks(out)
	target, err := NewVPUTarget(tb.devices, tb.blob, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, images)
	if err != nil {
		t.Fatal(err)
	}
	// Slow stick 0 by 20x for most of the run: its ~100ms service
	// becomes ~2s, far past the 400ms trigger.
	tb.env.At(200*time.Millisecond, func() { tb.devices[0].InjectSlowdown(20) })
	seen := map[int]int{}
	job := target.Start(tb.env, src, func(r Result) { seen[r.Index]++ })
	tb.env.Run()
	if job.Err != nil {
		t.Fatalf("job error: %v", job.Err)
	}
	if len(seen) != images {
		t.Fatalf("%d distinct items served, want %d", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d served %d times", idx, n)
		}
	}
	if job.Images != images {
		t.Errorf("job.Images = %d, want %d (dedup must keep the count exact)", job.Images, images)
	}
	if out.launched == 0 {
		t.Error("no hedges launched against a 20x straggler stick")
	}
	if out.wins == 0 {
		t.Error("no hedge wins against a 20x straggler stick")
	}
}

// TestPoolHedgeStrandedPairCountsOnce: when every child dies with
// both copies of a hedged item stranded in the feeds, the pool error
// counts the item once — not once per copy.
func TestPoolHedgeStrandedPairCountsOnce(t *testing.T) {
	// Two children that each serve exactly one slow item and then stop
	// consuming (without reading the sentinel): everything else is
	// stranded, including hedge duplicates of the stranded items.
	a := &stubTarget{name: "a", latency: time.Second, quitAfter: 1}
	b := &stubTarget{name: "b", latency: time.Second, quitAfter: 1}
	hc := HedgeConfig{Trigger: 100 * time.Millisecond}
	pool, err := NewPool([]Target{a, b}, PoolOptions{Routing: RouteRoundRobin, Hedge: hc})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	const n = 6
	seen := map[int]int{}
	job := pool.Start(env, sliceOf(n), func(r Result) { seen[r.Index]++ })
	env.Run()
	for idx, c := range seen {
		if c != 1 {
			t.Errorf("item %d delivered %d times", idx, c)
		}
	}
	if job.Err == nil {
		t.Fatal("expected a stranded-items error from children that stopped consuming")
	}
	missing := n - len(seen)
	want := fmt.Sprintf("%d item(s) stranded", missing)
	if !strings.Contains(job.Err.Error(), want) {
		t.Errorf("stranded count mismatch: %d distinct items unserved, error says %q",
			missing, job.Err)
	}
}

// TestHedgerFilterLostCountsPairOnce: the post-join loss arbitration
// — a hedged item with both copies stranded is one loss, not two, and
// a delivered item's stranded duplicate is no loss at all.
func TestHedgerFilterLostCountsPairOnce(t *testing.T) {
	env := sim.NewEnv()
	h := newHedger(env, HedgeConfig{Trigger: time.Millisecond}, 0,
		func(Item, int) (int, bool) { return 1, true }, nil)
	// Item 7: hedged, then both copies reclaimed after a total failure.
	h.track(Item{Index: 7}, 0, 0)
	h.fire(h.entries[7])
	if kept := h.filterLost([]Item{{Index: 7}, {Index: 7}}); len(kept) != 1 {
		t.Fatalf("both-copies-stranded kept %d entries, want 1 (one item, one loss)", len(kept))
	}
	// Item 8: hedged and delivered through the duplicate; its stranded
	// primary is not a loss.
	h.track(Item{Index: 8}, 0, 0)
	h.fire(h.entries[8])
	if !h.complete(8, 1, time.Millisecond) {
		t.Fatal("winning duplicate must deliver")
	}
	if kept := h.filterLost([]Item{{Index: 8}}); len(kept) != 0 {
		t.Fatal("a delivered item's stranded duplicate was counted as a loss")
	}
	// Item 9: never hedged — its single stranded copy is a real loss.
	h.track(Item{Index: 9}, 0, 0)
	if kept := h.filterLost([]Item{{Index: 9}}); len(kept) != 1 {
		t.Fatalf("unhedged stranded item kept %d entries, want 1", len(kept))
	}
}

// TestNilHedgerIsHedgingOff: a nil *hedger (hedging off) answers
// every dispatcher call as an unhedged run would: nothing is settled,
// every completion is delivered, every lost copy is a loss, and
// track and setBudget do nothing.
func TestNilHedgerIsHedgingOff(t *testing.T) {
	var h *hedger
	h.track(Item{Index: 3}, 0, 0)
	h.setBudget(0.5)
	items := []Item{{Index: 3}, {Index: 3}, {Index: 5}}
	for _, tc := range []struct {
		call string
		got  any
		want any
	}{
		{"settled", h.settled(3), false},
		{"complete", h.complete(3, 0, time.Millisecond), true},
		{"copyLost", h.copyLost(3, 0), true},
		{"copyLost unknown child", h.copyLost(3, -1), true},
		{"filterLost", len(h.filterLost(items)), len(items)},
	} {
		if tc.got != tc.want {
			t.Errorf("nil hedger %s = %v, want %v", tc.call, tc.got, tc.want)
		}
	}
}

// TestVPUHedgeDropAccountingDisjoint: under a hang with a tight
// redelivery budget and hedging armed, every item ends exactly one
// way — delivered once, or dropped once. A lost duplicate whose other
// copy survives must not be counted as a drop, and a recorded drop
// must never be resurrected into a second completion.
func TestVPUHedgeDropAccountingDisjoint(t *testing.T) {
	const images = 40
	tb := newTestbed(t, 2, nn.NewGoogLeNet(rng.New(1)), images)
	dropped := map[int]int{}
	opts := DefaultVPUOptions()
	opts.Recovery = RecoveryConfig{
		Timeout:     800 * time.Millisecond,
		Recover:     true,
		MaxAttempts: 1,
		OnDrop:      func(item Item, _ time.Duration) { dropped[item.Index]++ },
	}
	opts.Hedge = HedgeConfig{Trigger: 300 * time.Millisecond}
	target, err := NewVPUTarget(tb.devices, tb.blob, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDatasetSource(tb.ds, 0, images)
	if err != nil {
		t.Fatal(err)
	}
	tb.env.At(2500*time.Millisecond, func() { tb.devices[0].InjectHang() })
	served := map[int]int{}
	job := target.Start(tb.env, src, func(r Result) { served[r.Index]++ })
	tb.env.Run()
	if job.Err != nil {
		t.Fatalf("job error: %v", job.Err)
	}
	for idx, n := range served {
		if n != 1 {
			t.Errorf("item %d delivered %d times", idx, n)
		}
		if dropped[idx] > 0 {
			t.Errorf("item %d both delivered and dropped (%d drops)", idx, dropped[idx])
		}
	}
	for idx, n := range dropped {
		if n != 1 {
			t.Errorf("item %d dropped %d times", idx, n)
		}
	}
	if got := len(served) + len(dropped); got != images {
		t.Errorf("%d served + %d dropped = %d items accounted, want %d",
			len(served), len(dropped), got, images)
	}
	if job.Images != len(served) {
		t.Errorf("job.Images = %d, want %d", job.Images, len(served))
	}
}

// TestVPUTargetHedgeNeverBitIdentical: the multi-VPU target armed
// with HedgeNever emits exactly the unhedged result stream.
func TestVPUTargetHedgeNeverBitIdentical(t *testing.T) {
	const images = 24
	run := func(hc HedgeConfig) []Result {
		tb := newTestbed(t, 4, nn.NewGoogLeNet(rng.New(1)), images)
		opts := DefaultVPUOptions()
		opts.Hedge = hc
		target, err := NewVPUTarget(tb.devices, tb.blob, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewDatasetSource(tb.ds, 0, images)
		if err != nil {
			t.Fatal(err)
		}
		var results []Result
		job := target.Start(tb.env, src, func(r Result) { results = append(results, r) })
		tb.env.Run()
		if job.Err != nil {
			t.Fatalf("job error: %v", job.Err)
		}
		return results
	}
	plain := run(HedgeConfig{})
	never := run(HedgeConfig{Trigger: HedgeNever})
	if len(plain) != len(never) {
		t.Fatalf("result counts differ: %d unhedged vs %d trigger=∞", len(plain), len(never))
	}
	for i := range plain {
		if p, q := plain[i], never[i]; p != q {
			t.Fatalf("result %d differs:\nunhedged  %+v\ntrigger=∞ %+v", i, p, q)
		}
	}
}
