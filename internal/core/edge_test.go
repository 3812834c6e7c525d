package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestItemQueueRead drives the one sentinel-terminated queue read
// (itemQueue) through its outcomes: items, the end of the stream seen
// by every consumer, nextWithin's timeout, lazy expiry on both reads,
// and pending with the sentinel posted by close (not counted, as
// ArrivalSource, AdmissionQueue and TenantMux report it) or by a peer
// such as the dealer's shutdown (counted, as childFeed reports it).
func TestItemQueueRead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		arrived  []time.Duration // one queued item per entry, Index = position
		close    bool            // close posts the sentinel
		peerEnd  bool            // the sentinel is put directly, as dealer.shutdown does
		deadline time.Duration   // > 0: lazy expiry drops items older than this
		start    time.Duration   // instant the consumers begin reading
		within   time.Duration   // > 0: read with nextWithin(within), else next
		readers  int
		// want lists each reader's outcomes in order: an item index,
		// "timeout" or "closed"; a reader stops at its first non-item.
		want        []string
		wantEnd     time.Duration // instant the last reader stopped
		wantDropped []int
		wantPending int
		wantLen     int
	}{
		{name: "next drains, then the end", arrived: instantsMs(0, 0, 0), close: true, readers: 1,
			want: []string{"0 1 2 closed"}, wantLen: 1},
		{name: "two readers both see the end", arrived: instantsMs(0, 0), close: true, readers: 2,
			want: []string{"0 1 closed", "closed"}, wantLen: 1},
		{name: "nextWithin item, then the end", arrived: instantsMs(0), close: true, within: ms(5), readers: 1,
			want: []string{"0 closed"}, wantLen: 1},
		{name: "nextWithin item, then a timeout", arrived: instantsMs(0), within: ms(5), start: ms(1), readers: 1,
			want: []string{"0 timeout"}, wantEnd: ms(6)},
		{name: "next drops expired items", arrived: instantsMs(0, 2, 8, 12), close: true, deadline: ms(10), start: ms(15), readers: 1,
			want: []string{"2 3 closed"}, wantEnd: ms(15), wantDropped: []int{0, 1}, wantLen: 1},
		{name: "nextWithin drops expired items", arrived: instantsMs(0, 2, 8, 12), close: true, deadline: ms(10), start: ms(15), within: ms(5), readers: 1,
			want: []string{"2 3 closed"}, wantEnd: ms(15), wantDropped: []int{0, 1}, wantLen: 1},
		{name: "expired items spend nextWithin's budget", arrived: instantsMs(0, 0), deadline: ms(10), start: ms(20), within: ms(5), readers: 1,
			want: []string{"timeout"}, wantEnd: ms(25), wantDropped: []int{0, 1}},
		{name: "pending skips close's sentinel", arrived: instantsMs(0, 0), close: true,
			wantPending: 2, wantLen: 3},
		{name: "pending counts a peer's sentinel", arrived: instantsMs(0, 0), peerEnd: true,
			wantPending: 3, wantLen: 3},
		{name: "pending while close waits for room", capacity: 2, arrived: instantsMs(0, 0), close: true,
			wantPending: 2, wantLen: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			r := &itemQueue{q: sim.NewQueue[Item](env, "edge", tc.capacity)}
			for i, at := range tc.arrived {
				r.q.TryPut(Item{Index: i, ArrivedAt: at})
			}
			var dropped []int
			if tc.deadline > 0 {
				r.dispatch = func(item Item, now time.Duration) bool {
					if now > item.ArrivedAt+tc.deadline {
						dropped = append(dropped, item.Index)
						return false
					}
					return true
				}
			}
			if tc.close {
				startRelay(env, "producer", NewSliceSource(nil), nil, "test item", nil,
					func(rl *relay, _ bool) bool { return r.close(rl) })
			}
			if tc.peerEnd {
				r.q.TryPut(Item{Index: -1})
			}
			got := make([]string, tc.readers)
			var end time.Duration
			for i := range got {
				env.Process(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
					p.Sleep(tc.start)
					var out []string
					for {
						var item Item
						ok, open := false, true
						if tc.within > 0 {
							item, ok, open = r.NextWithin(p, tc.within)
						} else {
							item, ok = r.Next(p)
							open = ok
						}
						switch {
						case ok:
							out = append(out, fmt.Sprint(item.Index))
							continue
						case open:
							out = append(out, "timeout")
						default:
							out = append(out, "closed")
						}
						break
					}
					got[i] = strings.Join(out, " ")
					end = p.Now()
				})
			}
			if tc.capacity > 0 && tc.close {
				env.RunUntil(time.Second) // close stays a putter on the full queue
				env.Stop()
			} else {
				env.Run()
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("reads %q, want %q", got, tc.want)
			}
			if end != tc.wantEnd {
				t.Errorf("last read ended at %v, want %v", end, tc.wantEnd)
			}
			if !slices.Equal(dropped, tc.wantDropped) {
				t.Errorf("dropped %v, want %v", dropped, tc.wantDropped)
			}
			if got := r.Pending(); got != tc.wantPending {
				t.Errorf("pending %d, want %d", got, tc.wantPending)
			}
			if got := r.q.Len(); got != tc.wantLen {
				t.Errorf("queue holds %d, want %d", got, tc.wantLen)
			}
		})
	}
}

// ms3 lists arrival instants in milliseconds.
func instantsMs(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = ms(n)
	}
	return out
}

// TestOffer admits one item under each overload policy, including
// ShedOldest on a queue a health shrink (SetCapacity) left over-full,
// which must evict until the item fits rather than block.
func TestOffer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   OverloadPolicy
		capacity int
		queued   int
		shrinkTo int           // > 0: SetCapacity after filling
		freeAt   time.Duration // > 0: a consumer takes the head then
		want     bool
		wantAt   time.Duration
		evicted  []int
		wantQ    []int
	}{
		{name: "shed-newest with room", policy: ShedNewest, capacity: 2, queued: 1, want: true, wantQ: []int{0, 9}},
		{name: "shed-newest full", policy: ShedNewest, capacity: 2, queued: 2, want: false, wantQ: []int{0, 1}},
		{name: "shed-oldest full", policy: ShedOldest, capacity: 2, queued: 2, want: true, evicted: []int{0}, wantQ: []int{1, 9}},
		{name: "shed-oldest over-full after a shrink", policy: ShedOldest, capacity: 4, queued: 4, shrinkTo: 2,
			want: true, evicted: []int{0, 1, 2}, wantQ: []int{3, 9}},
		{name: "shed-newest over-full after a shrink", policy: ShedNewest, capacity: 4, queued: 4, shrinkTo: 2,
			want: false, wantQ: []int{0, 1, 2, 3}},
		{name: "block waits for room", policy: Block, capacity: 1, queued: 1, freeAt: ms(5),
			want: true, wantAt: ms(5), wantQ: []int{9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			q := sim.NewQueue[Item](env, "edge", tc.capacity)
			for i := 0; i < tc.queued; i++ {
				q.TryPut(Item{Index: i})
			}
			if tc.shrinkTo > 0 {
				q.SetCapacity(tc.shrinkTo)
			}
			var evicted []int
			drop := func(old Item, reason DropReason, at time.Duration) {
				if reason != DropShed || at != 0 {
					t.Errorf("victim %d dropped as %v at %v, want shed at 0", old.Index, reason, at)
				}
				evicted = append(evicted, old.Index)
			}
			var got bool
			var at time.Duration
			startRelay(env, "producer", NewSliceSource([]Item{{Index: 9}}), nil, "test item",
				func(r *relay, item *Item, _ bool) bool {
					entered, wait := offer(r, q, tc.policy, *item, drop)
					if wait {
						return false
					}
					got, at = entered, r.env.Now()
					return true
				},
				func(*relay, bool) bool { return true })
			if tc.freeAt > 0 {
				env.Process("consumer", func(p *sim.Proc) {
					p.Sleep(tc.freeAt)
					q.TryGet()
				})
			}
			env.Run()
			if got != tc.want || at != tc.wantAt {
				t.Errorf("offer = %v at %v, want %v at %v", got, at, tc.want, tc.wantAt)
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Errorf("evicted %v, want %v", evicted, tc.evicted)
			}
			var left []int
			for q.Len() > 0 {
				item, _ := q.TryGet()
				left = append(left, item.Index)
			}
			if !slices.Equal(left, tc.wantQ) {
				t.Errorf("queue %v, want %v", left, tc.wantQ)
			}
		})
	}
}

// TestPump relays a slice source through the one edge relay, on its
// callback driver: it pulls before it waits (so a drained source ends
// the relay at the last arrival instant), stops when the arrival
// process ends, stamps ArrivedAt, and with no arrival process hands
// items on unslept, all without a process resume.
func TestPump(t *testing.T) {
	type handoff struct {
		index   int
		at, arr time.Duration
	}
	for _, tc := range []struct {
		name    string
		items   int
		gen     []time.Duration // nil: no arrival process
		want    []handoff
		wantEnd time.Duration
	}{
		{name: "source drains first", items: 3, gen: instantsMs(1, 2, 2, 5),
			want: []handoff{{0, ms(1), ms(1)}, {1, ms(2), ms(2)}, {2, ms(2), ms(2)}}, wantEnd: ms(2)},
		{name: "arrivals end first", items: 5, gen: instantsMs(1, 3),
			want: []handoff{{0, ms(1), ms(1)}, {1, ms(3), ms(3)}}, wantEnd: ms(3)},
		{name: "past instants do not sleep", items: 2, gen: instantsMs(0, 0),
			want: []handoff{{0, 0, 0}, {1, 0, 0}}},
		{name: "no arrival process", items: 2,
			want: []handoff{{0, 0, 0}, {1, 0, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("callback", func(t *testing.T) {
				env := sim.NewEnv()
				var gen func() (time.Duration, bool)
				if tc.gen != nil {
					gen = TraceArrivals(tc.gen).start(nil)
				}
				var got []handoff
				end := time.Duration(-1)
				startRelay(env, "relay", sliceOf(tc.items), gen, "test item",
					func(r *relay, item *Item, _ bool) bool {
						got = append(got, handoff{item.Index, r.env.Now(), item.ArrivedAt})
						return true
					},
					func(r *relay, _ bool) bool {
						end = r.env.Now()
						return true
					})
				env.Run()
				if !slices.Equal(got, tc.want) {
					t.Errorf("handed on %v, want %v", got, tc.want)
				}
				if end != tc.wantEnd {
					t.Errorf("relay ended at %v, want %v", end, tc.wantEnd)
				}
				if c := env.Counts(); c.Resumes != 0 {
					t.Errorf("%d process resumes, want the relay run as callbacks", c.Resumes)
				}
			})
		})
	}
}

// TestPumpRejectsSentinelIndex: a source item carrying the reserved
// Index -1 would end the stream early for every consumer; the relay
// panics instead, naming the item, and Env.Run re-raises it from the
// callback driver.
func TestPumpRejectsSentinelIndex(t *testing.T) {
	t.Run("callback", func(t *testing.T) {
		env := sim.NewEnv()
		startRelay(env, "relay", NewSliceSource([]Item{{Index: -1}}), nil, "test item",
			func(*relay, *Item, bool) bool {
				t.Error("reserved index handed on")
				return true
			},
			func(*relay, bool) bool { return true })
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "test item with reserved Index -1") {
				t.Errorf("panic %q, want the reserved-index message", msg)
			}
		}()
		env.Run()
	})
}

var update = flag.Bool("update", false, "rewrite testdata/relay_edges.golden from this run")

// TestRelayDriversAgree runs a whole ingress edge and checks it against
// testdata/relay_edges.golden, recorded when the edge relay still had a
// process driver beside the callback one and both delivered it
// identically, so the one driver left must agree with both: an arrival
// source under each
// admission policy, and tenant lanes under each scheduler with a
// blocking lane and a shed-oldest lane. A slow consumer keeps the
// bounded queues full, so Block waits as a putter and the end-of-stream
// post waits for room. Each case records every delivery (index,
// tenant, arrival and delivery instants), the edge's counters and the
// number of events dispatched.
func TestRelayDriversAgree(t *testing.T) {
	type edge struct {
		src   Source
		stats func() string
	}
	consume := func(env *sim.Env, src Source) *[]string {
		var log []string
		env.Process("consumer", func(p *sim.Proc) {
			for {
				item, ok := src.Next(p)
				if !ok {
					log = append(log, fmt.Sprint("end ", p.Now()))
					return
				}
				log = append(log, fmt.Sprint(item.Index, item.Tenant, " ", item.ArrivedAt, " ", p.Now()))
				p.Sleep(ms(7))
			}
		})
		return &log
	}
	type edgeCase struct {
		name  string
		build func(env *sim.Env) edge
	}
	var cases []edgeCase
	for _, policy := range []OverloadPolicy{ShedNewest, ShedOldest, Block} {
		cases = append(cases, edgeCase{"admission/" + policy.String(), func(env *sim.Env) edge {
			asrc, err := NewArrivalSource(env, sliceOf(40), PoissonArrivals(250), rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			adm, err := NewAdmissionQueue(env, asrc, AdmissionOptions{Depth: 3, Policy: policy, Deadline: ms(20)})
			if err != nil {
				t.Fatal(err)
			}
			return edge{adm, func() string { return fmt.Sprintf("%+v arrived %d", adm.Stats(), asrc.Arrived()) }}
		}})
	}
	for _, policy := range []TenantPolicy{TenantFIFO, TenantFair, TenantPriority} {
		cases = append(cases, edgeCase{"tenants/" + policy.String(), func(env *sim.Env) edge {
			m, err := NewTenantMux(env, sliceOf(60), TenantMuxOptions{
				Policy: policy, SharedDepth: 2, SharedPolicy: Block,
				Lanes: []TenantLane{
					{ID: "a", Arrivals: PoissonArrivals(150), Depth: 2, Policy: Block},
					{ID: "b", Arrivals: DeterministicArrivals(100), Depth: 2, Policy: ShedOldest, Priority: 1},
					{ID: "c", Arrivals: BurstyArrivals(400, ms(20), ms(40)), Depth: 1, RatePerSec: 80},
				},
			}, rng.New(5), nil)
			if err != nil {
				t.Fatal(err)
			}
			return edge{m, func() string {
				return fmt.Sprintf("%+v %+v %+v", m.Stats("a"), m.Stats("b"), m.Stats("c"))
			}}
		}})
	}
	record := func(tc edgeCase) string {
		env := sim.NewEnv()
		e := tc.build(env)
		log := consume(env, e.src)
		env.Run()
		return fmt.Sprintf("%s\n%s\nevents %d\n", strings.Join(*log, "\n"), e.stats(), env.Counts().Events)
	}
	path := filepath.Join("testdata", "relay_edges.golden")
	if *update {
		var b strings.Builder
		for _, tc := range cases {
			fmt.Fprintf(&b, "== %s\n%s", tc.name, record(tc))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		want[name] = body
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := record(tc); got != want[tc.name] {
				t.Errorf("deliveries differ from %s:\n--- got\n%s--- want\n%s", path, got, want[tc.name])
			}
		})
	}
}

// TestCallbackWaiterDeadlock: an admission relay over a stream nobody
// closes waits as a registered getter when the events run out. Run
// must panic with the deadlock diagnostic, counting the waiter among
// the blocked and the waiting exactly as it counted the relay's parked
// process when the relay had one: alone, and beside a consumer parked
// on the admission queue.
func TestCallbackWaiterDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name     string
		consumer bool
		want     string
	}{
		{"relay alone", false, "sim: deadlock — 1 process(es) still blocked at t=3ms (1 waiting on resources/queues)"},
		{"with a consumer", true, "sim: deadlock — 2 process(es) still blocked at t=3ms (2 waiting on resources/queues)"},
	} {
		t.Run(tc.name+"/callback", func(t *testing.T) {
			env := sim.NewEnv()
			stream := NewStreamSource(env, 0)
			adm, err := NewAdmissionQueue(env, stream, AdmissionOptions{Depth: 2})
			if err != nil {
				t.Fatal(err)
			}
			env.Process("producer", func(p *sim.Proc) {
				stream.Push(p, Item{Index: 0})
				p.Sleep(ms(3)) // and never closes
			})
			if tc.consumer {
				env.Process("consumer", func(p *sim.Proc) {
					for {
						if _, ok := adm.Next(p); !ok {
							return
						}
					}
				})
			}
			defer func() {
				if msg := fmt.Sprint(recover()); msg != tc.want {
					t.Errorf("panic %q, want %q", msg, tc.want)
				}
			}()
			env.Run()
		})
	}
}

// TestEdgeRejectsForeignSource: the edge relays only sources of this
// package, so each relaying constructor returns an error for a nil
// inner source and for a Source from outside the package, and accepts
// a SliceSource.
func TestEdgeRejectsForeignSource(t *testing.T) {
	type foreign struct{ Source }
	for _, ctor := range []struct {
		name  string
		build func(env *sim.Env, inner Source) error
	}{
		{"arrivals", func(env *sim.Env, inner Source) error {
			_, err := NewArrivalSource(env, inner, DeterministicArrivals(10), nil)
			return err
		}},
		{"admission", func(env *sim.Env, inner Source) error {
			_, err := NewAdmissionQueue(env, inner, AdmissionOptions{Depth: 1})
			return err
		}},
		{"tenants", func(env *sim.Env, inner Source) error {
			_, err := NewTenantMux(env, inner, TenantMuxOptions{Lanes: []TenantLane{
				{ID: "a", Arrivals: DeterministicArrivals(10)},
			}}, nil, nil)
			return err
		}},
	} {
		for _, in := range []struct {
			name string
			src  Source
			want string // "" accepts
		}{
			{"nil", nil, "cannot relay <nil>"},
			{"foreign", foreign{NewSliceSource(nil)}, "cannot relay core.foreign"},
			{"slice", NewSliceSource(nil), ""},
		} {
			t.Run(ctor.name+"/"+in.name, func(t *testing.T) {
				err := ctor.build(sim.NewEnv(), in.src)
				switch {
				case in.want == "" && err != nil:
					t.Errorf("unexpected error: %v", err)
				case in.want != "" && (err == nil || !strings.Contains(err.Error(), in.want)):
					t.Errorf("error %v, want one containing %q", err, in.want)
				}
			})
		}
	}
}

// TestEdgeHandoffAllocs: a warm ArrivalSource → AdmissionQueue →
// consumer relay allocates nothing per item, so the edge's hooks (the
// relay's hand-on, offer's drop, the read's dispatch) add no closure or
// interface boxing on the per-item path, and neither do the relays'
// callback waits (the At event per arrival, the admission relay's
// getter registration). Each run advances the simulation by one
// deterministic arrival.
func TestEdgeHandoffAllocs(t *testing.T) {
	const warm, runs = 2000, 1000
	env := sim.NewEnv()
	asrc, err := NewArrivalSource(env, sliceOf(warm+runs+10), DeterministicArrivals(1000), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	adm, err := NewAdmissionQueue(env, asrc, AdmissionOptions{Depth: 4, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	env.Process("consumer", func(p *sim.Proc) {
		for {
			if _, ok := adm.Next(p); !ok {
				return
			}
		}
	})
	defer env.Stop()
	now := time.Duration(0)
	step := func() {
		now += time.Millisecond
		env.RunUntil(now)
	}
	for i := 0; i < warm; i++ {
		step()
	}
	before := adm.Stats().Dispatched
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Errorf("%.2f allocations per relayed item, want 0", allocs)
	}
	if got := adm.Stats().Dispatched - before; got != runs+1 {
		t.Fatalf("relayed %d items in %d steps, want one per step", got, runs+1)
	}
	if c := env.Counts(); c.Resumes != c.ByName["consumer"] {
		t.Errorf("resumes %v: the relays must run as callbacks, not processes", c.ByName)
	}
}
