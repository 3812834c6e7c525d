package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
)

// stubTarget is a deterministic fixed-latency device for scheduler
// tests: setup once, then one item at a time. quitAfter > 0 makes it
// stop consuming (without reading the end-of-feed sentinel) after
// that many items — the shape of a device dying mid-run.
type stubTarget struct {
	name      string
	setup     time.Duration
	latency   time.Duration
	quitAfter int
}

func (t *stubTarget) Name() string      { return t.name }
func (t *stubTarget) TDPWatts() float64 { return 1 }

func (t *stubTarget) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	env.Process(t.name, func(p *sim.Proc) {
		job.StartedAt = p.Now()
		p.Sleep(t.setup)
		job.ReadyAt = p.Now()
		for t.quitAfter == 0 || job.Images < t.quitAfter {
			item, ok := src.Next(p)
			if !ok {
				break
			}
			start := p.Now()
			p.Sleep(t.latency)
			sink(Result{Index: item.Index, Label: item.Label, Pred: item.Label,
				Start: start, End: p.Now(),
				ArrivedAt: item.ArrivedAt, DispatchedAt: start, Device: t.name})
			job.Images++
		}
		job.Finish(p)
	})
	return job
}

func sliceOf(n int) *SliceSource {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Index: i, Label: i % 7}
	}
	return NewSliceSource(items)
}

// runPool drives n items through children under the routing policy
// and returns the pool job plus per-index completion counts.
func runPool(t *testing.T, children []Target, opts PoolOptions, n int) (*Pool, *Job, map[int]int) {
	t.Helper()
	pool, err := NewPool(children, opts)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	seen := map[int]int{}
	job := pool.Start(env, sliceOf(n), func(r Result) { seen[r.Index]++ })
	env.Run()
	return pool, job, seen
}

func checkConservation(t *testing.T, seen map[int]int, n int, ctx string) {
	t.Helper()
	if len(seen) != n {
		t.Fatalf("%s: %d distinct items classified, want %d", ctx, len(seen), n)
	}
	for idx, count := range seen {
		if count != 1 {
			t.Errorf("%s: item %d classified %d times", ctx, idx, count)
		}
	}
}

// TestPoolItemConservation: every routing policy must classify every
// item exactly once, across equal and skewed device groups.
func TestPoolItemConservation(t *testing.T) {
	const n = 100
	for _, routing := range []Routing{RouteStatic, RouteRoundRobin, RouteWorkStealing, RouteWeighted, RouteLatency} {
		for _, skewed := range []bool{false, true} {
			children := []Target{
				&stubTarget{name: "a", latency: time.Millisecond},
				&stubTarget{name: "b", latency: time.Millisecond},
				&stubTarget{name: "c", latency: time.Millisecond},
			}
			if skewed {
				children[2].(*stubTarget).latency = 9 * time.Millisecond
			}
			ctx := fmt.Sprintf("%v skewed=%v", routing, skewed)
			pool, job, seen := runPool(t, children, PoolOptions{Routing: routing}, n)
			if job.Err != nil {
				t.Fatalf("%s: %v", ctx, job.Err)
			}
			checkConservation(t, seen, n, ctx)
			if job.Images != n {
				t.Errorf("%s: pool job counted %d images, want %d", ctx, job.Images, n)
			}
			sum := 0
			for _, cj := range pool.ChildJobs() {
				sum += cj.Images
			}
			if sum != n {
				t.Errorf("%s: child jobs total %d images, want %d", ctx, sum, n)
			}
		}
	}
}

// TestPoolStaticSplitContiguous: explicit 1:3 weights over a sized
// source produce contiguous blocks of 25 and 75 items.
func TestPoolStaticSplitContiguous(t *testing.T) {
	const n = 100
	children := []Target{
		&stubTarget{name: "small", latency: time.Millisecond},
		&stubTarget{name: "big", latency: time.Millisecond},
	}
	var maxChild0 int = -1
	var minChild1 int = n
	opts := PoolOptions{
		Routing: RouteStatic,
		Weights: []float64{1, 3},
		OnResult: func(child int, r Result) {
			if child == 0 && r.Index > maxChild0 {
				maxChild0 = r.Index
			}
			if child == 1 && r.Index < minChild1 {
				minChild1 = r.Index
			}
		},
	}
	pool, job, seen := runPool(t, children, opts, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "static 1:3")
	jobs := pool.ChildJobs()
	if jobs[0].Images != 25 || jobs[1].Images != 75 {
		t.Errorf("split = %d/%d, want 25/75", jobs[0].Images, jobs[1].Images)
	}
	if maxChild0 != 24 || minChild1 != 25 {
		t.Errorf("blocks not contiguous: child0 max %d, child1 min %d", maxChild0, minChild1)
	}
}

// TestPoolSkewedDynamicBeatsStatic: on a 10x-skewed device pair, the
// adaptive weighted router and work-stealing must both finish the
// workload substantially sooner than static round-robin, which is
// gated by the slow device.
func TestPoolSkewedDynamicBeatsStatic(t *testing.T) {
	const n = 110
	build := func() []Target {
		return []Target{
			&stubTarget{name: "fast", latency: time.Millisecond},
			&stubTarget{name: "slow", latency: 10 * time.Millisecond},
		}
	}
	span := func(routing Routing) time.Duration {
		_, job, seen := runPool(t, build(), PoolOptions{Routing: routing}, n)
		if job.Err != nil {
			t.Fatalf("%v: %v", routing, job.Err)
		}
		checkConservation(t, seen, n, routing.String())
		return job.Span()
	}

	static := span(RouteRoundRobin)
	weighted := span(RouteWeighted)
	stealing := span(RouteWorkStealing)

	// Round-robin hands the slow device n/2 items at 10 ms each
	// (~550 ms); a throughput-proportional split finishes in ~100 ms.
	if weighted >= static*2/3 {
		t.Errorf("weighted span %v not clearly better than round-robin %v", weighted, static)
	}
	if stealing >= static*2/3 {
		t.Errorf("work-stealing span %v not clearly better than round-robin %v", stealing, static)
	}
}

// TestPoolWeightedFollowsExplicitWeights: static 4:1 weights steer
// dispatch roughly 4:1 when both children keep up.
func TestPoolWeightedFollowsExplicitWeights(t *testing.T) {
	const n = 100
	children := []Target{
		&stubTarget{name: "w4", latency: time.Millisecond},
		&stubTarget{name: "w1", latency: time.Millisecond},
	}
	pool, job, seen := runPool(t, children,
		PoolOptions{Routing: RouteWeighted, Weights: []float64{4, 1}}, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "weighted 4:1")
	jobs := pool.ChildJobs()
	// Spillover can shift a few items; the ratio should stay near 4:1.
	if jobs[0].Images < 65 || jobs[1].Images > 35 {
		t.Errorf("weighted split = %d/%d, want roughly 80/20", jobs[0].Images, jobs[1].Images)
	}
}

// TestPoolRecursiveComposition: a pool of (device, pool of devices)
// still conserves items — device groups compose.
func TestPoolRecursiveComposition(t *testing.T) {
	const n = 60
	inner, err := NewPool([]Target{
		&stubTarget{name: "i0", latency: time.Millisecond},
		&stubTarget{name: "i1", latency: time.Millisecond},
	}, PoolOptions{Routing: RouteRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	outer := []Target{
		&stubTarget{name: "solo", latency: time.Millisecond},
		inner,
	}
	pool, job, seen := runPool(t, outer, PoolOptions{Routing: RouteWeighted}, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "recursive")
	if got := pool.TDPWatts(); got != 3 {
		t.Errorf("aggregate TDP = %g, want 3", got)
	}
}

// TestPoolChildDiesMidRun: a child that stops consuming with its feed
// full must not deadlock the dispatcher; its stranded items are
// reclaimed and re-routed so every item still lands exactly once.
func TestPoolChildDiesMidRun(t *testing.T) {
	const n = 40
	for _, routing := range []Routing{RouteStatic, RouteRoundRobin, RouteWeighted, RouteLatency} {
		children := []Target{
			&stubTarget{name: "quitter", latency: time.Millisecond, quitAfter: 3},
			&stubTarget{name: "survivor", latency: time.Millisecond},
		}
		pool, job, seen := runPool(t, children, PoolOptions{Routing: routing}, n)
		if job.Err != nil {
			t.Fatalf("%v: %v", routing, job.Err)
		}
		checkConservation(t, seen, n, fmt.Sprintf("%v with dying child", routing))
		jobs := pool.ChildJobs()
		if jobs[0].Images != 3 || jobs[1].Images != n-3 {
			t.Errorf("%v: split = %d/%d, want 3/%d", routing, jobs[0].Images, jobs[1].Images, n-3)
		}
		if !job.Done() || job.DoneAt == 0 {
			t.Errorf("%v: pool job never finished (DoneAt=%v)", routing, job.DoneAt)
		}
	}
}

// TestPoolAllChildrenDieMidRun: when every child stops consuming, the
// item the dispatcher holds has nowhere to go. It must be counted with
// the items stranded in the feeds, so served + stranded + undealt = n.
func TestPoolAllChildrenDieMidRun(t *testing.T) {
	const n = 7
	pool, err := NewPool([]Target{
		&stubTarget{name: "a", latency: time.Millisecond, quitAfter: 1},
		&stubTarget{name: "b", latency: time.Millisecond, quitAfter: 1},
	}, PoolOptions{Routing: RouteRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	src := sliceOf(n)
	served := 0
	job := pool.Start(env, src, func(Result) { served++ })
	env.Run()
	if !job.Done() {
		t.Fatal("pool job never finished")
	}
	stranded := n - served - src.Remaining()
	if stranded == 0 {
		t.Fatalf("served %d of %d with %d undealt: nothing stranded", served, n, src.Remaining())
	}
	want := fmt.Sprintf("%d item(s) stranded", stranded)
	if job.Err == nil || !strings.Contains(job.Err.Error(), want) {
		t.Errorf("job error %v, want it to report %q (served %d, undealt %d)", job.Err, want, served, src.Remaining())
	}
}

// TestPoolStaticNeedsSizedSource: static split over a stream records a
// descriptive error instead of deadlocking.
func TestPoolStaticNeedsSizedSource(t *testing.T) {
	pool, err := NewPool([]Target{
		&stubTarget{name: "a", latency: time.Millisecond},
		&stubTarget{name: "b", latency: time.Millisecond},
	}, PoolOptions{Routing: RouteStatic})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	stream := NewStreamSource(env, 4)
	env.Process("producer", func(p *sim.Proc) { stream.Close(p) })
	job := pool.Start(env, stream, func(Result) {})
	env.Run()
	if job.Err == nil {
		t.Fatal("static split over a stream succeeded; want Sized error")
	}
	// The children must still have started and shut down cleanly so
	// composite reports stay well-formed.
	for i, cj := range pool.ChildJobs() {
		if cj == nil || !cj.Done() {
			t.Errorf("child %d job not finished after routing error: %+v", i, cj)
		}
	}
}

// TestPoolValidation: constructor rejects bad configurations.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, PoolOptions{}); err == nil {
		t.Error("empty pool accepted")
	}
	child := []Target{&stubTarget{name: "a", latency: time.Millisecond}}
	if _, err := NewPool(child, PoolOptions{Weights: []float64{1, 2}}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := NewPool(child, PoolOptions{Weights: []float64{-1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewPool(child, PoolOptions{QueueDepth: -1}); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := NewPool([]Target{nil}, PoolOptions{}); err == nil {
		t.Error("nil child accepted")
	}
}

// TestJobThroughputDegenerateWindow: a single-image run whose only
// completion lands exactly on ReadyAt must still report a meaningful
// throughput via the full-run fallback window.
func TestJobThroughputDegenerateWindow(t *testing.T) {
	j := &Job{StartedAt: 0, ReadyAt: 5 * time.Millisecond, DoneAt: 5 * time.Millisecond, Images: 1}
	if got := j.Span(); got != 5*time.Millisecond {
		t.Errorf("degenerate Span = %v, want full-run fallback 5ms", got)
	}
	if got := j.Throughput(); got != 200 {
		t.Errorf("degenerate Throughput = %g img/s, want 200", got)
	}
	empty := &Job{}
	if got := empty.Throughput(); got != 0 {
		t.Errorf("empty job Throughput = %g, want 0", got)
	}
	normal := &Job{ReadyAt: time.Second, DoneAt: 3 * time.Second, Images: 100}
	if got := normal.Throughput(); got != 50 {
		t.Errorf("steady-state Throughput = %g img/s, want 50", got)
	}
}

// TestPoolRouteLatencySkewed: on a 10x-skewed pair, latency-aware
// routing must steer most items to the fast device and finish far
// sooner than round-robin, like the adaptive policies.
func TestPoolRouteLatencySkewed(t *testing.T) {
	const n = 110
	build := func() []Target {
		return []Target{
			&stubTarget{name: "fast", latency: time.Millisecond},
			&stubTarget{name: "slow", latency: 10 * time.Millisecond},
		}
	}
	_, rrJob, _ := runPool(t, build(), PoolOptions{Routing: RouteRoundRobin}, n)
	pool, latJob, seen := runPool(t, build(), PoolOptions{Routing: RouteLatency}, n)
	if latJob.Err != nil {
		t.Fatal(latJob.Err)
	}
	checkConservation(t, seen, n, "latency-ewma")
	if latJob.Span() >= rrJob.Span()*2/3 {
		t.Errorf("latency routing span %v not clearly better than round-robin %v",
			latJob.Span(), rrJob.Span())
	}
	jobs := pool.ChildJobs()
	if jobs[0].Images <= jobs[1].Images*3 {
		t.Errorf("latency routing split %d/%d; want the fast child far ahead",
			jobs[0].Images, jobs[1].Images)
	}
}

// TestPoolRouteLatencyColdStartProbes: cold children score zero and
// are probed first (DESIGN §3), so with equal children every one
// receives work early and every estimate warms up — no child starves
// behind a warmed-up favourite.
func TestPoolRouteLatencyColdStartProbes(t *testing.T) {
	const n = 9
	children := []Target{
		&stubTarget{name: "a", latency: time.Millisecond},
		&stubTarget{name: "b", latency: time.Millisecond},
		&stubTarget{name: "c", latency: time.Millisecond},
	}
	pool, job, seen := runPool(t, children, PoolOptions{Routing: RouteLatency}, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "latency cold start")
	for i, cj := range pool.ChildJobs() {
		if cj.Images == 0 {
			t.Errorf("child %d never probed: 0 of %d items", i, n)
		}
	}
}

// TestPoolRouteLatencySpillOrder: when the preferred child's bounded
// feed is full, the item spills down the *score* order — the
// next-best child, not an arbitrary one (DESIGN §3). With three
// children at 1/5/50 ms against an eager source, the overflow must
// land mostly on the middle child and only lightly on the slowest.
func TestPoolRouteLatencySpillOrder(t *testing.T) {
	const n = 60
	children := []Target{
		&stubTarget{name: "fast", latency: time.Millisecond},
		&stubTarget{name: "mid", latency: 5 * time.Millisecond},
		&stubTarget{name: "slow", latency: 50 * time.Millisecond},
	}
	pool, job, seen := runPool(t, children, PoolOptions{Routing: RouteLatency}, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "latency spill order")
	jobs := pool.ChildJobs()
	if jobs[0].Images <= jobs[1].Images {
		t.Errorf("fast child served %d <= mid's %d; preference order broken",
			jobs[0].Images, jobs[1].Images)
	}
	if jobs[1].Images <= jobs[2].Images {
		t.Errorf("mid child served %d <= slow's %d; spill must follow the score order",
			jobs[1].Images, jobs[2].Images)
	}
	if jobs[1].Images == 0 {
		t.Error("nothing spilled to the second-best child despite an eager source")
	}
}

// TestPoolRouteLatencyTailUnderArrivals: under open-loop Poisson
// traffic on a skewed pair, latency-aware routing must cut the p99
// latency well below round-robin, which queues half the traffic on
// the slow device.
func TestPoolRouteLatencyTailUnderArrivals(t *testing.T) {
	const n = 200
	run := func(routing Routing) LatencySummary {
		env := sim.NewEnv()
		src, err := NewArrivalSource(env, sliceOf(n), PoissonArrivals(400), rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewPool([]Target{
			&stubTarget{name: "fast", latency: time.Millisecond},
			&stubTarget{name: "slow", latency: 10 * time.Millisecond},
		}, PoolOptions{Routing: routing})
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector(false)
		job := pool.Start(env, src, col.Sink())
		env.Run()
		if job.Err != nil {
			t.Fatalf("%v: %v", routing, job.Err)
		}
		if job.Images != n {
			t.Fatalf("%v: %d images, want %d", routing, job.Images, n)
		}
		return col.Latency()
	}
	rr := run(RouteRoundRobin)
	lat := run(RouteLatency)
	if lat.P99 >= rr.P99/2 {
		t.Errorf("latency routing p99 %v not clearly below round-robin %v", lat.P99, rr.P99)
	}
}

// TestDispatchByScoreAllocs: a warm scored dispatch reuses the pool's
// order scratch and allocates nothing.
func TestDispatchByScoreAllocs(t *testing.T) {
	const n = 4
	env := sim.NewEnv()
	pl := &Pool{composite: composite{jobs: make([]*Job, n)}, down: make([]bool, n)}
	feeds := make([]*sim.Queue[Item], n)
	for i := range n {
		pl.jobs[i] = &Job{}
		feeds[i] = sim.NewQueue[Item](env, fmt.Sprintf("feed-%d", i), 1)
	}
	pl.down[1] = true
	score := func(i int) float64 { return float64((3 * i) % n) }
	dispatch := func() {
		i, ok := pl.dispatchByScore(nil, feeds, score, true, Item{})
		if !ok || i != 0 {
			t.Fatalf("dispatch = %d, %v; want child 0", i, ok)
		}
		feeds[i].TryGet()
	}
	dispatch()
	if allocs := testing.AllocsPerRun(100, dispatch); allocs != 0 {
		t.Errorf("warm scored dispatch allocates %.0f times, want 0", allocs)
	}
}
