package core

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// runPipeline drives n items through stages and returns the pipeline,
// its job, and per-index completion counts at the final sink.
func runPipeline(t *testing.T, stages []Target, opts PipelineOptions, n int) (*Pipeline, *Job, map[int]int) {
	t.Helper()
	pl, err := NewPipeline(stages, opts)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	seen := map[int]int{}
	job := pl.Start(env, sliceOf(n), func(r Result) { seen[r.Index]++ })
	env.Run()
	return pl, job, seen
}

// TestPipelineItemConservation: every item crosses every stage and is
// classified exactly once at the final sink; the pipeline job counts
// final completions only.
func TestPipelineItemConservation(t *testing.T) {
	const n = 50
	stages := []Target{
		&stubTarget{name: "head", latency: time.Millisecond},
		&stubTarget{name: "mid", latency: 2 * time.Millisecond},
		&stubTarget{name: "tail", latency: time.Millisecond},
	}
	pl, job, seen := runPipeline(t, stages, PipelineOptions{QueueDepths: []int{2, 2}}, n)
	if job.Err != nil {
		t.Fatalf("pipeline error: %v", job.Err)
	}
	checkConservation(t, seen, n, "pipeline")
	if job.Images != n {
		t.Errorf("job.Images = %d, want %d (final-stage completions only)", job.Images, n)
	}
	if !job.Done() {
		t.Error("pipeline job not settled")
	}
	for i, cj := range pl.ChildJobs() {
		if cj.Images != n {
			t.Errorf("stage %d processed %d items, want %d", i, cj.Images, n)
		}
		if !cj.Done() {
			t.Errorf("stage %d job not settled", i)
		}
	}
	if got, want := pl.Name(), "pipe(head>mid>tail)"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}

// TestPipelineStampsSurviveHops: the item's identity and arrival
// stamp must survive every stage boundary, so end-to-end latency is
// still arrival → last-stage completion.
func TestPipelineStampsSurviveHops(t *testing.T) {
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{Index: i, Label: i % 3, ArrivedAt: time.Duration(i) * time.Millisecond}
	}
	pl, err := NewPipeline([]Target{
		&stubTarget{name: "head", latency: time.Millisecond},
		&stubTarget{name: "tail", latency: time.Millisecond},
	}, PipelineOptions{QueueDepths: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	var results []Result
	job := pl.Start(env, NewSliceSource(items), func(r Result) { results = append(results, r) })
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results, want %d", len(results), len(items))
	}
	for _, r := range results {
		if want := time.Duration(r.Index) * time.Millisecond; r.ArrivedAt != want {
			t.Errorf("item %d: ArrivedAt %v across pipeline, want %v", r.Index, r.ArrivedAt, want)
		}
		if wantLabel := r.Index % 3; r.Label != wantLabel {
			t.Errorf("item %d: Label %d, want %d", r.Index, r.Label, wantLabel)
		}
		if r.End <= r.Start {
			t.Errorf("item %d: unstamped final service window %v..%v", r.Index, r.Start, r.End)
		}
	}
}

// TestPipelineBackpressure: a slow tail must bound the head's
// run-ahead to the boundary window — the handoff never holds more
// than the boundary's window of items no matter how fast the head is.
func TestPipelineBackpressure(t *testing.T) {
	const n, depth = 60, 2
	stages := []Target{
		&stubTarget{name: "head", latency: 10 * time.Microsecond},
		&stubTarget{name: "tail", latency: 5 * time.Millisecond},
	}
	pl, job, seen := runPipeline(t, stages, PipelineOptions{QueueDepths: []int{depth}}, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "backpressure")
	// The window covers in-stage + in-handoff items, so the handoff
	// peak can never exceed it (+1 transient for the end sentinel).
	if peak := pl.handoffs[0].Peak(); peak > depth+1 {
		t.Errorf("handoff peak %d with window %d: head ran ahead unboundedly", peak, depth)
	}
	// And with the window held, the fast head's job must stretch to
	// roughly the tail's pace rather than finishing immediately.
	headDone := pl.ChildJobs()[0].DoneAt
	tailSpan := time.Duration(n) * 5 * time.Millisecond
	if headDone < tailSpan/2 {
		t.Errorf("head finished at %v, before backpressure could matter (tail span %v)", headDone, tailSpan)
	}
}

// TestPipelinePerBoundaryDepths: QueueDepths sets the window per
// boundary, one entry for each.
func TestPipelinePerBoundaryDepths(t *testing.T) {
	const n = 40
	stages := []Target{
		&stubTarget{name: "a", latency: 10 * time.Microsecond},
		&stubTarget{name: "b", latency: 10 * time.Microsecond},
		&stubTarget{name: "c", latency: 3 * time.Millisecond},
	}
	pl, job, seen := runPipeline(t, stages, PipelineOptions{QueueDepths: []int{1, 4}}, n)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, n, "per-boundary depths")
	if peak := pl.handoffs[0].Peak(); peak > 1+1 {
		t.Errorf("boundary 0 peak %d, window 1", peak)
	}
	if peak := pl.handoffs[1].Peak(); peak > 4+1 {
		t.Errorf("boundary 1 peak %d, window 4", peak)
	}
	if _, err := NewPipeline(stages, PipelineOptions{QueueDepths: []int{1}}); err == nil {
		t.Error("ragged QueueDepths accepted")
	}
	if _, err := NewPipeline(stages[:2], PipelineOptions{}); err == nil {
		t.Error("nil QueueDepths accepted for a 2-stage pipeline")
	}
}

// dropStage consumes like stubTarget but silently drops every
// dropEvery-th pulled item (no emission) and reports it via onDrop —
// the shape of an interior stage exhausting its recovery budget.
type dropStage struct {
	name      string
	latency   time.Duration
	dropEvery int
	onDrop    func()
}

func (t *dropStage) Name() string      { return t.name }
func (t *dropStage) TDPWatts() float64 { return 1 }

func (t *dropStage) Start(env *sim.Env, src Source, sink func(Result)) *Job {
	job := &Job{}
	env.Process(t.name, func(p *sim.Proc) {
		job.StartedAt = p.Now()
		job.ReadyAt = p.Now()
		pulled := 0
		for {
			item, ok := src.Next(p)
			if !ok {
				break
			}
			pulled++
			start := p.Now()
			p.Sleep(t.latency)
			if t.dropEvery > 0 && pulled%t.dropEvery == 0 {
				t.onDrop()
				continue
			}
			sink(Result{Index: item.Index, Label: item.Label, Pred: item.Label,
				Start: start, End: p.Now(),
				ArrivedAt: item.ArrivedAt, DispatchedAt: start, Device: t.name})
			job.Images++
		}
		job.Finish(p)
	})
	return job
}

// TestPipelineIntermediateDropSettles is the Job completion-contract
// regression: an item dropped at an interior stage never reaches the
// last stage, yet the pipeline job must still settle (every stage job
// finishes, the dropped items' boundary credits are released via
// StageDropped) and the final sink never sees an item twice. With
// more drops than the boundary window, forgetting the credit release
// deadlocks this test.
func TestPipelineIntermediateDropSettles(t *testing.T) {
	const n, depth, dropEvery = 40, 2, 5
	head := &dropStage{name: "head", latency: time.Millisecond, dropEvery: dropEvery}
	tail := &stubTarget{name: "tail", latency: time.Millisecond}
	pl, err := NewPipeline([]Target{head, tail}, PipelineOptions{QueueDepths: []int{depth}})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	head.onDrop = func() {
		drops++
		pl.StageDropped(0)
	}
	env := sim.NewEnv()
	seen := map[int]int{}
	job := pl.Start(env, sliceOf(n), func(r Result) { seen[r.Index]++ })
	env.Run()
	if job.Err != nil {
		t.Fatalf("pipeline error: %v", job.Err)
	}
	if !job.Done() {
		t.Fatal("pipeline job never settled after interior drops")
	}
	wantDrops := n / dropEvery
	if drops != wantDrops {
		t.Fatalf("%d drops, want %d (did the head stall?)", drops, wantDrops)
	}
	if len(seen) != n-wantDrops {
		t.Errorf("%d distinct items delivered, want %d", len(seen), n-wantDrops)
	}
	for idx, count := range seen {
		if count != 1 {
			t.Errorf("item %d delivered %d times", idx, count)
		}
	}
	if job.Images != n-wantDrops {
		t.Errorf("job.Images = %d, want %d", job.Images, n-wantDrops)
	}
}

// TestPipelineLastStageDropNoCredit: StageDropped on the last stage
// (or out of range) is a no-op — there is no downstream boundary.
func TestPipelineLastStageDropNoCredit(t *testing.T) {
	pl, job, seen := runPipeline(t, []Target{
		&stubTarget{name: "head", latency: time.Millisecond},
		&stubTarget{name: "tail", latency: time.Millisecond},
	}, PipelineOptions{QueueDepths: []int{2}}, 10)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	checkConservation(t, seen, 10, "no-credit drop")
	pl.StageDropped(1)  // last stage: no boundary below
	pl.StageDropped(-1) // out of range
	pl.StageDropped(99)
}

// TestPipelinePoolStages: stages compose recursively — a Pool at the
// head and a Pool at the tail, with the tail's workers all seeing the
// boundary sentinel.
func TestPipelinePoolStages(t *testing.T) {
	const n = 80
	headPool, err := NewPool([]Target{
		&stubTarget{name: "v0", latency: 2 * time.Millisecond},
		&stubTarget{name: "v1", latency: 2 * time.Millisecond},
	}, PoolOptions{Routing: RouteWorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	tailPool, err := NewPool([]Target{
		&stubTarget{name: "c0", latency: time.Millisecond},
		&stubTarget{name: "c1", latency: time.Millisecond},
	}, PoolOptions{Routing: RouteWorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	pl, job, seen := runPipeline(t, []Target{headPool, tailPool}, PipelineOptions{QueueDepths: []int{4}}, n)
	if job.Err != nil {
		t.Fatalf("pool-staged pipeline error: %v", job.Err)
	}
	checkConservation(t, seen, n, "pool stages")
	if job.Images != n {
		t.Errorf("job.Images = %d, want %d", job.Images, n)
	}
	if got := pl.DeviceCount(); got != 4 {
		t.Errorf("DeviceCount() = %d, want 4", got)
	}
	if got := pl.TDPWatts(); got != 4 {
		t.Errorf("TDPWatts() = %v, want 4", got)
	}
}

// TestPipelineSingleStageDelegates: a one-stage pipeline hands Start
// straight to the stage — same job object, no extra queues or
// processes, so it is event-for-event identical to running the target
// alone.
func TestPipelineSingleStageDelegates(t *testing.T) {
	st := &stubTarget{name: "only", latency: time.Millisecond}
	pl, err := NewPipeline([]Target{st}, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	seen := 0
	job := pl.Start(env, sliceOf(5), func(Result) { seen++ })
	env.Run()
	if job.Err != nil || seen != 5 {
		t.Fatalf("delegated run: err=%v seen=%d", job.Err, seen)
	}
	if pl.ChildJobs()[0] != job {
		t.Error("single-stage pipeline did not return the stage's own job")
	}
	if pl.credits != nil || pl.handoffs != nil {
		t.Error("single-stage pipeline built boundary queues")
	}
}

// TestPipelineDeadTailUnblocksHead: a tail that stops consuming
// mid-run must not wedge the head on boundary credits; the pipeline
// settles and surfaces the stranded work as an error.
func TestPipelineDeadTailUnblocksHead(t *testing.T) {
	const n = 30
	stages := []Target{
		&stubTarget{name: "head", latency: 100 * time.Microsecond},
		&stubTarget{name: "tail", latency: time.Millisecond, quitAfter: 5},
	}
	_, job, seen := runPipeline(t, stages, PipelineOptions{QueueDepths: []int{2}}, n)
	if !job.Done() {
		t.Fatal("pipeline wedged on a dead tail stage")
	}
	if job.Err == nil {
		t.Error("dead tail stranded items but pipeline reported no error")
	}
	if len(seen) != 5 {
		t.Errorf("%d items delivered past the dead tail, want 5", len(seen))
	}
}

// TestPipelineReadyAtIsLatest: the chain serves end to end only once
// every stage is up, so ReadyAt is the slowest stage's, not the
// earliest (the Pool convention does not apply).
func TestPipelineReadyAtIsLatest(t *testing.T) {
	stages := []Target{
		&stubTarget{name: "head", setup: 50 * time.Millisecond, latency: time.Millisecond},
		&stubTarget{name: "tail", setup: 2 * time.Millisecond, latency: time.Millisecond},
	}
	_, job, _ := runPipeline(t, stages, PipelineOptions{QueueDepths: []int{2}}, 10)
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.ReadyAt != 50*time.Millisecond {
		t.Errorf("ReadyAt = %v, want 50ms (latest stage setup)", job.ReadyAt)
	}
}

// TestPipelineCollectorNeverDoubleCounts: a Collector on the pipeline
// sink sees only final-stage completions — interior hops are not
// completions — while OnStageResult observes every hop with its stage
// index.
func TestPipelineCollectorNeverDoubleCounts(t *testing.T) {
	const n = 20
	col := NewCollector(false)
	hops := map[int]int{}
	pl, err := NewPipeline([]Target{
		&stubTarget{name: "head", latency: time.Millisecond},
		&stubTarget{name: "tail", latency: time.Millisecond},
	}, PipelineOptions{QueueDepths: []int{2}, OnStageResult: func(stage int, r Result) { hops[stage]++ }})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	job := pl.Start(env, sliceOf(n), col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if got := col.N; got != n {
		t.Errorf("collector counted %d completions, want %d (hops must not double-count)", got, n)
	}
	if hops[0] != n || hops[1] != n {
		t.Errorf("OnStageResult saw %v, want %d per stage", hops, n)
	}
}

// TestPipelineForwardPayload: the hop conversion (stageItem) carries
// the item's identity and stamps downstream but no payload: stages
// only keep time, so the upstream input image does not become the
// next stage's input.
func TestPipelineForwardPayload(t *testing.T) {
	r := Result{Index: 3, Image: tensor.New(2), Label: 1, ArrivedAt: 7 * time.Millisecond}
	item := stageItem(r)
	if item.Index != 3 || item.Label != 1 || item.ArrivedAt != 7*time.Millisecond {
		t.Errorf("hop lost identity/stamps: %+v", item)
	}
	if item.Image != nil {
		t.Errorf("hop forwarded a payload: %+v", item.Image)
	}
}

// TestPipelineNestedLastStage: a Pipeline whose last stage is another
// Pipeline, or a work-stealing Pool of Pipelines whose stage 0 has two
// readers, shares the outer boundary's handoff reader with every inner
// stage 0. Each inner boundary keeps its own credits: every item is
// classified once, every job settles, and no handoff holds more than
// its window plus the end sentinel.
func TestPipelineNestedLastStage(t *testing.T) {
	inner := func(name string) *Pipeline {
		head, err := NewPool([]Target{
			&stubTarget{name: name + "/h0", latency: time.Millisecond},
			&stubTarget{name: name + "/h1", latency: 2 * time.Millisecond},
		}, PoolOptions{Routing: RouteWorkStealing})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline([]Target{head, &stubTarget{name: name + "/t", latency: 3 * time.Millisecond}},
			PipelineOptions{QueueDepths: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	single := inner("in")
	a, b := inner("a"), inner("b")
	pool, err := NewPool([]Target{a, b}, PoolOptions{Routing: RouteWorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		last   Target
		inners []*Pipeline
	}{
		{"pipeline", single, []*Pipeline{single}},
		{"pool-of-pipelines", pool, []*Pipeline{a, b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, depth = 40, 2
			pl, job, seen := runPipeline(t, []Target{&stubTarget{name: "head", latency: 100 * time.Microsecond}, tc.last},
				PipelineOptions{QueueDepths: []int{depth}}, n)
			if job.Err != nil || !job.Done() {
				t.Fatalf("outer job done=%v err=%v", job.Done(), job.Err)
			}
			checkConservation(t, seen, n, tc.name)
			if peak := pl.handoffs[0].Peak(); peak > depth+1 {
				t.Errorf("outer handoff peak %d, window %d", peak, depth)
			}
			for k, in := range tc.inners {
				for i, cj := range in.ChildJobs() {
					if !cj.Done() {
						t.Errorf("inner %d stage %d never finished", k, i)
					}
				}
				if peak := in.handoffs[0].Peak(); peak > 1+1 {
					t.Errorf("inner %d handoff peak %d, window 1", k, peak)
				}
			}
		})
	}
}
