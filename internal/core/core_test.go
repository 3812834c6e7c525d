package core

import (
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/rng"
	"repro/internal/sim"
)

func smallDataset(t testing.TB) *imagenet.Dataset {
	t.Helper()
	cfg := imagenet.DefaultConfig()
	cfg.Images = 100
	cfg.Subsets = 5
	ds, err := imagenet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetSource(t *testing.T) {
	ds := smallDataset(t)
	src, err := NewDatasetSource(ds, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	env.Process("consumer", func(p *sim.Proc) {
		for i := 10; i < 20; i++ {
			item, ok := src.Next(p)
			if !ok {
				t.Fatalf("source dried up at %d", i)
			}
			if item.Index != i {
				t.Errorf("index = %d, want %d", item.Index, i)
			}
			if item.Label != ds.Label(i) {
				t.Error("label mismatch")
			}
			if item.Image != nil {
				t.Error("dataset items must leave the pixels to whoever classifies them")
			}
		}
		if _, ok := src.Next(p); ok {
			t.Error("source should be exhausted")
		}
	})
	env.Run()
}

func TestDatasetSourceValidation(t *testing.T) {
	ds := smallDataset(t)
	for _, r := range [][2]int{{-1, 5}, {0, 101}, {5, 5}, {7, 3}} {
		if _, err := NewDatasetSource(ds, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]Item{{Index: 3, Label: 1}, {Index: 4, Label: 2}})
	env := sim.NewEnv()
	env.Process("c", func(p *sim.Proc) {
		a, ok := src.Next(p)
		if !ok || a.Index != 3 {
			t.Error("first item wrong")
		}
		b, ok := src.Next(p)
		if !ok || b.Index != 4 {
			t.Error("second item wrong")
		}
		if _, ok := src.Next(p); ok {
			t.Error("not exhausted")
		}
	})
	env.Run()
}

func TestStreamSource(t *testing.T) {
	env := sim.NewEnv()
	src := NewStreamSource(env, 4)
	var got []int
	env.Process("producer", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(time.Millisecond)
			src.Push(p, Item{Index: i})
		}
		src.Close(p)
	})
	env.Process("consumer", func(p *sim.Proc) {
		for {
			item, ok := src.Next(p)
			if !ok {
				return
			}
			got = append(got, item.Index)
		}
	})
	env.Run()
	if len(got) != 6 {
		t.Fatalf("consumed %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Errorf("order broken: %v", got)
		}
	}
}

func TestStreamSourceMultipleConsumers(t *testing.T) {
	env := sim.NewEnv()
	src := NewStreamSource(env, 0)
	counts := make([]int, 2)
	env.Process("producer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			src.Push(p, Item{Index: i})
			p.Sleep(time.Millisecond)
		}
		src.Close(p)
	})
	for w := 0; w < 2; w++ {
		w := w
		env.Process("consumer", func(p *sim.Proc) {
			for {
				_, ok := src.Next(p)
				if !ok {
					return
				}
				counts[w]++
				p.Sleep(3 * time.Millisecond)
			}
		})
	}
	env.Run()
	if counts[0]+counts[1] != 10 {
		t.Errorf("consumed %d+%d, want 10 total", counts[0], counts[1])
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Error("work not shared between consumers")
	}
}

func TestStreamPushAfterClosePanics(t *testing.T) {
	env := sim.NewEnv()
	src := NewStreamSource(env, 0)
	env.Process("p", func(p *sim.Proc) {
		src.Close(p)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		src.Push(p, Item{})
	})
	// Drain the sentinel so Run terminates cleanly.
	env.Process("drain", func(p *sim.Proc) { src.Next(p) })
	env.Run()
}

func TestCollector(t *testing.T) {
	c := NewCollector(true)
	sink := c.Sink()
	sink(Result{Index: 0, Label: 1, Pred: 1, Confidence: 0.9, Start: 10 * time.Millisecond, End: 20 * time.Millisecond})
	sink(Result{Index: 1, Label: 2, Pred: 0, Confidence: 0.4, Start: 15 * time.Millisecond, End: 30 * time.Millisecond})
	sink(Result{Index: 2, Label: 3, Pred: -1, Start: 5 * time.Millisecond, End: 35 * time.Millisecond})
	if c.N != 3 {
		t.Errorf("N = %d", c.N)
	}
	if c.Correct != 1 || c.Mispred != 1 {
		t.Errorf("correct/mispred = %d/%d", c.Correct, c.Mispred)
	}
	if got := c.TopOneError(); got != 0.5 {
		t.Errorf("TopOneError = %g (unclassified items must not count)", got)
	}
	if c.Span() != 30*time.Millisecond {
		t.Errorf("Span = %v", c.Span())
	}
	if len(c.Results) != 3 {
		t.Error("retain lost results")
	}
	if NewCollector(false).TopOneError() != 0 {
		t.Error("empty collector error")
	}
	if c.MeanConfidence() <= 0 {
		t.Error("mean confidence")
	}
}

func TestJobThroughput(t *testing.T) {
	j := &Job{ReadyAt: time.Second, DoneAt: 3 * time.Second, Images: 100}
	if got := j.Throughput(); got != 50 {
		t.Errorf("Throughput = %g", got)
	}
	if (&Job{}).Throughput() != 0 {
		t.Error("zero-span throughput")
	}
}

func TestSchedulingString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Dynamic.String() != "dynamic" {
		t.Error("Scheduling.String")
	}
}

func TestBatchTargetValidation(t *testing.T) {
	if _, err := NewBatchTarget(nil, 8); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewBatchTarget(pacedEngine(t, 0, time.Millisecond), 0); err == nil {
		t.Error("batch 0 accepted")
	}
}

func TestBatchTargetRunsFake(t *testing.T) {
	bt, err := NewBatchTarget(pacedEngine(t, 0, time.Millisecond), 4)
	if err != nil {
		t.Fatal(err)
	}
	if bt.TDPWatts() != 10 || bt.Name() != "cpu" {
		t.Error("metadata")
	}
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{Index: i, Label: i % 3}
	}
	env := sim.NewEnv()
	col := NewCollector(true)
	job := bt.Start(env, NewSliceSource(items), col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	if job.Images != 10 || col.N != 10 {
		t.Errorf("images = %d / %d", job.Images, col.N)
	}
	// 10 items at batch 4: batches of 4, 4, 2 => 4+4+2 ms.
	if job.DoneAt != 10*time.Millisecond {
		t.Errorf("DoneAt = %v", job.DoneAt)
	}
	// Results within one batch share timestamps.
	if col.Results[0].End != col.Results[3].End {
		t.Error("batch results must share completion time")
	}
	if col.Results[0].Pred != -1 {
		t.Error("non-functional results must have Pred -1")
	}
}

// TestBatchTargetAllocs: a warm fixed-assembly batch target prices,
// sleeps and delivers each batch without allocating (no-op sink, no
// timeline).
func TestBatchTargetAllocs(t *testing.T) {
	eng, err := devsim.NewCPU(devsim.DefaultCPUConfig(), devsim.Workload{MACs: 1_500_000_000}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBatchTarget(eng, 8)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	bt.Start(env, sliceOf(4000), func(Result) {})
	defer env.Stop()
	env.RunUntil(time.Second)
	before := bt.Batches()
	allocs := testing.AllocsPerRun(20, func() { env.RunUntil(env.Now() + time.Second) })
	if ran := bt.Batches() - before; ran < 20*4 {
		t.Fatalf("only %d batches ran in the measured windows", ran)
	}
	if allocs != 0 {
		t.Errorf("a window of warm batches allocates %v times, want 0", allocs)
	}
}

func TestVPUTargetValidation(t *testing.T) {
	if _, err := NewVPUTarget(nil, graphfile.FromBytes([]byte{1}), DefaultVPUOptions()); err == nil {
		t.Error("no devices accepted")
	}
	opts := DefaultVPUOptions()
	opts.HostOverhead = -time.Second
	if _, err := NewVPUTarget(nil, nil, opts); err == nil {
		t.Error("bad options accepted")
	}
}

// Done reports whether the target has shut down (in virtual time).
func (j *Job) Done() bool { return j.done }

// Span returns the virtual time between the first inference start and
// the last completion.
func (c *Collector) Span() time.Duration {
	if !c.any {
		return 0
	}
	return c.lastEnd - c.firstStart
}
