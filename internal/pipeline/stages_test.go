package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
)

// googleNetCuts returns the valid interior cut indices of the default
// GoogLeNet workload (the boundary set stage sessions split at).
func googleNetCuts(t *testing.T) []int {
	t.Helper()
	cuts := nn.NewGoogLeNet(rng.New(42)).ValidCuts()
	if len(cuts) == 0 {
		t.Fatal("GoogLeNet has no valid cuts")
	}
	return cuts
}

// TestStageSessionRuns: a VPU-head + GPU-tail split session classifies
// every image exactly once through both stages and reports pipeline
// metadata.
func TestStageSessionRuns(t *testing.T) {
	const images = 48
	cuts := googleNetCuts(t)
	cut := cuts[len(cuts)/2]
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Stages:  []Stage{VPUStage(2), GPUStage(16)},
		Cuts:    []int{cut},
		Retain:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Cuts(); len(got) != 1 || got[0] != cut {
		t.Fatalf("Cuts() = %v, want [%d]", got, cut)
	}
	segs := sess.Segments()
	if len(segs) != 2 || segs[0].Len()+segs[1].Len() != nn.NewGoogLeNet(rng.New(42)).Len() {
		t.Fatalf("segments %v do not partition the network", segs)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Errorf("report images = %d, want %d", rep.Images, images)
	}
	if !rep.Pipeline || len(rep.Cuts) != 1 || rep.Cuts[0] != cut {
		t.Errorf("report pipeline metadata: pipeline=%v cuts=%v", rep.Pipeline, rep.Cuts)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("report has %d stages, want 2", len(rep.Targets))
	}
	// Serial stages: every stage processes every image.
	for _, tr := range rep.Targets {
		if tr.Images != images {
			t.Errorf("stage %s processed %d images, want %d", tr.Name, tr.Images, images)
		}
	}
	if rep.Throughput <= 0 {
		t.Errorf("pipeline throughput %g", rep.Throughput)
	}
	seen := map[int]int{}
	for _, r := range rep.Results {
		seen[r.Index]++
	}
	if len(seen) != images {
		t.Errorf("%d distinct results, want %d (final stage only)", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d delivered %d times", idx, n)
		}
	}
}

// TestStageReplicas: a stage widened into a replica pool still
// delivers every image exactly once, registers the extra hardware,
// runs deterministically, and outpaces its unreplicated twin when the
// widened stage is the bottleneck.
func TestStageReplicas(t *testing.T) {
	const images = 48
	cuts := googleNetCuts(t)
	cut := cuts[len(cuts)/2]
	run := func(head Stage) *Report {
		t.Helper()
		sess, err := NewFromConfig(Config{
			Dataset: smallDataset(images),
			Stages:  []Stage{head, GPUStage(16)},
			Cuts:    []int{cut},
			Retain:  true,
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
	single := run(VPUStage(1))
	wide := run(VPUStage(1).Replicated(3))
	seen := map[int]int{}
	for _, r := range wide.Results {
		seen[r.Index]++
	}
	if len(seen) != images {
		t.Errorf("%d distinct results, want %d", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d delivered %d times", idx, n)
		}
	}
	for _, tr := range wide.Targets {
		if tr.Images != images {
			t.Errorf("stage %s processed %d images, want %d", tr.Name, tr.Images, images)
		}
	}
	// Three replica sticks beat one when the VPU head is the
	// bottleneck.
	if wide.Throughput <= single.Throughput {
		t.Errorf("3-replica head throughput %.2f not above single head %.2f",
			wide.Throughput, single.Throughput)
	}
	// Determinism: the replicated session repeats bit for bit.
	again := run(VPUStage(1).Replicated(3))
	if wide.String() != again.String() || wide.SimTime != again.SimTime {
		t.Error("replicated stage session is not deterministic across reruns")
	}
	// A custom stage cannot be replicated.
	if _, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Stages:  []Stage{CustomStage(&stubCustomTarget{}).Replicated(2), GPUStage(16)},
		Cuts:    []int{0},
	}); err == nil {
		t.Error("replicated custom stage accepted")
	}
}

// TestStageDegenerateCollapse locks the degenerate-cut contract: a
// two-stage session cut at 0 or at the layer count collapses the
// empty stage before any device is built and must be bit-identical —
// same rendered report, same simulated time — to the classic
// single-group session it degenerates to.
func TestStageDegenerateCollapse(t *testing.T) {
	const images = 24
	n := nn.NewGoogLeNet(rng.New(42)).Len()
	run := func(cfg Config) (*Report, error) {
		cfg.Dataset = smallDataset(images)
		sess, err := NewFromConfig(cfg)
		if err != nil {
			return nil, err
		}
		return sess.Run()
	}

	// cut = Len: the GPU tail is empty; the whole network runs on the
	// VPU stage exactly like a plain 2-stick session.
	stageRep, err := run(Config{Stages: []Stage{VPUStage(2), GPUStage(16)}, Cuts: []int{n}})
	if err != nil {
		t.Fatal(err)
	}
	classicRep, err := run(Config{Groups: []Group{{Kind: GroupVPU, Devices: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if stageRep.Pipeline {
		t.Error("degenerate cut still reported as pipeline")
	}
	if got, want := stageRep.String(), classicRep.String(); got != want {
		t.Errorf("cut=%d report diverged from classic VPU session:\n--- stage\n%s--- classic\n%s", n, got, want)
	}
	if stageRep.SimTime != classicRep.SimTime {
		t.Errorf("cut=%d simulated time %v, classic %v", n, stageRep.SimTime, classicRep.SimTime)
	}

	// cut = 0: the VPU head is empty; no stick, no USB testbed, no
	// blob — identical to a plain GPU session.
	stageRep, err = run(Config{Stages: []Stage{VPUStage(2), GPUStage(16)}, Cuts: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	classicRep, err = run(Config{Groups: []Group{{Kind: GroupGPU, Batch: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stageRep.String(), classicRep.String(); got != want {
		t.Errorf("cut=0 report diverged from classic GPU session:\n--- stage\n%s--- classic\n%s", got, want)
	}
	if stageRep.SimTime != classicRep.SimTime {
		t.Errorf("cut=0 simulated time %v, classic %v", stageRep.SimTime, classicRep.SimTime)
	}
}

// TestStageSessionDeterminism: same seed, same configuration ⇒ the
// rendered report and simulated time repeat exactly.
func TestStageSessionDeterminism(t *testing.T) {
	cuts := googleNetCuts(t)
	run := func() (*Report, error) {
		sess, err := NewFromConfig(Config{
			Dataset: smallDataset(32),
			Stages:  []Stage{VPUStage(2), CPUStage(8)},
			Cuts:    []int{cuts[0]},
			Seed:    7,
		})
		if err != nil {
			return nil, err
		}
		return sess.Run()
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.SimTime != b.SimTime {
		t.Errorf("stage session not deterministic:\n--- first\n%s--- second\n%s", a.String(), b.String())
	}
}

// TestStageThreeWay: a three-stage chain (VPU → CPU → GPU) over two
// cuts conserves items across all three segments.
func TestStageThreeWay(t *testing.T) {
	const images = 24
	cuts := googleNetCuts(t)
	if len(cuts) < 2 {
		t.Skip("need two valid cuts")
	}
	c1, c2 := cuts[0], cuts[len(cuts)-1]
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Stages:  []Stage{VPUStage(2), CPUStage(8), GPUStage(16)},
		Cuts:    []int{c1, c2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 3 {
		t.Fatalf("%d stages, want 3", len(rep.Targets))
	}
	for _, tr := range rep.Targets {
		if tr.Images != images {
			t.Errorf("stage %s processed %d, want %d", tr.Name, tr.Images, images)
		}
	}
}

// TestStageValidation: the stage-mode configuration errors fire at
// construction.
func TestStageValidation(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
	}{
		{"stages+groups", Config{Groups: []Group{{Kind: GroupGPU, Batch: 8}}, Stages: []Stage{VPUStage(1), GPUStage(8)}, Cuts: []int{10}}},
		{"missing cut", Config{Stages: []Stage{VPUStage(1), GPUStage(8)}}},
		{"extra cuts", Config{Stages: []Stage{VPUStage(1), GPUStage(8)}, Cuts: []int{1, 2}}},
		{"descending cuts", Config{Stages: []Stage{VPUStage(1), CPUStage(8), GPUStage(8)}, Cuts: []int{20, 10}}},
		{"invalid cut point", Config{Stages: []Stage{VPUStage(1), GPUStage(8)}, Cuts: []int{3}}}, // inside conv1 stem? index 3 is mid-branch only if invalid; checked below
		{"functional", Config{Functional: true, Stages: []Stage{VPUStage(1), GPUStage(8)}, Cuts: []int{10}}},
		{"hedged", Config{Hedge: core.HedgeConfig{Trigger: core.HedgeNever}, Stages: []Stage{VPUStage(2), GPUStage(8)}, Cuts: []int{10}}},
		{"blob", Config{Blob: []byte{1}, Stages: []Stage{VPUStage(1), GPUStage(8)}, Cuts: []int{10}}},
		{"custom with span", Config{Stages: []Stage{CustomStage(&stubCustomTarget{}), GPUStage(8)}, Cuts: []int{10}}},
	}
	valid := map[int]bool{}
	for _, c := range googleNetCuts(t) {
		valid[c] = true
	}
	for _, tc := range bad {
		if tc.name == "invalid cut point" {
			// Pick a genuinely invalid interior cut for this case.
			invalid := -1
			n := nn.NewGoogLeNet(rng.New(42)).Len()
			for c := 1; c < n; c++ {
				if !valid[c] {
					invalid = c
					break
				}
			}
			if invalid < 0 {
				continue
			}
			tc.cfg = Config{Stages: []Stage{VPUStage(1), GPUStage(8)}, Cuts: []int{invalid}}
		}
		tc.cfg.Dataset = smallDataset(8)
		if _, err := NewFromConfig(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// stubCustomTarget is a minimal custom target for validation tests.
type stubCustomTarget struct{}

func (s *stubCustomTarget) Name() string      { return "stub" }
func (s *stubCustomTarget) TDPWatts() float64 { return 1 }
func (s *stubCustomTarget) Start(env *sim.Env, src core.Source, sink func(core.Result)) *core.Job {
	job := &core.Job{}
	env.Process("stub", func(p *sim.Proc) {
		for {
			if _, ok := src.Next(p); !ok {
				break
			}
		}
		job.Finish(p)
	})
	return job
}

// Segments returns the per-stage network segments (nil entries for
// custom stages; nil for non-pipeline sessions).
func (s *Session) Segments() []*nn.Graph {
	var segs []*nn.Graph
	for _, st := range s.stages {
		segs = append(segs, st.seg)
	}
	return segs
}
