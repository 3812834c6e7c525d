package pipeline

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/imagenet"
	"repro/internal/ncs"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/usb"
)

func smallDataset(images int) imagenet.Config {
	cfg := imagenet.DefaultConfig()
	cfg.Images = images
	return cfg
}

// TestSessionHeterogeneous: CPU + GPU + 2 VPUs over one dataset
// source classify every item exactly once and the report aggregates
// match the per-group jobs.
func TestSessionHeterogeneous(t *testing.T) {
	const images = 60
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups: []Group{
			{Kind: GroupCPU, Batch: 4},
			{Kind: GroupGPU, Batch: 4},
			{Kind: GroupVPU, Devices: 2},
		},
		Routing: core.RouteWeighted,
		Retain:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Errorf("report images = %d, want %d", rep.Images, images)
	}
	if len(rep.Targets) != 3 {
		t.Fatalf("report has %d groups, want 3", len(rep.Targets))
	}
	sum := 0
	for _, tr := range rep.Targets {
		sum += tr.Images
		if tr.Images > 0 && tr.Throughput <= 0 {
			t.Errorf("group %s: %d images but throughput %g", tr.Name, tr.Images, tr.Throughput)
		}
	}
	if sum != images {
		t.Errorf("groups total %d images, want %d", sum, images)
	}
	// Every retained result appears exactly once.
	seen := map[int]int{}
	for _, r := range rep.Results {
		seen[r.Index]++
	}
	if len(seen) != images {
		t.Errorf("%d distinct retained results, want %d", len(seen), images)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d classified %d times", idx, n)
		}
	}
	// VPU group metered energy must be visible on the report.
	var vpu *TargetReport
	for i := range rep.Targets {
		if rep.Targets[i].Kind == GroupVPU {
			vpu = &rep.Targets[i]
		}
	}
	if vpu == nil || vpu.EnergyJoules <= 0 {
		t.Errorf("VPU group has no metered energy: %+v", vpu)
	}
	if rep.TDPWatts <= 160 { // CPU 80 + GPU 80 + sticks
		t.Errorf("aggregate TDP = %g, want > 160", rep.TDPWatts)
	}
	if !strings.Contains(rep.String(), "total") {
		t.Error("report table missing totals row")
	}
}

// TestSessionSingleGroupMatchesHandWired: a 2-stick session must be
// bit-identical to the manual env/testbed/compile/target wiring.
func TestSessionSingleGroupMatchesHandWired(t *testing.T) {
	const images = 40
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups:  []Group{{Kind: GroupVPU, Devices: 2}},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Hand-wired equivalent (the pre-session API dance).
	hand := handWiredVPU(t, images, 7)
	if rep.Throughput != hand {
		t.Errorf("session throughput %.6f != hand-wired %.6f", rep.Throughput, hand)
	}
}

func handWiredVPU(t *testing.T, images int, seed uint64) float64 {
	t.Helper()
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups:  []Group{{Kind: GroupVPU, Devices: 2}},
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the session's own pieces manually: same env, same blob,
	// same devices — but started through the raw core API.
	env := sess.Env()
	target, err := core.NewVPUTarget(sess.Devices(), sess.blob, core.DefaultVPUOptions())
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewDatasetSource(sess.Dataset(), 0, images)
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewCollector(false)
	job := target.Start(env, src, col.Sink())
	env.Run()
	if job.Err != nil {
		t.Fatal(job.Err)
	}
	return job.Throughput()
}

// TestSessionVPUSeedLabel: a VPU group's SeedLabel seeds its sticks
// from rng.New(Seed).Derive(SeedLabel), so a labelled group draws a
// different jitter stream than an unlabelled one, and each session
// matches sticks hand-seeded the same way — the unlabelled one from
// the session seed itself, as before labels reached VPU groups.
func TestSessionVPUSeedLabel(t *testing.T) {
	const images, sticks, seed = 40, 2, 7
	run := func(label string) (*Session, *Report) {
		t.Helper()
		sess, err := NewFromConfig(Config{
			Dataset: smallDataset(images),
			Groups:  []Group{{Kind: GroupVPU, Devices: sticks, SeedLabel: label}},
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sess, rep
	}
	plainSess, plain := run("")
	_, labelled := run("serving/vpu-2/run/load0.50")
	if labelled.Throughput == plain.Throughput || reflect.DeepEqual(labelled.Latency, plain.Latency) {
		t.Errorf("labelled VPU group drew the unlabelled jitter stream: %.6f img/s, %+v",
			labelled.Throughput, labelled.Latency)
	}

	// Hand-seeded references over the session's own workload.
	hand := func(devSeed *rng.Source) (float64, core.LatencySummary) {
		t.Helper()
		env := sim.NewEnv()
		_, ports, err := usb.Testbed(env, usb.DefaultConfig(), sticks)
		if err != nil {
			t.Fatal(err)
		}
		devices := make([]*ncs.Device, sticks)
		for i, port := range ports {
			if devices[i], err = ncs.NewDevice(env, port.Name(), port, ncs.DefaultConfig(), devSeed); err != nil {
				t.Fatal(err)
			}
		}
		target, err := core.NewVPUTarget(devices, plainSess.blob, core.DefaultVPUOptions())
		if err != nil {
			t.Fatal(err)
		}
		src, err := core.NewDatasetSource(plainSess.Dataset(), 0, images)
		if err != nil {
			t.Fatal(err)
		}
		col := core.NewCollector(false)
		job := target.Start(env, src, col.Sink())
		env.Run()
		if job.Err != nil {
			t.Fatal(job.Err)
		}
		return job.Throughput(), col.Latency()
	}
	for _, c := range []struct {
		name string
		rep  *Report
		seed *rng.Source
	}{
		{"unlabelled", plain, rng.New(seed)},
		{"labelled", labelled, rng.New(seed).Derive("serving/vpu-2/run/load0.50")},
	} {
		ips, lat := hand(c.seed)
		if c.rep.Throughput != ips || !reflect.DeepEqual(c.rep.Latency, lat) {
			t.Errorf("%s session %.6f img/s %+v != hand-seeded sticks %.6f img/s %+v",
				c.name, c.rep.Throughput, c.rep.Latency, ips, lat)
		}
	}
}

// TestSessionFunctionalAccuracy: a functional CPU session classifies
// with the calibrated micro network and reports plausible accuracy.
func TestSessionFunctionalAccuracy(t *testing.T) {
	const images = 32
	sess, err := NewFromConfig(Config{
		Dataset:    smallDataset(images),
		Groups:     []Group{{Kind: GroupCPU, Batch: 8}},
		Functional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != images {
		t.Fatalf("images = %d", rep.Images)
	}
	col := rep.Collector
	if col.Correct+col.Mispred != images {
		t.Errorf("classified %d of %d", col.Correct+col.Mispred, images)
	}
	if rep.TopOneError >= 0.9 {
		t.Errorf("top-1 error %.2f — classifier not calibrated?", rep.TopOneError)
	}
	if rep.MeanConfidence <= 0 {
		t.Errorf("mean confidence %g", rep.MeanConfidence)
	}
}

// TestSessionStream: an MPI-style producer feeds a stream consumed by
// two groups; every frame lands exactly once.
func TestSessionStream(t *testing.T) {
	const frames = 30
	capacity := 8
	sess, err := NewFromConfig(Config{
		Dataset:        smallDataset(frames),
		Groups:         []Group{{Kind: GroupCPU, Batch: 2}, {Kind: GroupVPU, Devices: 1}},
		Functional:     true,
		StreamCapacity: &capacity,
		Routing:        core.RouteWorkStealing,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := sess.Dataset()
	stream := sess.Stream()
	if stream == nil {
		t.Fatal("no stream")
	}
	sess.Env().Process("producer", func(p *sim.Proc) {
		for i := 0; i < frames; i++ {
			stream.Push(p, core.Item{Index: i, Image: ds.Preprocessed(i), Label: ds.Label(i)})
		}
		stream.Close(p)
	})
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Images != frames {
		t.Errorf("images = %d, want %d", rep.Images, frames)
	}
}

// TestSessionStaticWeights: explicit group weights split a sized
// source proportionally under static routing.
func TestSessionStaticWeights(t *testing.T) {
	const images = 40
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups: []Group{
			{Kind: GroupCPU, Batch: 4, Weight: 3},
			{Kind: GroupGPU, Batch: 4, Weight: 1},
		},
		Routing: core.RouteStatic,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Targets[0].Images != 30 || rep.Targets[1].Images != 10 {
		t.Errorf("static 3:1 split = %d/%d, want 30/10",
			rep.Targets[0].Images, rep.Targets[1].Images)
	}
}

// TestSessionSharedNetworkAndBlob: supplying a prebuilt network and
// compiled blob must reproduce the self-built session exactly.
func TestSessionSharedNetworkAndBlob(t *testing.T) {
	const images = 30
	self, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups:  []Group{{Kind: GroupVPU, Devices: 1}},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, blob := self.Network(), self.Blob()
	selfRep, err := self.Run()
	if err != nil {
		t.Fatal(err)
	}

	shared, err := NewFromConfig(Config{
		Dataset: smallDataset(images),
		Groups:  []Group{{Kind: GroupVPU, Devices: 1}},
		Seed:    5,
		Net:     net,
		Blob:    blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedRep, err := shared.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sharedRep.Throughput != selfRep.Throughput {
		t.Errorf("shared-workload session throughput %.4f != self-built %.4f",
			sharedRep.Throughput, selfRep.Throughput)
	}
}

// TestSessionStaticOverStream: static routing cannot partition an
// unbounded stream — Run must return the routing error with a
// well-formed report, not panic.
func TestSessionStaticOverStream(t *testing.T) {
	capacity := 4
	sess, err := NewFromConfig(Config{
		Dataset:        smallDataset(8),
		Groups:         []Group{{Kind: GroupCPU, Batch: 2}, {Kind: GroupVPU, Devices: 1}},
		StreamCapacity: &capacity,
		Routing:        core.RouteStatic,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := sess.Stream()
	sess.Env().Process("producer", func(p *sim.Proc) { stream.Close(p) })
	rep, err := sess.Run()
	if err == nil {
		t.Fatal("static routing over a stream succeeded; want Sized error")
	}
	if rep == nil || len(rep.Targets) != 2 {
		t.Fatalf("report malformed after routing error: %+v", rep)
	}
	if rep.Images != 0 {
		t.Errorf("images = %d after routing error", rep.Images)
	}
}

// TestSessionValidation: configuration errors surface at
// NewFromConfig, and a session refuses to run twice.
func TestSessionValidation(t *testing.T) {
	if _, err := NewFromConfig(Config{}); err == nil {
		t.Error("session with no groups accepted")
	}
	if _, err := NewFromConfig(Config{Groups: []Group{{Kind: GroupCPU, Batch: -1}}}); err == nil {
		t.Error("negative batch accepted")
	}
	if _, err := NewFromConfig(Config{Groups: []Group{{Kind: GroupVPU, Devices: 0}}, Images: 10_000_000}); err == nil {
		t.Error("oversized image count accepted")
	}
	if _, err := NewFromConfig(Config{Groups: []Group{{Kind: GroupCustom, Target: nil}}}); err == nil {
		t.Error("nil custom target accepted")
	}

	sess, err := NewFromConfig(Config{Dataset: smallDataset(8), Groups: []Group{{Kind: GroupCPU, Batch: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

// TestTimingSessionAllocCeiling: a non-functional GoogLeNet session
// reads no weight value. Its network build allocates shapes only, the
// compile streams weights straight into the 14 MB blob, and the eight
// sticks parse that blob without decoding it, so set-up and a short
// run stay far below one float32 copy of the weights per stick (28 MB
// each).
func TestTimingSessionAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := NewFromConfig(Config{
		Dataset: smallDataset(80),
		Groups:  []Group{{Kind: GroupVPU, Devices: 8}},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if rep.Images != 80 {
		t.Fatalf("classified %d of 80 images", rep.Images)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<20 {
		t.Errorf("8-stick session allocated %d MB, want < 64 MB", n>>20)
	}
}

// Network returns the workload graph.
func (s *Session) Network() *nn.Graph { return s.net }
