package graphfile

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/half"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompileEmitsCalibratedWeights: calibration writes the classifier
// after its lazy fill, and Compile must serialize the written values,
// not regenerate the layer's stream.
func TestCompileEmitsCalibratedWeights(t *testing.T) {
	cfg := nn.MicroConfig{Classes: 4, Input: 32}
	g := nn.NewMicroGoogLeNet(cfg, rng.New(3))
	protos := make([]*tensor.T, cfg.Classes)
	for c := range protos {
		protos[c] = tensor.New(3, 32, 32)
		protos[c].FillNormal(rng.New(99).DeriveIndex(c), 0, 64)
	}
	if err := nn.CalibrateClassifier(g, nn.MicroClassifierName, nn.MicroPoolName, protos, 8); err != nil {
		t.Fatal(err)
	}
	blob := mustCompile(t, g)
	if bytes.Equal(blob, mustCompile(t, quickGraph())) {
		t.Fatal("calibrated blob equals the uncalibrated one")
	}
	parsed, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Layer(nn.MicroClassifierName).(*nn.FullyConnected)
	got := parsed.Layer(nn.MicroClassifierName).(*nn.FullyConnected)
	for i, v := range want.Weights().Data {
		if r := half.FromFloat32(v).Float32(); got.Weights().Data[i] != r {
			t.Fatalf("classifier weight %d = %g, want calibrated %g", i, got.Weights().Data[i], r)
		}
	}
}

// TestRecompileParsedGraph: compiling a parsed graph reproduces its
// blob byte for byte.
func TestRecompileParsedGraph(t *testing.T) {
	blob := mustCompile(t, quickGraph())
	g, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := mustCompile(t, g); !bytes.Equal(again, blob) {
		t.Fatal("recompiled parsed graph differs from its blob")
	}
}

// TestParsedConcurrentFirstRead: goroutines racing to run a parsed
// network's first forward pass decode each layer once and agree (run
// under -race to check the guard).
func TestParsedConcurrentFirstRead(t *testing.T) {
	blob := mustCompile(t, quickGraph())
	g, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 32, 32)
	in.FillNormal(rng.New(5), 0, 64)
	outs := make([]*tensor.T, 3)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out, err := g.Forward(in, nn.FP16)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = out
		}()
	}
	close(start)
	wg.Wait()
	ref, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out == nil {
			t.Fatalf("reader %d failed", i)
		}
		for j := range want.Data {
			if out.Data[j] != want.Data[j] {
				t.Fatalf("reader %d output %d = %g, want %g", i, j, out.Data[j], want.Data[j])
			}
		}
	}
}

// TestGoogLeNetCodecAllocCeilings: Parse of the session blob decodes no
// weight, and Compile of a fresh GoogLeNet allocates the blob plus its
// workers' 64 KB chunk buffers, never a layer's or the network's
// float32 weights.
func TestGoogLeNetCodecAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	g := nn.NewGoogLeNet(rng.New(42))
	var blob []byte
	n := allocBytes(func() { blob = mustCompile(t, g) })
	if limit := uint64(len(blob)) + 1<<20; n > limit {
		t.Errorf("Compile allocated %d bytes for a %d-byte blob, want <= %d", n, len(blob), limit)
	}
	n = allocBytes(func() {
		if _, _, err := Parse(blob); err != nil {
			t.Fatal(err)
		}
	})
	if n >= 1<<20 {
		t.Errorf("Parse allocated %d bytes, want < 1 MB", n)
	}
}

// TestCompileSameAtAnyCoreCount: the worker count follows GOMAXPROCS,
// and the blob is byte-identical at 1 (inline), 2 and 7 workers.
func TestCompileSameAtAnyCoreCount(t *testing.T) {
	cases := []struct {
		name string
		big  bool
		g    func() *nn.Graph
	}{
		{"micro", false, quickGraph},
		{"googlenet", true, func() *nn.Graph { return nn.NewGoogLeNet(rng.New(42)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("GoogLeNet compile skipped in -short")
			}
			var want []byte
			for _, procs := range []int{1, 2, 7} {
				prev := runtime.GOMAXPROCS(procs)
				blob := mustCompile(t, c.g())
				runtime.GOMAXPROCS(prev)
				if want == nil {
					want = blob
				} else if !bytes.Equal(blob, want) {
					t.Fatalf("blob at GOMAXPROCS %d differs from the one at 1", procs)
				}
			}
		})
	}
}

// TestCompileConcurrentWithMaterialise: two goroutines compile one
// graph while a third materialises its weights; both blobs equal the
// blob of a fresh copy (run under -race to check the reads).
func TestCompileConcurrentWithMaterialise(t *testing.T) {
	want := mustCompile(t, quickGraph())
	g := quickGraph()
	blobs := make([][]byte, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range blobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			blob, err := Compile(g)
			if err != nil {
				t.Error(err)
				return
			}
			blobs[i] = blob
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, name := range g.LayerNames() {
			switch l := g.Layer(name).(type) {
			case *nn.Conv:
				l.Weights()
			case *nn.FullyConnected:
				l.Bias()
			}
		}
	}()
	close(start)
	wg.Wait()
	for i, blob := range blobs {
		if !bytes.Equal(blob, want) {
			t.Errorf("compile %d differs from the fresh graph's blob", i)
		}
	}
}
