package graphfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func mustHandle(t testing.TB, g *nn.Graph) *Handle {
	t.Helper()
	h, err := CompileHandle(g)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHandleBytesPinned: a handle knows its length before the payload
// exists, and Bytes builds the blob TestCompilePinnedDigest pins, CRC
// trailer included, at one and two workers.
func TestHandleBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		big  bool
		g    func() *nn.Graph
		want string
	}{
		{"micro", false, quickGraph, "9c3ef07c661d7ec050b55784884e33a70c021763f66ebe915709c5620476b1d5"},
		{"googlenet-seed42", true, func() *nn.Graph { return nn.NewGoogLeNet(rng.New(42)) }, "ea47ab48943ed1c465011854efa64f7f42a81593e9efae6866eb43e9f9275e0e"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("GoogLeNet compile skipped in -short")
			}
			for _, procs := range []int{1, 2} {
				h := mustHandle(t, c.g())
				if h.buf != nil {
					t.Fatal("compiling an unread network built the payload")
				}
				n := h.Len()
				prev := runtime.GOMAXPROCS(procs)
				blob := h.Bytes()
				runtime.GOMAXPROCS(prev)
				if len(blob) != n || cap(blob) != n {
					t.Errorf("GOMAXPROCS %d: Len() = %d, blob has len %d cap %d", procs, n, len(blob), cap(blob))
				}
				sum := sha256.Sum256(blob)
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("GOMAXPROCS %d: Bytes sha256 = %s, want %s", procs, got, c.want)
				}
				if _, _, err := Parse(blob); err != nil {
					t.Errorf("GOMAXPROCS %d: %v", procs, err)
				}
			}
		})
	}
}

// TestHandleSnapshotsSource: a handle's bytes are the network as it was
// at compile time. Reading or editing a layer afterwards changes
// nothing, whether the layer was unread at compile time (the handle
// keeps its value source) or already materialised (the handle is then
// filled at once).
func TestHandleSnapshotsSource(t *testing.T) {
	want := mustCompile(t, quickGraph())
	edit := func(g *nn.Graph) {
		for _, name := range g.LayerNames() {
			switch l := g.Layer(name).(type) {
			case *nn.Conv:
				l.Weights().Fill(0.5)
			case *nn.FullyConnected:
				l.Bias().Data[0] = -4
			}
		}
	}
	t.Run("unread", func(t *testing.T) {
		g := quickGraph()
		h := mustHandle(t, g)
		edit(g)
		if h.buf != nil {
			t.Fatal("compiling an unread network built the payload")
		}
		if !bytes.Equal(h.Bytes(), want) {
			t.Error("edits after compile reached the blob")
		}
	})
	t.Run("materialised", func(t *testing.T) {
		g := quickGraph()
		g.Layer("conv1").(*nn.Conv).Weights()
		h := mustHandle(t, g)
		edit(g)
		if !bytes.Equal(h.Bytes(), want) {
			t.Error("edits after compile reached the blob")
		}
	})
}

// TestHandleConcurrentBytes: goroutines racing to make the first Bytes
// call fill the handle once and share one array (run under -race to
// check the guard).
func TestHandleConcurrentBytes(t *testing.T) {
	want := mustCompile(t, quickGraph())
	fresh := mustHandle(t, quickGraph())
	one := allocBytes(func() { fresh.Bytes() })
	h := mustHandle(t, quickGraph())
	blobs := make([][]byte, 4)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range blobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			blobs[i] = h.Bytes()
		}()
	}
	n := allocBytes(func() {
		close(start)
		wg.Wait()
	})
	if n >= one*3/2 {
		t.Errorf("%d concurrent first calls allocated %d bytes, one fill allocates %d", len(blobs), n, one)
	}
	for i, blob := range blobs {
		if !bytes.Equal(blob, want) {
			t.Fatalf("call %d returned a different blob", i)
		}
		if &blob[0] != &blobs[0][0] {
			t.Errorf("call %d returned its own copy", i)
		}
	}
}

// TestHandleParseDefersPayload: a network read from a compiled handle
// passes Parse's checks without building the payload, then reads the
// FP16 weights Parse(h.Bytes()) reads and computes the same outputs.
func TestHandleParseDefersPayload(t *testing.T) {
	h := mustHandle(t, quickGraph())
	g, info, err := h.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if h.buf != nil {
		t.Fatal("Handle.Parse built the payload")
	}
	if info.Bytes != h.Len() {
		t.Errorf("info.Bytes = %d, want %d", info.Bytes, h.Len())
	}
	ref, refInfo, err := Parse(h.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	same := *info
	same.InputShape = refInfo.InputShape
	if !info.InputShape.Equal(refInfo.InputShape) || fmt.Sprint(same) != fmt.Sprint(*refInfo) {
		t.Errorf("info = %+v, Parse gives %+v", info, refInfo)
	}
	for _, name := range ref.LayerNames() {
		var got, want [2]*tensor.T
		switch l := ref.Layer(name).(type) {
		case *nn.Conv:
			want = [2]*tensor.T{l.Weights(), l.Bias()}
			c := g.Layer(name).(*nn.Conv)
			got = [2]*tensor.T{c.Weights(), c.Bias()}
		case *nn.FullyConnected:
			want = [2]*tensor.T{l.Weights(), l.Bias()}
			f := g.Layer(name).(*nn.FullyConnected)
			got = [2]*tensor.T{f.Weights(), f.Bias()}
		default:
			continue
		}
		for k := range got {
			for i, v := range want[k].Data {
				if math.Float32bits(got[k].Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s tensor %d value %d = %g, want %g", name, k, i, got[k].Data[i], v)
				}
			}
		}
	}
	in := tensor.New(2, 3, 32, 32)
	in.FillNormal(rng.New(5), 0, 64)
	out, err := g.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := ref.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range wantOut.Data {
		if math.Float32bits(out.Data[i]) != math.Float32bits(v) {
			t.Fatalf("output %d = %g, want %g", i, out.Data[i], v)
		}
	}
}

// TestFromBytesParsesInFull: bytes from outside are checked in full on
// every Parse of their handle, CRC included.
func TestFromBytesParsesInFull(t *testing.T) {
	blob := mustCompile(t, quickGraph())
	if _, _, err := FromBytes(blob).Parse(); err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptions(blob) {
		if _, _, err := FromBytes(c.blob).Parse(); err == nil {
			t.Errorf("%s: corrupted bytes accepted", c.name)
		}
	}
}
