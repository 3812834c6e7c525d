package pipeline

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graphfile"
	"repro/internal/nn"
	"repro/internal/rng"
)

// oneStick is a session's fleet of one VPU stick.
var oneStick = []Group{{Kind: GroupVPU, Devices: 1}}

// blobSession builds a session over netSeed's weights with cfg's
// devices and network.
func blobSession(t testing.TB, netSeed uint64, cfg Config) *Session {
	t.Helper()
	cfg.Dataset = smallDataset(8)
	cfg.NetSeed = netSeed
	s, err := NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// memoEntries counts the memo's entries for the given net seeds.
func memoEntries(seeds ...uint64) int {
	sessionBlobs.mu.Lock()
	defer sessionBlobs.mu.Unlock()
	n := 0
	for key := range sessionBlobs.entries {
		for _, seed := range seeds {
			if key.seed == seed {
				n++
			}
		}
	}
	return n
}

// memoEntry returns the memo's entry for key, nil when there is none.
func memoEntry(key blobKey) *blobEntry {
	sessionBlobs.mu.Lock()
	defer sessionBlobs.mu.Unlock()
	return sessionBlobs.entries[key]
}

func mustCompile(t testing.TB, g *nn.Graph) []byte {
	t.Helper()
	blob, err := graphfile.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestSessionBlobShared: two live sessions over one net seed share one
// blob, byte-identical to compiling the network afresh; another seed
// gets a blob of its own.
func TestSessionBlobShared(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	a, b := blobSession(t, 42, Config{Groups: oneStick}), blobSession(t, 42, Config{Groups: oneStick})
	if !bytes.Equal(a.Blob(), mustCompile(t, nn.NewGoogLeNet(rng.New(42)))) {
		t.Fatal("session blob differs from graphfile.Compile(nn.NewGoogLeNet(rng.New(42)))")
	}
	if !sameArray(a.Blob(), b.Blob()) {
		t.Error("two live seed-42 sessions hold two copies of one blob")
	}
	if cap(b.Blob()) != len(b.Blob()) {
		t.Errorf("shared blob has spare capacity %d", cap(b.Blob())-len(b.Blob()))
	}
	c := blobSession(t, 43, Config{Groups: oneStick})
	if sameArray(a.Blob(), c.Blob()) || bytes.Equal(a.Blob(), c.Blob()) {
		t.Error("net seeds 42 and 43 share a blob")
	}
}

// TestSessionBlobSegments: stage sessions share each segment blob with
// live sessions cut the same way, every blob equals its own segment's
// compile, and a different cut, or the same span reached through more
// cuts (the segment's name differs), gets a blob of its own.
func TestSessionBlobSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	cuts := googleNetCuts(t)
	c1, c2 := cuts[len(cuts)/3], cuts[2*len(cuts)/3]
	two := func(cut int) *Session {
		return blobSession(t, 42, Config{Stages: []Stage{VPUStage(1), VPUStage(1)}, Cuts: []int{cut}})
	}
	a, b := two(c2), two(c2)
	three := blobSession(t, 42, Config{Stages: []Stage{VPUStage(1), VPUStage(1), VPUStage(1)}, Cuts: []int{c1, c2}})
	other := two(c1)
	for _, s := range []*Session{a, b, three, other} {
		for i, st := range s.stages {
			if !bytes.Equal(st.blob.Bytes(), mustCompile(t, st.seg)) {
				t.Errorf("cuts %v, stage %d: blob differs from graphfile.Compile(segment)", s.Cuts(), i)
			}
		}
	}
	for i := range a.stages {
		if !sameArray(a.stages[i].blob.Bytes(), b.stages[i].blob.Bytes()) {
			t.Errorf("cut %d, stage %d: two live sessions hold two copies of one segment blob", c2, i)
		}
	}
	if sameArray(a.stages[0].blob.Bytes(), other.stages[0].blob.Bytes()) {
		t.Errorf("head segments cut at %d and %d share a blob", c2, c1)
	}
	last := three.stages[2]
	if last.cut != a.stages[1].cut || sameArray(last.blob.Bytes(), a.stages[1].blob.Bytes()) {
		t.Errorf("span [%d, end) after two cuts shares the one-cut blob", c2)
	}
}

// TestSessionBlobCallerNet: a caller-supplied network, here one with an
// edited weight, and the calibrated micro network are compiled afresh:
// they neither read nor fill the memo.
func TestSessionBlobCallerNet(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	self := blobSession(t, 42, Config{Groups: oneStick})
	key := blobKey{seed: 42, name: self.Network().Name(), lo: 0, hi: self.Network().Len()}
	entry := memoEntry(key)
	if entry == nil {
		t.Fatal("a live self-built session left no memo entry")
	}
	edited := func(seed uint64) *nn.Graph {
		net := nn.NewGoogLeNet(rng.New(seed))
		net.Layer("loss3/classifier").(*nn.FullyConnected).Bias().Data[0] = 1234
		return net
	}

	net := edited(42)
	given := blobSession(t, 42, Config{Net: net, Groups: oneStick})
	if bytes.Equal(given.Blob(), self.Blob()) {
		t.Error("a session given an edited seed-42 network got the memoised seed-42 blob")
	}
	if !bytes.Equal(given.Blob(), mustCompile(t, net)) {
		t.Error("blob of a caller-supplied network differs from its compile")
	}
	if memoEntry(key) != entry {
		t.Error("a caller-supplied network replaced the memo entry")
	}

	blobSession(t, 44, Config{Net: edited(44), Groups: oneStick})
	blobSession(t, 45, Config{Network: NetMicro, Groups: oneStick})
	if n := memoEntries(44, 45); n != 0 {
		t.Errorf("caller-supplied and micro networks filled %d memo entries", n)
	}
	runtime.KeepAlive(self)
}

// TestSessionBlobBounded: the memo keeps no blob alive. Sessions over
// several net seeds, built and dropped one at a time, leave the live
// heap less than one blob larger and no entry behind.
func TestSessionBlobBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	seeds := []uint64{9001, 9002, 9003, 9004}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, seed := range seeds {
		blobSession(t, seed, Config{Groups: oneStick})
	}
	// Cleanups run on their own goroutine after the collection that
	// frees the blob; give them a bounded time to do so.
	for deadline := time.Now().Add(10 * time.Second); memoEntries(seeds...) > 0 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := memoEntries(seeds...); n != 0 {
		t.Errorf("memo holds %d entries for dead blobs", n)
	}
	const blobBytes = 14e6
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= blobBytes {
		t.Errorf("live heap grew %.1f MB over %d dropped sessions, want < one 14 MB blob", float64(grew)/1e6, len(seeds))
	}
}

// TestSessionBlobConcurrent: sessions built at once over one key queue
// on the memo's lock, compile once and share the blob.
func TestSessionBlobConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("GoogLeNet compile skipped in -short")
	}
	sessions := make([]*Session, 4)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewFromConfig(Config{
				Dataset: smallDataset(8),
				Groups:  []Group{{Kind: GroupVPU, Devices: 1}},
				NetSeed: 9100,
			})
			if err != nil {
				t.Error(err)
				return
			}
			sessions[i] = s
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, s := range sessions[1:] {
		if !sameArray(s.Blob(), sessions[0].Blob()) {
			t.Errorf("concurrent session %d holds its own copy of the blob", i+1)
		}
	}
}

// TestSessionBlobDropKeepsNewer: the cleanup of a replaced entry's
// blob must not delete the entry that replaced it.
func TestSessionBlobDropKeepsNewer(t *testing.T) {
	key := blobKey{seed: 1, name: "g", lo: 0, hi: 1}
	old, newer := &blobEntry{key: key}, &blobEntry{key: key}
	m := blobMemo{entries: map[blobKey]*blobEntry{key: newer}}
	m.drop(old)
	if m.entries[key] != newer {
		t.Fatal("dropping a replaced entry deleted its replacement")
	}
	m.drop(newer)
	if _, ok := m.entries[key]; ok {
		t.Fatal("dropping the current entry left it in the memo")
	}
}

// BenchmarkNewSessionGoogLeNet times building a one-stick GoogLeNet
// session when the graph file is memoised (hit: a session over the
// same net seed is alive) and when it must be compiled (miss: a fresh
// net seed every iteration). A miss compiles the structure only.
func BenchmarkNewSessionGoogLeNet(b *testing.B) {
	cfg := func(seed uint64) Config {
		return Config{Dataset: smallDataset(8), Groups: oneStick, NetSeed: seed}
	}
	b.Run("hit", func(b *testing.B) {
		keep, err := NewFromConfig(cfg(42))
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if _, err := NewFromConfig(cfg(42)); err != nil {
				b.Fatal(err)
			}
		}
		runtime.KeepAlive(keep)
	})
	b.Run("miss", func(b *testing.B) {
		seed := uint64(1 << 32)
		for b.Loop() {
			seed++
			if _, err := NewFromConfig(cfg(seed)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSessionSkipsPayload: a timing session over a GoogLeNet no live
// session shares compiles only the graph file's structure. Its stick
// costs the network from geometry, so building the session and running
// 8 images never builds the 14 MB payload.
func TestSessionSkipsPayload(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := blobSession(t, 9200, Config{Groups: oneStick})
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if rep.Images != 8 {
		t.Fatalf("classified %d of 8 images", rep.Images)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<20 {
		t.Errorf("one-stick GoogLeNet session allocated %.1f MB, want < 4 MB", float64(n)/(1<<20))
	}
}

// TestSessionRejectsCorruptBlob: bytes a caller supplies come from
// outside, so the stick checks them in full: a corrupted file fails the
// allocation, and with it the run.
func TestSessionRejectsCorruptBlob(t *testing.T) {
	micro := func() *Session { return blobSession(t, 45, Config{Network: NetMicro, Groups: oneStick}) }
	bad := append([]byte(nil), micro().Blob()...)
	bad[len(bad)/2] ^= 0x40
	s := blobSession(t, 45, Config{Network: NetMicro, Groups: oneStick, Blob: bad})
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("run over a corrupted blob: err = %v, want a checksum mismatch", err)
	}
}
