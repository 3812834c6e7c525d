package pipeline

import (
	"runtime"
	"sync"
	"unsafe"
	"weak"

	"repro/internal/graphfile"
	"repro/internal/nn"
)

// compileBlob compiles g, the session network or the segment of it
// that starts at whole-network layer lo, into an NCS graph file.
//
// A GoogLeNet the session built itself goes through the process-wide
// memo, because its blob is a pure function of the net seed and the
// segment: every layer draws its weights from rng.New(NetSeed).Derive
// of its own name. A caller-supplied Net may carry edited weights, and
// the micro network's classifier is calibrated against the dataset at
// a temperature, so both are compiled afresh every time.
func (s *Session) compileBlob(g *nn.Graph, lo int) ([]byte, error) {
	if s.cfg.Net != nil || s.cfg.Network != NetGoogLeNet {
		return graphfile.Compile(g)
	}
	return sessionBlobs.compile(blobKey{seed: s.cfg.NetSeed, name: g.Name(), lo: lo, hi: lo + g.Len()}, g)
}

// sessionBlobs is the memo every session of the process shares.
var sessionBlobs = blobMemo{entries: map[blobKey]*blobEntry{}}

// blobKey identifies a self-built GoogLeNet segment: its net seed and
// its span [lo, hi) of whole-network layers, which fix the weights and
// the input and output shapes. The segment graph's name is part of the
// key too: the blob embeds it, and nn.Graph.Split derives it from how
// many cuts precede the segment, so one span can carry two names.
type blobKey struct {
	seed   uint64
	name   string
	lo, hi int
}

// blobEntry is one memoised compile: first points weakly at the first
// byte of the blob, n is its length.
type blobEntry struct {
	key   blobKey
	first weak.Pointer[byte]
	n     int
}

// blobMemo maps keys to compiled blobs without keeping any blob alive.
// The sessions that use a blob hold it; once none does, the collector
// frees it and a cleanup removes its entry, so the memo cannot grow
// the live heap. A build hits when the blob of its key is still in the
// heap, which includes a blob no session holds any more that the
// collector has not yet freed. The lock is held across the compile:
// sessions are built one after another, so nothing waits on it.
type blobMemo struct {
	mu      sync.Mutex
	entries map[blobKey]*blobEntry
}

// compile returns the blob for key if it is still in the heap,
// compiling g otherwise. The returned slice has no spare capacity, so
// appending to it cannot write into memory another session reads.
func (m *blobMemo) compile(key blobKey, g *nn.Graph) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil {
		if first := e.first.Value(); first != nil {
			return unsafe.Slice(first, e.n), nil
		}
	}
	blob, err := graphfile.Compile(g)
	if err != nil {
		return nil, err
	}
	// A dead entry under key is replaced here; its pending cleanup
	// leaves the new one alone.
	e := &blobEntry{key: key, first: weak.Make(&blob[0]), n: len(blob)}
	m.entries[key] = e
	runtime.AddCleanup(&blob[0], m.drop, e)
	return blob[:len(blob):len(blob)], nil
}

// drop removes e from the memo unless a newer entry has replaced it
// under the same key.
func (m *blobMemo) drop(e *blobEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[e.key] == e {
		delete(m.entries, e.key)
	}
}
