package pipeline

import (
	"runtime"
	"sync"
	"weak"

	"repro/internal/graphfile"
	"repro/internal/nn"
)

// compileBlob compiles g, the session network or the segment of it
// that starts at whole-network layer lo, into an NCS graph file. The
// handle builds its payload only when something asks for the bytes: a
// functional stick, Session.Blob, or a network parsed from it reading
// its weights.
//
// A GoogLeNet the session built itself goes through the process-wide
// memo, because its blob is a pure function of the net seed and the
// segment: every layer draws its weights from rng.New(NetSeed).Derive
// of its own name. A caller-supplied Net may carry edited weights, and
// the micro network's classifier is calibrated against the dataset at
// a temperature, so both are compiled afresh every time.
func (s *Session) compileBlob(g *nn.Graph, lo int) (*graphfile.Handle, error) {
	if s.cfg.Net != nil || s.cfg.Network != NetGoogLeNet {
		return graphfile.CompileHandle(g)
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

// blobEntry is one memoised compile: a weak pointer to its handle.
type blobEntry struct {
	key  blobKey
	file weak.Pointer[graphfile.Handle]
}

// blobMemo maps keys to compiled handles without keeping any alive.
// The sessions that use a handle hold it, and with it its payload once
// built; once none does, the collector frees it and a cleanup removes
// its entry, so the memo cannot grow the live heap. A build hits when
// the handle of its key is still in the heap, which includes one no
// session holds any more that the collector has not yet freed. The
// lock is held across the compile: sessions are built one after
// another, so nothing waits on it.
type blobMemo struct {
	mu      sync.Mutex
	entries map[blobKey]*blobEntry
}

// compile returns the handle for key if it is still in the heap,
// compiling g otherwise.
func (m *blobMemo) compile(key blobKey, g *nn.Graph) (*graphfile.Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil {
		if h := e.file.Value(); h != nil {
			return h, nil
		}
	}
	h, err := graphfile.CompileHandle(g)
	if err != nil {
		return nil, err
	}
	// A dead entry under key is replaced here; its pending cleanup
	// leaves the new one alone.
	e := &blobEntry{key: key, file: weak.Make(h)}
	m.entries[key] = e
	runtime.AddCleanup(h, m.drop, e)
	return h, nil
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
