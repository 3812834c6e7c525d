// Package graphfile implements the compiled-graph blob the simulated
// Neural Compute Stick consumes. It plays the role of the NCSDK's
// mvNCCompile output: the host compiles a network once into a binary
// file whose weights are already converted to FP16, ships the blob to
// the device over USB (mvncAllocateGraph), and the on-device runtime
// parses it back into an executable network.
//
// The format is self-contained and versioned:
//
//	magic "NCSG" | version u32 | header | layer records | crc32
//
// Strings are uvarint-length-prefixed UTF-8; integers are little
// endian; weight blobs are IEEE binary16 (uint16 per element), exactly
// like real NCS graph files. A CRC-32 trailer lets the device firmware
// reject corrupted transfers.
//
// Neither direction materialises float32 weights. A compiled graph
// file is a Handle: CompileHandle writes the structure and each weight
// run's length, which gives the blob's exact length, and the runs'
// values, the CRC and the buffer wait for the first Bytes call, which
// encodes the runs on every core in fixed-size chunks. Parse checks
// the structure and leaves each run undecoded until its layer is first
// read. A device allocates from a handle (Handle.Parse): bytes from
// outside (FromBytes) are parsed in full, CRC included, while a
// compiled handle's structure is read with the same checks and its
// layers decode from Bytes on first read, so a network that is only
// timed never builds the payload.
package graphfile

import (
	"encoding/binary"
	"fmt"

	"repro/internal/half"
)

// Magic identifies a compiled graph blob.
const Magic = "NCSG"

// Version is the current format version. Parse rejects other versions.
const Version uint32 = 2

// Layer kind tags. Values are part of the on-disk format; never
// reorder them.
const (
	kindConv    uint8 = 1
	kindPool    uint8 = 2
	kindReLU    uint8 = 3
	kindLRN     uint8 = 4
	kindConcat  uint8 = 5
	kindDropout uint8 = 6
	kindFC      uint8 = 7
	kindSoftmax uint8 = 8
)

// writer appends primitive values to one byte slice. Like reader it
// keeps the first error, so call sites stay linear.
type writer struct {
	buf []byte
	err error
	// slots are the parameter runs reserved in buf and gaps where
	// their values were left out (see CompileHandle); skipped counts
	// those values' bytes.
	slots   []slot
	gaps    []gap
	skipped int
}

func (w *writer) u8(v uint8)       { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)     { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) strs(vals []string) {
	w.uvarint(uint64(len(vals)))
	for _, v := range vals {
		w.str(v)
	}
}

// ints writes a dimension list. The format stores dimensions as
// uvarints, so a negative one is an error, not a wrapped value.
func (w *writer) ints(vals ...int) {
	for _, v := range vals {
		if v < 0 && w.err == nil {
			w.err = fmt.Errorf("negative dimension %d in %v", v, vals)
		}
	}
	w.uvarint(uint64(len(vals)))
	for _, v := range vals {
		w.uvarint(uint64(v))
	}
}

// reserve writes a run length n and leaves the n binary16 values that
// follow it out of buf, returning their offset in the blob.
func (w *writer) reserve(n int) int {
	w.uvarint(uint64(n))
	w.gaps = append(w.gaps, gap{len(w.buf), 2 * n})
	off := len(w.buf) + w.skipped
	w.skipped += 2 * n
	return off
}

// encodeFP16 writes vals into dst as little-endian binary16 values.
func encodeFP16(dst []byte, vals []float32) {
	dst = dst[:2*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint16(dst[2*i:], half.FromFloat32(v).Bits())
	}
}

// reader is a cursor over a blob's bytes, or over a compiled handle's
// structure, which leaves the values of each parameter run out. It
// keeps the first error and turns every later read into a no-op, so
// call sites stay linear.
type reader struct {
	buf []byte
	off int
	err error
	// structure marks a handle's structure; skipped counts the run
	// bytes it left out before off.
	structure bool
	skipped   int
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("graphfile: "+format, args...)
	}
}

// remaining is the number of unread bytes.
func (r *reader) remaining() int { return len(r.buf) - r.off }

// take consumes the next n bytes, or fails if fewer remain.
func (r *reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		r.fail("truncated blob: %s needs %d bytes, %d remain", what, n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	if b := r.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// uvarint reads a minimally encoded uvarint, the only form the writer
// emits; a padded one would not survive a Parse-Compile round trip.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("truncated varint")
		return 0
	case n < 0:
		r.fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail("non-minimal varint")
		return 0
	}
	r.off += n
	return v
}

// maxLen caps collection sizes and dimensions parsed from untrusted
// blobs, so a corrupted value can neither trigger a giant allocation
// nor wrap to a negative int.
const maxLen = 1 << 28

// bounded reads a uvarint that must not exceed maxLen.
func (r *reader) bounded(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > maxLen {
		r.fail("%s %d exceeds limit", what, n)
		return 0
	}
	return int(n)
}

// length reads a collection size. Every element occupies at least one
// byte, so a size beyond the unread bytes is refused before anything
// is allocated for it.
func (r *reader) length(what string) int {
	n := r.bounded(what)
	if r.err == nil && n > r.remaining() {
		r.fail("%s %d exceeds remaining %d bytes", what, n, r.remaining())
		return 0
	}
	return n
}

func (r *reader) str() string {
	return string(r.take(r.length("string length"), "string"))
}

func (r *reader) ints() []int {
	n := r.length("int list length")
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.bounded("dimension")
	}
	return out
}

func (r *reader) strs() []string {
	n := r.length("string list length")
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// fp16Run consumes a run of n binary16 weights and returns n and the
// blob offset of the values, which stay undecoded: the layer decodes
// them on first read.
func (r *reader) fp16Run() (at, n int) {
	n = r.bounded("weight blob length")
	at = r.off + r.skipped
	if r.structure {
		r.skipped += 2 * n
	} else {
		r.take(2*n, "weight blob")
	}
	return at, n
}
