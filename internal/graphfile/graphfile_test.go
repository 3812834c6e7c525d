package graphfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func microGraph(t testing.TB) *nn.Graph {
	t.Helper()
	return nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 10, Input: 32}, rng.New(7))
}

func TestCompileParseRoundTrip(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, info, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != g.Name() || info.Layers != g.Len() || info.Output != g.Output() {
		t.Errorf("info = %+v", info)
	}
	if !info.InputShape.Equal(g.InputShape()) {
		t.Errorf("input shape %v vs %v", info.InputShape, g.InputShape())
	}
	if parsed.Len() != g.Len() {
		t.Fatalf("layer count %d vs %d", parsed.Len(), g.Len())
	}
	for i, n := range g.LayerNames() {
		if parsed.LayerNames()[i] != n {
			t.Fatalf("layer order diverges at %d: %q vs %q", i, parsed.LayerNames()[i], n)
		}
	}
}

func TestParsedWeightsAreFP16Rounded(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	orig := g.Layer("conv1").(*nn.Conv)
	got := parsed.Layer("conv1").(*nn.Conv)
	if !got.Weights().IsFP16Exact() {
		t.Error("parsed weights must be FP16-exact")
	}
	want := orig.Weights().Clone()
	want.QuantizeFP16()
	for i := range want.Data {
		if got.Weights().Data[i] != want.Data[i] {
			t.Fatalf("weight %d: %g vs %g", i, got.Weights().Data[i], want.Data[i])
		}
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	g := microGraph(t)
	conv := g.Layer("conv1").(*nn.Conv)
	before := append([]float32(nil), conv.Weights().Data...)
	if _, err := Compile(g); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if conv.Weights().Data[i] != before[i] {
			t.Fatal("Compile mutated source weights")
		}
	}
}

func TestParsedGraphProducesSameOutputsAsQuantizedOriginal(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Quantize the original in place: it should now match the parsed
	// network exactly under FP16 execution.
	g.QuantizeWeightsFP16()
	in := tensor.New(1, 3, 32, 32)
	in.FillNormal(rng.New(5), 0, 64)
	a, err := g.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parsed.Forward(in, nn.FP16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("output %d differs: %g vs %g", i, a.Data[i], b.Data[i])
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	g := microGraph(t)
	a, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Compile must be deterministic")
	}
}

// namedBlob is one case of a table of blobs Parse must refuse.
type namedBlob struct {
	name string
	blob []byte
}

// corruptions derives the damaged blobs TestParseRejectsCorruption
// feeds to Parse; FuzzParse seeds its corpus with them too.
func corruptions(blob []byte) []namedBlob {
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		f(b)
		return b
	}
	return []namedBlob{
		{"short", blob[:4]},
		{"magic", edit(func(b []byte) { b[0] = 'X' })},
		{"version", edit(func(b []byte) { b[4] = 0xFF })}, // little-endian version field
		{"flipped-payload-byte", edit(func(b []byte) { b[len(b)/2] ^= 0x40 })},
		{"flipped-trailer", edit(func(b []byte) { b[len(b)-1] ^= 1 })},
		{"truncated", blob[:len(blob)-10]},
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptions(blob) {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Parse(c.blob); err == nil {
				t.Errorf("%s blob accepted", c.name)
			}
		})
	}
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Splice garbage between payload and a recomputed checksum.
	// Easiest valid-CRC attack: append bytes then fix the CRC.
	payload := append([]byte(nil), blob[:len(blob)-4]...)
	payload = append(payload, 0xDE, 0xAD)
	sum := crc32.ChecksumIEEE(payload)
	bad := append(payload, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	if _, _, err := Parse(bad); err == nil {
		t.Error("trailing garbage with fixed CRC accepted")
	}
}

func TestInfoCounts(t *testing.T) {
	g := microGraph(t)
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalStats()
	if info.MACs != total.MACs || info.Params != total.Params {
		t.Errorf("info MACs/Params %d/%d, want %d/%d", info.MACs, info.Params, total.MACs, total.Params)
	}
	if info.Bytes != len(blob) {
		t.Errorf("info.Bytes = %d, want %d", info.Bytes, len(blob))
	}
	// FP16 weights: blob must be roughly 2 bytes per parameter plus
	// topology overhead, far below 4 bytes per parameter.
	if int64(info.Bytes) > total.Params*3 {
		t.Errorf("blob size %d too large for %d FP16 params", info.Bytes, total.Params)
	}
}

func TestCompileFullGoogLeNet(t *testing.T) {
	if testing.Short() {
		t.Skip("large compile skipped in -short")
	}
	g := nn.NewGoogLeNet(rng.New(1))
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	parsed, info, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Layers != 142 || parsed.Len() != 142 {
		t.Errorf("GoogLeNet blob has %d layers", info.Layers)
	}
	// ~7M params at 2 bytes each ≈ 14 MB.
	if info.Bytes < 13<<20 || info.Bytes > 16<<20 {
		t.Errorf("GoogLeNet blob = %d bytes, expected ~14 MB", info.Bytes)
	}
}

// Property: random single-byte corruption anywhere in the blob is
// always rejected (the CRC catches payload damage; header checks catch
// the rest). Parse must never panic on corrupted input.
func TestQuickParseNeverPanics(t *testing.T) {
	g := nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 4, Input: 32}, rng.New(3))
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint32, val byte) bool {
		bad := append([]byte(nil), blob...)
		i := int(pos) % len(bad)
		if bad[i] == val {
			return true // not a corruption
		}
		bad[i] = val
		defer func() {
			if recover() != nil {
				t.Errorf("Parse panicked for corruption at byte %d", i)
			}
		}()
		_, _, err := Parse(bad)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// quickGraph is the micro network TestQuickParseNeverPanics corrupts;
// the pinned-format, prefix and fuzz tests reuse its blob.
func quickGraph() *nn.Graph {
	return nn.NewMicroGoogLeNet(nn.MicroConfig{Classes: 4, Input: 32}, rng.New(3))
}

func mustCompile(t testing.TB, g *nn.Graph) []byte {
	t.Helper()
	blob, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// withCRC appends a correct CRC-32 trailer to payload, so a crafted
// blob gets past the checksum and reaches the structural checks.
func withCRC(payload []byte) []byte {
	out := append([]byte(nil), payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestCompilePinnedDigest pins the on-disk format: any change to the
// bytes Compile emits must be a deliberate format change.
func TestCompilePinnedDigest(t *testing.T) {
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
			sum := sha256.Sum256(mustCompile(t, c.g()))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("Compile output sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// TestParseRejectsEveryPrefix cuts the micro blob at every length:
// each strict prefix must be refused without a panic, both as sent
// (the CRC catches it) and with its CRC recomputed (the structural
// checks must then catch the truncation).
func TestParseRejectsEveryPrefix(t *testing.T) {
	blob := mustCompile(t, quickGraph())
	payload := blob[:len(blob)-4]
	for n := 0; n < len(blob); n++ {
		if _, _, err := Parse(blob[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(blob))
		}
		if n < len(payload) {
			if _, _, err := Parse(withCRC(payload[:n])); err == nil {
				t.Fatalf("prefix of %d/%d payload bytes with a fixed CRC accepted", n, len(payload))
			}
		}
	}
}

// TestCompileRejectsNegativeGeometry: nn.Graph accepts a negative pad
// that still yields positive output shapes, but the format stores
// dimensions unsigned, so Compile must refuse the graph by layer name
// rather than panic.
func TestCompileRejectsNegativeGeometry(t *testing.T) {
	cases := []struct {
		name  string
		layer nn.Layer
	}{
		{"conv", &nn.Conv{
			LayerName: "badconv", InC: 3, OutC: 2, KH: 1, KW: 1, Stride: 1, Pad: -1,
		}},
		{"pool", &nn.Pool{LayerName: "badpool", PoolOp: nn.MaxPool, K: 2, Stride: 2, Pad: -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := nn.NewGraph("neg", tensor.Shape{3, 8, 8})
			if _, err := g.Add(c.layer, nn.InputName); err != nil {
				t.Fatalf("nn.Graph refused the layer, so this test no longer covers Compile: %v", err)
			}
			blob, err := Compile(g)
			if err == nil {
				t.Fatalf("Compile accepted a negative pad (%d bytes)", len(blob))
			}
			if !strings.Contains(err.Error(), c.layer.Name()) {
				t.Errorf("error %q does not name layer %q", err, c.layer.Name())
			}
		})
	}
}

// poolNet is the network craftPool encodes by hand: a global average
// pool over a 3x8x8 input.
func poolNet() *nn.Graph {
	g := nn.NewGraph("crafted", tensor.Shape{3, 8, 8})
	g.MustAdd(&nn.Pool{LayerName: "layer", PoolOp: nn.AvgPool, K: 1, Stride: 1, Global: true}, nn.InputName)
	return g
}

// list appends a uvarint list the way writer.ints encodes one.
func list(b []byte, vals ...uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// craft hand-encodes a one-layer network "crafted": an input of the
// given shape feeding a layer named "layer" whose record after the kind
// byte is body. The header carries total's MACs and params, and the
// blob a correct CRC.
func craft(input []uint64, total nn.Stats, kind uint8, body []byte) []byte {
	b := []byte(Magic)
	b = binary.LittleEndian.AppendUint32(b, Version)
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	str("crafted")
	b = list(b, input...)
	str("layer")
	b = binary.LittleEndian.AppendUint64(b, uint64(total.MACs))
	b = binary.LittleEndian.AppendUint64(b, uint64(total.Params))
	b = binary.AppendUvarint(b, 1) // layer count
	str("layer")
	b = binary.AppendUvarint(b, 1) // input list
	str(nn.InputName)
	b = append(b, kind)
	return withCRC(append(b, body...))
}

// craftPool is poolNet with the pool's four parameter words (K,
// stride, pad, flags) replaced by raw uvarints.
func craftPool(words ...uint64) []byte {
	return craft([]uint64{3, 8, 8}, poolNet().TotalStats(), kindPool, list(nil, words...))
}

func TestCraftPoolMatchesCompile(t *testing.T) {
	// flags 5 = average | global.
	if got, want := craftPool(1, 1, 0, 5), mustCompile(t, poolNet()); !bytes.Equal(got, want) {
		t.Fatalf("crafted blob diverges from Compile:\n got %x\nwant %x", got, want)
	}
	if _, _, err := Parse(craftPool(1, 1, 0, 5)); err != nil {
		t.Fatalf("faithful crafted blob rejected: %v", err)
	}
}

// TestParseRejectsOversizedDimension: a dimension word of 2^63 or more
// used to wrap to a negative int, so a pad word of 2^64-1 parsed as
// pad -1; any dimension above maxLen is now refused, and the global
// flag does not exempt a pool from the check.
func TestParseRejectsOversizedDimension(t *testing.T) {
	for _, words := range [][]uint64{
		{1 << 63, 1, 0, 5},
		{1, 1 << 63, 0, 5},
		{1, 1, 1<<64 - 1, 5},
		{maxLen + 1, 1, 0, 5},
		{1, 1, 0, 1<<64 - 1},
	} {
		if _, _, err := Parse(craftPool(words...)); err == nil {
			t.Errorf("pool words %v accepted", words)
		} else if !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("pool words %v: error %q does not report the limit", words, err)
		}
	}
}

// TestParseRejectsOverflowingConvGeometry: a conv of 2^16 input
// channels and a 2^24 x 2^24 kernel declares 2^64 weights, which
// overflowed int to 0 and matched an empty weight blob.
func TestParseRejectsOverflowingConvGeometry(t *testing.T) {
	body := list(nil, 1<<16, 1, 1<<24, 1<<24, 1, 1<<23) // InC, OutC, KH, KW, Stride, Pad
	body = binary.AppendUvarint(body, 0)                // no weights
	body = binary.AppendUvarint(body, 1)                // one bias, +0.0
	body = append(body, 0, 0)
	_, _, err := Parse(craft([]uint64{1 << 16, 1, 1}, nn.Stats{}, kindConv, body))
	if err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("overflowing conv geometry: err = %v, want a weight-size rejection", err)
	}
}

// TestParseRejectsNonCanonical: Compile emits exactly one encoding of
// a network, and Parse refuses the others, so an accepted blob always
// recompiles to the same bytes (the FuzzParse property).
func TestParseRejectsNonCanonical(t *testing.T) {
	good := craftPool(1, 1, 0, 5)
	payload := good[:len(good)-4]
	macs := binary.LittleEndian.AppendUint64(nil, uint64(poolNet().TotalStats().MACs))
	at := bytes.Index(payload, macs)
	if at < 0 {
		t.Fatal("MACs field not found in crafted blob")
	}
	wrongMACs := append([]byte(nil), payload...)
	wrongMACs[at]++
	// The payload ends with the pool's words 1, 1, 0, 5; re-encode the
	// pad word 0 in two bytes.
	paddedVarint := append(append([]byte(nil), payload[:len(payload)-2]...), 0x80, 0x00, 0x05)
	for _, c := range []namedBlob{
		{"unknown-pool-flag", craftPool(1, 1, 0, 5|8)},
		{"header-macs", withCRC(wrongMACs)},
		{"padded-varint", withCRC(paddedVarint)},
	} {
		if _, _, err := Parse(c.blob); err == nil {
			t.Errorf("%s: non-canonical blob accepted", c.name)
		}
	}
}

// FuzzParse: Parse never panics, and any blob it accepts is exactly
// what Compile emits for the parsed network. Each input is tried as
// given and with its trailer replaced by a correct CRC, so mutations
// reach the structural checks instead of stopping at the checksum.
func FuzzParse(f *testing.F) {
	blob := mustCompile(f, quickGraph())
	f.Add(blob)
	for _, c := range corruptions(blob) {
		f.Add(c.blob)
	}
	f.Add(craftPool(1, 1, 0, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		if len(data) >= 4 {
			roundTrip(t, withCRC(data[:len(data)-4]))
		}
	})
}

func roundTrip(t *testing.T, blob []byte) {
	g, _, err := Parse(blob)
	if err != nil {
		return
	}
	again, err := Compile(g)
	if err != nil {
		t.Fatalf("accepted blob does not recompile: %v", err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("accepted blob recompiles to different bytes (%d vs %d)", len(again), len(blob))
	}
}

// BenchmarkCompileGoogLeNet times Compile of a network that has never
// read its weights, the way every session compiles: each op includes
// generating the 7 M weights from their rng streams, the work that a
// network build did before weights became lazy.
func BenchmarkCompileGoogLeNet(b *testing.B) {
	g := nn.NewGoogLeNet(rng.New(42))
	b.SetBytes(int64(len(mustCompile(b, g))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseGoogLeNet times the structure-only Parse each stick
// runs on allocation; no weight is decoded.
func BenchmarkParseGoogLeNet(b *testing.B) {
	blob := mustCompile(b, nn.NewGoogLeNet(rng.New(42)))
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Parse(blob); err != nil {
			b.Fatal(err)
		}
	}
}
