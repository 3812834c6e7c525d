package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// forwardGoldens pins the sha256 of the little-endian output bits of
// micro-GoogLeNet (DefaultMicroConfig, net seed 1) on goldenBatch(n, 5),
// per precision and batch size. Batch 5 splits into uneven sub-batches
// on most hosts. Any change to the forward arithmetic that moves one
// output bit changes a hash.
var forwardGoldens = map[string]string{
	"FP32/1":        "80044bc5968b2e91d99e51327e29f8f42f031d696ff03f876cb1d45d40642923",
	"FP32/5":        "d2162b9ce3e693817b42f971334c418d883f698c6e136b14ae830f99946acf5a",
	"FP32/8":        "991cec86c596fe528df128a7e4dc20fce484375e3ac352812f0ad513f2892bab",
	"FP16/1":        "81d587db41e91df033ff7fbf0686eea39e5e1dfa2e76a3d4011063c9fd948ce9",
	"FP16/5":        "af8d474e2ef277be3232ef4571afbc1befab3885768f948671b778e9845c74fb",
	"FP16/8":        "50edbaee3bb914ec8e9bb5ecef4fecb84df911a3801a2d42b527e2baa1d7017e",
	"FP16-strict/1": "63116796cc0f59f06867891c7f6840f04bd4515bedba678844aa4d119b20e7b5",
	"FP16-strict/5": "f9f0ee1a028f39ddb922c476652411e27dd813e79c6bf64e75821c07268ec20a",
	"FP16-strict/8": "ae46f091f0e6d5219ae470874c10ba6f8168afffba9d0768c3b376513d85e527",
}

// goldenBatch returns n unit-variance input images. microBatch's wider
// inputs saturate the uncalibrated network's softmax to one-hot
// outputs, which would hide most arithmetic changes (and all FP16 vs
// FP16-strict differences).
func goldenBatch(n int, seed uint64) *tensor.T {
	in := tensor.New(n, 3, 32, 32)
	in.FillNormal(rng.New(seed), 0, 1)
	return in
}

// outputHash is the sha256 of t's float32 bits, little-endian.
func outputHash(t *tensor.T) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range t.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForwardGolden: micro-GoogLeNet's outputs match their pinned
// hashes in every precision at batch 1, 5 and 8.
func TestForwardGolden(t *testing.T) {
	fp32 := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	fp16 := NewMicroGoogLeNet(DefaultMicroConfig(), rng.New(1))
	fp16.QuantizeWeightsFP16()
	for _, prec := range []Precision{FP32, FP16, FP16Strict} {
		g := fp32
		if prec != FP32 {
			g = fp16
		}
		for _, n := range []int{1, 5, 8} {
			out, err := g.Forward(goldenBatch(n, 5), prec)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%v/%d", prec, n)
			if got := outputHash(out); got != forwardGoldens[key] {
				t.Errorf("%s: output sha256 %s, want %s", key, got, forwardGoldens[key])
			}
		}
	}
}
