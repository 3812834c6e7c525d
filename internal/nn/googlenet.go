package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// InceptionSpec gives the branch widths of one inception module, in
// the order of Table 1 of Szegedy et al.: the 1x1 branch, the 3x3
// reduce/expand pair, the 5x5 reduce/expand pair, and the pool
// projection.
type InceptionSpec struct {
	C1, C3r, C3, C5r, C5, CP int
}

// OutChannels returns the concatenated output depth of the module.
func (s InceptionSpec) OutChannels() int { return s.C1 + s.C3 + s.C5 + s.CP }

// AddInception appends a full inception module named prefix to g,
// consuming input, and returns the concat output name. The module is
// the 4-branch structure of Szegedy et al.: 1x1, 1x1→3x3, 1x1→5x5 and
// 3x3 maxpool→1x1, depth-concatenated.
func AddInception(g *Graph, prefix, input string, spec InceptionSpec, inC int, src *rng.Source) string {
	conv := func(name string, in string, ic, oc, k, pad int) string {
		c := g.MustAdd(NewConv(prefix+"/"+name, ic, oc, k, 1, pad, src), in)
		return g.MustAdd(&ReLU{LayerName: prefix + "/relu_" + name}, c)
	}
	b1 := conv("1x1", input, inC, spec.C1, 1, 0)
	r3 := conv("3x3_reduce", input, inC, spec.C3r, 1, 0)
	b3 := conv("3x3", r3, spec.C3r, spec.C3, 3, 1)
	r5 := conv("5x5_reduce", input, inC, spec.C5r, 1, 0)
	b5 := conv("5x5", r5, spec.C5r, spec.C5, 5, 2)
	pool := g.MustAdd(&Pool{
		LayerName: prefix + "/pool", PoolOp: MaxPool, K: 3, Stride: 1, Pad: 1, CeilMode: true,
	}, input)
	bp := conv("pool_proj", pool, inC, spec.CP, 1, 0)
	return g.MustAdd(&Concat{LayerName: prefix + "/output"}, b1, b3, b5, bp)
}

// googLeNetSpecs are the nine inception modules of the BVLC deploy
// network, 3a through 5b.
var googLeNetSpecs = []struct {
	name string
	spec InceptionSpec
}{
	{"inception_3a", InceptionSpec{64, 96, 128, 16, 32, 32}},
	{"inception_3b", InceptionSpec{128, 128, 192, 32, 96, 64}},
	{"inception_4a", InceptionSpec{192, 96, 208, 16, 48, 64}},
	{"inception_4b", InceptionSpec{160, 112, 224, 24, 64, 64}},
	{"inception_4c", InceptionSpec{128, 128, 256, 24, 64, 64}},
	{"inception_4d", InceptionSpec{112, 144, 288, 32, 64, 64}},
	{"inception_4e", InceptionSpec{256, 160, 320, 32, 128, 128}},
	{"inception_5a", InceptionSpec{256, 160, 320, 32, 128, 128}},
	{"inception_5b", InceptionSpec{384, 192, 384, 48, 128, 128}},
}

// GoogLeNetClasses is the ILSVRC class count.
const GoogLeNetClasses = 1000

// GoogLeNetInputShape is the network's CHW input geometry (the paper:
// "The input geometry of the network is 224x224").
var GoogLeNetInputShape = tensor.Shape{3, 224, 224}

// NewGoogLeNet builds the full BVLC GoogLeNet (Inception-v1) deploy
// architecture: conv/pool/LRN stem, nine inception modules with the
// published widths, global average pooling, dropout, the 1000-way
// classifier and softmax. Auxiliary training heads are omitted, as in
// the deploy prototxt the paper ran.
//
// Weights are deterministic pseudo-random (seeded by src); the
// performance experiments only depend on layer geometry, which matches
// the original network exactly (≈ 1.4 GMACs, ≈ 7.0 M parameters). The
// build allocates shapes only: each layer fills its weights from its
// own stream on first read (see Params).
func NewGoogLeNet(src *rng.Source) *Graph {
	g := NewGraph("bvlc_googlenet", GoogLeNetInputShape)

	conv := func(name, in string, ic, oc, k, stride, pad int) string {
		c := g.MustAdd(NewConv(name, ic, oc, k, stride, pad, src), in)
		return g.MustAdd(&ReLU{LayerName: "relu_" + name}, c)
	}
	maxpool := func(name, in string) string {
		return g.MustAdd(&Pool{LayerName: name, PoolOp: MaxPool, K: 3, Stride: 2, CeilMode: true}, in)
	}

	// Stem.
	x := conv("conv1/7x7_s2", InputName, 3, 64, 7, 2, 3)
	x = maxpool("pool1/3x3_s2", x)
	x = g.MustAdd(NewLRN("pool1/norm1"), x)
	x = conv("conv2/3x3_reduce", x, 64, 64, 1, 1, 0)
	x = conv("conv2/3x3", x, 64, 192, 3, 1, 1)
	x = g.MustAdd(NewLRN("conv2/norm2"), x)
	x = maxpool("pool2/3x3_s2", x)

	inC := 192
	for _, m := range googLeNetSpecs {
		x = AddInception(g, m.name, x, m.spec, inC, src)
		inC = m.spec.OutChannels()
		// Grid reductions after 3b and 4e.
		if m.name == "inception_3b" {
			x = maxpool("pool3/3x3_s2", x)
		}
		if m.name == "inception_4e" {
			x = maxpool("pool4/3x3_s2", x)
		}
	}

	x = g.MustAdd(&Pool{LayerName: "pool5/7x7_s1", PoolOp: AvgPool, Global: true}, x)
	x = g.MustAdd(&Dropout{LayerName: "pool5/drop_7x7_s1", Ratio: 0.4}, x)
	x = g.MustAdd(NewFullyConnected("loss3/classifier", 1024, GoogLeNetClasses, src), x)
	g.MustAdd(&Softmax{LayerName: "prob"}, x)
	return g
}

// MicroConfig parameterizes the scaled-down inception network used by
// the accuracy experiments (DESIGN.md §2: running the full 224×224
// GoogLeNet functionally over 50 000 images is infeasible in pure Go,
// and the Fig. 7 quantities only need a real inception-style network
// with a controllable task).
type MicroConfig struct {
	Classes int // number of synthetic classes
	Input   int // square input size in pixels
}

// DefaultMicroConfig mirrors the experiment defaults: 100 classes at
// 32×32 input.
func DefaultMicroConfig() MicroConfig { return MicroConfig{Classes: 100, Input: 32} }

// MicroClassifierName is the FC layer whose weights the prototype
// calibration replaces.
const MicroClassifierName = "classifier"

// MicroPoolName is the embedding layer (global average pool) feeding
// the classifier.
const MicroPoolName = "pool_global"

// NewMicroGoogLeNet builds the scaled inception network: a conv/pool/
// LRN stem, three inception modules, global average pooling and a
// classifier. The topology exercises every operator kind the full
// network uses (conv, max/avg pool, LRN, concat, dropout, FC, softmax).
func NewMicroGoogLeNet(cfg MicroConfig, src *rng.Source) *Graph {
	if cfg.Classes <= 1 || cfg.Input < 16 {
		panic(fmt.Sprintf("nn: invalid MicroConfig %+v", cfg))
	}
	g := NewGraph("micro_googlenet", tensor.Shape{3, cfg.Input, cfg.Input})

	c1 := g.MustAdd(NewConv("conv1", 3, 16, 3, 1, 1, src), InputName)
	r1 := g.MustAdd(&ReLU{LayerName: "relu_conv1"}, c1)
	p1 := g.MustAdd(&Pool{LayerName: "pool1", PoolOp: MaxPool, K: 2, Stride: 2, CeilMode: true}, r1)
	n1 := g.MustAdd(NewLRN("norm1"), p1)

	x := AddInception(g, "micro_1", n1, InceptionSpec{8, 8, 16, 4, 8, 8}, 16, src)
	x = AddInception(g, "micro_2", x, InceptionSpec{16, 12, 24, 4, 12, 12}, 40, src)
	x = g.MustAdd(&Pool{LayerName: "pool2", PoolOp: MaxPool, K: 3, Stride: 2, CeilMode: true}, x)
	x = AddInception(g, "micro_3", x, InceptionSpec{24, 16, 32, 8, 16, 16}, 64, src)

	x = g.MustAdd(&Pool{LayerName: MicroPoolName, PoolOp: AvgPool, Global: true}, x)
	x = g.MustAdd(&Dropout{LayerName: "drop", Ratio: 0.4}, x)
	x = g.MustAdd(NewFullyConnected(MicroClassifierName, 88, cfg.Classes, src), x)
	g.MustAdd(&Softmax{LayerName: "prob"}, x)
	return g
}

// CalibrateClassifier rewrites the weights of the named FC layer so
// each row is the (scaled) embedding of its class prototype: the
// network then implements nearest-prototype classification in its own
// feature space, giving the synthetic task a deterministic, noise-
// controlled error rate (the substitution for the pre-trained BVLC
// weights, DESIGN.md §2).
//
// protos[c] is the class-c prototype image, already preprocessed the
// way inference inputs are. temperature scales the logits so softmax
// confidences are informative rather than saturated.
func CalibrateClassifier(g *Graph, fcName, embeddingLayer string, protos []*tensor.T, temperature float32) error {
	fc, ok := g.Layer(fcName).(*FullyConnected)
	if !ok {
		return fmt.Errorf("nn: %q is not a fully connected layer", fcName)
	}
	if len(protos) != fc.OutF {
		return fmt.Errorf("nn: %d prototypes for %d classes", len(protos), fc.OutF)
	}
	saved := g.Output()
	if err := g.SetOutput(embeddingLayer); err != nil {
		return err
	}
	defer func() {
		if err := g.SetOutput(saved); err != nil {
			panic(err) // restoring a previously valid output cannot fail
		}
	}()

	// Mean embedding norm normalizes the temperature across tasks.
	embeds := make([][]float32, len(protos))
	var meanNorm float64
	for c, p := range protos {
		in := p.Reshape(append(tensor.Shape{1}, g.InputShape()...)...)
		out, err := g.Forward(in, FP32)
		if err != nil {
			return err
		}
		e := append([]float32(nil), out.Data...)
		if len(e) != fc.InF {
			return fmt.Errorf("nn: embedding layer %q yields %d values, classifier expects %d",
				embeddingLayer, len(e), fc.InF)
		}
		var n2 float64
		for _, v := range e {
			n2 += float64(v) * float64(v)
		}
		norm := sqrt64(n2)
		if norm == 0 {
			return fmt.Errorf("nn: prototype %d has zero embedding", c)
		}
		for i := range e {
			e[i] = float32(float64(e[i]) / norm)
		}
		embeds[c] = e
		meanNorm += norm
	}
	meanNorm /= float64(len(protos))

	// Logits become temperature · (ê_c · f(x)) / meanNorm ≈ temperature
	// times a cosine similarity, so softmax confidences stay in an
	// informative range for any task scale.
	scale := temperature / float32(meanNorm)
	w, b := fc.Weights(), fc.Bias()
	for c, e := range embeds {
		for i, v := range e {
			w.Data[c*fc.InF+i] = v * scale
		}
		b.Data[c] = 0
	}
	return nil
}

func sqrt64(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
