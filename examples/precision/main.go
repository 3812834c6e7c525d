// Precision: the Fig. 7 experiment in miniature — the same images
// classified by two functional sessions, one on the CPU path (FP32
// Caffe batch engine) and one on the VPU path (FP16 inference from
// the compiled NCS graph file), comparing top-1 error and per-image
// confidence differences, plus the FP16-accumulate ablation.
//
//	go run ./examples/precision
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"strconv"

	"repro"
)

var images = imagesFromEnv(300)

// imagesFromEnv returns the NCSW_EXAMPLE_IMAGES override (the smoke
// test runs every example at tiny scale) or def.
func imagesFromEnv(def int) int {
	if s := os.Getenv("NCSW_EXAMPLE_IMAGES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func main() {
	log.SetFlags(0)

	// Two sessions over the same dataset and network seeds: the only
	// difference between them is the device path, exactly the paper's
	// CPU-vs-VPU comparison.
	cpuResults, _ := run(repro.DeviceGroup{Kind: repro.CPUGroup, Batch: 8})
	vpuResults, sess := run(repro.DeviceGroup{Kind: repro.VPUGroup, Devices: 1})
	ds := sess.Dataset()

	var wrong32, wrong16, wrongStrict, agree int
	var confDiff, maxDiff float64
	var filtered int

	// The FP16-accumulate ablation reuses the session's compiled blob:
	// the graph-file round trip is exactly what the NCS does to the
	// weights (FP32 -> binary16 -> FP32-exact halves).
	net16, err := repro.ParseGraph(sess.Blob())
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < images; i++ {
		r32, r16 := cpuResults[i], vpuResults[i]
		label := ds.Label(i)
		if r32.Pred != label {
			wrong32++
		}
		if r16.Pred != label {
			wrong16++
		}
		if r32.Pred == r16.Pred {
			agree++
		}
		if r32.Pred == label && r16.Pred == label {
			d := math.Abs(float64(r32.Confidence) - float64(r16.Confidence))
			confDiff += d
			if d > maxDiff {
				maxDiff = d
			}
			filtered++
		}

		in := ds.Preprocessed(i).Reshape(1, 3, 32, 32)
		outS, err := net16.Forward(in, repro.FP16Strict)
		if err != nil {
			log.Fatal(err)
		}
		if pS, _ := outS.ArgMax(); pS != label {
			wrongStrict++
		}
	}

	pct := func(n int) float64 { return float64(n) / float64(images) * 100 }
	fmt.Printf("FP32 vs FP16 on %d synthetic validation images (paper Fig. 7):\n\n", images)
	fmt.Printf("top-1 error FP32 (CPU path):        %.2f%%\n", pct(wrong32))
	fmt.Printf("top-1 error FP16 (VPU path):        %.2f%%   (paper: 0.09%% apart)\n", pct(wrong16))
	fmt.Printf("top-1 error FP16-accumulate:        %.2f%%   (ablation: native FP16 MAC)\n", pct(wrongStrict))
	fmt.Printf("prediction agreement FP32 vs FP16:  %.2f%%\n", pct(agree))
	fmt.Printf("mean |confidence diff| (filtered):  %.2e  (paper: 4.4e-3)\n", confDiff/float64(filtered))
	fmt.Printf("max  |confidence diff| (filtered):  %.2e\n", maxDiff)
	fmt.Printf("\nthe FP16 weights in the graph file are exactly representable halves;\n")
	fmt.Printf("all divergence above is genuine binary16 rounding, not injected noise\n")
}

// run executes one functional session over the shared image range and
// returns its results indexed by image.
func run(group repro.DeviceGroup) (map[int]repro.Result, *repro.Session) {
	sess, err := repro.NewSession(repro.SessionConfig{
		Groups:     []repro.DeviceGroup{group},
		Images:     images,
		Functional: true,
		Retain:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	byIndex := make(map[int]repro.Result, len(report.Results))
	for _, r := range report.Results {
		byIndex[r.Index] = r
	}
	return byIndex, sess
}
