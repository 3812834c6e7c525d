// Split inference: the GoogLeNet workload partitioned at a layer
// boundary across heterogeneous devices — a 4-stick VPU head runs the
// early layers, a batch GPU tail runs the rest, and intermediate
// activations stream between them under a bounded in-flight window
// with backpressure end to end.
//
// Dealing whole inferences across a mixed fleet (a Pool) leaves every
// device paying the full network; a pipeline instead gives each
// device the segment it is relatively best at, so the fleet's
// throughput approaches min(head rate, tail rate) over smaller
// per-device workloads. The example runs the best measured partition
// (after pool2/3x3_s2) against the whole-inference GPU baseline and
// the dealt pool at the same fleet, then shows two degenerate cuts
// (0 and the layer count) collapsing back to the classic
// single-group sessions bit for bit.
//
//	go run ./examples/split
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"repro"
)

const defaultImages = 400

// headWindow is the boundary in-flight bound between head and tail:
// two GPU batches, so one batch assembles while the previous one
// executes (a window under the tail's batch size would serialize
// assembly against the head).
const headWindow = 64

// gpuBatch is the tail's batch size, the GPU's throughput sweet spot.
const gpuBatch = 32

func main() {
	log.SetFlags(0)
	images := imagesFromEnv(defaultImages)

	net := repro.NewGoogLeNet(repro.Seed(42))
	cuts := net.ValidCuts()
	// The best measured partition point at quick scale sits after the
	// pool2/3x3_s2 stem (see the -split bench experiment); fall back
	// to the middle cut if the layer list ever changes.
	cut := cuts[len(cuts)/2]
	for _, c := range cuts {
		if names := net.LayerNames(); names[c-1] == "pool2/3x3_s2" {
			cut = c
		}
	}

	run := func(label string, cfg repro.SessionConfig) *repro.Report {
		cfg.Images = images
		sess, err := repro.NewSession(cfg)
		if err != nil {
			log.Fatal(err)
		}
		report, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── %s ──\n%s\n", label, report)
		return report
	}

	head := repro.VPUStage(4)
	head.Queue = headWindow

	gpu := repro.DeviceGroup{Kind: repro.GPUGroup, Batch: gpuBatch}
	vpus := repro.DeviceGroup{Kind: repro.VPUGroup, Devices: 4}
	run("whole inference on the GPU (best single device)",
		repro.SessionConfig{Groups: []repro.DeviceGroup{gpu}})
	run("whole inferences dealt across 4 VPUs + GPU (pool)",
		repro.SessionConfig{Groups: []repro.DeviceGroup{vpus, gpu}})
	run(fmt.Sprintf("split inference: 4-VPU head + GPU tail, cut@%d", cut),
		repro.SessionConfig{Stages: []repro.StageConfig{head, repro.GPUStage(gpuBatch)}, Cuts: []int{cut}})

	// Degenerate cuts collapse before any device is built: cut at the
	// layer count leaves the tail empty (a plain 4-stick session), cut
	// at 0 leaves the head empty (a plain GPU session).
	whole := run("degenerate cut at the layer count (pure 4-VPU session)",
		repro.SessionConfig{Stages: []repro.StageConfig{head, repro.GPUStage(gpuBatch)}, Cuts: []int{net.Len()}})
	classic := run("classic 4-VPU session (must match the degenerate cut exactly)",
		repro.SessionConfig{Groups: []repro.DeviceGroup{vpus}})
	if whole.String() != classic.String() {
		log.Fatal("degenerate cut diverged from the classic session")
	}
	fmt.Println("the degenerate-cut report matches the classic session byte for byte:")
	fmt.Println("splitting is free until a cut actually moves layers between devices")
}

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
