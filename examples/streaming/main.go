// Streaming: §III's heterogeneous device groups — an MPI-style stream
// source produced by a simulated rank fans out to two device groups
// running concurrently in the same session: a CPU batch engine and a
// 2-stick VPU group. Work-stealing routing means whichever group is
// free takes the next frame — "different sources can be easily
// connected to the same or multiple targets."
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"repro"
)

const frameInterval = 25 * time.Millisecond

var streamed = imagesFromEnv(240)

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

	capacity := 16
	sess, err := repro.NewSession(repro.SessionConfig{
		Groups: []repro.DeviceGroup{
			{Kind: repro.CPUGroup, Batch: 4},
			{Kind: repro.VPUGroup, Devices: 2},
		},
		Functional:     true,
		StreamCapacity: &capacity,
		Routing:        repro.WorkStealing,
		Seed:           3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The producing "MPI rank": one preprocessed frame every 25 ms of
	// simulated time into the session's bounded stream. The stream
	// outlives the VPU group's setup (two firmware boots, ~1.7 s), so
	// both groups compete for frames once the sticks come online.
	ds := sess.Dataset()
	stream := sess.Stream()
	sess.Env().Process("mpi-rank0", func(p *repro.Proc) {
		for i := 0; i < streamed; i++ {
			p.Sleep(frameInterval)
			stream.Push(p, repro.Item{Index: i, Image: ds.Preprocessed(i), Label: ds.Label(i)})
		}
		stream.Close(p)
	})

	report, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %d frames at %v intervals into two device groups:\n\n", streamed, frameInterval)
	fmt.Printf("%-14s %-8s %-11s %-10s\n", "group", "frames", "top-1 err", "mean conf")
	for _, tr := range report.Targets {
		fmt.Printf("%-14s %-8d %-11s %-10.3f\n", tr.Name, tr.Images,
			fmt.Sprintf("%.2f%%", tr.TopOneError*100), tr.MeanConfidence)
	}
	fmt.Printf("\ntotal frames processed: %d (every frame exactly once)\n", report.Images)
	fmt.Printf("simulated wall time: %v\n", report.SimTime)
}
