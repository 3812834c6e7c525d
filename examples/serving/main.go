// Serving: the session as an inference service under open-loop
// traffic — Poisson arrivals offered to a heterogeneous CPU + 4-VPU
// group with latency-aware routing, the serving-mode counterpart of
// the paper's drain-the-dataset throughput runs. The report's latency
// block shows what throughput numbers hide: per-group p50/p95/p99,
// and how much of each item's latency was queueing vs device time.
// Arrivals are delayed past the sticks' firmware boot so the numbers
// are steady-state serving, not start-up backlog.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"repro"
)

const defaultImages = 400

// warmup skips the VPU firmware boot (~1.7 s simulated) so offered
// load meets a ready service.
const warmup = 2 * time.Second

func main() {
	log.SetFlags(0)
	images := imagesFromEnv(defaultImages)

	// One network and one compiled blob, shared by every session.
	net := repro.NewGoogLeNet(repro.Seed(42))
	blob, err := repro.CompileGraph(net)
	if err != nil {
		log.Fatal(err)
	}

	// ~83 img/s combined capacity (CPU batch-8 ≈ 44, 4 VPUs ≈ 39):
	// 40/s is comfortable, 90/s is past the knee.
	for _, rate := range []float64{40, 90} {
		sess, err := repro.NewSession(repro.SessionConfig{
			Images: images,
			Groups: []repro.DeviceGroup{
				{Kind: repro.CPUGroup, Batch: 8},
				{Kind: repro.VPUGroup, Devices: 4},
			},
			Net:      net,
			Blob:     blob,
			Arrivals: repro.DelayedArrivals(repro.PoissonArrivals(rate), warmup),
			Routing:  repro.RouteLatency,
		})
		if err != nil {
			log.Fatal(err)
		}
		report, err := sess.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("── offered load %.0f img/s (Poisson) over %d requests ──\n%s\n",
			rate, images, report)
	}
	fmt.Println("routing is latency-ewma: each request goes to the group expected")
	fmt.Println("to finish it soonest (EWMA service time x queued items)")
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
