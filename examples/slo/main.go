// SLO-aware serving: the same heterogeneous session run with and
// without its serving defenses, below and past the saturation knee.
//
// PR 2's serving example showed that past the knee an open-loop queue
// grows without bound and tail latency diverges. This walkthrough
// shows the two levers that manage it: adaptive batching
// (AdaptiveBatch with a BatchMaxWait), where the CPU group's batch size tracks the
// backlog so under light load it stops paying full-batch assembly
// latency; and bounded admission (AdmissionDepth with an SLO), where a
// bounded ingress sheds what the devices cannot serve in time, so the
// requests that are served still meet the SLO — goodput degrades to
// the capacity ratio instead of collapsing toward zero.
//
//	go run ./examples/slo
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

// slo is the per-request deadline: arrival to completion.
const slo = 400 * time.Millisecond

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
	// 40/s sits below the knee, 110/s far past it.
	for _, rate := range []float64{40, 110} {
		for _, defended := range []bool{false, true} {
			cfg := repro.SessionConfig{
				Images: images,
				Groups: []repro.DeviceGroup{
					{Kind: repro.CPUGroup, Batch: 8},
					{Kind: repro.VPUGroup, Devices: 4},
				},
				Net:      net,
				Blob:     blob,
				Arrivals: repro.DelayedArrivals(repro.PoissonArrivals(rate), warmup),
				Routing:  repro.RouteLatency,
				SLO:      slo,
			}
			label := "baseline (fixed batch, unbounded ingress)"
			if defended {
				label = "slo-aware (adaptive batch, bounded ingress)"
				cfg.AdaptiveBatch = true
				cfg.BatchMaxWait = slo / 8
				cfg.AdmissionDepth = 16
				cfg.AdmissionPolicy = repro.ShedNewest
			}
			sess, err := repro.NewSession(cfg)
			if err != nil {
				log.Fatal(err)
			}
			report, err := sess.Run()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("── %.0f img/s offered, %s ──\n%s\n", rate, label, report)
		}
	}
	fmt.Println("below the knee, adaptive batching removes full-batch assembly latency;")
	fmt.Println("past it, bounded admission sheds the overload so served requests still")
	fmt.Println("meet the SLO — goodput holds near capacity/offered instead of collapsing")
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
